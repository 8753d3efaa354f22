"""Shared corpus and independent oracles for the test suite.

The d^2 and homology oracles deliberately avoid the library's linear
algebra: the differential-squared checks count two-step paths straight off
the entry list, and the homology dimensions come from exhaustive subset
enumeration.  filtration_value is the weight in Fraction arithmetic, apart
from the engine's integer keys; the oracles below weigh with it.
naive_tensor builds the tensor product entry by entry from the Leibniz
rule.  The two nu oracles share only grading_slice and the GF(2)
primitives with the engine's filtered reduction (nu_at): they build the
slice's boundary matrices point by point off the differential list, then
one grows the subcomplex below each weight level and the other
enumerates every essential cycle.  sampled_realizers samples nu_at beside
a breakpoint, apart from upsilon's sweep.  torus_upsilon is a closed form
that needs no complex at all, so it reaches slices far past brute force;
torus_envelope builds the same function whole, as the upper envelope of
the formula's lines, in O(g) steps, so it reaches the benchmark's sizes;
staircase_upsilon applies the same semigroup formula to the S read off any
palindromic staircase's steps.
check_segment_certificate proves one segment of upsilon from the cycle and
cocycle the sweep kept, using only the boundary routines here and
integer weights, so it reaches any slice size too; swept_segments reads
those witnesses, kept as slice positions, as lattice points.
product_witnesses and dual_witnesses carry those witnesses through
tensor and dual without running the engine on the result, and
witnessed_upsilon reads the function they prove.  vertical_tau computes
tau from its definition on the vertical complex, apart from upsilon, which the library
reads tau off.  torus_alexander, cable_alexander and top_degree are the
Alexander-polynomial algebra the torus staircases and the cable genera are
checked against.  pl_pointwise is piecewise-linear arithmetic by
evaluation: both functions at every breakpoint of either, combined, then
through the validating constructor; the library's one-merge arithmetic is
checked against it.  check_symmetry tests f(t) = f(2 - t) by evaluation.
mismatch_detail finds where two functions first differ by building their
difference and evaluating both functions there; obstruct_concordance's
walk, which builds no difference, is checked against it.  check_flip
checks that a permutation of the generators is a flip symmetry, entry by
entry off the differential list.  reference_violations is validate rebuilt from the
views: the per-entry checks one entry at a time with a set of entries,
d_squared_lines, and the homology dimension by rank-nullity.
lower_hull finds the vertices of a point set's lower convex hull by
testing each point against every segment across it, apart from the
sweep's monotone chain, which is checked against it.
reference_scan is the engine's filtered scan as it was before the sweep
keyed it by one int per point: it sorts on whatever keys it is given,
such as (weight, j - i) pairs, and reads the cocycle's support back off
its mask; the sweep's scans are checked against it.
sum_tower_chains builds the sum-tower benchmark workload's 20 chains.
scrambled makes a complex filtered-isomorphic to its input plus an
acyclic piece, by random filtered changes of basis and cancelling pairs,
so every invariant must stay while the slice, its boundaries and the
class's cycle all move.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import log2

import knotupsilon as ku
from knotupsilon.complexes import require_admissible
from knotupsilon.gf2 import BitEchelon, bits, kernel_basis


@lru_cache(maxsize=1)
def corpus():
    """Named knot models; every entry is a genuine knot complex, so the
    symmetry and mirror properties are expected to hold on all of them."""
    trefoil = ku.torus_knot_complex(2, 3)
    fig8 = ku.figure_eight_complex()
    return (
        ("unknot", ku.unknot_complex()),
        ("trefoil", trefoil),
        ("trefoil-left", ku.torus_knot_complex(2, -3)),
        ("figure8", fig8),
        ("figure8-mirror", ku.dual(fig8)),
        ("T(2,5)", ku.torus_knot_complex(2, 5)),
        ("T(2,-5)", ku.torus_knot_complex(2, -5)),
        ("T(2,7)", ku.torus_knot_complex(2, 7)),
        ("T(3,4)", ku.torus_knot_complex(3, 4)),
        ("T(3,7)", ku.torus_knot_complex(3, 7)),
        ("trefoil#trefoil", ku.tensor(trefoil, trefoil)),
        ("trefoil#figure8", ku.tensor(trefoil, fig8)),
        ("trefoil#trefoil#-figure8",
         ku.tensor(ku.tensor(trefoil, trefoil), ku.dual(fig8))),
        # a tie parameter at the midpoint of the upsilon segment [2/3, 4/3]
        ("T(3,5)#T(2,-3)", ku.tensor(ku.torus_knot_complex(3, 5),
                                     ku.torus_knot_complex(2, -3))),
    )


def filtration_value(t, point):
    """The weight (1 - t/2) i + (t/2) j of a lattice point, exactly."""
    t = Fraction(t)
    if not 0 <= t <= 2:
        raise ValueError("parameter %s outside [0, 2]" % t)
    return (1 - t / 2) * point.i + (t / 2) * point.j


def nu_at_halfplane(c, t):
    """nu via the subcomplex formulation.

    Grow the subcomplex spanned by lattice points of weight at most s and
    return the least s at which its inclusion already carries a cycle
    hitting the nonzero class of the ambient grading.  Computed from
    scratch per level, independently of nu_at.
    """
    require_admissible(c)
    pts = ku.grading_slice(c, c.ambient_d)
    keys = [filtration_value(t, p) for p in pts]
    cols, upper = _slice_matrices(c)
    full_boundaries = BitEchelon(upper)
    for level in sorted(set(keys)):
        inside = [k for k in range(len(pts)) if keys[k] <= level]
        for combo in kernel_basis([cols[k] for k in inside]):
            full = 0
            for b in bits(combo):
                full |= 1 << inside[b]
            if full_boundaries.reduce(full):
                return level
    raise ku.NonAdmissibleError("no essential cycle in the distinguished "
                                "grading")


def reference_scan(z, boundaries, keys):
    """(top, r, phi) of the cycle z reduced against the boundaries in key
    order, as the engine's _filtered_scan gives them: z and the boundaries
    are supports, lists of positions, keys[k] the sort key of position k,
    ties by position; phi is read off its mask."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    newpos = [0] * len(keys)
    for new, old in enumerate(order):
        newpos[old] = new
    b_ech = BitEchelon()
    for support in boundaries:
        v = 0
        for b in support:
            v |= 1 << newpos[b]
        b_ech.add(v)
    r = b_ech.reduce(sum([1 << newpos[b] for b in z]))
    top = r.bit_length() - 1
    phi, pivots = 1 << top, b_ech.pivots
    for q in sorted(pivots):
        if q > top and (pivots[q] & phi).bit_count() & 1:
            phi |= 1 << q
    return (order[top], [order[k] for k in bits(r)],
            [order[k] for k in bits(phi)])


def vertical_tau(c):
    """tau from the vertical complex: the generators in Maslov grading 0
    with the U-power-0 arrows, filtered by Alexander grading.  Returns the
    least level s at which the generators of Alexander grading at most s
    span a cycle that is not a boundary.  Computed from scratch per level,
    straight off the differential list, independently of upsilon."""
    if c.ambient_d != 0:
        raise ValueError("tau needs ambient grading 0")
    vertical = {}
    for e in c.differential:
        if e.upower == 0:
            vertical.setdefault(e.source, []).append(e.target)

    def positions(maslov):
        return {g.name: k for k, g in enumerate(
            g for g in c.generators if g.maslov == maslov)}

    def image(name, targets):
        v = 0
        for tgt in vertical.get(name, ()):
            v ^= 1 << targets[tgt]
        return v

    zero = [g for g in c.generators if g.maslov == 0]
    at0, below = positions(0), positions(-1)
    cols = [image(g.name, below) for g in zero]
    bound = BitEchelon(image(name, at0) for name in positions(1))
    if len(list(kernel_basis(cols))) - bound.rank != 1:
        raise ku.NonAdmissibleError("vertical homology is not "
                                    "one-dimensional in grading 0")
    for level in sorted({g.alexander for g in zero}):
        inside = [k for k, g in enumerate(zero) if g.alexander <= level]
        for combo in kernel_basis([cols[k] for k in inside]):
            full = 0
            for b in bits(combo):
                full |= 1 << inside[b]
            if bound.reduce(full):
                return level


def poly_mul(a, b):
    """Product of two Laurent polynomials given as {exponent: coefficient}."""
    out = Counter()
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] += c1 * c2
    return {e: c for e, c in out.items() if c}


def _centered(poly):
    shift = (max(poly) + min(poly)) // 2
    return {e - shift: c for e, c in poly.items()}


def torus_alexander(p, q):
    """Alexander polynomial of T(p, q) as {exponent: coefficient}, centered:
    (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) by exact long division, which
    raises ValueError when p and q are not coprime.  T(p, -q) has the same
    polynomial."""
    q = abs(q)
    rem = poly_mul({p * q: 1, 0: -1}, {1: 1, 0: -1})
    den = poly_mul({p: 1, 0: -1}, {q: 1, 0: -1})  # monic
    top, quot = max(den), {}
    while rem:
        e = max(rem)
        if e < top:
            raise ValueError("division is not exact")
        c = rem[e]
        quot[e - top] = c
        for d, dc in den.items():
            rem[e - top + d] = rem.get(e - top + d, 0) - c * dc
        rem = {k: v for k, v in rem.items() if v}
    return _centered(quot)


def cable_alexander(delta, p, q):
    """Alexander polynomial of the (p, q)-cable of a knot with polynomial
    delta: delta(t^p) times that of T(p, q), centered."""
    companion = {e * p: c for e, c in delta.items()}
    return _centered(poly_mul(companion, torus_alexander(p, q)))


def top_degree(delta):
    """Top degree of a centered Alexander polynomial: the genus of a
    fibered knot."""
    return max(delta)


@lru_cache(maxsize=128)
def _essential_cycles(c):
    """Every cycle mask on the ambient-grading slice that is not a boundary.

    Exhaustive enumeration; memoised per complex since it only depends on
    the slice, not on the parameter.
    """
    cols, upper = _slice_matrices(c)
    bound = BitEchelon(upper)
    survivors = []
    for mask in range(1, 1 << len(cols)):
        img = 0
        for b in bits(mask):
            img ^= cols[b]
        if img == 0 and bound.reduce(mask):
            survivors.append(mask)
    return tuple(survivors)


def brute_force_nu(c, t):
    """Oracle for nu: minimize the maximal weight over every essential cycle.

    Only available when the ambient-grading slice has at most 20 points.
    """
    require_admissible(c)
    pts = ku.grading_slice(c, c.ambient_d)
    if len(pts) > 20:
        raise ValueError("slice too large for brute force (%d points)"
                         % len(pts))
    keys = [filtration_value(t, p) for p in pts]
    return min(max(keys[b] for b in bits(mask))
               for mask in _essential_cycles(c))


def sampled_realizers(c, t0):
    """Realizing (i, j) sets at t0 -+ 1/(2 span**2), span the spread of
    j - i: ties 2m/da with |da| <= span are at least 2/span**2 apart."""
    diagonals = [p.j - p.i for p in ku.grading_slice(c, c.ambient_d)]
    span = max(max(diagonals) - min(diagonals), 1)
    delta = Fraction(1, 2 * span * span)
    return [{(p.i, p.j) for p in ku.nu_at(c, t).realizing_points}
            for t in (t0 - delta, t0 + delta)]


def _semigroup_upsilon(member, t):
    """Upsilon at t of the L-space knot whose semigroup S has these
    membership flags over [0, 2g) (Ozsvath-Stipsicz-Szabo 2017): the
    maximum over m in 0..2g of -2 #(S n [0, m)) - t (g - m)."""
    g = len(member) // 2
    values, below = [], 0
    for m in range(2 * g + 1):
        values.append(-2 * below - t * (g - m))
        below += m < 2 * g and member[m]
    return max(values)


def torus_upsilon(p, q, t):
    """Upsilon of T(p, q) at t from the semigroup S generated by |p| and
    |q|, with g the genus.  T(p, -q) is the mirror."""
    a, b = abs(p), abs(q)
    g = (a - 1) * (b - 1) // 2
    v = _semigroup_upsilon(
        [any((m - k * b) % a == 0 for k in range(m // b + 1))
         for m in range(2 * g)], t)
    return v if q > 0 else -v


def torus_semigroup(p, q):
    """The membership flags over [0, 2g) of the semigroup S generated by
    |p| and |q|, g the genus of T(p, q): m is in S if it is 0 or m - |p|
    or m - |q| is, one step per flag."""
    a, b = abs(p), abs(q)
    member = [True] + [False] * ((a - 1) * (b - 1) - 1)
    for m in range(1, len(member)):
        member[m] = m >= a and member[m - a] or m >= b and member[m - b]
    return member


def semigroup_envelope(member):
    """The function _semigroup_upsilon(member, t) on [0, 2], built whole:
    the upper envelope of its 2g + 1 lines L_m(t) = -2 #(S n [0, m)) -
    t (g - m).  Their slopes m - g grow with m, so one monotone-chain pass
    keeps the lines the envelope touches at more than a point, in O(g)
    integer steps; a Fraction is made only where two kept lines meet.
    _semigroup_upsilon, the pointwise maximum, is its small-size check."""
    g, kept, below = len(member) // 2, [], 0  # kept: (slope, value at 0)
    for m in range(2 * g + 1):
        k, c = m - g, -2 * below
        while len(kept) > 1:
            (k0, c0), (k1, c1) = kept[-2:]
            # the last line is nowhere above both neighbours once the new
            # one meets the one before it no later than it does
            if (c0 - c) * (k1 - k0) > (c0 - c1) * (k - k0):
                break
            kept.pop()
        kept.append((k, c))
        below += m < 2 * g and member[m]
    meets = [Fraction(c0 - c1, k1 - k0)
             for (k0, c0), (k1, c1) in zip(kept, kept[1:])]
    ts = [Fraction(0)] + [t for t in meets if 0 < t < 2] + [Fraction(2)]
    lines = [kept[bisect_left(meets, t)] for t in ts]  # each is max at t
    return ku.PLFunction(ts, [c + k * t for t, (k, c) in zip(ts, lines)])


def torus_envelope(p, q):
    """Upsilon of T(p, q) as a PLFunction, the semigroup_envelope of
    torus_semigroup(p, q); T(p, -q) is the mirror."""
    f = semigroup_envelope(torus_semigroup(p, q))
    return f if q > 0 else -f


def staircase_upsilon(steps, t):
    """Upsilon at t of the staircase with these steps, by the semigroup
    formula torus_upsilon applies: S is read off the steps as runs of
    members and gaps alternating from the member 0 over [0, 2g).  The
    steps of an L-space knot's staircase are a palindrome, whose steps
    sum to 2g."""
    member = []
    for k, s in enumerate(steps):
        member += [k % 2 == 0] * s
    return _semigroup_upsilon(member, t)


def lower_hull(points):
    """The vertices of the lower convex hull of points, (j - i, i,
    position) triples, in order of j - i, each at its coordinate's least
    position, by brute force: a coordinate is a vertex when its i is the
    least at its j - i and it lies strictly below every segment joining
    two such coordinates on either side of it."""
    least = {}
    for d, i, x in points:
        least[d] = min(least.get(d, (d, i, x)), (d, i, x))
    firsts = sorted(least.values())
    return [(d, i, x) for d, i, x in firsts
            if all(i * (d1 - d0) < i0 * (d1 - d) + i1 * (d - d0)
                   for d0, i0, _ in firsts if d0 < d
                   for d1, i1, _ in firsts if d1 > d)]


def pl_pointwise(f, g, op):
    """The function t -> op(f(t), g(t)), evaluated at the union of the
    breakpoints and rebuilt through the validating PLFunction constructor."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    return ku.PLFunction(bps, [op(f(t), g(t)) for t in bps])


def check_symmetry(f):
    """Whether f(t) = f(2 - t), by evaluation at every breakpoint and its
    reflection; both sides are linear between those points."""
    ts = set(f.breakpoints) | {2 - b for b in f.breakpoints}
    return all(f(t) == f(2 - t) for t in ts)


def slice_cable_record(p):
    """The (p, 1)-cable of the fibered slice knot 8_20.

    Slice, hence upsilon vanishes identically; the monodromy is
    nevertheless right-veering (positive fractional Dehn twist), which is
    the standard example showing a vanishing-slope upsilon certifies
    nothing in the other direction.
    """
    if p < 2:
        raise ValueError("cabling parameter p must be >= 2")
    return ku.KnotRecord(name="8_20-cable(%d,1)" % p, genus=2 * p,
                         fibered=True, monodromy_right_veering=True,
                         upsilon_override=ku.PLFunction.zero())


def mismatch_detail(f0, f1):
    """The upsilon_mismatch detail by subtraction: the first breakpoint of
    the canonical f0 - f1 at which it is nonzero, and both functions
    evaluated there; None when the functions are equal."""
    diff = f0 - f1
    t = next((b for b, v in zip(diff.breakpoints, diff.values) if v != 0),
             None)
    if t is None:
        return None
    return "upsilon functions differ at t=%s: %s vs %s" % tuple(
        map(ku.format_rational, (t, f0(t), f1(t))))


def brute_d_squared_even(c):
    """Count two-step paths per (source, target, total U-power) directly."""
    counts = Counter()
    for e1 in c.differential:
        for e2 in c.differential:
            if e2.source == e1.target:
                counts[(e1.source, e2.target, e1.upower + e2.upower)] += 1
    return all(n % 2 == 0 for n in counts.values())


def d_squared_lines(c):
    """The d^2 lines validate must report on c when nothing else is wrong:
    one per (source, target, total U-power) with an odd two-step path
    count, in the order the paths are first met taking sources in
    generator order and entries in list order."""
    by_source = {}
    for e in c.differential:
        by_source.setdefault(e.source, []).append(e)
    counts = Counter()
    for x in c.generators:
        for e1 in by_source.get(x.name, ()):
            for e2 in by_source.get(e1.target, ()):
                counts[(x.name, e2.target, e1.upower + e2.upower)] += 1
    return ["d^2 != 0: odd number of two-step paths %s -> %s with total "
            "U-power %d" % key for key, n in counts.items() if n % 2]


def reference_violations(c):
    """What validate must report on c, rebuilt from the views: repeated
    names, then each entry's faults in list order, repeats tracked with a
    set of entries; if there are none, d_squared_lines(c); if there are
    still none, the refusal of a homology dimension other than 1 in grading
    ambient_d, by rank-nullity over columns read off the entry list."""
    v, seen, gen = [], set(), {}
    for g in c.generators:
        if g.name in gen:
            v.append("duplicate generator name %r" % g.name)
        gen[g.name] = g
    for e in c.differential:
        s, t, k = e
        if s not in gen or t not in gen:
            v.append("entry (%s -> %s) references unknown generator %r"
                     % (s, t, t if s in gen else s))
            continue
        if k < 0:
            v.append("entry (%s -> %s) has negative U-power %d" % e)
        if e in seen or seen.add(e):
            v.append("duplicate differential entry (%s -> %s, U^%d)" % e)
        expected = gen[s].maslov - 1 + 2 * k
        if gen[t].maslov != expected:
            v.append("Maslov constraint violated by (%s -> %s, U^%d): "
                     "M(%s)=%d, expected %d"
                     % (s, t, k, t, gen[t].maslov, expected))
        if gen[s].alexander - gen[t].alexander + k < 0:
            v.append("Alexander constraint violated by (%s -> %s, U^%d): "
                     "arrow points up or right" % e)
    v = v or d_squared_lines(c)
    if not v:
        # each generator has one point per slice of its parity, so the
        # slice map out of parity p has a column per parity-p generator
        index, sizes = {}, [0, 0]
        for g in c.generators:
            index[g.name] = sizes[g.maslov % 2]
            sizes[g.maslov % 2] += 1
        cols = [[0] * sizes[0], [0] * sizes[1]]
        for s, t, k in c.differential:
            cols[gen[s].maslov % 2][index[s]] ^= 1 << index[t]
        p = c.ambient_d % 2
        dim = (sizes[p] - BitEchelon(cols[p]).rank
               - BitEchelon(cols[1 - p]).rank)
        if dim != 1:
            v.append("non-admissible: homology has dimension %d != 1 in "
                     "grading %d" % (dim, c.ambient_d))
    return tuple(v)


def naive_tensor(c1, c2):
    """Tensor product straight from the Leibniz rule: generators "a*b" in
    lexicographic order of positions, each followed by its entries d(a)*b
    then a*d(b), in entry-list order."""
    gens, diff = [], []
    for a in c1.generators:
        for b in c2.generators:
            src = "%s*%s" % (a.name, b.name)
            gens.append(ku.Generator(src, a.alexander + b.alexander,
                                     a.maslov + b.maslov))
            diff += [ku.DiffEntry(src, "%s*%s" % (e.target, b.name), e.upower)
                     for e in c1.differential if e.source == a.name]
            diff += [ku.DiffEntry(src, "%s*%s" % (a.name, e.target), e.upower)
                     for e in c2.differential if e.source == b.name]
    label = "%s # %s" % (c1.label, c2.label) if c1.label and c2.label else None
    return ku.BifilteredComplex(gens, diff, c1.ambient_d + c2.ambient_d, label)


@lru_cache(maxsize=128)
def _entries_from(c):
    """The differential list grouped by source name: (target, upower)
    pairs, repeats kept."""
    out = {}
    for e in c.differential:
        out.setdefault(e.source, []).append((e.target, e.upower))
    return out


def _point_boundary(c, point):
    """Boundary of one lattice point as a frozenset of (name, i) pairs,
    computed straight off the differential list."""
    terms = Counter((t, point[1] - k) for t, k in _entries_from(c).get(
        point[0], ()))
    return frozenset(k for k, n in terms.items() if n % 2 == 1)


def _chain_boundary_set(c, points):
    acc = set()
    for p in points:
        acc ^= _point_boundary(c, p)
    return frozenset(acc)


def chain_boundary(c, points):
    """Boundary of an F2 chain of lattice points, as a sorted point list."""
    return sorted(ku.LatticePoint(name, i, c.generator(name).alexander + i)
                  for name, i in _chain_boundary_set(c, points))


@lru_cache(maxsize=128)
def _upper_boundaries(c):
    """Boundaries of the points one grading above the ambient slice."""
    return [_point_boundary(c, (x.generator, x.i))
            for x in ku.grading_slice(c, c.ambient_d + 1)]


def _slice_matrices(c):
    """The ambient slice's matrices, built point by point off the
    differential list: the boundary of each slice point as a mask over the
    slice one grading down, and the boundaries landing in the slice as
    masks over its points."""
    d = c.ambient_d

    def masks(boundaries, grading):
        pos = {(q.generator, q.i): k
               for k, q in enumerate(ku.grading_slice(c, grading))}
        return [sum(1 << pos[x] for x in b) for b in boundaries]

    down = [_point_boundary(c, (x.generator, x.i))
            for x in ku.grading_slice(c, d)]
    return masks(down, d - 1), masks(_upper_boundaries(c), d)


def check_segment_certificate(c, ends, p, cycle, cocycle):
    """Whether cycle and cocycle prove nu(t) = w_t(p) for t in ends = (t0, t1).

    Read straight off the differential list: cycle has no boundary,
    cocycle meets the boundary of every point one grading up an even
    number of times and meets cycle an odd number of times, and at t0 and
    t1 the top of cycle and the bottom of cocycle both weigh w_t(p).  The
    class in the ambient grading is the one nonzero class, so cycle
    represents it and every cycle representing it meets cocycle; weights
    are linear in t, so both bounds hold between the ends too.
    """
    r = {(q.generator, q.i) for q in cycle}
    phi = {(q.generator, q.i) for q in cocycle}
    if (not r or not phi or _chain_boundary_set(c, r)
            or any(len(b & phi) % 2 for b in _upper_boundaries(c))
            or len(r & phi) % 2 == 0):
        return False
    for t in map(Fraction, ends):
        # 2b times the weight at t = a/b, an integer
        a, b = t.numerator, t.denominator
        u = 2 * b - a
        level = u * p.i + a * p.j
        if (max(u * q.i + a * q.j for q in cycle) != level
                or min(u * q.i + a * q.j for q in cocycle) != level):
            return False
    return True


def swept_segments(c):
    """Each segment of upsilon(c)'s sweep as (ends, realizer, cycle,
    cocycle): the kept witness's slice positions read as LatticePoints
    off require_admissible(c)'s names and coordinates."""
    ku.upsilon(c)
    s, sweep = require_admissible(c), c._sweep
    pts = list(map(ku.LatticePoint, s.names, s.i, s.j))
    for k, (top, r, phi) in enumerate(sweep.witnesses):
        yield ((sweep.grid[k], sweep.grid[k + 1]), pts[top],
               tuple(pts[x] for x in r), tuple(pts[x] for x in phi))


def _times(p1, p2):
    """The point p1 (x) p2 of a tensor product: names join as tensor's do,
    coordinates add."""
    return ku.LatticePoint("%s*%s" % (p1.generator, p2.generator),
                           p1.i + p2.i, p1.j + p2.j)


def product_witnesses(c1, c2):
    """Witnesses for tensor(c1, c2), as swept_segments gives them, built
    from the factors' sweeps alone, one per segment of the merged grid.

    Weights add under p1 (x) p2.  r1 (x) r2 is a cycle of the class
    (Kunneth), and phi1 (x) phi2, extended by zero, vanishes on every
    boundary and meets it once, so the product of the realizers proves
    nu = nu1 + nu2 where both factors' witnesses hold."""
    s1, s2 = list(swept_segments(c1)), list(swept_segments(c2))
    grid = sorted({t for ends, _, _, _ in s1 + s2 for t in ends})
    k1 = k2 = 0
    for a, b in zip(grid, grid[1:]):
        while s1[k1][0][1] <= a:
            k1 += 1
        while s2[k2][0][1] <= a:
            k2 += 1
        (_, p1, r1, phi1), (_, p2, r2, phi2) = s1[k1], s2[k2]
        yield ((a, b), _times(p1, p2),
               tuple(_times(x, y) for x in r1 for y in r2),
               tuple(_times(x, y) for x in phi1 for y in phi2))


def dual_witnesses(c):
    """Witnesses for dual(c), as swept_segments gives them, from c's
    sweep: each point [x, i, j] becomes [x, -i, -j], so weights negate,
    and the cocycle and cycle swap roles."""
    def negated(points):
        return tuple(ku.LatticePoint(p.generator, -p.i, -p.j) for p in points)

    for ends, p, r, phi in swept_segments(c):
        yield ends, negated((p,))[0], negated(phi), negated(r)


def witnessed_upsilon(segments):
    """Upsilon = -2 nu read off witnesses: each realizer's weight at its
    segment's ends, through the validating constructor, which merges
    collinear segments."""
    bps, values = [], []
    for (a, b), p, _, _ in segments:
        bps.append(a)
        values.append(-2 * filtration_value(a, p))
    return ku.PLFunction(bps + [b], values + [-2 * filtration_value(b, p)])


def check_flip(c, pi):
    """Whether pi, a list of generator positions, is a flip symmetry of c,
    read off the generator and differential views: a permutation of the
    generators with A(pi x) = -A(x) and M(pi x) = M(x) - 2A(x) that takes
    the entries onto the entries, (s, t, k) to (pi s, pi t, A(s) - A(t) + k).
    """
    gens = c.generators
    if sorted(pi) != list(range(len(gens))):
        return False
    if any(gens[y].alexander != -g.alexander
           or gens[y].maslov != g.maslov - 2 * g.alexander
           for g, y in zip(gens, pi)):
        return False
    pos = {g.name: x for x, g in enumerate(gens)}
    entries = Counter((pos[e.source], pos[e.target], e.upower)
                      for e in c.differential)
    return entries == Counter(
        (pi[s], pi[t], gens[s].alexander - gens[t].alexander + k)
        for s, t, k in entries.elements())


def enumerated_homology_dim(c, d):
    """Homology dimension on the grading-d slice by exhaustive enumeration.

    Counts cycles and distinct boundaries among all subsets; dimensions are
    log2 of the counts.  Only for small complexes.
    """
    pts = [(p.generator, p.i) for p in ku.grading_slice(c, d)]
    above = [(p.generator, p.i) for p in ku.grading_slice(c, d + 1)]
    assert len(pts) <= 14 and len(above) <= 14, "complex too large for oracle"

    n_cycles = 0
    for mask in range(1 << len(pts)):
        subset = [pts[k] for k in range(len(pts)) if mask >> k & 1]
        if not _chain_boundary_set(c, subset):
            n_cycles += 1
    boundaries = set()
    for mask in range(1 << len(above)):
        subset = [above[k] for k in range(len(above)) if mask >> k & 1]
        boundaries.add(_chain_boundary_set(c, subset))
    dim_z = log2(n_cycles)
    dim_b = log2(len(boundaries))
    assert dim_z == int(dim_z) and dim_b == int(dim_b)
    return int(dim_z) - int(dim_b)


def positionally_equal(c1, c2, names=False):
    """Structural equality up to generator renaming: gradings per position
    and differential entries as position triples."""
    if len(c1.generators) != len(c2.generators):
        return False
    if names and [g.name for g in c1.generators] != [g.name for g in c2.generators]:
        return False
    g1 = [(g.alexander, g.maslov) for g in c1.generators]
    g2 = [(g.alexander, g.maslov) for g in c2.generators]
    if g1 != g2 or c1.ambient_d != c2.ambient_d:
        return False
    pos1 = {g.name: k for k, g in enumerate(c1.generators)}
    pos2 = {g.name: k for k, g in enumerate(c2.generators)}
    e1 = {(pos1[e.source], pos1[e.target], e.upower) for e in c1.differential}
    e2 = {(pos2[e.source], pos2[e.target], e.upower) for e in c2.differential}
    return e1 == e2


def renamed(c, names):
    """c with its generators renamed, position by position."""
    to = dict(zip([g.name for g in c.generators], names))
    return ku.BifilteredComplex(
        [g._replace(name=to[g.name]) for g in c.generators],
        [(to[s], to[t], k) for s, t, k in c.differential], c.ambient_d,
        c.label)


def random_staircase(rng, max_half_steps=2, max_len=3):
    """Random staircase with up to max_half_steps horizontal/vertical pairs."""
    n = 2 * rng.randint(1, max_half_steps)
    return ku.staircase([rng.randint(1, max_len) for _ in range(n)])


def random_admissible_complex(rng, tag):
    """Tensor of two random staircases, direct-summed with random boxes."""
    c = ku.tensor(random_staircase(rng), random_staircase(rng))
    for b in range(rng.randint(0, 2)):
        box = ku.box_complex(prefix="%s_box%d_" % (tag, b),
                             alexander=rng.randint(-2, 2),
                             maslov=rng.randint(-2, 2))
        c = ku.direct_sum(c, box)
    return c


# the sum-tower workload's chains as (summands, acyclic boxes): a pair
# (p, q) is T(p, q) and "F" the figure eight
F8 = "F"
SUM_TOWER = [
    ([(2, 3)] * 6, 0), ([F8] * 4, 0), ([(3, 4), (2, -3), F8, F8], 0),
    ([(2, 5), F8, F8, F8], 1), ([(3, 7), (3, -5), (2, 3)], 0),
    ([(3, 5), (2, -3)], 0), ([(2, 3)] * 5, 0), ([(2, 3), (2, 5), (2, 7)], 0),
    ([(4, 5), (2, -3), (2, 3)], 0), ([(3, -4), (2, 5), (2, 3)], 0),
    ([(2, 5), (2, -3), F8], 2), ([(3, 4), (3, 4)], 1), ([(3, 7), (3, -7)], 0),
    ([(2, -3)] * 4, 0), ([(3, 5), (3, 4)], 0), ([(2, 3), (2, 3), (2, -5)], 0),
    ([(2, 7), (2, -3), (2, -3)], 0), ([(4, 5), (3, -4)], 1),
    ([(3, 5), (2, -5), F8], 0), ([(4, 5), (2, -3), F8], 0),
]


def summand(token):
    if token == F8:
        return ku.figure_eight_complex()
    return ku.torus_knot_complex(*token)


def sum_tower_chains():
    """The sum-tower workload's 20 complexes: each chain with its boxes."""
    for tokens, boxes in SUM_TOWER:
        c = reduce(ku.tensor, map(summand, tokens))
        for k in range(boxes):
            c = ku.direct_sum(c, ku.box_complex("box%d." % k, k % 2, 0),
                              c.label)
        yield c


def scrambled(c, rng, changes, pairs):
    """c with pairs cancelling pairs u -> v summed on, then changes random
    filtered changes of basis x_k <- x_k + U^m x_l, through the public
    constructor.  u and v share an Alexander grading and the arrow has
    U-power 0, so the pair is filtered contractible; x_k and x_l share a
    Maslov parity, with M(x_l) = M(x_k) + 2m and m >= max(0, A(x_l) -
    A(x_k)), so U^m x_l sits at or below x_k in both filtrations.  The
    result is filtered homotopy equivalent to c: upsilon and tau stay
    while the slice, its boundaries and its class's cycle all change.
    The change B is its own inverse over F2[U], so the differential
    becomes B d B: x_k's targets gain x_l's, then x_l is toggled wherever
    x_k is a target.  Each entry's U-power follows from the Maslov rule,
    so d is kept as sets of target positions."""
    gens = list(c.generators)
    for k in range(pairs):
        g = rng.choice(gens)
        a, m = g.alexander + rng.randint(-1, 1), g.maslov + rng.randint(-1, 1)
        gens += [ku.Generator("u%d~" % k, a, m),
                 ku.Generator("v%d~" % k, a, m - 1)]
    pos = {g.name: x for x, g in enumerate(gens)}
    d = [set() for _ in gens]
    for e in c.differential:
        d[pos[e.source]].add(pos[e.target])
    for k in range(pairs):
        d[pos["u%d~" % k]].add(pos["v%d~" % k])
    alex, maslov = [g.alexander for g in gens], [g.maslov for g in gens]
    for _ in range(changes):
        k = rng.randrange(len(gens))
        ls = [l for l in range(len(gens)) if l != k
              and (maslov[l] - maslov[k]) % 2 == 0
              and maslov[l] - maslov[k] >= 2 * max(0, alex[l] - alex[k])]
        if ls:
            l = rng.choice(ls)
            d[k] ^= d[l]
            for targets in d:
                if k in targets:
                    targets ^= {l}
    entries = [(gens[s].name, gens[t].name, (maslov[t] - maslov[s] + 1) // 2)
               for s in range(len(gens)) for t in sorted(d[s])]
    return ku.BifilteredComplex(gens, entries, c.ambient_d, c.label)
