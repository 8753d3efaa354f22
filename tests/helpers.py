"""Shared corpus and independent oracles for the test suite.

The d^2 and homology oracles deliberately avoid the library's linear
algebra: the differential-squared check counts two-step paths straight off
the entry list, and the homology dimensions come from exhaustive subset
enumeration.  The two nu oracles share only the slice, its boundary
columns and the GF(2) primitives with the engine's filtered sweep (nu_at):
one grows the subcomplex below each weight level, the other enumerates
every essential cycle.
"""

from collections import Counter
from functools import lru_cache
from math import log2

import knotupsilon as ku
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


def nu_at_halfplane(c, t):
    """nu via the subcomplex formulation.

    Grow the subcomplex spanned by lattice points of weight at most s and
    return the least s at which its inclusion already carries a cycle
    hitting the nonzero class of the ambient grading.  Computed from
    scratch per level, independently of nu_at.
    """
    ku.require_admissible(c)
    pts = ku.grading_slice(c, c.ambient_d)
    keys = [ku.filtration_value(t, p) for p in pts]
    p = c.ambient_d % 2
    cols = c._boundary_columns(p)
    full_boundaries = BitEchelon(c._boundary_masks(p))
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


@lru_cache(maxsize=128)
def _essential_cycles(c):
    """Every cycle mask on the ambient-grading slice that is not a boundary.

    Exhaustive enumeration; memoised per complex since it only depends on
    the slice, not on the parameter.
    """
    p = c.ambient_d % 2
    cols = c._boundary_columns(p)
    bound = BitEchelon(c._boundary_masks(p))
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
    ku.require_admissible(c)
    pts = ku.grading_slice(c, c.ambient_d)
    if len(pts) > 20:
        raise ValueError("slice too large for brute force (%d points)"
                         % len(pts))
    keys = [ku.filtration_value(t, p) for p in pts]
    return min(max(keys[b] for b in bits(mask))
               for mask in _essential_cycles(c))


def brute_d_squared_even(c):
    """Count two-step paths per (source, target, total U-power) directly."""
    counts = Counter()
    for e1 in c.differential:
        for e2 in c.differential:
            if e2.source == e1.target:
                counts[(e1.source, e2.target, e1.upower + e2.upower)] += 1
    return all(n % 2 == 0 for n in counts.values())


def _point_boundary(c, point):
    """Boundary of one lattice point as a frozenset of (name, i) pairs,
    computed straight off the differential list."""
    terms = Counter()
    for e in c.differential:
        if e.source == point[0]:
            terms[(e.target, point[1] - e.upower)] += 1
    return frozenset(k for k, n in terms.items() if n % 2 == 1)


def _chain_boundary_set(c, points):
    acc = set()
    for p in points:
        acc ^= _point_boundary(c, p)
    return frozenset(acc)


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
