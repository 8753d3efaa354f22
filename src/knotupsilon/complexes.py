"""Bifiltered chain complexes over F2[U, U^-1] for knot Floer calculations.

A complex is stored as a finite free F2[U]-basis: generators carrying
integer Alexander and Maslov gradings, and a differential of entries
(source, target, k) meaning that d(source) contains the term U^k * target.
Formally inverting U recovers the full complex: the lattice point [x, i, j]
stands for U^{-i} x, satisfies j - i = A(x), and has Maslov grading
M(x) + 2i.  Every entry must satisfy M(target) = M(source) - 1 + 2k, so a
(source, target) pair determines its U-power, and A(source) - A(target) +
k >= 0, so arrows point non-strictly down and to the left in the plane.

Inside the library a generator is its position: a complex holds its names,
Alexander and Maslov gradings as lists, and its entries as triples of
positions.  tensor, dual, direct_sum and the staircases build that form
directly; the public constructor resolves names once.  Names appear only
where a user sees them: the generators and differential views, JSON,
violation messages and LatticePoints.

ambient_d is the Maslov grading of the distinguished homology class (the
correction term of the ambient three-manifold; 0 for the three-sphere).  A
complex whose homology in grading ambient_d is not one-dimensional is refused
by the upsilon machinery.  require_admissible alone decides this, by
rank-nullity, and builds once per complex the record of that slice, or the
refusal: all of a complex the engine reads, in integer lists by position.
Each grading slice has one point per generator of its Maslov parity, so
the differential between adjacent slices is one GF(2) matrix: a column
per generator, a mask over the positions of the other parity.  One walk
over a complex's entries builds that matrix once and screens them; the
d^2 check and require_admissible read it.

Complexes are immutable once built; all operations here are pure.  The
records (Generator, DiffEntry, LatticePoint, ValidationReport, and those of
engine, certificates and knots) are named tuples: hashable and equal by
value, so also equal to a plain tuple holding the same fields.
ValidationReport and the certificates' records hold evidence only, and
read each verdict off it as a property.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import compress, count
from typing import NamedTuple

from .errors import (FormatError, InvalidComplexError, NonAdmissibleError,
                     _require_keys)
from .gf2 import BitEchelon, bits, kernel_basis


class Generator(NamedTuple):
    """A basis element with its Alexander and Maslov gradings."""

    name: str
    alexander: int
    maslov: int


class DiffEntry(NamedTuple):
    """One differential term: d(source) contains U^upower * target."""

    source: str
    target: str
    upower: int


class LatticePoint(NamedTuple):
    """The element U^{-i} x rendered as the plane point (i, j), j - i = A(x)."""

    generator: str
    i: int
    j: int


class ValidationReport(NamedTuple):
    """Every violation found, in order; ok when there are none."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class _Matrix(NamedTuple):
    """The differential of a complex, indexed in one walk over its entries.

    Each list is indexed by generator position.  out[x] lists the entries
    out of x themselves; pos[x] is x's position among the generators of its
    parity; cols[p][pos[x]], for x of Maslov parity p, XORs the bits of x's
    targets, a mask over the parity-(1 - p) positions, so cols[p] is the
    matrix between any two adjacent grading slices.  The walk screens each
    entry too.  A column weighs less than its entries just when a target
    repeats, and the Maslov rule fixes k from (source, target): screened
    holds, with no fault and no repeated entry, when every entry passes
    and the column weights sum to the number of entries.
    """

    out: list[list[tuple[int, int, int]]]
    pos: list[int]
    cols: tuple[list[int], list[int]]
    screened: bool


class BifilteredComplex:
    """A finitely generated bifiltered complex over F2[U, U^-1], built from
    Generators (their order is kept), DiffEntries, the Maslov grading
    ambient_d of the distinguished class and an optional display label.

    Each name resolves to a position once; of generators sharing a name,
    the last one wins.  Construction is permissive: validate() reports
    structural problems, so that broken data can be inspected.
    generators, differential and generator(name) are views, built on first
    use.
    """

    def __init__(self, generators, differential, ambient_d=0, label=None):
        gens = tuple(generators)
        names, alex, maslov = ([g[k] for g in gens] for k in range(3))
        index = {name: x for x, name in enumerate(names)}
        dup = len(index) < len(names)
        entries = []
        for s, t, k in differential:
            for name in (s, t):
                if name not in index:  # kept for validate to report
                    index[name] = len(names)
                    names.append(name)
            entries.append((index[s], index[t], k))
        self._adopt(names, alex, maslov, entries, ambient_d, label, dup)

    @classmethod
    def _of(cls, *fields) -> "BifilteredComplex":
        """A complex straight from positions: the fields of _adopt."""
        c = cls.__new__(cls)
        c._adopt(*fields)
        return c

    def _adopt(self, names, alex, maslov, entries, ambient_d, label,
               dup=False):
        # generator x is (names[x], alex[x], maslov[x]), an entry a triple of
        # positions; names past the last generator are cited by entries
        # only; dup: some name repeats.  The lists are shared, never changed.
        self._names, self._alex, self._maslov = names, alex, maslov
        self._entries, self._dup = entries, dup
        self.ambient_d = int(ambient_d)
        self.label = label
        # each built on first use; _sweep is engine.upsilon's
        self._mat = self._violations = self._slice = self._sweep = None

    def __repr__(self):
        tag = self.label or "complex"
        return "<BifilteredComplex %s: %d generators, %d entries, d=%d>" % (
            tag, len(self._alex), len(self._entries), self.ambient_d)

    @cached_property
    def generators(self) -> tuple[Generator, ...]:
        return tuple(map(Generator, self._names, self._alex, self._maslov))

    @cached_property
    def differential(self) -> tuple[DiffEntry, ...]:
        n = self._names
        return tuple([DiffEntry(n[s], n[t], k) for s, t, k in self._entries])

    @cached_property
    def _by_name(self) -> dict:
        return {g.name: g for g in self.generators}

    def generator(self, name: str) -> Generator:
        return self._by_name[name]

    def relabeled(self, label) -> "BifilteredComplex":
        return BifilteredComplex._of(self._names, self._alex, self._maslov,
                                     self._entries, self.ambient_d, label,
                                     self._dup)

    # -- internal structure; built once every entry cites a generator

    def _matrix(self) -> _Matrix:
        """The differential and the screen, built once: see _Matrix."""
        if self._mat is None:
            alex, maslov, entries = self._alex, self._maslov, self._entries
            counters = (count(), count())
            pos = [next(counters[m % 2]) for m in maslov]
            out, col, ok = [[] for _ in alex], [0] * len(alex), True
            for e in entries:
                s, t, k = e
                out[s].append(e)
                col[s] ^= 1 << pos[t]
                if (k < 0 or maslov[t] != maslov[s] - 1 + 2 * k
                        or alex[t] - alex[s] > k):
                    ok = False
            screened = ok and sum(map(int.bit_count, col)) == len(entries)
            cols = ([], [])
            for m, v in zip(maslov, col):
                cols[m % 2].append(v)
            self._mat = _Matrix(out, pos, cols, screened)
        return self._mat


def _repeats(names) -> list:
    """Each name equal to an earlier one, once per repeat, in order."""
    seen = set()
    return [name for name in names if name in seen or seen.add(name)]


# ---------------------------------------------------------------------------
# validation


def _structural_violations(c: BifilteredComplex) -> tuple[str, ...]:
    """Every structural fault of c in order, found once.  The walk that
    builds the matrix screens the entries (see _Matrix); they are walked
    again only to name a fault.  Under the Maslov rule a path x -> y -> z
    has total U-power (M(z) - M(x))/2 + 1, so d^2 = 0 asks that z's bit in
    the XOR of the columns of x's targets y be 0; where it is not, x's
    paths are walked in y-then-z order to report each odd z once."""
    if c._violations is not None:
        return c._violations
    names, alex, maslov = c._names, c._alex, c._maslov
    n = len(alex)
    v = ["duplicate generator name %r" % name
         for name in (_repeats(names[:n]) if c._dup else ())]
    mat, seen = c._matrix() if len(names) == n else None, set()
    for e in () if mat and mat.screened else c._entries:
        s, t, k = e
        if s >= n or t >= n:
            v.append("entry (%s -> %s) references unknown generator %r"
                     % (names[s], names[t], names[s if s >= n else t]))
            continue
        if k < 0:
            v.append("entry (%s -> %s) has negative U-power %d"
                     % (names[s], names[t], k))
        if e in seen or seen.add(e):
            v.append("duplicate differential entry (%s -> %s, U^%d)"
                     % (names[s], names[t], k))
        if maslov[t] != maslov[s] - 1 + 2 * k:
            v.append("Maslov constraint violated by (%s -> %s, U^%d): "
                     "M(%s)=%d, expected %d"
                     % (names[s], names[t], k, names[t], maslov[t],
                        maslov[s] - 1 + 2 * k))
        if alex[s] - alex[t] + k < 0:
            v.append("Alexander constraint violated by (%s -> %s, U^%d): "
                     "arrow points up or right" % (names[s], names[t], k))

    if not v:
        out, pos, cols, _ = mat
        for x, m in enumerate(maslov):
            ys, odd = cols[1 - m % 2], 0
            for _, y, _ in out[x]:
                odd ^= ys[pos[y]]
            if not odd:
                continue
            for _, y, k1 in out[x]:
                for _, z, k2 in out[y]:
                    if odd >> pos[z] & 1:
                        odd ^= 1 << pos[z]
                        v.append("d^2 != 0: odd number of two-step paths "
                                 "%s -> %s with total U-power %d"
                                 % (names[x], names[z], k1 + k2))

    c._violations = tuple(v)
    return c._violations


def validate(c: BifilteredComplex) -> ValidationReport:
    """Check every structural constraint and the homology rank condition.

    Report-style: never raises, lists all violations found.
    """
    v = _structural_violations(c)
    if not v:
        try:
            require_admissible(c)
        except NonAdmissibleError as exc:
            v = (str(exc),)
    return ValidationReport(v)


def require_valid(c: BifilteredComplex) -> None:
    """Raise InvalidComplexError if any structural constraint fails."""
    v = _structural_violations(c)
    if v:
        raise InvalidComplexError(v)


class _Slice(NamedTuple):
    """The slice in grading ambient_d, by position: the generators' names,
    the points' coordinates i and j, the supports of the boundary columns
    its echelon found independent (a basis of every boundary), that
    echelon and a mask of a cycle for the class."""

    names: list[str]
    i: list[int]
    j: list[int]
    boundaries: list[list[int]]
    echelon: BitEchelon
    cycle: int


def require_admissible(c: BifilteredComplex) -> _Slice:
    """Raise unless c is structurally valid with one-dimensional homology
    in grading ambient_d; return its slice there.  Built once per complex,
    a refusal included: it is kept as its message."""
    require_valid(c)
    if c._slice is None:
        p = c.ambient_d % 2
        cols = c._matrix().cols
        ech = BitEchelon()
        boundaries = [bits(w) for w in cols[1 - p] if ech.add(w)]
        # rank-nullity: n_p - rank d_p cycles, rank B of them boundaries
        dim = len(cols[p]) - BitEchelon(cols[p]).rank - ech.rank
        if dim != 1:
            c._slice = ("non-admissible: homology has dimension %d != 1 in "
                        "grading %d" % (dim, c.ambient_d))
        else:
            # the class's cycle: the kernel's first vector off the boundaries
            c._slice = _Slice(*_coordinates(c, c.ambient_d), boundaries, ech,
                              next(z for z in kernel_basis(cols[p])
                                   if ech.reduce(z)))
    if isinstance(c._slice, str):
        raise NonAdmissibleError(c._slice)
    return c._slice


def _coordinates(c: BifilteredComplex, d: int):
    """The grading-d slice as three lists, position by position: the name
    of each generator of Maslov parity d and its point's i and j."""
    keep = [(d - m) % 2 == 0 for m in c._maslov]
    i = [(d - m) // 2 for m in compress(c._maslov, keep)]
    return (list(compress(c._names, keep)), i,
            [a + k for a, k in zip(compress(c._alex, keep), i)])


def grading_slice(c: BifilteredComplex, d: int) -> list[LatticePoint]:
    """Lattice points of total Maslov grading d: one per generator of Maslov
    parity d, its unique U-translate with that grading."""
    return list(map(LatticePoint, *_coordinates(c, d)))


# ---------------------------------------------------------------------------
# structural operations


def tensor(c1: BifilteredComplex, c2: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over F2[U]: gradings add, the differential obeys the
    Leibniz rule, and the ambient gradings add.

    Generators are ordered lexicographically by input positions and named
    "a*b", each with entries d(a)*b, then a*d(b): repeated tensors associate
    on the nose up to names.  Two products named alike raise ValueError.
    """
    require_valid(c1)
    require_valid(c2)
    tails = ["*" + b for b in c2._names]
    names = [a + tail for a in c1._names for tail in tails]
    # names are unique per factor; a*b splits at its last * unless b has one
    if "*" in "".join(c2._names) and len(set(names)) < len(names):
        raise ValueError("tensor name clash: %s"
                         % sorted(set(_repeats(names))))
    n2 = len(c2._alex)
    out1, out2 = c1._matrix().out, c2._matrix().out
    entries = []
    append = entries.append
    for x1, terms1 in enumerate(out1):
        base = x1 * n2
        left = [(t * n2, k) for _, t, k in terms1]
        for x2, terms2 in enumerate(out2):
            src = base + x2
            for t, k in left:
                append((src, t + x2, k))
            for _, t, k in terms2:
                append((src, base + t, k))
    label = "%s # %s" % (c1.label, c2.label) if c1.label and c2.label else None
    return BifilteredComplex._of(
        names, [a1 + a2 for a1 in c1._alex for a2 in c2._alex],
        [m1 + m2 for m1 in c1._maslov for m2 in c2._maslov], entries,
        c1.ambient_d + c2.ambient_d, label)


def dual(c: BifilteredComplex) -> BifilteredComplex:
    """Mirror: negate both gradings and the ambient grading, reverse arrows."""
    require_valid(c)
    label = "-%s" % c.label if c.label else None
    return BifilteredComplex._of(
        c._names, [-a for a in c._alex], [-m for m in c._maslov],
        [(t, s, k) for s, t, k in c._entries], -c.ambient_d, label)


def direct_sum(c1: BifilteredComplex, c2: BifilteredComplex,
               label=None) -> BifilteredComplex:
    """Disjoint union of generators and differentials.

    Generator names must not clash.  The ambient grading is taken from c1;
    summing with an acyclic piece leaves the homology unchanged.
    """
    n1, n2 = len(c1._alex), len(c2._alex)
    clash = set(c1._names[:n1]) & set(c2._names[:n2])
    if clash:
        raise ValueError("direct_sum name clash: %s" % sorted(clash))
    if len(c1._names) > n1 or len(c2._names) > n2:
        # a name one side cites without a generator may be the other's
        return BifilteredComplex(c1.generators + c2.generators,
                                 c1.differential + c2.differential,
                                 c1.ambient_d, label)
    return BifilteredComplex._of(
        c1._names + c2._names, c1._alex + c2._alex, c1._maslov + c2._maslov,
        c1._entries + [(s + n1, t + n1, k) for s, t, k in c2._entries],
        c1.ambient_d, label, c1._dup or c2._dup)


# ---------------------------------------------------------------------------
# JSON interchange


_COMPLEX_KEYS = {"label", "ambient_d", "generators", "differential"}
_GEN_KEYS = {"name", "alexander", "maslov"}
_ENTRY_KEYS = {"from", "to", "upower"}


def complex_from_json_dict(obj) -> BifilteredComplex:
    """Parse the interchange format; rejects unknown keys and bad types."""
    _require_keys(obj, _COMPLEX_KEYS, _COMPLEX_KEYS - {"label"}, "complex")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise FormatError("label must be a string or null")
    if not isinstance(obj["ambient_d"], int) or isinstance(obj["ambient_d"], bool):
        raise FormatError("ambient_d must be an integer")
    for field in ("generators", "differential"):
        if not isinstance(obj[field], list):
            raise FormatError("%r must be a list" % field)
    gens = []
    for g in obj["generators"]:
        _require_keys(g, _GEN_KEYS, _GEN_KEYS, "generator")
        if not isinstance(g["name"], str):
            raise FormatError("generator name must be a string")
        for field in ("alexander", "maslov"):
            if not isinstance(g[field], int) or isinstance(g[field], bool):
                raise FormatError("generator %s must be an integer" % field)
        gens.append((g["name"], g["alexander"], g["maslov"]))
    diff = []
    for e in obj["differential"]:
        _require_keys(e, _ENTRY_KEYS, _ENTRY_KEYS, "differential entry")
        if not isinstance(e["from"], str) or not isinstance(e["to"], str):
            raise FormatError("differential endpoints must be strings")
        if not isinstance(e["upower"], int) or isinstance(e["upower"], bool):
            raise FormatError("upower must be an integer")
        diff.append((e["from"], e["to"], e["upower"]))
    return BifilteredComplex(gens, diff, obj["ambient_d"], label)


def complex_to_json_dict(c: BifilteredComplex) -> dict:
    return {
        "label": c.label,
        "ambient_d": c.ambient_d,
        "generators": [{"name": name, "alexander": a, "maslov": m}
                       for name, a, m in zip(c._names, c._alex, c._maslov)],
        "differential": [{"from": c._names[s], "to": c._names[t], "upower": k}
                         for s, t, k in c._entries],
    }


def _parse_json(text: str, where: str = ""):
    """json.loads with every failure a FormatError: a syntax error, a number
    past the interpreter's digit limit, or nesting past the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError("invalid JSON%s: %s" % (where, exc)) from exc


def complex_from_json(text: str) -> BifilteredComplex:
    return complex_from_json_dict(_parse_json(text))


def complex_to_json(c: BifilteredComplex) -> str:
    return json.dumps(complex_to_json_dict(c), indent=2) + "\n"
