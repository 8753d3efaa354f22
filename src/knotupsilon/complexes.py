"""Bifiltered chain complexes over F2[U, U^-1] for knot Floer calculations.

A complex is stored as a finite free F2[U]-basis: a list of generators,
each carrying integer Alexander and Maslov gradings, plus a differential
given by entries (source, target, k) meaning that d(source) contains the
term U^k * target.  Formally inverting U recovers the full complex: the
lattice point [x, i, j] stands for U^{-i} x, satisfies j - i = A(x), and
has Maslov grading M(x) + 2i.

Grading bookkeeping pins the structure down:

* every differential entry must satisfy M(target) = M(source) - 1 + 2k,
  so a (source, target) pair determines its U-power uniquely;
* A(source) - A(target) + k >= 0, so arrows point non-strictly down and
  to the left in the (i, j) plane.

A complex additionally records ambient_d, the Maslov grading of the
distinguished homology class (the correction term of the ambient
three-manifold; 0 for the three-sphere).  A complex whose homology in
grading ambient_d is not one-dimensional is flagged non-admissible and
refused by the upsilon machinery.  require_admissible alone decides
this, and builds once per complex the record of that slice the engine reads,
or the refusal.

Each grading slice has one point per generator of its Maslov parity, so the
differential between any two adjacent slices is one GF(2) matrix: a column
per generator, a mask over the positions of the other parity.  A complex
builds that matrix once; the d^2 check and require_admissible both read it.

Complexes are immutable once built; all operations here are pure.
Generator, DiffEntry, LatticePoint and ValidationReport are named tuples,
as are the records of engine, certificates and knots: immutable, hashable
and equal by value, and so also equal to a plain tuple (or a record of
another type) holding the same fields.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import FormatError, InvalidComplexError, NonAdmissibleError
from .gf2 import BitEchelon, kernel_basis


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
    ok: bool
    violations: tuple[str, ...]


class _Matrix(NamedTuple):
    """The differential of a complex whose entries pass the per-entry checks.

    out[x] lists x's terms as (target, upower) pairs; pos[x] is x's position
    among the generators of its Maslov parity; cols[p][pos[x]], for x of
    parity p, is the differential out of x as a mask over the parity-(1 - p)
    positions.  cols[p] is then the matrix between any two adjacent grading
    slices, as each has one point per generator of its parity.
    """

    out: dict
    pos: dict
    cols: tuple[list[int], list[int]]


class BifilteredComplex:
    """A finitely generated bifiltered complex over F2[U, U^-1].

    generators: iterable of Generator (order is preserved and significant
        for deterministic output).
    differential: iterable of DiffEntry.
    ambient_d: Maslov grading of the distinguished homology class.
    label: optional display name.

    Construction is permissive: structural problems are reported by
    validate(), not raised here, so that broken data can be inspected.
    """

    def __init__(self, generators, differential, ambient_d=0, label=None):
        self.generators = tuple(generators)
        self.differential = tuple(differential)
        self.ambient_d = int(ambient_d)
        self.label = label
        self._index = {g.name: g for g in self.generators}
        # each built on first use; _sweep is engine.upsilon's
        self._mat = self._violations = self._slice = self._sweep = None

    def __repr__(self):
        tag = self.label or "complex"
        return "<BifilteredComplex %s: %d generators, %d entries, d=%d>" % (
            tag, len(self.generators), len(self.differential), self.ambient_d)

    def generator(self, name: str) -> Generator:
        return self._index[name]

    def relabeled(self, label) -> "BifilteredComplex":
        return BifilteredComplex(self.generators, self.differential,
                                 self.ambient_d, label)

    # -- internal structure; built only once the per-entry checks pass

    def _matrix(self) -> _Matrix:
        """The differential, built once: see _Matrix."""
        if self._mat is None:
            out, pos, cols = {}, {}, ([], [])
            for g in self.generators:
                out[g.name] = []
                pos[g.name] = len(cols[g.maslov % 2])
                cols[g.maslov % 2].append(0)
            for s, t, k in self.differential:
                out[s].append((t, k))
            for g in self.generators:
                v = 0
                for t, _ in out[g.name]:
                    v ^= 1 << pos[t]
                cols[g.maslov % 2][pos[g.name]] = v
            self._mat = _Matrix(out, pos, cols)
        return self._mat


# ---------------------------------------------------------------------------
# validation


def _structural_violations(c: BifilteredComplex) -> tuple[str, ...]:
    if c._violations is not None:
        return c._violations
    v = []
    index = c._index
    if len(index) < len(c.generators):
        seen = set()
        for g in c.generators:
            if g.name in seen:
                v.append("duplicate generator name %r" % g.name)
            seen.add(g.name)

    entries_seen = set()
    for e in c.differential:
        s, t, k = e
        src, tgt = index.get(s), index.get(t)
        if src is None or tgt is None:
            v.append("entry (%s -> %s) references unknown generator %r"
                     % (s, t, s if src is None else t))
            continue
        if k < 0:
            v.append("entry (%s -> %s) has negative U-power %d" % e)
        if e in entries_seen:
            v.append("duplicate differential entry (%s -> %s, U^%d)" % e)
        entries_seen.add(e)
        if tgt.maslov != src.maslov - 1 + 2 * k:
            v.append("Maslov constraint violated by (%s -> %s, U^%d): "
                     "M(%s)=%d, expected %d"
                     % (s, t, k, t, tgt.maslov, src.maslov - 1 + 2 * k))
        if src.alexander - tgt.alexander + k < 0:
            v.append("Alexander constraint violated by (%s -> %s, U^%d): "
                     "arrow points up or right" % e)

    if not v:
        # d^2 = 0 over F2[U]: two-step path counts must be even for every
        # (source, target, total U-power) triple.  Every entry obeys the
        # Maslov rule here, so a path x -> y -> z has total U-power
        # (M(z) - M(x))/2 + 1 whatever y is, and z has x's parity: the
        # parity per (x, z, k) is the bit of z in the XOR of the columns of
        # x's targets y.  Where that XOR is nonzero, x's paths are walked
        # in y-then-z order to report each odd z once.
        out, pos, cols = c._matrix()
        for x, _, m in c.generators:
            ys, odd = cols[1 - m % 2], 0
            for y, _ in out[x]:
                odd ^= ys[pos[y]]
            if not odd:
                continue
            for y, k1 in out[x]:
                for z, k2 in out[y]:
                    if odd >> pos[z] & 1:
                        odd ^= 1 << pos[z]
                        v.append("d^2 != 0: odd number of two-step paths "
                                 "%s -> %s with total U-power %d"
                                 % (x, z, k1 + k2))

    c._violations = tuple(v)
    return c._violations


def validate(c: BifilteredComplex) -> ValidationReport:
    """Check every structural constraint and the homology rank condition.

    Report-style: never raises, lists all violations found.
    """
    v = list(_structural_violations(c))
    if not v:
        try:
            require_admissible(c)
        except NonAdmissibleError as exc:
            v.append(str(exc))
    return ValidationReport(ok=not v, violations=tuple(v))


def require_valid(c: BifilteredComplex) -> None:
    """Raise InvalidComplexError if any structural constraint fails."""
    v = _structural_violations(c)
    if v:
        raise InvalidComplexError(v)


class _Slice(NamedTuple):
    """The slice in grading ambient_d: its points, the boundaries landing in
    it as masks over them, their echelon and a cycle for the class."""

    points: tuple[LatticePoint, ...]
    boundaries: list[int]
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
        cycles, ech = kernel_basis(cols[p]), BitEchelon(cols[1 - p])
        dim = len(cycles) - ech.rank
        if dim != 1:
            c._slice = ("non-admissible: homology has dimension %d != 1 in "
                        "grading %d" % (dim, c.ambient_d))
        else:
            c._slice = _Slice(tuple(grading_slice(c, c.ambient_d)),
                              cols[1 - p], ech,
                              next(z for z in cycles if ech.reduce(z)))
    if isinstance(c._slice, str):
        raise NonAdmissibleError(c._slice)
    return c._slice


def grading_slice(c: BifilteredComplex, d: int) -> list[LatticePoint]:
    """Lattice points of total Maslov grading d: one per generator of Maslov
    parity d, its unique U-translate with that grading."""
    return [LatticePoint(g.name, (d - g.maslov) // 2,
                         g.alexander + (d - g.maslov) // 2)
            for g in c.generators if g.maslov % 2 == d % 2]


# ---------------------------------------------------------------------------
# structural operations


def tensor(c1: BifilteredComplex, c2: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over F2[U]: gradings add, the differential obeys the
    Leibniz rule, and the ambient gradings add.

    Generators are ordered lexicographically by input indices and named
    "a*b"; this makes repeated tensors associate on the nose up to names.
    """
    require_valid(c1)
    require_valid(c2)
    out1, out2 = c1._matrix().out, c2._matrix().out
    right = [("*" + name, a2, m2, [("*" + tgt, k) for tgt, k in out2[name]])
             for name, a2, m2 in c2.generators]
    gens, diff = [], []
    for name1, a1, m1 in c1.generators:
        targets1 = out1[name1]
        for tail, a2, m2, targets2 in right:
            src = name1 + tail
            gens.append(Generator(src, a1 + a2, m1 + m2))
            for tgt, k in targets1:
                diff.append(DiffEntry(src, tgt + tail, k))
            for tgt_tail, k in targets2:
                diff.append(DiffEntry(src, name1 + tgt_tail, k))
    label = None
    if c1.label and c2.label:
        label = "%s # %s" % (c1.label, c2.label)
    return BifilteredComplex(gens, diff, c1.ambient_d + c2.ambient_d, label)


def dual(c: BifilteredComplex) -> BifilteredComplex:
    """Mirror: negate both gradings and the ambient grading, reverse arrows."""
    require_valid(c)
    gens = [Generator(g.name, -g.alexander, -g.maslov) for g in c.generators]
    diff = [DiffEntry(e.target, e.source, e.upower) for e in c.differential]
    label = "-%s" % c.label if c.label else None
    return BifilteredComplex(gens, diff, -c.ambient_d, label)


def direct_sum(c1: BifilteredComplex, c2: BifilteredComplex,
               label=None) -> BifilteredComplex:
    """Disjoint union of generators and differentials.

    Generator names must not clash.  The ambient grading is taken from c1;
    summing with an acyclic piece leaves the homology unchanged.
    """
    clash = {g.name for g in c1.generators} & {g.name for g in c2.generators}
    if clash:
        raise ValueError("direct_sum name clash: %s" % sorted(clash))
    return BifilteredComplex(c1.generators + c2.generators,
                             c1.differential + c2.differential,
                             c1.ambient_d, label)


# ---------------------------------------------------------------------------
# JSON interchange


_COMPLEX_KEYS = {"label", "ambient_d", "generators", "differential"}
_GEN_KEYS = {"name", "alexander", "maslov"}
_ENTRY_KEYS = {"from", "to", "upower"}


def _require_keys(obj, allowed, required, what):
    if not isinstance(obj, dict):
        raise FormatError("%s must be a JSON object" % what)
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError("%s has unknown keys: %s" % (what, sorted(unknown)))
    missing = required - set(obj)
    if missing:
        raise FormatError("%s is missing keys: %s" % (what, sorted(missing)))


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
        gens.append(Generator(g["name"], g["alexander"], g["maslov"]))
    diff = []
    for e in obj["differential"]:
        _require_keys(e, _ENTRY_KEYS, _ENTRY_KEYS, "differential entry")
        if not isinstance(e["from"], str) or not isinstance(e["to"], str):
            raise FormatError("differential endpoints must be strings")
        if not isinstance(e["upower"], int) or isinstance(e["upower"], bool):
            raise FormatError("upower must be an integer")
        diff.append(DiffEntry(e["from"], e["to"], e["upower"]))
    return BifilteredComplex(gens, diff, obj["ambient_d"], label)


def complex_to_json_dict(c: BifilteredComplex) -> dict:
    return {
        "label": c.label,
        "ambient_d": c.ambient_d,
        "generators": [{"name": g.name, "alexander": g.alexander,
                        "maslov": g.maslov} for g in c.generators],
        "differential": [{"from": e.source, "to": e.target,
                          "upower": e.upower} for e in c.differential],
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
