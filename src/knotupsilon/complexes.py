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
refused by the upsilon machinery.

Complexes are immutable once built; all operations here are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import FormatError, InvalidComplexError, NonAdmissibleError
from .gf2 import BitEchelon, kernel_basis


@dataclass(frozen=True)
class Generator:
    """A basis element with its Alexander and Maslov gradings."""

    name: str
    alexander: int
    maslov: int


@dataclass(frozen=True)
class DiffEntry:
    """One differential term: d(source) contains U^upower * target."""

    source: str
    target: str
    upower: int


@dataclass(frozen=True)
class LatticePoint:
    """The element U^{-i} x rendered as the plane point (i, j), j - i = A(x)."""

    generator: str
    i: int
    j: int


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


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
        self._cache = {}

    def __repr__(self):
        tag = self.label or "complex"
        return "<BifilteredComplex %s: %d generators, %d entries, d=%d>" % (
            tag, len(self.generators), len(self.differential), self.ambient_d)

    def generator(self, name: str) -> Generator:
        return self._index[name]

    def relabeled(self, label) -> "BifilteredComplex":
        return BifilteredComplex(self.generators, self.differential,
                                 self.ambient_d, label)

    # -- internal structure, cached; only meaningful on validated complexes

    def _out_entries(self) -> dict:
        """Per-generator outgoing terms as (target, upower) lists."""
        out = self._cache.get("out")
        if out is None:
            out = {g.name: [] for g in self.generators}
            for e in self.differential:
                out[e.source].append((e.target, e.upower))
            self._cache["out"] = out
        return out

    def _parity_names(self, p: int) -> list[str]:
        key = ("names", p)
        if key not in self._cache:
            self._cache[key] = [g.name for g in self.generators
                                if g.maslov % 2 == p]
        return self._cache[key]

    def _boundary_columns(self, p: int) -> list[int]:
        """Columns of the differential from parity-p chains to parity-(1-p).

        Grading plays no role beyond parity: the grading-d slice of the
        complex consists of one lattice point per generator of matching
        parity, and the differential matrix between slices depends on the
        parity class only.
        """
        key = ("cols", p)
        if key not in self._cache:
            target_pos = {n: k for k, n in enumerate(self._parity_names(1 - p))}
            out = self._out_entries()
            cols = []
            for name in self._parity_names(p):
                v = 0
                for tgt, _ in out[name]:
                    v ^= 1 << target_pos[tgt]
                cols.append(v)
            self._cache[key] = cols
        return self._cache[key]

    def _cycle_masks(self, p: int) -> list[int]:
        """Basis of cycles among parity-p chains, as masks over parity-p slots."""
        key = ("cycles", p)
        if key not in self._cache:
            self._cache[key] = kernel_basis(self._boundary_columns(p))
        return self._cache[key]

    def _boundary_masks(self, p: int) -> list[int]:
        """Spanning set of boundaries landing in parity p."""
        return self._boundary_columns(1 - p)

    def homology_dimension(self, d: int) -> int:
        """F2-dimension of homology computed on the grading-d lattice slice."""
        p = d % 2
        key = ("hdim", p)
        if key not in self._cache:
            dim_z = len(self._cycle_masks(p))
            dim_b = BitEchelon(self._boundary_masks(p)).rank
            self._cache[key] = dim_z - dim_b
        return self._cache[key]


# ---------------------------------------------------------------------------
# validation


def _structural_violations(c: BifilteredComplex) -> tuple[str, ...]:
    if "structural" in c._cache:
        return c._cache["structural"]
    v = []
    seen = set()
    for g in c.generators:
        if g.name in seen:
            v.append("duplicate generator name %r" % g.name)
        seen.add(g.name)

    entries_seen = set()
    refs_ok = True
    for e in c.differential:
        missing = [n for n in (e.source, e.target) if n not in c._index]
        if missing:
            v.append("entry (%s -> %s) references unknown generator %r"
                     % (e.source, e.target, missing[0]))
            refs_ok = False
            continue
        if e.upower < 0:
            v.append("entry (%s -> %s) has negative U-power %d"
                     % (e.source, e.target, e.upower))
        key = (e.source, e.target, e.upower)
        if key in entries_seen:
            v.append("duplicate differential entry (%s -> %s, U^%d)"
                     % key)
        entries_seen.add(key)
        src, tgt = c._index[e.source], c._index[e.target]
        if tgt.maslov != src.maslov - 1 + 2 * e.upower:
            v.append("Maslov constraint violated by (%s -> %s, U^%d): "
                     "M(%s)=%d, expected %d"
                     % (e.source, e.target, e.upower, e.target,
                        tgt.maslov, src.maslov - 1 + 2 * e.upower))
        if src.alexander - tgt.alexander + e.upower < 0:
            v.append("Alexander constraint violated by (%s -> %s, U^%d): "
                     "arrow points up or right" % (e.source, e.target, e.upower))

    if not v and refs_ok:
        # d^2 = 0 over F2[U]: two-step path counts must be even for every
        # (source, target, total U-power) triple.
        out = c._out_entries()
        parity = {}
        for x in c.generators:
            for y, k1 in out[x.name]:
                for z, k2 in out[y]:
                    key = (x.name, z, k1 + k2)
                    parity[key] = parity.get(key, 0) ^ 1
        for (x, z, k), odd in parity.items():
            if odd:
                v.append("d^2 != 0: odd number of two-step paths %s -> %s "
                         "with total U-power %d" % (x, z, k))

    c._cache["structural"] = tuple(v)
    return c._cache["structural"]


def validate(c: BifilteredComplex) -> ValidationReport:
    """Check every structural constraint and the homology rank condition.

    Report-style: never raises, lists all violations found.
    """
    v = list(_structural_violations(c))
    if not v:
        dim = c.homology_dimension(c.ambient_d)
        if dim != 1:
            v.append("non-admissible: homology has dimension %d != 1 in "
                     "grading %d" % (dim, c.ambient_d))
    return ValidationReport(ok=not v, violations=tuple(v))


def require_valid(c: BifilteredComplex) -> None:
    """Raise InvalidComplexError if any structural constraint fails."""
    v = _structural_violations(c)
    if v:
        raise InvalidComplexError(v)


def require_admissible(c: BifilteredComplex) -> None:
    """Raise unless c is structurally valid with one-dimensional homology
    in grading ambient_d."""
    require_valid(c)
    dim = c.homology_dimension(c.ambient_d)
    if dim != 1:
        raise NonAdmissibleError(
            "non-admissible: homology has dimension %d != 1 in grading %d"
            % (dim, c.ambient_d))


def grading_slice(c: BifilteredComplex, d: int) -> list[LatticePoint]:
    """Lattice points of total Maslov grading d: one per generator of Maslov
    parity d, its unique U-translate with that grading."""
    pts = []
    for name in c._parity_names(d % 2):
        g = c.generator(name)
        m = (d - g.maslov) // 2
        pts.append(LatticePoint(name, m, g.alexander + m))
    return pts


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
    out1, out2 = c1._out_entries(), c2._out_entries()
    gens, diff = [], []
    for g1 in c1.generators:
        for g2 in c2.generators:
            src = g1.name + "*" + g2.name
            gens.append(Generator(src, g1.alexander + g2.alexander,
                                  g1.maslov + g2.maslov))
            diff.extend(DiffEntry(src, tgt + "*" + g2.name, k)
                        for tgt, k in out1[g1.name])
            diff.extend(DiffEntry(src, g1.name + "*" + tgt, k)
                        for tgt, k in out2[g2.name])
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
# chain helpers


def chain_boundary(c: BifilteredComplex, points) -> list[LatticePoint]:
    """Boundary of an F2 chain of lattice points, as a reduced point list."""
    require_valid(c)
    out = c._out_entries()
    acc: dict[tuple[str, int], int] = {}
    for p in points:
        for tgt, k in out[p.generator]:
            key = (tgt, p.i - k)
            acc[key] = acc.get(key, 0) ^ 1
    result = []
    for (name, i), odd in acc.items():
        if odd:
            result.append(LatticePoint(name, i, c.generator(name).alexander + i))
    result.sort(key=lambda p: (p.generator, p.i))
    return result


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


def complex_from_json(text: str) -> BifilteredComplex:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("invalid JSON: %s" % exc) from exc
    return complex_from_json_dict(obj)


def complex_to_json(c: BifilteredComplex) -> str:
    return json.dumps(complex_to_json_dict(c), indent=2) + "\n"
