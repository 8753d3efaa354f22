"""Layering lint: the engine reads a complex only through its slice record,
and a complex reaches its matrix by one route.

engine.py and complexes.py are parsed, not imported.  The only private
attribute the engine reads off a complex argument c is its own cache,
_sweep; everything else comes from require_admissible's record.  Parity
arithmetic belongs to that record's builder, so the engine takes no value
modulo 2.  The record holds the slice as integer lists, and the engine
builds a LatticePoint only inside nu_at, for the certificate it hands out,
and reads no .points attribute, so no per-point tuple returns to the
sweep.  complexes.py builds a _Matrix at one call site, the walk that
indexes and screens the entries.  certificates.py is parsed too: the one
private attribute it reads is PLFunction._first_difference, so every
certificate finds where a slope is attained through the public
slope_intervals alone.  The sweep weighs each point at most once per grid
point: the slice weights (2b - a) i + a j, sums of two products, are
built by the one comprehension in _weights, which upsilon and nu_at
call; _proves_segment multiplies nothing and reads the weights it is
given, _carried, _hull and _proves_flip weigh nothing, and
_filtered_scan reads one mask back with bits, the reduced cycle's.  The
flip past t = 1 has one route: neither complexes.py nor knots.py names
anything flip, the slice record has no field for one, and the engine
calls _flip, the reversal of the sweep's ids that reads nothing else, at
one site; _proves_flip checks it off the slice's i and j, its echelon,
boundaries and cycle.
The flip is proved once per sweep: upsilon calls _flip and _proves_flip at
one site each and adds the witnesses built from flip[...] at one site,
while the loop that proves segments reads no flip[...], so no mirrored
list reaches _proves_segment; this check fails on an engine that proves
each mirrored segment in that loop.  The flip is decided before the sweep
and ends it: upsilon calls _flip and _proves_flip before its while loop,
the loop's bound and the tie search's first n1 read the same name, so a
held flip stops every segment at t = 1, and nothing after the loop calls
_weights, since the halves meet at 1 by the flip's proof and need no
second continuity check there; this check fails on an engine that decides
the flip at the first segment start past 1 and cuts the mirror there.
upsilon fills one candidate slot: a carried or scanned witness is proved
at one call of _proves_segment and ends at the one assignment of t1, the
tie search's, and a cocycle's hull is built at one site, in upsilon, for
a carried candidate; the one call of _filtered_scan sorts the sweep's
ids, not a range of its own, so every support shares those ints.  The
sweep keeps no memo keyed by a list's identity, which holds only while
that list lives: neither _proves_segment nor upsilon's while loop reads
id, and a carried run's hull is one local that a scan clears; the mirror
past the loop may dedupe its lists by id.
The tie search is the one walk at a tie: upsilon builds its ties at one
site, and _carried reads the crossing points that search named, so
neither it nor _hull is handed any weights upsilon reads, and _carried
walks no phi.  The slice record is built or refused: require_admissible
raises each refusal and tests no type, and complexes.py puts into a
_slice slot only a _Slice(...) call or the None of _adopt.  The checks cache nothing on a complex: complexes.py assigns
on one only its data (_names, _alex, _maslov, _entries, _dup, ambient_d,
label) and the engine's two records (_slice, _sweep), and validate
reaches the checks through require_admissible alone, calling neither
require_valid nor _matrix.
"""

import ast
from pathlib import Path

import knotupsilon.certificates
import knotupsilon.complexes
import knotupsilon.engine
import knotupsilon.knots

TREE = ast.parse(Path(knotupsilon.engine.__file__).read_text())
COMPLEXES = ast.parse(Path(knotupsilon.complexes.__file__).read_text())
KNOTS = ast.parse(Path(knotupsilon.knots.__file__).read_text())
CERTIFICATES = ast.parse(
    Path(knotupsilon.certificates.__file__).read_text())


def test_engine_reads_no_private_attribute_of_a_complex_but_its_sweep():
    private = {node.attr for node in ast.walk(TREE)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "c"
               and node.attr.startswith("_")}
    assert private == {"_sweep"}


def test_engine_takes_nothing_modulo_two():
    mod2 = [node.lineno for node in ast.walk(TREE)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.right, ast.Constant) and node.right.value == 2]
    assert mod2 == []


def test_one_call_site_builds_the_matrix():
    sites = [node.lineno for node in ast.walk(COMPLEXES)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_Matrix"]
    assert len(sites) == 1


def test_engine_builds_lattice_points_only_in_nu_at():
    def named(tree):  # each mention of LatticePoint in tree
        return {node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "LatticePoint"}

    functions = {node.name: node for node in TREE.body
                 if isinstance(node, ast.FunctionDef)}
    in_nu_at = named(functions.pop("nu_at"))
    called = named(TREE) & {node.func for node in ast.walk(TREE)
                            if isinstance(node, ast.Call)}
    assert in_nu_at and called == in_nu_at
    assert not any(named(f) for f in functions.values())
    assert not [node.lineno for node in ast.walk(TREE)
                if isinstance(node, ast.Attribute) and node.attr == "points"]


def test_certificates_read_slopes_through_slope_intervals():
    private = {node.attr for node in ast.walk(CERTIFICATES)
               if isinstance(node, ast.Attribute)
               and node.attr.startswith("_")}
    assert private == {"_first_difference"}
    read = {node.attr for node in ast.walk(CERTIFICATES)
            if isinstance(node, ast.Attribute)}
    assert "slope_intervals" in read


def test_sweep_weighs_each_point_once_per_grid_point():
    def products(node):
        return {n for n in ast.walk(node)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)}

    def weights(node):  # each sum of two products under node
        return [n for n in ast.walk(node)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
                and {n.left, n.right} <= products(n)]

    functions = {node.name: node for node in TREE.body
                 if isinstance(node, ast.FunctionDef)}
    found = weights(functions["_weights"])
    comprehensions = [n for n in ast.walk(functions["_weights"])
                      if isinstance(n, ast.ListComp)
                      and set(found) & set(ast.walk(n))]
    assert len(found) == len(comprehensions) == 1
    for name in ("upsilon", "nu_at"):
        assert _called(functions[name], "_weights") and not weights(
            functions[name]), name
    for name in ("_proves_segment", "_carried", "_hull", "_proves_flip"):
        assert not weights(functions[name]), name
    assert not products(functions["_proves_segment"])
    scan = functions["_filtered_scan"]
    assert len([n for n in ast.walk(scan) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "bits"]) == 1


def test_complexes_and_knots_name_no_flip():
    def names(tree):  # every name read, bound, defined, passed or set
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.arg):
                yield node.arg
            elif isinstance(node, ast.keyword) and node.arg:
                yield node.arg
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name

    for tree in (COMPLEXES, KNOTS):
        assert not [n for n in names(tree) if "flip" in n.lower()]
    assert len(knotupsilon.complexes._Slice._fields) == 6


def test_engine_reads_the_flip_at_one_site_off_the_coordinates():
    functions = {node.name: node for node in TREE.body
                 if isinstance(node, ast.FunctionDef)}
    calls = [node.lineno for node in ast.walk(TREE)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_flip"]
    assert len(calls) == 1
    assert [a.arg for a in functions["_flip"].args.args] == ["ids"]

    def read(name):
        return {node.attr for node in ast.walk(functions[name])
                if isinstance(node, ast.Attribute)}

    assert read("_flip") == set()
    assert read("_proves_flip") == {"i", "j", "echelon", "reduce", "cycle",
                                    "boundaries"}
    assert not [node.lineno for node in ast.walk(TREE)
                if isinstance(node, ast.Attribute) and node.attr == "flip"]


def _engine_function(name):
    return next(node for node in TREE.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _called(node, name):
    """The sites under node that call name."""
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == name]


def test_upsilon_fills_one_candidate_slot():
    sweep = _engine_function("upsilon")
    assert len(_called(sweep, "_proves_segment")) == 1
    assert len(_called(sweep, "_filtered_scan")) == 1
    assert len(_called(sweep, "_carried")) == 1
    assert len(_called(sweep, "_hull")) == len(_called(TREE, "_hull")) == 1
    stores = [n for n in ast.walk(sweep) if isinstance(n, ast.Name)
              and n.id == "t1" and isinstance(n.ctx, ast.Store)]
    tie = [n.value for n in ast.walk(sweep) if isinstance(n, ast.Assign)
           and set(n.targets) & set(stores)]
    assert len(stores) == len(tie) == 1
    assert [n.id for n in ast.walk(tie[0]) if isinstance(n, ast.Name)] == [
        "n1", "m1"]


def test_sweep_keys_nothing_by_identity():
    def reads_id(node):
        return [n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id == "id"]

    loops = [n for n in ast.walk(_engine_function("upsilon"))
             if isinstance(n, ast.While)]
    assert len(loops) == 1 and not reads_id(loops[0])
    assert not reads_id(_engine_function("_proves_segment"))


def test_upsilon_proves_the_flip_once_and_mirrors_at_one_site():
    sweep = _engine_function("upsilon")
    assert len(_called(sweep, "_flip")) == 1
    assert len(_called(sweep, "_proves_flip")) == 1

    def flipped(node):  # whether node reads flip[...]
        return any(isinstance(n, ast.Subscript)
                   and getattr(n.value, "id", None) == "flip"
                   for n in ast.walk(node))

    def adds_witnesses(n):  # witnesses += ..., .append(...) or .extend(...)
        if isinstance(n, ast.AugAssign):
            return getattr(n.target, "id", None) == "witnesses"
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("append", "extend")
                and getattr(n.func.value, "id", None) == "witnesses")

    adds = [n for n in ast.walk(sweep) if adds_witnesses(n)]
    assert len([n for n in adds if flipped(n)]) == 1
    proving = [n for n in ast.walk(sweep) if isinstance(n, ast.While)
               and _called(n, "_proves_segment")]
    assert len(proving) == 1 and not flipped(proving[0])


def test_flip_is_decided_before_the_sweep_and_ends_it():
    sweep = _engine_function("upsilon")
    loops = [n for n in ast.walk(sweep) if isinstance(n, ast.While)]
    assert len(loops) == 1
    loop = loops[0]
    for name in ("_flip", "_proves_flip"):
        assert [site < loop.lineno for site in _called(sweep, name)] == [True]
    starts = [(n.lineno, value) for n in ast.walk(loop)
              if isinstance(n, ast.Assign) and isinstance(n.value, ast.Tuple)
              for target in n.targets if isinstance(target, ast.Tuple)
              for t, value in zip(target.elts, n.value.elts)
              if getattr(t, "id", None) == "n1"]
    # the tie search's first n1, before its walk
    first = min(starts, key=lambda start: start[0])[1]
    bound = {n.id for n in ast.walk(loop.test) if isinstance(n, ast.Name)}
    assert isinstance(first, ast.Name) and first.id in bound
    after = [n for n in sweep.body if n.lineno > loop.end_lineno]
    assert after and not [site for n in after
                          for site in _called(n, "_weights")]


def test_scan_sorts_the_sweeps_ids():
    assert not _called(_engine_function("_filtered_scan"), "range")


def test_carried_reads_the_tie_search():
    sweep, carried = _engine_function("upsilon"), _engine_function("_carried")
    pairs = [(target, n.value) for n in ast.walk(sweep)
             if isinstance(n, ast.Assign) for target in n.targets]
    weighed = set()
    for target, value in pairs:  # the loop walks the pairs it appends too
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs += zip(target.elts, value.elts)
        elif _called(value, "_weights"):  # bare, or as in w or _weights(...)
            weighed |= {t.id for t in ast.walk(target)
                        if isinstance(t, ast.Name)}
    passed = {n.id for call in ast.walk(sweep) if isinstance(call, ast.Call)
              and getattr(call.func, "id", None) in ("_carried", "_hull")
              for n in ast.walk(call) if isinstance(n, ast.Name)}
    assert weighed == {"w", "w0", "w1"} and not passed & weighed
    assert not {a.arg for a in carried.args.args} & weighed
    loops = [n for n in ast.walk(carried)
             if isinstance(n, (ast.For, ast.comprehension))]
    assert not [n for n in loops if isinstance(n.iter, ast.Name)
                and n.iter.id == "phi"]
    ties = [n for n in ast.walk(sweep) if isinstance(n, ast.Name)
            and n.id == "ties" and isinstance(n.ctx, ast.Store)]
    assert len(ties) == 1


def test_slice_slot_holds_none_or_a_built_record():
    admissible = next(node for node in COMPLEXES.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "require_admissible")
    assert not _called(admissible, "isinstance")

    def slots(tree):  # each assignment under tree to a _slice attribute
        for n in ast.walk(tree):
            if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                if any(isinstance(t, ast.Attribute) and t.attr == "_slice"
                       for tgt in targets for t in ast.walk(tgt)):
                    yield n

    stored = dict.fromkeys(slots(COMPLEXES), "<module>")
    for f in ast.walk(COMPLEXES):  # outer defs first: the innermost wins
        if isinstance(f, ast.FunctionDef):
            stored.update(dict.fromkeys(slots(f), f.name))
    values = sorted(
        (name, "_Slice(...)" if isinstance(n.value, ast.Call)
         and getattr(n.value.func, "id", None) == "_Slice"
         else ast.unparse(n.value)) for n, name in stored.items())
    assert values == [("_adopt", "None"), ("require_admissible", "_Slice(...)")]
    assert not [n for n in ast.walk(COMPLEXES) if isinstance(n, ast.Constant)
                and n.value == "_slice"]


def test_a_complex_keeps_its_data_and_the_engines_records_only():
    stored = {node.attr for node in ast.walk(COMPLEXES)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)}
    assert stored <= {"_names", "_alex", "_maslov", "_entries", "_dup",
                      "ambient_d", "label", "_slice", "_sweep"}
    functions = {node.name: node for node in COMPLEXES.body
                 if isinstance(node, ast.FunctionDef)}
    called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
              for n in ast.walk(functions["validate"])
              if isinstance(n, ast.Call)}
    assert called & set(functions) == {"require_admissible"}
    assert not called & {"require_valid", "_matrix"}
