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
slope_intervals alone.  The sweep weighs each point once per grid
point: the slice weights (2b - a) i + a j, sums of two products, are
built by one comprehension in upsilon and one in nu_at, _proves_segment
multiplies nothing and reads the weight lists it is given, and
_filtered_scan reads one mask back with bits, the reduced cycle's.  The
flip past t = 1 has one route: neither complexes.py nor knots.py names
anything flip, the slice record has no field for one, and the engine
calls its rule _flip at one site, which reads the slice's i and j alone.
upsilon fills one candidate slot: a mirrored, carried or scanned witness
is proved at one call of _proves_segment and ends at the one assignment
of t1, the tie search's; the one call of _filtered_scan sorts the
sweep's ids, not a range of its own, so every support shares those ints.
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
    for name in ("upsilon", "nu_at"):
        found = weights(functions[name])
        comprehensions = [n for n in ast.walk(functions[name])
                          if isinstance(n, ast.ListComp)
                          and set(found) & set(ast.walk(n))]
        assert len(found) == len(comprehensions) == 1, name
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
    read = {node.attr for node in ast.walk(functions["_flip"])
            if isinstance(node, ast.Attribute)}
    assert read == {"i", "j"}
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
    stores = [n for n in ast.walk(sweep) if isinstance(n, ast.Name)
              and n.id == "t1" and isinstance(n.ctx, ast.Store)]
    tie = [n.value for n in ast.walk(sweep) if isinstance(n, ast.Assign)
           and set(n.targets) & set(stores)]
    assert len(stores) == len(tie) == 1
    assert [n.id for n in ast.walk(tie[0]) if isinstance(n, ast.Name)] == [
        "n1", "m1"]


def test_scan_sorts_the_sweeps_ids():
    assert not _called(_engine_function("_filtered_scan"), "range")
