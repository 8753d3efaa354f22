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
slope_intervals alone.
"""

import ast
from pathlib import Path

import knotupsilon.certificates
import knotupsilon.complexes
import knotupsilon.engine

TREE = ast.parse(Path(knotupsilon.engine.__file__).read_text())
COMPLEXES = ast.parse(Path(knotupsilon.complexes.__file__).read_text())
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
