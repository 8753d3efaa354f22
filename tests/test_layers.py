"""Layering lint: the engine reads a complex only through its slice record.

engine.py is parsed, not imported.  The only private attribute it reads
off a complex argument c is its own cache, _sweep; everything else comes
from require_admissible's record.  Parity arithmetic belongs to that
record's builder, so the engine takes no value modulo 2.
"""

import ast
from pathlib import Path

import knotupsilon.engine

TREE = ast.parse(Path(knotupsilon.engine.__file__).read_text())


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
