"""Source rules for src/ellstab, checked on the syntax tree."""

import ast

from test_dependencies import SRC


def _reads_point_coefficient_of_a_product(tree):
    """Line numbers of ``mul(...).s`` and ``<module>.mul(...).s``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "s" and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "mul":
                yield node.lineno


def test_no_module_reads_the_point_coefficient_off_a_product():
    """The point coefficient of a product is ``ring.degree``, one integer
    pass on fraction-free vectors, not a whole product built to read ``.s``."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [(path.name, line) for path in files
             for line in _reads_point_coefficient_of_a_product(ast.parse(path.read_text()))]
    assert found == []


def test_the_rule_sees_both_call_forms():
    tree = ast.parse("a = mul(g, x, y).s\nb = ring.mul(g, x, y).s\nc = degree(g, x, y)\n")
    assert list(_reads_point_coefficient_of_a_product(tree)) == [1, 2]
