"""Source rules for src/ellstab, checked on the syntax tree."""

import ast

from test_dependencies import SRC


def _called(call: ast.Call):
    """The name a call is made by: ``f`` for ``f(...)`` and ``m.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _reads_point_coefficient_of_a_product(tree):
    """Line numbers of ``mul(...).s`` and ``<module>.mul(...).s``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "s" and isinstance(node.value, ast.Call):
            if _called(node.value) == "mul":
                yield node.lineno


def _builds_poly1_from_fractions(tree):
    """Line numbers of ``Poly1(...)`` calls whose argument is a list or
    generator comprehension of ``Fraction(...)`` calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "Poly1" and node.args:
            arg = node.args[0]
            if (isinstance(arg, (ast.ListComp, ast.GeneratorExp)) and isinstance(arg.elt, ast.Call)
                    and _called(arg.elt) == "Fraction"):
                yield node.lineno


def _sites(rule):
    files = sorted(SRC.glob("*.py"))
    assert files
    return [(path.name, line) for path in files for line in rule(ast.parse(path.read_text()))]


def test_no_module_reads_the_point_coefficient_off_a_product():
    """The point coefficient of a product is ``ring.degree``, one integer
    pass on fraction-free vectors, not a whole product built to read ``.s``."""
    assert _sites(_reads_point_coefficient_of_a_product) == []


def test_the_rule_sees_both_call_forms():
    tree = ast.parse("a = mul(g, x, y).s\nb = ring.mul(g, x, y).s\nc = degree(g, x, y)\n")
    assert list(_reads_point_coefficient_of_a_product(tree)) == [1, 2]


def test_no_module_builds_a_poly1_from_fractions():
    """A producer that holds integer numerators hands them to
    ``Poly1._ints``, not to Fractions that the constructor clears again."""
    assert _sites(_builds_poly1_from_fractions) == []


def test_the_poly1_rule_sees_lists_and_generators():
    tree = ast.parse("a = Poly1([Fraction(n, den) for n in nums])\n"
                     "b = Poly1(Fraction(n, den) for n in nums)\n"
                     "c = poly.Poly1([Fraction(n) for n in nums])\n"
                     "d = Poly1._ints(nums, den)\n"
                     "e = Poly1([n * x for n in nums])\n")
    assert list(_builds_poly1_from_fractions(tree)) == [1, 2, 3]
