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


_KERNEL_METHODS = {"__sub__", "__rsub__", "__truediv__", "scale", "_ints"}
_KERNEL_STORES = {"_store", "_store1"}


def _copies_the_integer_form_kernel(tree):
    """Line numbers of a class method that ``ring._IntegerForm`` owns, and
    of a module-level function named as a type's own ``_store``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in _KERNEL_STORES:
            yield node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in _KERNEL_METHODS:
                    yield item.lineno
                if isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id in _KERNEL_METHODS for t in item.targets):
                    yield item.lineno


def _sites(rule, names=None):
    files = sorted(path for path in SRC.glob("*.py") if names is None or path.name in names)
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


def test_the_exact_scalars_share_one_integer_form_kernel():
    """``Poly1``, ``Poly2`` and ``LaurentSeries`` take ``_ints``, ``-``,
    ``/`` and ``scale`` from ``ring._IntegerForm`` and store through their
    own ``_store`` methods, not through copies."""
    assert _sites(_copies_the_integer_form_kernel, {"poly.py", "series.py"}) == []


def test_the_kernel_rule_sees_methods_aliases_and_module_stores():
    tree = ast.parse("class P:\n"
                     "    def __sub__(self, o): pass\n"
                     "    def _store(self, nums, den): pass\n"
                     "    __rsub__ = __sub__\n"
                     "    def _add(self, o, sign): pass\n"
                     "    @classmethod\n"
                     "    def _ints(cls, *form): pass\n"
                     "def _store1(p, nums, den): pass\n"
                     "def scale(x): pass\n"
                     "def _store(p, nums, den): pass\n")
    assert list(_copies_the_integer_form_kernel(tree)) == [2, 4, 7, 8, 10]


def _tests_nums_for_none(tree):
    """Line numbers of ``<x>._nums is None``, ``nums is not None`` and the
    like: a test of a vector's numerators, or of a local read off them,
    against None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            operands = [node.left, *node.comparators]
            named = any(getattr(x, "attr", getattr(x, "id", None)) in ("_nums", "nums") for x in operands)
            if named and any(isinstance(x, ast.Constant) and x.value is None for x in operands):
                yield node.lineno


def test_every_vector_holds_its_numerators():
    """A ``ChernVector`` of any scalar holds numerators over one
    denominator, so no module asks whether it holds them."""
    assert _sites(_tests_nums_for_none) == []


def test_the_numerators_rule_sees_attributes_locals_and_both_forms():
    tree = ast.parse("if v._nums is None: pass\n"
                     "b = w._nums is not None\n"
                     "nums = v._nums\n"
                     "if nums is None: pass\n"
                     "c = None is not self._nums\n"
                     "d = v._den is None\n"
                     "e = type(v._nums[0]) is int\n"
                     "f = nums == None\n")
    assert list(_tests_nums_for_none(tree)) == [1, 2, 4, 5]


def _imports_poly(tree):
    """Line numbers of an import of the ``poly`` module or of a name from
    it, at module level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "poly" or any(a.name == "poly" for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "poly" for a in node.names):
            yield node.lineno


def test_the_ring_imports_nothing_from_poly():
    """The ring sits below the polynomials: ``poly`` builds on
    ``ring._IntegerForm``, and the product's structure constants come from
    the relations, not from a product at ``Poly2`` monomials."""
    assert _sites(_imports_poly, {"ring.py"}) == []


def test_the_layering_rule_sees_every_import_form():
    tree = ast.parse("from .poly import Poly2\n"
                     "def f():\n"
                     "    from .poly import Poly2, monomial_coefficients\n"
                     "from . import poly\n"
                     "import ellstab.poly\n"
                     "from ellstab.poly import Poly1\n"
                     "from .series import LaurentSeries\n"
                     "from . import polyhedra\n")
    assert sorted(_imports_poly(tree)) == [1, 3, 4, 5, 6]


def _formats_a_label_eagerly(tree):
    """Line numbers of ``report.check(ok, f"...")`` (or ``label=f"..."``):
    an f-string label, built on every case although only a failing check
    reads it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "check":
            labels = node.args[1:2] + [k.value for k in node.keywords if k.arg == "label"]
            if any(isinstance(label, ast.JoinedStr) for label in labels):
                yield node.lineno


def test_suite_labels_are_formatted_only_on_a_failure():
    """A suite hands ``SuiteReport.check`` a ``_Label``, which formats its
    arguments only when the check fails."""
    assert _sites(_formats_a_label_eagerly, {"suites.py"}) == []


def test_the_label_rule_sees_positional_and_keyword_f_strings():
    tree = ast.parse('report.check(ok, f"case {i}")\n'
                     'report.check(ok, label=f"case {i} v={v}")\n'
                     'report.check(ok, _Label("case {}", i))\n'
                     'report.check(ok, "case")\n'
                     'check(ok, f"{i}")\n'
                     'report.verdicts.append(f"{i}:{ok}")\n')
    assert list(_formats_a_label_eagerly(tree)) == [1, 2, 5]


def _calls_by_name(tree, called, function=None):
    """Line numbers of calls made by the name ``called`` (``f(...)`` or
    ``m.f(...)``), anywhere in the tree or only inside the functions of
    that name."""
    scopes = [tree] if function is None else [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function]
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and _called(node) == called:
                yield node.lineno


def test_slopes_build_no_class_through_the_coercing_constructor():
    """A slope's fixed classes are numerators kept on the geometry
    (``ChernVector._ints``), not coerced from Fractions on every call."""
    assert _sites(lambda tree: _calls_by_name(tree, "ChernVector"), {"slopes.py"}) == []


def test_the_one_dimensional_draw_builds_no_fraction():
    """``suites._rand_onedim_class`` draws and tests its class on integer
    numerators."""
    tree = ast.parse((SRC / "suites.py").read_text())
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_rand_onedim_class" for node in tree.body)
    assert list(_calls_by_name(tree, "Fraction", "_rand_onedim_class")) == []


def test_the_call_rule_sees_both_forms_and_its_scope():
    tree = ast.parse("a = ChernVector(0, 0, S, eta, 1, 0)\n"
                     "b = ring.ChernVector(0, 0, S, eta, 1, 0)\n"
                     "c = ChernVector._ints(nums, den)\n"
                     "def _rand_onedim_class(rng):\n"
                     "    x = Fraction(1)\n"
                     "    y = fractions.Fraction(2, 3)\n"
                     "    return ChernVector._ints([x], y)\n"
                     "def other():\n"
                     "    return Fraction(3)\n")
    assert list(_calls_by_name(tree, "ChernVector")) == [1, 2]
    assert list(_calls_by_name(tree, "Fraction", "_rand_onedim_class")) == [5, 6]
    assert sorted(_calls_by_name(tree, "Fraction")) == [5, 6, 9]


def _inside(tree, keep):
    """The ids of every node inside the definitions that ``keep`` accepts,
    given each definition and the class it sits in (None at module level)."""
    inside = set()
    scopes = [(node, None) for node in tree.body]
    scopes += [(item, node.name) for node in tree.body if isinstance(node, ast.ClassDef) for item in node.body]
    for node, owner in scopes:
        if isinstance(node, ast.FunctionDef) and keep(node.name, owner):
            inside |= {id(n) for n in ast.walk(node)}
    return inside


def _touches_kept_values_outside_the_keeper(tree):
    """Line numbers of a read or write of a geometry's ``matrices`` (the
    attribute, or its name as a string) outside ``ring._kept`` and
    ``BaseGeometry.__init__``."""
    allowed = _inside(tree, lambda name, owner: (name, owner) in (("_kept", None), ("__init__", "BaseGeometry")))
    for node in ast.walk(tree):
        named = getattr(node, "attr", None) == "matrices" or getattr(node, "value", None) == "matrices"
        if named and isinstance(node, (ast.Attribute, ast.Constant)) and id(node) not in allowed:
            yield node.lineno


def _named(tree, names):
    """Line numbers of a name, attribute, import or definition called one
    of ``names``."""
    for node in ast.walk(tree):
        if any(getattr(node, key, None) in names for key in ("id", "attr", "name")):
            yield node.lineno


def _names_the_old_reader(tree):
    return _named(tree, {"monomial_coefficients"})


def _is_fixed_index(index) -> bool:
    if isinstance(index, ast.UnaryOp):
        index = index.operand
    return isinstance(index, (ast.Constant, ast.Slice))


def _sums_over_numerators(tree):
    """Line numbers of ``sum(...)`` calls outside ``ring._contract`` that
    index numerators (a name ending in ``nums``) by a computed index, as
    the row sums of a table did: ``sum(a * nums[j] for j, a in row)``."""
    allowed = _inside(tree, lambda name, owner: name == "_contract" and owner is None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "sum" and id(node) not in allowed:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Subscript) and not _is_fixed_index(sub.slice)
                        and str(getattr(sub.value, "id", getattr(sub.value, "attr", ""))).endswith("nums")):
                    yield node.lineno
                    break


def _reads_a_table_off_monomials(tree):
    """Line numbers of a definition, call, import or other use of the
    ``Poly2`` read-off (``monomial_table``) or of its monomial class
    (``_monomials``)."""
    return _named(tree, {"monomial_table", "_monomials"})


def test_one_table_rule():
    """Every value of the geometry alone is kept by ``ring._kept``, every
    table is written from the lattice's integers (no module defines or
    calls a read-off at ``Poly2`` monomials), and every table is applied by
    ``ring._contract``."""
    assert _sites(_touches_kept_values_outside_the_keeper) == []
    assert _sites(_names_the_old_reader) == []
    assert _sites(_reads_a_table_off_monomials) == []
    assert _sites(_sums_over_numerators) == []


def test_the_read_off_rule_sees_definitions_calls_and_imports():
    tree = ast.parse("from .poly import Poly2, monomial_table\n"
                     "def monomial_table(values, size): pass\n"
                     "table = poly.monomial_table(values, 6)\n"
                     "def _monomials(g): pass\n"
                     "parts = f(g, _monomials(g))\n"
                     "monomials = _monomial_rows(g)\n"
                     "name = 'monomial_table'\n"
                     "rows = _written(entries, 6, 6)\n")
    assert sorted(set(_reads_a_table_off_monomials(tree))) == [1, 2, 3, 4, 5]


def test_the_table_rules_see_their_forms_and_scopes():
    tree = ast.parse("def _kept(g, build, *args):\n"
                     "    return g.matrices[build, args]\n"
                     "class BaseGeometry:\n"
                     "    def __init__(self):\n"
                     "        object.__setattr__(self, 'matrices', {})\n"
                     "    def other(self):\n"
                     "        return self.matrices\n"
                     "def phi(g, v):\n"
                     "    if phi not in g.matrices:\n"
                     "        g.matrices[phi] = 1\n"
                     "    return getattr(g, 'matrices')\n")
    assert sorted(_touches_kept_values_outside_the_keeper(tree)) == [7, 9, 10, 11]
    tree = ast.parse("from .poly import Poly2, monomial_coefficients\n"
                     "entries, den = monomial_coefficients(values)\n"
                     "rows = poly.monomial_coefficients(values)\n"
                     "def monomial_coefficients(values): pass\n"
                     "table = monomial_table(values, 6)\n")
    assert sorted(set(_names_the_old_reader(tree))) == [1, 2, 3, 4]
    tree = ast.parse("def _contract(table, left, right):\n"
                     "    return sum(a * lnums[j] for j, a in row)\n"
                     "x = [sum(a * nums[j] for j, a in row) for row in rows]\n"
                     "y = sum(e * v._nums[i] * dnums[j] for i, j, e in row)\n"
                     "z = sum(w * t for w, t in zip(weights, nums[2 + r :]))\n"
                     "w = sum(nums[0] + nums[-1] for _ in row)\n"
                     "u = sum(c * y[e - i] for i, c in x)\n")
    assert sorted(_sums_over_numerators(tree)) == [3, 4]


_OLD_CURVE_WRITERS = {"_ucoefficients", "from_ucoefficients"}
_CURVE_TABLE_NAMES = {"_curve_table", "_curve_row"}


def _reads_the_curve_table_outside_its_readers(tree):
    """Line numbers of a call to ``_curve_table`` outside ``_curve_row`` and
    ``constraint_poly``, and of ``constraint_poly(...).eval_v``: a curve
    row built around the one integer table."""
    allowed = _inside(tree, lambda name, owner: owner is None and name in ("_curve_row", "constraint_poly"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "_curve_table" and id(node) not in allowed:
            yield node.lineno
        if (isinstance(node, ast.Attribute) and node.attr == "eval_v" and isinstance(node.value, ast.Call)
                and _called(node.value) == "constraint_poly"):
            yield node.lineno


def test_the_curve_polynomial_is_written_once():
    """``curves._curve_table`` is the one place the curve polynomial is
    written, as integer numerators; ``_curve_row`` (the row at a rational
    v) and ``constraint_poly`` read it, and no other module builds a row."""
    others = {path.name for path in SRC.glob("*.py")} - {"curves.py"}
    assert _sites(lambda tree: _named(tree, _OLD_CURVE_WRITERS)) == []
    assert _sites(lambda tree: _named(tree, _CURVE_TABLE_NAMES), others) == []
    assert _sites(_reads_the_curve_table_outside_its_readers) == []
    assert _sites(lambda tree: _named(tree, _CURVE_TABLE_NAMES), {"curves.py"})


def test_the_curve_rules_see_names_calls_and_scopes():
    tree = ast.parse("from .curves import _curve_row, constraint_poly\n"
                     "def _ucoefficients(c, v): pass\n"
                     "p = Poly2.from_ucoefficients(rows)\n"
                     "def constraint_poly(c):\n"
                     "    return _curve_table(c)\n"
                     "def _curve_row(c, v):\n"
                     "    rows, den = _curve_table(c)\n"
                     "def solve(c, v):\n"
                     "    rows, den = curves._curve_table(c)\n"
                     "    return constraint_poly(c).eval_v(v)\n"
                     "x = constraint_poly(c).eval(u, v)\n")
    assert sorted(set(_named(tree, _OLD_CURVE_WRITERS))) == [2, 3]
    assert sorted(set(_named(tree, _CURVE_TABLE_NAMES))) == [1, 5, 6, 7, 9]
    assert sorted(_reads_the_curve_table_outside_its_readers(tree)) == [9, 10]


_RETIRED_CROSS_ROUTE = {"_symbolic_germs", "_reduced_parts"}
_POLY2_SOURCES = {"Poly2", "_reduced_parts", "_full_parts", "_symbolic_germs", "_reduced_germs", "_germ_numerators"}


def _bindings(node):
    """(target, value) of each binding that ``node`` makes: assignments,
    and the targets of ``for`` loops and comprehensions with their iterables."""
    if isinstance(node, ast.Assign):
        return [(target, node.value) for target in node.targets]
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
        return [(node.target, node.value)]
    if isinstance(node, (ast.For, ast.comprehension)):
        return [(node.target, node.iter)]
    return []


def _multiplies_two_poly2_values(tree, function="_cross_poly"):
    """Line numbers of a ``*`` inside the functions named ``function`` whose
    two operands each read a ``Poly2`` value: a name or attribute in
    ``_POLY2_SOURCES`` (the type, or a closed form at symbols), or a local
    name bound from one, directly or through other locals."""
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == function):
            continue
        bound: set = set()

        def symbolic(expr):
            return any(getattr(n, "id", getattr(n, "attr", None)) in _POLY2_SOURCES | bound for n in ast.walk(expr))

        while True:
            new = {t.id for node in ast.walk(fn) for target, value in _bindings(node) if symbolic(value)
                   for t in ast.walk(target) if isinstance(t, ast.Name)}
            if new <= bound:
                break
            bound |= new
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                if symbolic(node.left) and symbolic(node.right):
                    yield node.lineno


def test_one_cross_route():
    """The cross polynomial is one integer sum over the kept products of the
    reduced germs (``asymptotics._cross_products``): no module names the
    per-class symbolic charges that it replaced, and ``_cross_poly``
    multiplies no two ``Poly2`` values."""
    assert _sites(lambda tree: _named(tree, _RETIRED_CROSS_ROUTE)) == []
    assert _sites(lambda tree: _named(tree, {"_cross_poly"}), {"asymptotics.py"})
    assert _sites(_multiplies_two_poly2_values, {"asymptotics.py"}) == []


def test_the_cross_route_rules_see_names_bindings_and_scopes():
    tree = ast.parse("def _cross_poly(g, m, n, kind, d):\n"
                     "    germs = _kept(g, charges_mod._symbolic_germs)\n"
                     "    zm, zn = (charges_mod._reduced_parts(g, v, germs) for v in (m, n))\n"
                     "    x = zm[0] * zn[1] - zm[1] * zn[0]\n"
                     "    u = Poly2.u()\n"
                     "    w = u\n"
                     "    y = w * Poly2.v() + 2 * u\n"
                     "    for s, a, k, c in terms:\n"
                     "        t = minors[k] * c\n"
                     "    return Poly2._ints(totals, den * mden)\n"
                     "def other():\n"
                     "    return Poly2.u() * Poly2.v()\n"
                     "from .charges import _reduced_parts\n")
    assert sorted(_multiplies_two_poly2_values(tree)) == [4, 4, 7]
    assert sorted(set(_named(tree, _RETIRED_CROSS_ROUTE))) == [2, 3, 13]


def _builds_the_symbols_outside_the_reader(tree):
    """Line numbers of a ``Poly2.u()`` or ``Poly2.v()`` call (``Poly2`` by
    name or as a module attribute) outside the module-level
    ``_germ_rows``."""
    allowed = _inside(tree, lambda name, owner: owner is None and name == "_germ_rows")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("u", "v")
                and getattr(node.func.value, "id", getattr(node.func.value, "attr", None)) == "Poly2"
                and id(node) not in allowed):
            yield node.lineno


def test_the_symbols_are_built_by_one_kept_reader():
    """``charges``, ``verify`` and ``asymptotics`` build the symbols (u, v)
    only in ``charges._germ_rows``, which reads the germs there once per
    geometry as integer rows: the closed-form proof, the symbolic
    im-identity and the cross products are integer combinations of them."""
    names = {"charges.py", "verify.py", "asymptotics.py"}
    assert _sites(_builds_the_symbols_outside_the_reader, names) == []
    assert _sites(lambda tree: _named(tree, {"_germ_rows"}), {"charges.py"})


def test_the_symbol_rule_sees_both_forms_and_its_scope():
    tree = ast.parse("def _germ_rows(g, flat=False):\n"
                     "    u, v = Poly2.u(), Poly2.v()\n"
                     "def _proved_closed_form(g):\n"
                     "    u = Poly2.u()\n"
                     "    return poly.Poly2.v()\n"
                     "x = Poly2.v()\n"
                     "class C:\n"
                     "    def _germ_rows(self):\n"
                     "        return Poly2.u()\n"
                     "y = Poly2.const(1) + series.u() + Poly2.u\n")
    assert sorted(_builds_the_symbols_outside_the_reader(tree)) == [4, 5, 6, 9]


_SENTINEL_HELPERS = {"_sum_products", "_or_zero"}
_HAND_REMAINDERS = {"_negated_remainder", "_primitive"}


def test_the_pairings_sum_without_a_none_sentinel():
    """``pair`` and ``pair_h`` skip exact-zero factors as ``ring._contract``
    does and add the products with ``ring._sum``, so no module keeps a None
    for "no product reached"."""
    assert _sites(lambda tree: _named(tree, _SENTINEL_HELPERS)) == []


def test_every_algebraic_vanishing_goes_through_poly():
    """The algebraic cycle check asks ``poly.vanish_at_root`` once per
    point, one gcd of the components' remainders and one Sturm count, and
    reduces nothing mod the curve polynomial by hand."""
    assert _sites(lambda tree: _named(tree, _HAND_REMAINDERS), {"curves.py"}) == []


def test_the_sentinel_and_remainder_rules_see_their_forms():
    tree = ast.parse("def _sum_products(pairs): pass\n"
                     "x = ring._or_zero(total)\n"
                     "from .ring import _or_zero, pair\n"
                     "y = _sum(terms)\n")
    assert sorted(set(_named(tree, _SENTINEL_HELPERS))) == [1, 2, 3]
    tree = ast.parse("from .poly import (\n"
                     "    Poly1,\n"
                     "    _negated_remainder,\n"
                     ")\n"
                     "r = poly._primitive(p)\n"
                     "s = sign_at_root(q, p, u)\n")
    assert sorted(set(_named(tree, _HAND_REMAINDERS))) == [3, 5]


def _floats(tree):
    """Line numbers of a ``float(...)`` call, a ``sqrt(...)`` or
    ``<module>.sqrt(...)`` call, and a power ``** 0.5``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) in ("float", "sqrt"):
            yield node.lineno
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant) and node.right.value == 0.5):
            yield node.lineno


def test_no_module_computes_in_floating_point():
    """The package is exact: roots are certified dyadic brackets, the
    closed-form cells use ``math.isqrt``, and nothing converts to a float."""
    assert _sites(_floats) == []


def test_the_float_rule_sees_calls_roots_and_powers():
    tree = ast.parse("a = float(x)\n"
                     "b = math.sqrt(d)\n"
                     "c = sqrt(d)\n"
                     "e = d ** 0.5\n"
                     "f = isqrt(d)\n"
                     "g = math.isqrt(d) ** 2\n"
                     "h = isinstance(x, float)\n"
                     "i = x ** 5\n")
    assert sorted(set(_floats(tree))) == [1, 2, 3, 4]


def test_no_slope_names_twist():
    """A slope kind's exp(-B) goes on its fixed classes, so ``slopes`` never
    twists a class (by the name ``twist`` or ``ring.twist``)."""
    assert _sites(lambda tree: _named(tree, {"twist"}), {"slopes.py"}) == []


def test_the_twist_rule_sees_imports_calls_and_attributes():
    tree = ast.parse("from .ring import (\n"
                     "    mul,\n"
                     "    twist,\n"
                     ")\n"
                     "tw = ring.twist(g, v, B)\n"
                     "e = _exp_minus(g, B)\n"
                     "def twist(g, v, B): pass\n"
                     "twisted = mul(g, f, e)\n")
    assert sorted(set(_named(tree, {"twist"}))) == [3, 5, 7]


def _calls_outside(tree, called, function=None):
    """Line numbers of a call made by the name ``called`` (``f(...)`` or
    ``m.f(...)``) outside the module-level function named ``function``
    (anywhere, for None)."""
    allowed = _inside(tree, lambda name, owner: owner is None and name == function)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == called and id(node) not in allowed:
            yield node.lineno


def test_the_full_kind_twists_no_class():
    """The full kind's coefficients are its table on exp(-pull(d)), so
    ``charges`` twists a class only in ``full_charge``, its independent
    ring path, and ``asymptotics`` never does."""
    assert _sites(lambda tree: _calls_outside(tree, "twist", "full_charge"), {"charges.py"}) == []
    assert _sites(lambda tree: _calls_outside(tree, "twist"), {"asymptotics.py"}) == []


def test_the_twist_call_rule_sees_both_forms_and_its_scope():
    tree = ast.parse("def full_charge(g, v, omega, B):\n"
                     "    tw = twist(g, v, B)\n"
                     "    return ring.twist(g, tw, B)\n"
                     "def _coefficients(g, v, kind, d):\n"
                     "    return twist(g, v, DivisorX.pullback(d))\n"
                     "class C:\n"
                     "    def full_charge(self):\n"
                     "        return charges.twist(g, v, B)\n"
                     "tw = ring.twist(g, v, B)\n"
                     "e = _exp_minus(g, B)\n"
                     "f = twist\n")
    assert sorted(_calls_outside(tree, "twist", "full_charge")) == [5, 8, 9]
    assert sorted(_calls_outside(tree, "twist")) == [2, 3, 5, 8, 9]


def _twists_by_the_half_canonical_field(tree):
    """Line numbers of ``_exp_minus(...)`` and ``twist(...)`` calls, bare or
    through a module, with a ``half_canonical_bfield()`` call among their
    arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) in ("_exp_minus", "twist"):
            if any(isinstance(a, ast.Call) and _called(a) == "half_canonical_bfield" for a in node.args):
                yield node.lineno


def test_the_half_canonical_exp_is_read_where_it_is_kept():
    """Outside ``ring``, exp(-B) of the half-canonical field is read through
    ``_kept(g, _half_canonical_exp)``, built once per geometry, never built
    again by ``_exp_minus`` or a ``twist``."""
    names = {path.name for path in SRC.glob("*.py")} - {"ring.py"}
    assert _sites(_twists_by_the_half_canonical_field, names) == []


def test_the_half_canonical_rule_sees_calls_and_attributes():
    tree = ast.parse("e = _exp_minus(g, g.half_canonical_bfield())\n"
                     "tw = ring.twist(g, v, geo.half_canonical_bfield())\n"
                     "e = _kept(g, _half_canonical_exp)\n"
                     "tw = twist(g, v, DivisorX.pullback(d))\n"
                     "kind = SlopeKind.mu_omega_b(obar, g.half_canonical_bfield())\n"
                     "tw = twist(\n    g, v, g.half_canonical_bfield()\n)\n")
    assert sorted(_twists_by_the_half_canonical_field(tree)) == [1, 2, 6]


_GUARD_FAULT = "reduced charge closed form disagrees with ring evaluation"


def _raises_the_guard_fault(tree):
    """(line, owner) of each ``raise ComputationFault(...)``, bare or through
    a module, with the reduced closed form's ring-guard message, the owner
    being the module-level function or class it sits in (None outside
    one)."""
    owners = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners.update((id(n), node.name) for n in ast.walk(node))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and _called(node.exc) == "ComputationFault"
                and any(isinstance(a, ast.Constant) and a.value == _GUARD_FAULT for a in node.exc.args)):
            yield node.lineno, owners.get(id(node))


def test_one_ring_guard_for_the_reduced_closed_form():
    """The reduced closed form is checked against ring products only by the
    per-geometry proof: its fault is raised in ``_proved_closed_form`` alone,
    no point or class is checked again, and in ``charges`` and ``verify``
    the powers of a polarization (``divisor_powers``) are built only for
    ``full_charge``, the full kind's independent ring path.  ``verify``
    keeps no memo of a point."""
    assert [(name, owner) for name, (_, owner) in _sites(_raises_the_guard_fault)] == [
        ("charges.py", "_proved_closed_form")]
    names = {"charges.py", "verify.py"}
    assert _sites(lambda tree: _calls_outside(tree, "divisor_powers", "full_charge"), names) == []
    assert _sites(lambda tree: _calls(tree, {"divisor_powers"}), {"charges.py"})
    assert _sites(lambda tree: _named(tree, {"functools", "lru_cache"}), {"verify.py"}) == []


def test_the_guard_rules_see_raises_scopes_and_calls():
    tree = ast.parse("def _proved_closed_form(g):\n"
                     f"    raise ComputationFault('{_GUARD_FAULT}')\n"
                     "def _checked_reduced_parts(g, v, point):\n"
                     "    if point:\n"
                     f"        raise errors.ComputationFault('{_GUARD_FAULT}')\n"
                     "    raise ComputationFault('another fault')\n"
                     f"raise ComputationFault('{_GUARD_FAULT}')\n"
                     "class C:\n"
                     "    def check(self):\n"
                     f"        raise ComputationFault('{_GUARD_FAULT}')\n"
                     f"fault = ComputationFault('{_GUARD_FAULT}')\n"
                     "def full_charge(g, v, omega, B):\n"
                     "    return divisor_powers(g, omega)\n"
                     "def _point(g, u, vpar):\n"
                     "    return ring.divisor_powers(g, w)\n"
                     "powers = divisor_powers(g, w)\n")
    assert set(_raises_the_guard_fault(tree)) == {
        (2, "_proved_closed_form"), (5, "_checked_reduced_parts"), (7, None), (10, "C")}
    assert sorted(_calls_outside(tree, "divisor_powers", "full_charge")) == [15, 16]


# Every module-level functools memo in src, with the reuse it serves.  Hit/miss
# counts are from perfbench's three workloads at seed 1, one run of each
# workload's passes, read before each ``fresh_unit`` clear.
_MEMOS = {
    # 41/31 on ring-identities, 51/47 on germ-verdicts: one germ per
    # (curve, order, kind), for the verdicts the cross table leaves to the
    # germs, ``charge_series`` and the h0 suite's class draws
    ("asymptotics.py", "_charge_germs"),
    # 38/26 on ring-identities, 104/439 on germ-verdicts: one cross table per
    # (geometry, curve, kind), its rows and u's coefficients reused by every
    # later pair on the curve (the correspondence suite's curves repeat)
    ("asymptotics.py", "_cross_table"),
    # 48/12 on ring-identities, 40/8 on curve-queries
    ("curves.py", "constraint_poly"),
    # 212/52 on ring-identities, 41/51 on curve-queries
    ("curves.py", "_fixed_cycles"),
    # no benchmark hit (0/12), but a second algebraic chow check on one curve
    # takes 71-86 us with it and 98-122 us without it (rank 1 and 2, h = -1
    # and 1/2; building the parts costs 18-23 us of that)
    ("curves.py", "_symbolic_difference_parts"),
    # 557/43 on germ-verdicts, 6/8 on curve-queries
    ("suites.py", "_geometry"),
    # no hit in any workload (below the germ cache, and ``_kept`` keeps the
    # slope classes built from m); both stay only because the benchmark's
    # self-test ``test_fresh_unit_empties_package_caches`` reads their
    # ``cache_info`` by name, and go with the next change to the benchmark
    ("curves.py", "_expand_u_cached"),
    ("ring.py", "compute_m"),
}


def _functools_memos(tree):
    """(line, name) of each module-level function decorated by ``lru_cache``,
    ``lru_cache(...)``, ``cache`` or their ``functools.`` forms."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "id", getattr(target, "attr", None))
                if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) != "functools":
                    continue
                if name in ("lru_cache", "cache"):
                    yield node.lineno, node.name


def test_every_memo_is_listed_with_its_reuse():
    """A memo beside ``ring._kept`` or inside another cache is a second way
    of keeping a value; a new one is listed in ``_MEMOS`` with the reuse it
    serves."""
    files = sorted(SRC.glob("*.py"))
    found = {(path.name, name) for path in files for _, name in _functools_memos(ast.parse(path.read_text()))}
    assert found == _MEMOS


def test_the_memo_rule_sees_every_decorator_form():
    tree = ast.parse("@lru_cache\n"
                     "def a(x): pass\n"
                     "@lru_cache(maxsize=None)\n"
                     "def b(x): pass\n"
                     "@functools.lru_cache(maxsize=None, typed=True)\n"
                     "def c(x): pass\n"
                     "@cache\n"
                     "def d(x): pass\n"
                     "@functools.cache\n"
                     "def e(x): pass\n"
                     "@cached_property\n"
                     "def f(self): pass\n"
                     "@total_ordering\n"
                     "class G:\n"
                     "    @functools.cached_property\n"
                     "    def h(self): pass\n"
                     "@self.cache\n"
                     "def i(x): pass\n")
    assert list(_functools_memos(tree)) == [(2, "a"), (4, "b"), (6, "c"), (8, "d"), (10, "e")]


def _multiplies_germ_parts(tree):
    """Line numbers of a product with a ``.re`` or ``.im`` operand: a cross
    or a dot of two germs written out by hand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if any(getattr(x, "attr", None) in ("re", "im") for x in (node.left, node.right)):
                yield node.lineno


def test_verify_writes_no_cross():
    """The cross re(M) im(N) - im(M) re(N) is written once, in
    ``asymptotics``: ``verify`` reads it off the cross table
    (``_germ_verdict``, ``_cross_coefficients``), names no
    ``_leading_cross`` and multiplies no germ parts."""
    assert _sites(lambda tree: _named(tree, {"_leading_cross"}), {"verify.py"}) == []
    assert _sites(_multiplies_germ_parts, {"verify.py"}) == []


def test_the_cross_rule_sees_imports_attributes_and_products():
    tree = ast.parse("from .asymptotics import (\n"
                     "    _leading_cross,\n"
                     ")\n"
                     "cross = zm.re * zn.im - zm.im * zn.re\n"
                     "_, lead, _ = asymptotics._leading_cross(m, n)\n"
                     "x = re * im + zm.re + zn.im\n"
                     "y = 2 * germ.im\n")
    assert sorted(set(_named(tree, {"_leading_cross"}))) == [2, 5]
    assert sorted(_multiplies_germ_parts(tree)) == [4, 4, 7]


def _calls(tree, names):
    """Line numbers of a call made by one of ``names`` (``f(...)`` or
    ``m.f(...)``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) in names:
            yield node.lineno


_TABLE_WRITERS = {"_phi_table", "_phi_hat_table", "_a3_table", "_reduced_table", "_full_table"}


def _calls_a_writer_outside_the_keeper(tree):
    """Line numbers of a call of a table writer outside
    ``charges._charge_table``, which calls the two charge writers; every
    other use hands a writer to ``ring._kept``, so each table is built once
    per geometry."""
    allowed = _inside(tree, lambda name, owner: name == "_charge_table" and owner is None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) in _TABLE_WRITERS and id(node) not in allowed:
            yield node.lineno


def test_the_closed_forms_are_read_through_their_tables():
    """The table writers are called only by ``charges._charge_table`` and
    otherwise read through ``ring._kept``, and ``verify`` reads a3 through
    its kept row (``fmt._a3_table``), never by calling ``ChernVector.a3``."""
    assert _sites(_calls_a_writer_outside_the_keeper) == []
    assert _sites(lambda tree: _calls(tree, {"a3"}), {"verify.py"}) == []


def test_the_table_rule_sees_both_call_forms():
    tree = ast.parse("def _charge_table(g, kind):\n"
                     "    return _reduced_table(g) if kind else _full_table(g)\n"
                     "rows = _phi_table(g)\n"
                     "rows = fmt._a3_table(g)\n"
                     "table = _kept(g, _phi_hat_table)\n"
                     "x = e.a3(g)\n"
                     "y = ChernVector.a3(e, g)\n"
                     "z = e.a3\n"
                     "def other(g):\n"
                     "    return charges_mod._reduced_table(g)\n")
    assert sorted(_calls_a_writer_outside_the_keeper(tree)) == [3, 4, 10]
    assert sorted(_calls(tree, {"a3"})) == [6, 7]


_RING_PRODUCTS = {"mul", "degree", "_degree_numerator", "divisor_powers"}
_CURVE_KEPT_BUILDERS = {"_theta_h_products", "_omega_products"}


def _ring_products_outside_the_kept_builders(tree):
    """Line numbers of a ring product or point pairing (``mul``,
    ``degree``, ``_degree_numerator``, ``divisor_powers``, bare or through a
    module) outside the module-level builders of ``_CURVE_KEPT_BUILDERS``."""
    allowed = _inside(tree, lambda name, owner: owner is None and name in _CURVE_KEPT_BUILDERS)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) in _RING_PRODUCTS and id(node) not in allowed:
            yield node.lineno


def test_the_cycle_identity_makes_no_ring_product_per_point():
    """``curves`` decides the cycle identity on integer numerators of
    products kept per geometry: only the kept builders multiply or pair
    classes, so no per-point or per-curve ring product comes back."""
    assert _sites(_ring_products_outside_the_kept_builders, {"curves.py"}) == []
    assert _sites(lambda tree: _calls(tree, _RING_PRODUCTS), {"curves.py"})


def test_the_kept_builder_rule_sees_calls_and_scopes():
    tree = ast.parse("def _theta_h_products(g):\n"
                     "    return mul(g, x, y), degree(g, x, y)\n"
                     "def _omega_products(g):\n"
                     "    return ring._degree_numerator(g, x, y)\n"
                     "def _cycle_sides(g, c, u, v):\n"
                     "    om, _, w3 = divisor_powers(g, d)\n"
                     "    return ring.mul(g, om, theta), degree(g, om, om)\n"
                     "class C:\n"
                     "    def _omega_products(self):\n"
                     "        return mul(g, x, y)\n"
                     "x = _degree_numerator(g, a, b)\n"
                     "y = multiply(g, a, b)\n")
    assert sorted(_ring_products_outside_the_kept_builders(tree)) == [6, 7, 7, 10, 11]


_PUBLIC_LATTICE_VALUES = {"h", "hb", "hb_row", "hb2", "gram", "hb_divisor"}
# The writers that read a geometry's integer fields (``gram_nums``,
# ``hb_nums``, ``h_nums``, ``hb_row_nums``, ``hb2_nums``), with their helpers.
_INTEGER_WRITERS = {
    "ring.py": {"_structure_constants", "_theta_ints", "_half_canonical_bfield"},
    "fmt.py": {"_half_h_terms", "_phi_table", "_phi_hat_table", "_a3_table"},
    "charges.py": {"_reduced_table"},
    "curves.py": {"_theta_h_products"},
    "slopes.py": {"_FIXED", "_vector", "_theta_phb_m", "_theta_m"},
}


def _definitions(tree, names):
    """The module-level functions and assignments named one of ``names``,
    by name."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            found[node.name] = node
        targets = node.targets if isinstance(node, ast.Assign) else []
        found.update((t.id, node) for t in targets if isinstance(t, ast.Name) and t.id in names)
    return found


def _reads_public_lattice_values(tree, names):
    """Line numbers of a read of ``.h``, ``.hb``, ``.hb_row``, ``.hb2``,
    ``.gram`` or ``.hb_divisor`` inside the module-level functions and
    assignments named one of ``names``."""
    for node in _definitions(tree, names).values():
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in _PUBLIC_LATTICE_VALUES:
                yield sub.lineno


def test_the_table_writers_read_the_integer_fields():
    """The lattice is cleared to integers once, in ``BaseGeometry.__init__``:
    the writers of the kept tables, the half-canonical field and the fixed
    slope classes read those integer fields, never the public Fractions."""
    for name, writers in _INTEGER_WRITERS.items():
        tree = ast.parse((SRC / name).read_text())
        assert set(_definitions(tree, writers)) == writers, name
        assert list(_reads_public_lattice_values(tree, writers)) == [], name


def test_the_lattice_rule_sees_functions_assignments_and_scopes():
    tree = ast.parse("def _phi_table(g):\n"
                     "    h, hb = g.h, g.hb\n"
                     "    hn, hd = g.h_nums\n"
                     "_FIXED = {'phb': lambda g: _vector(g, S=g.hb_row)}\n"
                     "def other(g):\n"
                     "    return g.hb2\n"
                     "class C:\n"
                     "    def _phi_table(self, g):\n"
                     "        return g.gram\n"
                     "def _a3_table(g):\n"
                     "    return geometry.hb2 * gram + g.hb_divisor.scale(2)\n"
                     "_OTHER = g.hb\n")
    names = {"_phi_table", "_FIXED", "_a3_table", "_reduced_table"}
    assert set(_definitions(tree, names)) == {"_phi_table", "_FIXED", "_a3_table"}
    assert sorted(_reads_public_lattice_values(tree, names)) == [2, 2, 4, 11, 11]
