"""Source hygiene: no module of the package imports a name it never uses,
every name in its ``__all__`` exists, none builds a numpy object array,
none edits the name or detail of a verdict after a check returned it,
only the spec loader and the field constructors turn text into
expressions, no einsum spec has four or more operands,
the package keeps few parameters with a default, no module tests a
field's values for degeneracy with the array form of the test, every
point error raised names its rows or says why it cannot, every spec
argument gives the Taylor oracle of ``semiweyl oracle`` fields to check,
only the kept inverse metric and the jet solve invert a matrix, and no
product or elementwise function of jets calls a generic derivative sum.

AST checks, so they need no linter.  Names re-exported through ``__all__``
and ``from __future__ import annotations`` are exempt from the first, so
the second keeps a deleted function from lingering as a stale export.  The
third keeps jets in their dense storage (``semiweyl.jets.Jet``): an object
array of per-scalar jets is the format that type replaced.  The fourth keeps
a check's laws carrying their own names and details into
``semiweyl.verdicts.run_laws``.  The fifth keeps checks, transforms and
rescalings taking fields only: text is parsed where a spec is read.  The
sixth keeps a longer sum a chain of einsums of two or three operands:
numpy sums every operand in one loop over all the labels, and on a
150-point set the four-operand Gauss equation took 664 us against 84 us
as a chain.  The
seventh is a ratchet against options that every caller sets or none does.
The eighth keeps the non-degeneracy test of a metric field in the result
store (``semiweyl.tensor.require_nondegenerate_metric``), which runs it
once per field and points; ``require_nondegenerate`` on a field's values
would run it again at every call, unseen.  The ninth keeps a point set
whose call raises a point error filling its other rows as one sub-set
(``semiweyl.fields._kept``): an error that names no rows sends each of the
set's points through the per-point path.  The tenth, which loads the
fixtures, keeps what a new spec argument builds inside the oracle's sweep.
The eleventh keeps every solve against a metric field's jet on the kept
inverse (``semiweyl.tensor.inverse_metric_values`` read through
``semiweyl.jets.jet_solve_with``), computed once per field and points;
``jet_solve`` inverts only frames that are no metric's values.  The
twelfth keeps ``Jet.__mul__`` and ``Jet._chain`` taking their layers above
order 3 from the first-order rule on their own closed forms, with no
einsum: the generic Leibniz sum makes one einsum per slot placement; and
``jet_compose`` taking its layers by the same rule through ``jet_einsum``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semiweyl"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """``(name, line)`` of every imported name the module never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported_names(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in used | exported]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import numpy as np\nfrom .jets import Jet, values_of\nvalues_of(1)\n") == [
        ("np", 1),
        ("Jet", 2),
    ]
    assert unused_imports("from __future__ import annotations\nfrom .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _defined_names(tree):
    """Names bound at module level: functions, classes, assignments and
    imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


def stale_exports(source):
    """Entries of ``__all__`` that name nothing the module defines or imports."""
    tree = ast.parse(source)
    return sorted(_exported_names(tree) - _defined_names(tree))


def test_the_check_sees_a_stale_export():
    source = "from .jets import Jet\nX, (Y, Z) = 1, (2, 3)\ndef f(): pass\n__all__ = ['Jet', 'X', 'Z', 'f', 'gone']\n"
    assert stale_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_exports_only_names_it_has(path):
    assert stale_exports(path.read_text()) == []


def _is_object_dtype(node):
    return (isinstance(node, ast.Name) and node.id == "object") or (
        isinstance(node, ast.Constant) and node.value in ("O", "object")
    )


def object_arrays(source):
    """Lines of every call that passes ``object`` (or ``"O"``) as a dtype,
    by keyword or as the second positional argument."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
            if any(_is_object_dtype(d) for d in dtypes):
                lines.append(node.lineno)
    return lines


def test_the_check_sees_an_object_array():
    source = "import numpy as np\na = np.empty(3, dtype=object)\nb = np.asarray(a, object)\nc = np.zeros(3, dtype=float)\n"
    assert object_arrays(source) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_builds_no_object_array(path):
    assert object_arrays(path.read_text()) == []


def edited_verdicts(source):
    """Lines that assign to the ``name`` or ``detail`` of an object other
    than ``self``: a verdict edited after a check returned it, where the
    law should have carried the name and detail."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for t in targets:
            if (
                isinstance(t, ast.Attribute)
                and t.attr in ("name", "detail")
                and not (isinstance(t.value, ast.Name) and t.value.id == "self")
            ):
                lines.append(node.lineno)
    return lines


def test_the_check_sees_an_edited_verdict():
    source = "v = f()\nv.name = 'x'\nself.name = 'y'\nout[0].detail += 'z'\nv.passed = True\n"
    assert edited_verdicts(source) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_edits_no_returned_verdict(path):
    assert edited_verdicts(path.read_text()) == []


# the modules that turn text into expressions: the parser, the field
# constructors and the spec loader
PARSING_MODULES = {"expressions.py", "fields.py", "specfile.py"}


def _has_text(node, texty):
    """Whether ``node`` holds a string constant, an f-string or a name
    bound to one."""
    return any(
        (isinstance(n, ast.Constant) and isinstance(n.value, str))
        or isinstance(n, ast.JoinedStr)
        or (isinstance(n, ast.Name) and n.id in texty)
        for n in ast.walk(node)
    )


def _called_name(call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else f.id if isinstance(f, ast.Name) else None


def text_operands(source):
    """Lines that parse expression text (``parse_expression``, ``.parse``),
    pass text to ``from_expression``/``from_expressions`` (directly or
    through a name bound to text), or test ``isinstance(..., ScalarField)``,
    the test that lets a function take either text or a field."""
    tree = ast.parse(source)
    texty = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _has_text(node.value, ()):
            for t in node.targets:
                base = t.value if isinstance(t, ast.Subscript) else t
                if isinstance(base, ast.Name):
                    texty.add(base.id)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if (
            name in ("parse_expression", "parse")
            or (name in ("from_expression", "from_expressions") and any(_has_text(a, texty) for a in node.args))
            or (name == "isinstance" and len(node.args) == 2 and any(
                isinstance(n, (ast.Name, ast.Attribute)) and "ScalarField" in (getattr(n, "id", None), getattr(n, "attr", None))
                for n in ast.walk(node.args[1])
            ))
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_text_operands():
    source = (
        "from .fields import ScalarField, VectorField\n"
        "a = parse_expression('x', names)\n"
        "b = chart.parse(text)\n"
        "c = ScalarField.from_expression(chart, 'x')\n"
        "comps = ['0'] * 2\n"
        "d = VectorField.from_expressions(chart, comps)\n"
        "e = f if isinstance(f, (ScalarField, int)) else g\n"
        "h = VectorField.from_expressions(chart, components)\n"
        "k = isinstance(v, Jet) and parser.parse_args(argv)\n"
    )
    assert text_operands(source) == [2, 3, 4, 6, 7]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in PARSING_MODULES], ids=lambda p: p.name)
def test_module_takes_no_text_operands(path):
    assert text_operands(path.read_text()) == []


def many_operand_einsums(source):
    """Lines of every ``einsum`` or ``jet_einsum`` call whose literal spec
    has four or more operands."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) in ("einsum", "jet_einsum") and node.args:
            spec = node.args[0]
            if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
                if spec.value.partition("->")[0].count(",") >= 3:
                    lines.append(node.lineno)
    return lines


def test_the_check_sees_a_many_operand_einsum():
    source = (
        "a = np.einsum('...ij,...jk,...k,...i->...', x, y, z, w)\n"
        "b = np.einsum('...i,...j,...k->...ijk', x, y, z)\n"
        "c = np.einsum('...ij,...j->...i', x, y)\n"
        "d = jet_einsum('...lkij,...kc,...ia,...jb->...lcab', r, x, x, x)\n"
        "e = einsum('ab,bc,cd,de->ae', x, y, z, w)\n"
        "f = np.einsum(spec, x, y, z, w)\n"
    )
    assert many_operand_einsums(source) == [1, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_sums_no_many_operand_einsum(path):
    assert many_operand_einsums(path.read_text()) == []


# parameters with a default across ``src/``; lower it when one goes, never
# raise it
MAX_DEFAULTED_PARAMETERS = 8


def defaulted_parameters(source):
    """``(function, parameter)`` of every parameter with a default, of
    functions and lambdas, positional or keyword-only."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            named = positional[len(positional) - len(a.defaults):] + [
                arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None
            ]
            out += [(getattr(node, "name", "<lambda>"), arg.arg) for arg in named]
    return out


def test_the_check_sees_a_defaulted_parameter():
    source = "def f(a, b=1, *c, d, e=2):\n    pass\ng = lambda x, y=0: x\ndef h(p, q):\n    pass\n"
    assert defaulted_parameters(source) == [("f", "b"), ("f", "e"), ("<lambda>", "y")]


def test_src_has_few_parameters_with_a_default():
    found = [(path.name, *d) for path in MODULES for d in defaulted_parameters(path.read_text())]
    assert len(found) <= MAX_DEFAULTED_PARAMETERS, found


def _is_field_value(node):
    """Whether ``node`` reads a field's values, ``field.value(p)``, or a
    jet's, ``jet.value``."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Attribute) and node.attr == "value"


def array_degeneracy_tests(source):
    """``(function, line)`` of every call of ``require_nondegenerate`` on a
    field's or jet's values, directly or through a name or attribute that
    a function holding the call binds to them."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {
            ast.unparse(t)
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and _is_field_value(node.value)
            for t in node.targets
        }
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and _called_name(node) == "require_nondegenerate"
                and node.args
                and (_is_field_value(node.args[0]) or ast.unparse(node.args[0]) in bound)
            ):
                found[node.lineno] = fn.name
    return sorted((name, line) for line, name in found.items())


def test_the_check_sees_an_array_degeneracy_test():
    source = (
        "def a(g, p):\n"
        "    require_nondegenerate(g.value(p))\n"
        "def b(G):\n"
        "    require_nondegenerate(G.value)\n"
        "def c(s, p):\n"
        "    gv = s.g.value(p)\n"
        "    require_nondegenerate(gv)\n"
        "def d(m):\n"
        "    require_nondegenerate(np.asarray(m))\n"
        "    require_nondegenerate_metric(g, p)\n"
        "def e(self, s, p):\n"
        "    self.g = s.g.value(p)\n"
        "    def inner():\n"
        "        require_nondegenerate(self.g)\n"
    )
    assert array_degeneracy_tests(source) == [("a", 2), ("b", 4), ("c", 7), ("e", 14)]


def test_only_the_kept_inverse_metric_tests_a_field_with_the_array_form():
    found = [(path.name, name) for path in MODULES for name, _ in array_degeneracy_tests(path.read_text())]
    assert found == [("tensor.py", "inverse_metric_values")]


POINT_ERRORS = {"EvaluationDomainError", "DegeneratePointError"}

# the point errors raised without naming their rows, by module and message,
# and why they cannot name them
UNNAMED_POINT_ERRORS = {
    ("fields.py", "non-finite value in a result on a point set"):
        "the set's own test of its whole result: alone, a row that is not finite fails an earlier test, "
        "with that test's message, so those rows take the per-point path",
    ("expressions.py", "non-finite value in expression evaluation"):
        "raised only at a point alone: on a set, a row that is not finite is left to its reader",
    ("jets.py", "overflow in a power"):
        "raised where a Python float's ** overflows, on a set's values or at a point alone; alone, a row's "
        "value may be a numpy float, whose ** gives inf, so the set's message is not always its rows'",
}


def unnamed_point_errors(source):
    """``(line, message)`` of every ``raise`` of a point error that names no
    rows: a bare class, or a call of it whose ``rows`` argument is missing
    or ``None``; ``where(bad, message)`` names them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        func = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in POINT_ERRORS:
            if func.attr != "where":
                found.append((node.lineno, None))
        elif isinstance(func, ast.Name) and func.id in POINT_ERRORS:
            args = exc.args if isinstance(exc, ast.Call) else []
            if len(args) < 2 or (isinstance(args[1], ast.Constant) and args[1].value is None):
                found.append((node.lineno, args[0].value if args and isinstance(args[0], ast.Constant) else None))
    return found


def test_the_check_sees_a_point_error_that_names_no_rows():
    source = (
        "raise EvaluationDomainError('a', None)\n"
        "raise EvaluationDomainError.where(bad, 'b')\n"
        "raise DegeneratePointError('c')\n"
        "raise DegeneratePointError(text, rows)\n"
        "raise ValueError('d')\n"
        "raise DegeneratePointError\n"
        "raise DegeneratePointError.other(bad, 'e')\n"
    )
    assert unnamed_point_errors(source) == [(1, "a"), (3, "c"), (6, None), (7, None)]


def test_every_point_error_names_its_rows_or_says_why_not():
    found = {(path.name, message) for path in MODULES for _, message in unnamed_point_errors(path.read_text())}
    assert found == set(UNNAMED_POINT_ERRORS)


def test_every_spec_argument_gives_the_taylor_oracle_fields():
    from semiweyl.registry import ARGUMENTS
    from semiweyl.specfile import load_spec

    specs = [load_spec(path) for path in sorted((PACKAGE.parents[1] / "fixtures").glob("*.spec"))]
    for name, (blocks, read, fields) in ARGUMENTS.items():
        spec = next(spec for spec in specs if spec.blocks.issuperset(blocks))
        assert fields(read(spec), spec), name


# the functions that call ``np.linalg.inv``: the kept inverse metric, the one
# inversion of a metric field's values, and the jet solve of the frames that
# are no metric (lightlike and affine) with its test of each singular member
INVERTING = {("tensor.py", "inverse_metric_values"), ("jets.py", "jet_solve"), ("jets.py", "_singular_alone")}


def calls(source, names):
    """``(scope, name, line)`` of every call of one of ``names`` (as a name
    or an attribute), with the dotted path of the classes and functions
    holding it (``Class.method.inner``; ``None`` at module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and _called_name(child) in names:
                found.append((".".join(scope) or None, _called_name(child), child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_check_sees_an_inversion():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import inv\n"
        "def f(a):\n"
        "    return np.linalg.inv(a)\n"
        "def g(a):\n"
        "    def h(b):\n"
        "        return inv(b)\n"
        "    return np.linalg.solve(a, a) + h(a)\n"
        "x = np.linalg.inv(m)\n"
    )
    assert calls(source, {"inv"}) == [("f", "inv", 4), ("g.h", "inv", 7), (None, "inv", 9)]


def test_only_the_kept_inverse_metric_and_the_jet_solve_invert():
    found = {(path.name, function) for path in MODULES for function, _, _ in calls(path.read_text(), {"inv"})}
    assert found == INVERTING


# the generic Leibniz sum: products and elementwise functions take their
# layers above order 3 from the first-order rule on their own closed forms,
# so only contractions sum over slot placements
GENERIC_SUMS = {"_leibniz"}
# scope prefixes of the product and the elementwise chain rule
ELEMENTWISE = ("Jet.__mul__.", "Jet._chain.")


def misplaced_generic_sums(source):
    """``(scope, name, line)`` of every call of a generic sum inside a
    product or elementwise function (functions nested in them included)."""
    return [(scope, name, line) for scope, name, line in calls(source, GENERIC_SUMS) if f"{scope}.".startswith(ELEMENTWISE)]


def test_the_check_sees_a_misplaced_generic_sum():
    source = (
        "class Jet:\n"
        "    def __mul__(self, other):\n"
        "        return [_leibniz(spec, '...', [a, b], r) for r in rs]\n"
        "    def _chain(self, f):\n"
        "        def layer(r):\n"
        "            return _leibniz(spec, '...', [f, L], r)\n"
        "        return self.x._leibniz(f)\n"
        "    def _chained(self, f):\n"
        "        return _leibniz(spec, '...', [a, b], r)\n"
        "def jet_solve_with(A, inv, b):\n"
        "    return _leibniz(spec, '...im', [a, s], r)\n"
        "x = _leibniz(spec, '...', [a, b], 1)\n"
    )
    assert misplaced_generic_sums(source) == [
        ("Jet.__mul__", "_leibniz", 3),
        ("Jet._chain.layer", "_leibniz", 6),
        ("Jet._chain", "_leibniz", 7),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_products_and_elementwise_functions_call_no_generic_sum(path):
    assert misplaced_generic_sums(path.read_text()) == []


def test_the_generic_sums_keep_their_callers():
    # the check above reads nothing if the sums or their callers are renamed
    found = {(scope, name) for scope, name, _ in calls((PACKAGE / "jets.py").read_text(), GENERIC_SUMS | {"jet_einsum"})}
    assert {("jet_compose", "jet_einsum"), ("jet_einsum", "_leibniz"), ("jet_solve_with", "_leibniz")} <= found
