"""Source-level rules that hold for every module of the package."""

import ast
import os

import paratori

from conftest import run_python

PACKAGE = os.path.dirname(os.path.abspath(paratori.__file__))
# the checkout holding src/, tests/ and perfbench/
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _trees(*dirs):
    """(path, AST) of every Python file below the given directories."""
    for top in dirs:
        for root, _, names in os.walk(top):
            for name in sorted(n for n in names if n.endswith(".py")):
                path = os.path.join(root, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read(), filename=path)


def test_no_assert_statements():
    # checks are typed errors so they still run under python -O
    found = ["%s:%d" % (os.path.relpath(path, PACKAGE), node.lineno)
             for path, tree in _trees(PACKAGE)
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of
    module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item.lineno) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def _used_names(tree):
    """Every Name and Attribute of a module, except where it names a def or
    class that encloses it."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def _benchmark_targets():
    """The attribute paths the benchmark tracer wraps ("Class.attr")."""
    with open(os.path.join(ROOT, "perfbench", "spans.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]):
            return {part for _, _, path in ast.literal_eval(node.value)
                    for part in path.split(".")}
    raise AssertionError("perfbench/spans.py defines no TARGETS")


# Public definitions that the program does not call but that stay on the
# package surface, each for the reason given.
KEPT_UNCALLED = {
    # the paper's right inverse for maps, checked by the acceptance tests
    "orbit_sum_inverse",
}


def test_every_public_definition_is_used():
    # a public function, method or class that nothing in the program or the
    # benchmark names is dead code: a name used only by tests does not count
    dirs = [PACKAGE] + [os.path.join(ROOT, d) for d in ("src", "perfbench")
                        if os.path.isdir(os.path.join(ROOT, d))]
    used = _benchmark_targets()
    for _, tree in _trees(*dirs):
        used |= _used_names(tree)
    defined = [(os.path.relpath(path, PACKAGE), line, name)
               for path, tree in _trees(PACKAGE)
               for name, line in _public_definitions(tree)]
    unused = ["%s:%d %s" % d for d in defined
              if d[2] not in used and d[2] not in KEPT_UNCALLED]
    assert not unused, unused
    # each kept name is still defined and still uncalled by the program
    stale = KEPT_UNCALLED - ({d[2] for d in defined} - used)
    assert not stale, sorted(stale)


def test_one_substitution_door():
    # term tables reach their power table and the per-table evaluation only
    # through jets.substitute, so all the tables of one substitution point
    # share one power table; the angle expansion is reached only through
    # the per-table evaluation, so every expansion of a table is one batch
    callers = {}
    for path, tree in _trees(PACKAGE):
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("_power_table", "eval_xy_terms", "angle_taylor"):
                    callers.setdefault(name, set()).add(
                        "%s:%s" % (os.path.basename(path), fn.name))
    assert callers == {"_power_table": {"jets.py:substitute"},
                       "eval_xy_terms": {"jets.py:substitute"},
                       "angle_taylor": {"jets.py:eval_xy_terms"}}, callers


def test_one_summation():
    # the polynomial algebra sums its coefficients only in jets._sum_rows:
    # no other function of jets.py adds in place, by += or into a numpy
    # out=, except UPoly.__call__, which sums values at points, not
    # coefficients
    with open(os.path.join(PACKAGE, "jets.py")) as fh:
        tree = ast.parse(fh.read())
    adders = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                    or isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "add"
                    and any(k.arg == "out" for k in node.keywords)):
                adders.add(fn.name)
    assert adders == {"_sum_rows", "__call__"}, adders


def test_importing_the_cli_loads_no_scipy():
    # SciPy was most of a fresh run's set-up time and over half its peak
    # memory; no module of the package imports it
    res = run_python(["-c", "import sys, paratori, paratori.cli; print([m for "
                            "m in sys.modules if m.split('.')[0] == 'scipy'])"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
