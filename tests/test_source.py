"""Source-level rules that hold for every module of the package."""

import ast
import os

import paratori

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
    # the acceptance tests measure residuals in the grid sup norm with it
    "sup_grid",
    # the paper's right inverse for maps, checked by the acceptance tests
    "orbit_sum_inverse",
    # the normalizations of general input that ROADMAP N6 adopts
    "reduce_general_map",
    "reduce_general_field",
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
