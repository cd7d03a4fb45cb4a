"""Source-level rules that hold for every module of the package."""

import ast
import os

import paratori

PACKAGE = os.path.dirname(os.path.abspath(paratori.__file__))


def test_no_assert_statements():
    # checks are typed errors so they still run under python -O
    found = []
    for root, _, names in os.walk(PACKAGE):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += ["%s:%d" % (os.path.relpath(path, PACKAGE), node.lineno)
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
