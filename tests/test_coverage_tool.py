"""``tools/coverage.py`` on a module of two functions, one called and one
not: it reports the lines of the one not called, and no other."""

import importlib.util
import os

COVERAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "coverage.py")

MODULE = '''def called(x):
    y = x + 1
    return y


def not_called(x):
    y = x - 1
    return y
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coverage_reports_the_function_not_called(tmp_path):
    tool = load("coverage_tool", COVERAGE)
    path = tmp_path / "two.py"
    path.write_text(MODULE)
    (tmp_path / "notes.txt").write_text("not a module")

    def run():
        assert load("two", str(path)).called(1) == 2

    assert tool.unreached(str(tmp_path), run) == {"two.py": [7, 8]}
    # without a run the def lines are not reached either
    assert tool.unreached(str(tmp_path), lambda: None) == {
        "two.py": [1, 2, 3, 6, 7, 8]}
    assert tool.executable_lines(str(path)) == {1, 2, 3, 6, 7, 8}
    assert tool.spans([1, 2, 3, 6, 8]) == "1-3, 6, 8"
