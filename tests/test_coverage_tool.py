"""``tools/coverage.py`` on a module of two functions, one called and one
not: it reports the lines of the one not called, and no other, and exits 1
while a line did not run."""

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


def test_coverage_exits_one_while_a_line_did_not_run(tmp_path, capsys):
    tool = load("coverage_tool", COVERAGE)
    path = tmp_path / "two.py"
    path.write_text(MODULE)

    def run(both):
        module = load("two", str(path))
        module.called(1)
        if both:
            module.not_called(1)

    missed = tool.unreached(str(tmp_path), lambda: run(False))
    assert tool.report(str(tmp_path), missed, 0) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "two.py: 7-8"
    assert out[1].startswith("not run in-process: 2 of 6 executable lines")
    # a failing pytest's status comes first
    assert tool.report(str(tmp_path), missed, 2) == 2
    capsys.readouterr()
    missed = tool.unreached(str(tmp_path), lambda: run(True))
    assert tool.report(str(tmp_path), missed, 0) == 0
    assert tool.report(str(tmp_path), missed, 1) == 1
    assert capsys.readouterr().out.startswith("not run in-process: 0 of 6")
