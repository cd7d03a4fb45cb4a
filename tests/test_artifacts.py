"""``tools/artifacts.py --compare`` on small artifact trees: files equal in
bytes, equal in values only, and moved in values by a known amount, and
the last line, the largest move over all files."""

import os

from conftest import run_python

ARTIFACTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "artifacts.py")

SUMMARY = '{"order":8,"residuals":{"slopes":[9.5,1.0]}}\n'
CSV = "u,x_sup,y_sup\n0.001,1.5e-26,2.0\n0.002,4.0e-25,3.0\n"


def compare(tmp_path, a, b):
    """The lines ``--compare`` prints for two trees of {name: text}."""
    for tree, files in (("a", a), ("b", b)):
        for name, text in files.items():
            path = tmp_path / tree / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    done = run_python([ARTIFACTS, "--compare", str(tmp_path / "a"),
                       str(tmp_path / "b")])
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_identical_trees(tmp_path):
    files = {"run-0/summary.json": SUMMARY, "run-0/residual.csv": CSV}
    assert compare(tmp_path, files, files) == [
        "files that differ in bytes: 0", "files that differ in values: 0",
        "largest relative difference: none"]


def test_a_difference_in_bytes_only(tmp_path):
    # other spellings of the same numbers, another key order and spacing
    a = {"run-0/summary.json": SUMMARY, "run-0/residual.csv": CSV}
    b = {"run-0/summary.json":
         '{"residuals": {"slopes": [9.50, 1e0]}, "order": 8}\n',
         "run-0/residual.csv": "u,x_sup,y_sup\n1e-3,1.50e-26,2\n"
                               "0.002,4e-25,3.0\n"}
    assert compare(tmp_path, a, b) == [
        "files that differ in bytes: 2", "files that differ in values: 0",
        "largest relative difference: none"]


def test_a_difference_in_values_of_known_size(tmp_path):
    # the largest relative move |a - b| / max(|a|, |b|) of each file and
    # where it is: 2^-50 / (1 + 2^-50) at a JSON path, 0.2 at a CSV cell
    # (line and column from 1) over a smaller move in the same file, and
    # an infinite one for a changed string
    tiny = repr(1.0 + 2.0 ** -50)
    a = {"run-0/summary.json": SUMMARY, "run-0/residual.csv": CSV,
         "run-0/note.json": '{"note": "sampled"}\n', "same.json": SUMMARY}
    b = {"run-0/summary.json": SUMMARY.replace("1.0", tiny),
         "run-0/residual.csv": CSV.replace("2.0", "2.01").replace("4.0", "5.0"),
         "run-0/note.json": '{"note": "certified"}\n', "same.json": SUMMARY}
    assert compare(tmp_path, a, b) == [
        "differs in values: run-0/note.json (largest relative difference "
        "inf at $.note)",
        "differs in values: run-0/residual.csv (largest relative difference "
        "0.2 at line 3, column 2)",
        "differs in values: run-0/summary.json (largest relative difference "
        "8.88e-16 at $.residuals.slopes[1])",
        "files that differ in bytes: 3", "files that differ in values: 3",
        "largest relative difference: inf in run-0/note.json at $.note"]


def test_the_last_line_is_the_largest_move_of_all_files(tmp_path):
    # the largest finite move over all files, with its file and place; a
    # file in one tree only is an infinite move without a place
    a = {"run-0/summary.json": SUMMARY, "run-0/residual.csv": CSV}
    b = {"run-0/summary.json": SUMMARY.replace("9.5", "9.6"),
         "run-0/residual.csv": CSV.replace("4.0", "5.0")}
    assert compare(tmp_path, a, b)[-1] == (
        "largest relative difference: 0.2 in run-0/residual.csv at line 3, "
        "column 2")
    b["run-1/summary.json"] = SUMMARY
    assert compare(tmp_path / "again", a, b)[-4:] == [
        "differs in values: run-1/summary.json (in one tree only)",
        "files that differ in bytes: 3", "files that differ in values: 3",
        "largest relative difference: inf in run-1/summary.json"]
