"""Print the executable lines of ``src/paratori`` that the tier-1 suite
does not run.

Usage: python tools/coverage.py

Runs pytest on ``tests/`` of this checkout in this process under
``sys.settrace`` and ``threading.settrace``, then prints one line per
module of ``src/paratori`` that holds an executable line that did not run,
and a last line with the totals.  The executable lines of a
module are those of its compiled code objects (``co_lines``).  The tests
that run the CLI in a subprocess are not traced, so a line that only they
reach is listed as not run.  Standard library only; exits with pytest's
status when it is not 0, else with 1 when a line did not run, else 0.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "paratori")


def executable_lines(path):
    """The line numbers of the code objects compiled from a source file."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unreached(directory, run):
    """Call ``run()`` under a line tracer, and return {file name: sorted
    executable lines that did not run} for the ``.py`` files of
    ``directory``.  Its modules must first be imported inside ``run``."""
    directory = os.path.realpath(directory)
    ran = {}        # co_filename -> set of lines run, None outside directory

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in ran:
            inside = os.path.dirname(os.path.realpath(path)) == directory
            ran[path] = set() if inside else None
        lines = ran[path]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    saved = sys.gettrace(), threading.gettrace()
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(saved[0])
        threading.settrace(saved[1])
    by_file = {}
    for path, lines in ran.items():
        if lines is not None:
            by_file.setdefault(os.path.basename(path), set()).update(lines)
    return {name: sorted(executable_lines(os.path.join(directory, name))
                         - by_file.get(name, set()))
            for name in sorted(os.listdir(directory)) if name.endswith(".py")}


def spans(lines):
    """Sorted line numbers as "a-b, c" ranges."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in runs)


def report(directory, missed, status):
    """Print the lines of ``unreached``'s result ``missed`` that did not
    run, per file of ``directory``, and the totals; return the exit
    status: ``status`` (pytest's) when it is not 0, else 1 when a line did
    not run, else 0."""
    total = sum(len(executable_lines(os.path.join(directory, name)))
                for name in missed)
    for name, lines in missed.items():
        if lines:
            print("%s: %s" % (name, spans(lines)))
    count = sum(map(len, missed.values()))
    print("not run in-process: %d of %d executable lines of %s "
          "(%.2f %% ran); subprocess runs are not traced"
          % (count, total, os.path.relpath(directory, ROOT),
             100.0 * (total - count) / total))
    return int(status) or int(count > 0)


def main():
    # src/ in place of tools/, so the package is this checkout's and no
    # import finds this file as the coverage package
    sys.path[0] = os.path.join(ROOT, "src")
    os.chdir(ROOT)
    import pytest

    status = []
    missed = unreached(PACKAGE, lambda: status.append(pytest.main(
        ["-q", "--continue-on-collection-errors"])))
    return report(PACKAGE, missed, status[0])


if __name__ == "__main__":
    sys.exit(main())
