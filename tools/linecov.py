"""Line coverage of ``src/fudsa`` over a pytest run, with the standard library only.

    python tools/linecov.py [pytest arguments]     e.g.  -q -m "not slow"

The tracer is set before ``fudsa`` or ``pytest`` is imported, so module-level
lines count.  A file's executable lines are those its compiled code objects
map to.  Every line that no test ran is printed as ``src/fudsa/<file>:<line>``
with its text, then "N of M lines reached".  The exit status is pytest's if it
is nonzero, else 1 if a line went unreached, else 0.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PKG = str(SRC / "fudsa")
sys.path.insert(0, str(SRC))  # measure this checkout's package, not an installed one

hits = {}  # file name -> the line numbers run in it


def _lines(frame, event, arg):
    hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    """The global trace function: traces lines in frames of src/fudsa code only."""
    name = frame.f_code.co_filename
    if name not in hits:
        if not name.startswith(PKG):
            return None
        hits[name] = set()
    return _lines(frame, event, arg)


def executable(code):
    """The line numbers that ``code`` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None and line >= 1}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= executable(const)
    return lines


def main(argv):
    sys.settrace(_calls)
    import pytest
    status = pytest.main(argv)
    sys.settrace(None)
    total, missed = 0, []
    for path in sorted(Path(PKG).glob("*.py")):
        text = path.read_text(encoding="utf-8")
        want = executable(compile(text, str(path), "exec"))
        total += len(want)
        lines = text.splitlines()
        run = hits.get(str(path), set())
        missed += [(path, n, lines[n - 1].strip()) for n in sorted(want - run)]
    for path, n, line in missed:
        print(f"{path.relative_to(SRC.parent)}:{n}: {line}")
    print(f"{total - len(missed)} of {total} lines reached")
    return int(status) or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
