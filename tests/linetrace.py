"""Line trace of the test suite over src/avmir.

Runs pytest in this process under sys.settrace, records every line of a
src/avmir module that executes, then prints each executable line that never
ran (module:line and its text) and the count:

    PYTHONPATH=src python tests/linetrace.py -q [pytest args...]

Code run in --jobs worker processes or in a subprocess is not traced.  The
exit status is pytest's.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "avmir"
PREFIX = f"{PACKAGE}/"

executed = set()


def _trace_line(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_line


def _trace_call(frame, event, arg):
    if frame.f_code.co_filename.startswith(PREFIX):
        executed.add((frame.f_code.co_filename, frame.f_lineno))
        return _trace_line
    return None


def _code_lines(code):
    """The line numbers of code and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def main(args):
    sys.settrace(_trace_call)
    threading.settrace(_trace_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = _code_lines(compile(source, str(path), "exec"))
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in executed:
                missed += 1
                print(f"{path.name}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
