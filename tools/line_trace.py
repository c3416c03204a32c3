"""List the hopfcap functions with lines that no command of report_hashes runs.

    python3 tools/line_trace.py [--src DIR]

Installs ``sys.settrace`` before importing ``hopfcap`` from DIR (default
``./src``), then runs every command of ``report_hashes.COMMANDS`` in this
process through ``hopfcap.cli.main``, with its output captured.  A line of
a function counts as run when the tracer saw it execute in that function;
a function's lines are the line starts of its own code object (``dis``),
less the ``def`` line that a Python 3.11+ function starts on, and a
nested function or comprehension is a function of its own.

For every function with lines that no command ran it prints
``module.qualname missed/total``, and for every module with such a function
``module missed/total`` over all of the module's functions, in one sorted
list.  Names, not line numbers, so that two commits compare with ``diff``.
Uses the standard library only.
"""

import argparse
import contextlib
import dis
import inspect
import io
import os
import sys
import types

import report_hashes


def _key(code: types.CodeType) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def _functions(path: str, module: str):
    """(qualname, key, lines) of every function and class body in one source file."""
    with open(path) as fh:
        top = compile(fh.read(), path, "exec")
    stack = [(top, module + ".")]
    while stack:
        code, prefix = stack.pop()
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            qualname = prefix + const.co_name
            lines = {line for _, line in dis.findlinestarts(const) if line is not None}
            if len(lines) > 1:
                lines.discard(const.co_firstlineno)
            yield qualname, _key(const), lines
            nested = ".<locals>." if const.co_flags & inspect.CO_OPTIMIZED else "."
            stack.append((const, qualname + nested))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="the hopfcap source directory to import (default ./src)")
    src = os.path.abspath(parser.parse_args(argv).src)
    package = os.path.join(src, "hopfcap")
    run = {}

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package + os.sep):
            return None
        seen = run.setdefault(_key(frame.f_code), set())

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    sys.path.insert(0, src)
    sys.settrace(trace)
    try:
        from hopfcap import cli

        if not cli.__file__.startswith(package + os.sep):
            raise SystemExit(f"hopfcap was imported from {cli.__file__}, not from {package}")
        for args in report_hashes.COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(args.split())
    finally:
        sys.settrace(None)

    rows = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        module = "hopfcap." + name[:-3]
        missed = total = 0
        for qualname, key, lines in _functions(os.path.join(package, name), module):
            left = len(lines - run.get(key, set()))
            missed, total = missed + left, total + len(lines)
            if left:
                rows.append(f"{qualname} {left}/{len(lines)}")
        if missed:
            rows.append(f"{module} {missed}/{total}")
    for row in sorted(rows):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
