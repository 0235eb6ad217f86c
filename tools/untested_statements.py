"""List the statements of src/mftp that the tier-1 tests never run.

    python3 tools/untested_statements.py [pytest arguments]

Runs pytest on tests/ in this process under a line tracer (`sys.settrace`)
and compares the lines it reached with every statement of src/mftp that
compiles to code. Each statement that never ran, other than those in
ALLOWED, is printed as `path:line: source`. Exits 1 if pytest fails or any
such statement is left, else 0. The pytest arguments default to
`--hypothesis-seed=0`, so the property tests try the same inputs each run.

The traced lines belong to the files as they were imported, so a src/mftp
file whose sha256 changed during the run is printed and the run refused
(exit 1) without listing any statement.
"""

from __future__ import annotations

import ast
import hashlib
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mftp")

# Statements no test runs on purpose, as (file, source of their first line):
# the console-script entry and the debugging repr.
ALLOWED = {
    ("cli.py", "sys.exit(main())"),
    ("tensor.py", 'return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"'),
}


def statement_lines(path: str) -> set[int]:
    """First lines of the file's statements that compile to code (not docstrings)."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    code_lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return {node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in code_lines}


def source_files() -> list[str]:
    return [os.path.join(PACKAGE, name) for name in sorted(os.listdir(PACKAGE))
            if name.endswith(".py")]


def digests() -> dict[str, str]:
    """sha256 of each src/mftp file, by path."""
    out = {}
    for path in source_files():
        with open(path, "rb") as fh:
            out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(argv: list[str]) -> int:
    reached: dict[str, set[int]] = {}

    def trace_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE + os.sep):
            return None
        lines = reached.setdefault(path, set())

        def trace_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_line
        return trace_line

    sys.path.insert(0, os.path.dirname(PACKAGE))
    before = digests()
    sys.settrace(trace_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                              *(argv or ["--hypothesis-seed=0"])])
    finally:
        sys.settrace(None)
    after = digests()
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    for path in changed:
        print(f"{os.path.relpath(path, ROOT)}: changed during the run; run again")
    if changed:
        return 1
    if status != 0:
        print(f"pytest failed (exit {int(status)})")
        return 1

    missed, allowed, total = [], 0, 0
    for path in source_files():
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        lines = statement_lines(path)
        total += len(lines)
        for line in sorted(lines - reached.get(path, set())):
            text = source[line - 1].strip()
            if (name, text) in ALLOWED:
                allowed += 1
            else:
                missed.append(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
                print(missed[-1])
    print(f"{len(missed)} of {total} src/mftp statements never ran, "
          f"besides {allowed} allowed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
