"""List the statements of ``src/gaugesep`` that the tier-1 suite never runs.

Runs pytest in this process under a ``sys.settrace`` line tracer (standard
library only; ``coverage`` is not a dependency), then prints each statement
that no test reached as ``path:line: source``, and their count.  A statement
whose line carries an ``# unreached: <proof>`` comment is listed apart, as
justified.  Extra arguments go to pytest.  From the repository root:

    python tests/unreached_lines.py

The exit status is pytest's when pytest fails, else 1 when some unreached
statement has no ``# unreached:`` comment or some statement that carries one
did run (its proof is then stale, and it is listed as such), else 0.  Code that runs only in a
child process (the perfbench smoke runs) counts as unreached.  The name has
no ``test_`` prefix, so pytest does not collect this file.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gaugesep"
MARK = "# unreached:"


def statements(path: Path) -> set[int]:
    """First lines of the statements that compile to code (a function's
    docstring does not)."""
    source = path.read_text(encoding="utf-8")
    code_lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)} & code_lines


def line_tracer(hit: set[int]):
    """A local trace function that adds each line it sees to ``hit``."""

    def trace(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return trace

    return trace


def main(argv: list[str]) -> int:
    reached = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    tracers = {}  # co_filename -> its file's line tracer, or None outside the package

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            real = os.path.realpath(name)
            tracers[name] = line_tracer(reached[real]) if real in reached else None
        return tracers[name]

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(trace_calls)  # no test starts a thread, so this thread's tracer sees every line
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])
    finally:  # a tracer left installed fails at interpreter shutdown
        sys.settrace(None)
    missed, marked, stale, total = [], [], [], 0
    for name, hit in reached.items():
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statements(path)):
            total += 1
            text = f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}"
            if line not in hit:
                (marked if MARK in source[line - 1] else missed).append(text)
            elif MARK in source[line - 1]:
                stale.append(text)
    for text in missed:
        print(text)
    print(f"{len(missed) + len(marked)} of {total} statements of src/gaugesep never ran; {len(marked)} of them carry {MARK!r}:")
    for text in marked:
        print(text)
    if stale:
        print(f"{len(stale)} of them carry {MARK!r} but ran, so their proofs are stale:")
    for text in stale:
        print(text)
    return int(status) or int(bool(missed or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
