"""Print every statement of `src/shardbft` that a pytest selection never
executes, to find the branches no test runs.

The selection runs in this process under ``sys.settrace``, which records
only lines of files under `src/shardbft`. A statement counts as executed
when any line of it (the header line for `if`, `def`, `with` and the like)
ran. Statements that compile to no code, such as docstrings, are never
listed. Each unreached statement prints as ``path:line: source``, grouped
by file; the last line sums them up. Arguments go to pytest unchanged, and
the exit status is pytest's:

    python3 tests/unreached.py                  # all of tier-1
    python3 tests/unreached.py tests/test_assembler.py -k fetch

Subprocesses that a test starts are not traced. pytest does not collect
this file; all of tier-1 takes about 80 s on one core.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shardbft"


def _code_lines(code) -> set[int]:
    """Every line that some instruction of ``code`` or its nested code sits on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(tree) -> list[tuple[int, range]]:
    """(first line, own lines) of each statement; a compound statement owns its header only."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        out.append((node.lineno, range(first, max(last, node.lineno) + 1)))
    return sorted(out)


def unreached(hits: dict[str, set[int]]) -> dict[Path, list[tuple[int, str]]]:
    """path -> [(line, source)] of the statements whose lines are not in ``hits``."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        code_lines = _code_lines(compile(source, str(path), "exec"))
        ran = hits.get(str(path), set())
        text = source.splitlines()
        missed = [
            (line, text[line - 1].strip())
            for line, own in _statements(ast.parse(source))
            if code_lines.intersection(own) and not ran.intersection(own)
        ]
        if missed:
            out[path] = missed
    return out


def traced(run) -> tuple[object, dict[str, set[int]]]:
    """``run()``'s result and the lines it executed in `src/shardbft`, by file."""
    hits: dict[str, set[int]] = {}
    local_tracers = {}  # co_filename -> its line tracer, or None outside the package
    prefix = str(PACKAGE) + os.sep

    def line_tracer(lines: set[int]):
        def tracer(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return tracer

        return tracer

    def global_tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local_tracers:
            path = os.path.abspath(filename)
            local_tracers[filename] = line_tracer(hits.setdefault(path, set())) if path.startswith(prefix) else None
        return local_tracers[filename]

    threading.settrace(global_tracer)
    sys.settrace(global_tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    status, hits = traced(lambda: pytest.main(argv))
    found = unreached(hits)
    for path, missed in found.items():
        rel = path.relative_to(ROOT)
        print(f"\n== {rel}: {len(missed)} unreached")
        for line, text in missed:
            print(f"{rel}:{line}: {text}")
    print(f"\n{sum(map(len, found.values()))} statements unreached in {len(found)} files")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
