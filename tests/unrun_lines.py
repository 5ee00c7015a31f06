"""List the lines of ``src/abrep`` that the tier-1 tests never run, and gate their count.

Run from the repository root:

    python tests/unrun_lines.py

It runs the tier-1 suite in this process under a ``sys.settrace`` tracer
that follows only frames whose code lives under ``src/abrep``, then prints
each executable line that never ran as ``path:line: source``, and the count.
The executable lines of a module are those its compiled code objects map an
instruction to. It exits 1 when the tests fail or the count exceeds
``PINNED``. A change that moves the count edits ``PINNED`` and says why in
CHANGES.md.

A test that runs into the recursion limit also stops the tracer, because
Python unsets a trace function that raises. The tracer is set again before
each test, so only the rest of such a test goes untraced.

The stdlib ``trace`` module is not used: with ``ignoredirs`` it caches its
ignore decision by bare module name, so ignoring pytest's ``runner.py`` also
hides ``abrep/runner.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Unrun lines that no test can reach: ``cli.py``'s ``__main__`` call.
PINNED = 1

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "abrep"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its compiled code belongs to."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def line_tracer(ran: dict[str, set[int]]):
    """A ``sys.settrace`` function that adds each line run under ``SOURCE`` to ``ran``, by file."""
    prefix = str(SOURCE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def follow(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    return follow


def unrun_lines(ran: dict[str, set[int]]) -> list[str]:
    """Each executable line under ``SOURCE`` that ``ran`` lacks, as ``path:line: source``."""
    unrun = []
    for path in sorted(SOURCE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            unrun.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return unrun


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args``, tracing the lines run under ``SOURCE``, by file."""
    ran = {}
    follow = line_tracer(ran)

    class Retrace:
        """Sets the tracer again before each test: Python unsets one that hits the recursion limit."""

        def pytest_runtest_setup(self, item):
            sys.settrace(follow)

    import pytest

    sys.settrace(follow)
    try:
        code = pytest.main(pytest_args, plugins=[Retrace()])
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = run_traced(
        ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
    )
    unrun = unrun_lines(ran)
    print("\n".join(unrun))
    print(f"{len(unrun)} unrun lines (at most {PINNED} allowed)")
    if code != 0:
        print(f"the tests failed (pytest exit {code}), so the count is not meaningful")
        return 1
    return 0 if len(unrun) <= PINNED else 1


if __name__ == "__main__":
    sys.exit(main())
