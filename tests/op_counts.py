"""Count what each benchmark workload's ops cost in calls and in memory, and compare with the pinned counts.

Run from the repository root:

    python tests/op_counts.py

For each workload in ``perfbench/workloads.py`` it runs ``prepare`` and
``setup``, then passes 0 to ``PASSES - 1`` of ops three times: once to warm
every cache, once under ``cProfile`` and once under ``tracemalloc``. An op is
``run`` then ``check``, the work that the benchmark's untraced loop times as
one op, so a record read in ``check`` counts. The collector is collected and
then off for each counted pass, so no collection lands in one. It records:

- ``calls_per_op``: the Python-level calls, of Python and of C functions,
  that cProfile counts, per op (a C function that C code calls, such as
  ``map`` calling ``tuple.__new__``, is not one);
- ``alloc_peak_kb``: the largest peak of memory traced by ``tracemalloc``
  over one pass, counted from 0 at its start.

It also records, under ``documents``, the calls of one ``parse_scenario``
pass over the emitted document of every built-in scenario (``parse_calls``)
and of one ``emit_scenario`` pass over the bundles that pass parsed
(``emit_calls``), after a warm pass of each, with the collector off. The
calls are summed over cProfile's entries, one per code object or C function:
``pstats`` keys them by file, line and name, so two functions that share a
key, such as the ``__init__`` that dataclasses generate at ``<string>:2``,
would overwrite each other there.

Under ``import``, it records the calls (``import_calls``), and the ``exec``
and ``eval`` calls among them (``import_execs``), that cProfile counts while
``import abrep`` runs in a fresh ``sys.executable``. Before that import, the
fresh interpreter imports every standard-library module that ``import abrep``
loads, and ``src/abrep`` is byte-compiled, so neither moves the counts.

It prints the counts as one JSON object on standard output. When
``op_counts.json`` beside it was recorded with the same Python minor version,
it compares them exactly, prints each count that differs on standard error,
and exits 1 if one does; with another version it only prints them. A change
that moves a count records the new output in ``op_counts.json`` and says why
in ``CHANGES.md``:

    python tests/op_counts.py > counts.json; mv counts.json tests/op_counts.json

It imports ``perfbench/`` and edits none of its files.
"""

from __future__ import annotations

import cProfile
import compileall
import gc
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("op_counts.json")
#: The workloads' seed, ``perfbench/run.py``'s default.
SEED = 0
#: Passes of ops counted per workload; builtin-suite's passes go through its four seeds.
PASSES = 4


def _calls(profile: cProfile.Profile) -> int:
    """Every call that ``profile`` counted, summed over its entries, one per code object or C function."""
    return sum(entry.callcount for entry in profile.getstats())


def _pass(workload, state, p: int, plain, root) -> int:
    """Run and check each op of pass ``p`` with the collector off; the number of ops."""
    ops = workload.ops(state, p)
    gc.collect()
    gc.disable()
    try:
        for op in ops:
            _, result = workload.run(plain, root, op, state)
            workload.check(op, result)
            del result
    finally:
        gc.enable()
    return len(ops)


def counts() -> dict:
    """``calls_per_op`` and ``alloc_peak_kb`` of each workload, by name."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import spans
    from workloads import WORKLOADS

    plain, found = spans.NullTracer(), {}
    for name, cls in WORKLOADS.items():
        workload = cls(SEED)
        workload.prepare()
        state = workload.setup(plain)
        for p in range(PASSES):
            _pass(workload, state, p, plain, spans.ROOT)
        profile, ops = cProfile.Profile(), 0
        for p in range(PASSES):
            profile.enable()
            ops += _pass(workload, state, p, plain, spans.ROOT)
            profile.disable()
        peak = 0
        for p in range(PASSES):
            tracemalloc.start()
            _pass(workload, state, p, plain, spans.ROOT)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        found[name] = {"calls_per_op": round(_calls(profile) / ops, 2), "alloc_peak_kb": round(peak / 1024, 1)}
    return found


def _profiled(step, items) -> tuple[list, int]:
    """``step`` of each of ``items``, with the collector off, and the calls that cProfile counted."""
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        profile.enable()
        done = [step(item) for item in items]
        profile.disable()
    finally:
        gc.enable()
    return done, _calls(profile)


def document_calls() -> dict:
    """The calls of one ``parse_scenario`` and one ``emit_scenario`` pass over the built-ins' documents."""
    from abrep import BUILTIN_SCENARIOS, emit_scenario, parse_scenario

    texts = [emit_scenario(build()) for build in BUILTIN_SCENARIOS.values()]
    for text in texts:  # the warm pass
        emit_scenario(parse_scenario(text))
    bundles, parse_calls = _profiled(parse_scenario, texts)
    _, emit_calls = _profiled(emit_scenario, bundles)
    return {"parse_calls": parse_calls, "emit_calls": emit_calls}


#: Run as ``python -I -c _IMPORT src module...``: import the modules, then ``abrep`` from ``src`` under cProfile.
_IMPORT = """
import cProfile, importlib, json, sys
for name in sys.argv[2:]:
    importlib.import_module(name)
sys.path.insert(0, sys.argv[1])
profile = cProfile.Profile()
profile.enable()
import abrep
profile.disable()
stats = profile.getstats()
execs = ("<built-in method builtins.exec>", "<built-in method builtins.eval>")
calls = {"import_calls": sum(e.callcount for e in stats)}
print(json.dumps({**calls, "import_execs": sum(e.callcount for e in stats if e.code in execs)}))
"""
#: Run as ``python -I -c _LOADED src``: the modules other than abrep's that ``import abrep`` leaves loaded.
_LOADED = """
import sys
sys.path.insert(0, sys.argv[1])
import abrep
print(*(name for name in sys.modules if name.partition(".")[0] != "abrep"))
"""


def import_calls() -> dict:
    """The calls and the ``exec`` and ``eval`` calls of ``import abrep`` in a fresh interpreter."""
    src = str(ROOT / "src")
    compileall.compile_dir(ROOT / "src" / "abrep", quiet=1)

    def python(code: str, *args: str) -> str:
        run = subprocess.run([sys.executable, "-I", "-c", code, src, *args], capture_output=True, text=True, check=True)
        return run.stdout

    return json.loads(python(_IMPORT, *python(_LOADED).split()))


def _flat(record: dict) -> dict:
    """Each count of ``record``, keyed by its workload's name, ``documents`` or ``import``, and its metric."""
    rows = {**record.get("workloads", {}), **{row: record.get(row, {}) for row in ("documents", "import")}}
    return {f"{name} {metric}": value for name, metrics in rows.items() for metric, value in metrics.items()}


def main() -> int:
    python = "{}.{}".format(*sys.version_info)
    found = {"python": python, "passes": PASSES, "workloads": counts(), "documents": document_calls()}
    found["import"] = import_calls()
    print(json.dumps(found, indent=2))
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    if pinned.get("python") != python:
        print(f"not compared: {PINNED.name} holds counts for Python {pinned.get('python')}", file=sys.stderr)
        return 0
    was = _flat(pinned)
    differ = [f"{key}: pinned {was.get(key)}, now {v}" for key, v in _flat(found).items() if was.get(key) != v]
    print("\n".join(differ) or f"all counts equal the pinned ones in {PINNED.name}", file=sys.stderr)
    return 1 if differ or pinned["passes"] != PASSES else 0


if __name__ == "__main__":
    sys.exit(main())
