"""List the lines of ``src/abrep`` that no benchmark workload runs.

Run from the repository root:

    python tests/traffic_lines.py

For each workload in ``perfbench/workloads.py`` it does what the
benchmark's untimed and traced runs do (``measure`` in ``perfbench/run.py``),
in this process and under the line tracer of ``unrun_lines.py``: ``prepare``,
``setup`` untraced and under a ``spans.Tracer``, then for every op of passes
0 to 2 ``run`` and ``check`` untraced, ``run`` and ``check`` traced, and
``replay`` one layer down, then ``side``. It then prints each executable line
of ``src/abrep`` that no workload ran, as ``path:line: source``, and the
count, so a claim that no workload runs some code is checked by one command.
It imports ``perfbench/`` and edits none of its files. It is neither a test
nor a gate: it exits 0 unless a workload raises, as a failed check does.
"""

from __future__ import annotations

import sys

from unrun_lines import ROOT, line_tracer, unrun_lines

#: The workloads' seed, ``perfbench/run.py``'s default.
SEED = 0
#: Passes of ops run per workload; workloads vary their ops by pass.
PASSES = 3


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    ran: dict[str, set[int]] = {}
    sys.settrace(line_tracer(ran))
    try:
        import spans
        from workloads import WORKLOADS

        plain = spans.NullTracer()
        for cls in WORKLOADS.values():
            workload, tracer = cls(SEED), spans.Tracer()
            workload.prepare()
            workload.setup(plain)
            state = workload.setup(tracer)
            tracer.fold()
            for p in range(PASSES):
                for op in workload.ops(state, p):
                    _, result = workload.run(plain, spans.ROOT, op, state)
                    workload.check(op, result)
                    root = tracer.open("op", spans.ROOT)
                    span, result = workload.run(tracer, root, op, state)
                    tracer.close(root)
                    workload.check(op, result)
                    workload.replay(tracer, span, op, result, state)
                    tracer.fold()
            workload.side(tracer, state)
    finally:
        sys.settrace(None)
    unrun = unrun_lines(ran)
    print("\n".join(unrun))
    print(f"{len(unrun)} lines of src/abrep that no workload runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
