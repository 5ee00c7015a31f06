"""The abrep benchmark: four workloads timed from outside the public API.

Run one workload:

    python3 perfbench/run.py --workload builtin-suite --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, with times at reference speed
(see ``REFERENCE_S``); ``--trace 1`` replays every op one layer down and
prints the per-layer metrics instead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full record (machine,
commit, sample counts, why the workload exists). ``--out FILE`` also appends
the record to FILE as one JSON line. The exit code is 1 when any output was
wrong and 2 when the program cannot be found.

Run every workload, each in a fresh interpreter, one after another:

    python3 perfbench/run.py --workload all --seed 1 --out runs.jsonl

Compare two sets of records, such as a parent commit's and a change's:

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Each workload is a closed loop with one client: an op starts when the one
before it has finished and been checked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else {}

#: Set-up runs at least this many times, and until it has taken this long.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 5, 1.0, 25

#: Percentiles the tail may be read at. Each workload reads it at the
#: highest one that leaves TAIL_BEYOND samples above it in the smallest run
#: it allows, MIN_PASSES passes, so that every run of a workload reads its
#: tail at the same percentile however many ops it fits in.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10

#: Traced functions, by layer, with the unit of their per-call time.
TRACED = (
    ("spaces.normalize_value", "us"),
    ("spaces.distance", "us"),
    ("relations.represent", "us"),
    ("dynamics.evolve_physical", "us"),
    ("dynamics.evolve_abstract", "us"),
    ("relations.instantiate", "us"),
    ("verification.check_commutation", "us"),
    ("verification.check_history", "us"),
    ("verification.run_compute_cycle", "us"),
    ("refinement.check_layer", "us"),
    ("verification.validate_theory", "ms"),
    ("refinement.check_stack_to_device", "ms"),
    ("composition.compose_parallel", "ms"),
    ("composition.classify", "ms"),
    ("composition.brute_force_classify", "ms"),
    ("document.parse_scenario", "ms"),
    ("runner.run_checks", "ms"),
    ("runner.report_to_json", "ms"),
    ("cli.main", "ms"),
)
WORKLOAD_NAMES = ("builtin-suite", "adder-validate", "adder-encode", "joint-classify")

# Other tenants of a shared machine slow it down by up to half, for seconds
# to minutes at a time, which moves unscaled figures by 20-50% from one run
# to the next. A fixed pure-Python reference loop, run between short
# segments of ops, measures that slowdown, and every end-to-end time is
# reported at reference speed: scaled by REFERENCE_S over the loop's time
# around it. REFERENCE_S is near the loop's median time on a 2.1 GHz Intel
# Xeon with Python 3.11, so there the scaled figures stay near wall-clock
# ones. The unscaled figures are kept in the record as ``raw_metrics``.
REFERENCE_ITERATIONS = 25000
REFERENCE_S = 0.0024
SEGMENT_S = 0.1


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2 if it is absent."""
    if not (ROOT / "src" / "abrep" / "__init__.py").is_file():
        print(f"error: no abrep sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(guaranteed: int) -> float:
    """The highest ladder rung with TAIL_BEYOND samples above it among ``guaranteed``."""
    best = 100.0
    for q in TAIL_LADDER:
        if guaranteed - max(1, math.ceil(q / 100 * guaranteed)) >= TAIL_BEYOND:
            best = q
    return best


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine(seed: int) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def reference_time() -> float:
    """Seconds one run of a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor that scales a time measured between two reference runs to reference speed."""
    return REFERENCE_S / ((before + after) / 2)


def _end_to_end(passes, setup_times, wall_at, ms_at, q, rss) -> tuple[dict, dict]:
    """End-to-end metrics over every pass, from one of its time columns."""
    wall = sum(p[wall_at] for p in passes)
    ms = sorted(t for p in passes for t in p[ms_at])
    rank = max(1, math.ceil(q / 100 * len(ms)))
    samples = {
        "setup_s": len(setup_times),
        "op_ms_p50": len(ms),
        "op_ms_tail": {"percentile": q, "samples": len(ms), "beyond": len(ms) - rank},
    }
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ms) / wall, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (percentile(ms, q), "ms"),
        "peak_rss_mb": rss,
    }
    return metrics, samples


def measure(workload_cls, seed: int, seconds: float, traced: bool) -> dict:
    from spans import ROOT as NO_PARENT, NullTracer, Tracer
    from workloads import AdderValidate

    why = {w["name"]: w["why"] for w in SPEC.get("workloads", [])}
    record = {"workload": workload_cls.name, "why": why.get(workload_cls.name, ""), **_machine(seed)}
    workload = workload_cls(seed)
    workload.prepare()
    plain = NullTracer()
    tracer = Tracer() if traced else plain

    setup_times = []
    while True:
        before = reference_time()
        start = time.perf_counter()
        state = workload.setup(plain)
        elapsed = time.perf_counter() - start
        setup_times.append((elapsed, elapsed * speed(before, reference_time())))
        if len(setup_times) >= SETUP_MAX_REPEATS or (
            len(setup_times) >= SETUP_REPEATS and sum(t for t, _ in setup_times) >= SETUP_SECONDS
        ):
            break
    if traced:
        state = workload.setup(tracer)
        tracer.fold()

    untraced: list[int] = []
    attempted = failed = 0

    def one_op(op) -> int:
        if traced:
            start = time.perf_counter_ns()
            _, result = workload.run(plain, NO_PARENT, op, state)
            untraced.append(time.perf_counter_ns() - start)
            workload.check(op, result)
        root = tracer.open("op", NO_PARENT)
        start = time.perf_counter_ns()
        span, result = workload.run(tracer, root, op, state)
        elapsed = time.perf_counter_ns() - start
        tracer.close(root)
        workload.check(op, result)
        if traced:
            workload.replay(tracer, span, op, result, state)
            tracer.fold()
        return elapsed

    #: Per segment: (pass, raw seconds, raw latencies in ms of the ops that passed).
    segments: list[tuple[int, float, list[float]]] = []
    references = [reference_time()]
    loop_start = time.perf_counter()
    n_passes = 0
    # Only the untraced run reads the tail, so only it needs MIN_PASSES.
    min_passes = 1 if traced else workload.MIN_PASSES
    while time.perf_counter() - loop_start < seconds or n_passes < min_passes:
        ops = workload.ops(state, n_passes)
        segment_start, segment_ms = time.perf_counter(), []
        for index, op in enumerate(ops):
            attempted += 1
            try:
                segment_ms.append(one_op(op) / 1e6)
            except Exception:  # every failure counts; the loop goes on
                failed += 1
                if failed <= 3:
                    print(f"op {attempted} of {workload_cls.name} failed:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
            now = time.perf_counter()
            if now - segment_start >= SEGMENT_S or index == len(ops) - 1:
                segments.append((n_passes, now - segment_start, segment_ms))
                references.append(reference_time())
                segment_start, segment_ms = time.perf_counter(), []
        n_passes += 1

    side = {}
    if traced:
        try:
            side = workload.side(tracer, state)
        except Exception:
            failed += 1
            attempted += 1
            traceback.print_exc(file=sys.stderr)

    # A segment's times are scaled by the median of the reference runs in a
    # window of about half a second around it.
    passes = [(0.0, 0.0, [], []) for _ in range(n_passes)]
    for i, (p, wall, ms) in enumerate(segments):
        factor = REFERENCE_S / statistics.median(references[max(0, i - 2) : i + 4])
        raw_s, scaled_s, raw_ms, scaled_ms = passes[p]
        passes[p] = (raw_s + wall, scaled_s + wall * factor, raw_ms + ms,
                     scaled_ms + [t * factor for t in ms])
    record.update(attempted=attempted, failed=failed, passes=n_passes,
                  pass_s=[round(p[0], 6) for p in passes])
    if not any(p[2] for p in passes):
        record["metrics"] = {}
        return record
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    q = tail_percentile(workload.MIN_PASSES * len(workload.ops(state, 0)))
    raw, samples = _end_to_end(passes, [t for t, _ in setup_times], 0, 2, q, rss)
    scaled, _ = _end_to_end(passes, [t for _, t in setup_times], 1, 3, q, rss)
    record["samples"] = samples
    record["raw_metrics"] = raw
    if not traced:
        record["metrics"] = {**scaled, "error_rate": (failed / attempted, "fraction")}
        return record

    metrics: dict = {}
    for name, unit in TRACED:
        metrics.update(tracer.function_metrics(name, unit))
    _, total, _ = tracer.totals.get("verification.check_commutation", (0, 0, 0))
    trials = tracer.counts.get("verification.check_commutation.trials", 0)
    metrics["verification.check_commutation.us_per_trial"] = (
        total / 1e3 / trials if trials else 0.0, "us"
    )
    for width in AdderValidate.SCALING:
        metrics[f"verification.validate_theory.us_per_cell.w{width}"] = (0.0, "us")
    metrics.update(side)
    overhead = statistics.median(tracer.op_ns) / statistics.median(untraced) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    record["metrics"] = metrics
    return record


def _print_record(record: dict, traced: bool) -> None:
    print(f"{record['workload']}  seed {record['seed']}  commit {record['commit'][:12]}"
          f"  {record['passes']} passes  {record['attempted']} ops  {record['failed']} failed")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    print(json.dumps(record, sort_keys=True))
    names = [m["name"] for m in SPEC.get("per_layer" if traced else "end_to_end", [])]
    metrics = record["metrics"]
    result = {
        "correct": record["failed"] == 0 and bool(metrics),
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {
            n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in (names or metrics)
            if n in metrics
        },
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one at a time."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """improved, unchanged, worse or unresolved, by the rules for claiming a gain.

    Improved: the change wins at least nine tenths of the pairs run, ties
    counting for neither, and the medians differ by more than the parent's
    own quartile distance. Unresolved: the parent's spread is wider than the
    bound and not every change run reads better than every parent run. Worse:
    the change's median is worse than the parent's by more than the bound.
    """
    sign = 1 if better == "higher" else -1
    q1, med_p, q3 = _spread(parent)
    med_c = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_c - med_p) > q3 - q1:
        return "improved"
    if med_p and (q3 - q1) / abs(med_p) > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return "unchanged" if all_better else "unresolved"
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "worse"
    return "unchanged"


def compare(parent_path: str, change_path: str) -> int:
    def load(path):
        runs: dict = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    if "ops_per_s" in rec.get("metrics", {}):
                        runs.setdefault(rec["workload"], []).append(rec)
        return runs

    parent, change = load(parent_path), load(change_path)
    bounds = {m["name"]: m for m in SPEC.get("end_to_end", [])}
    worse = False
    print(f"{'workload':16s} {'metric':12s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}  verdict")
    for workload in WORKLOAD_NAMES:
        if workload not in parent or workload not in change:
            continue
        for name, rule in bounds.items():
            p = [r["metrics"][name][0] for r in parent[workload]]
            c = [r["metrics"][name][0] for r in change[workload]]
            v = verdict(p, c, rule["better"], rule["bound"])
            worse |= v == "worse"
            fmt = lambda xs: "/".join(f"{x:.4g}" for x in _spread(xs))
            print(f"{workload:16s} {name:12s} {fmt(p):>32s} {fmt(c):>32s}  {v}"
                  f"  (n={len(p)}/{len(c)})")
        errors = [sum(r["failed"] for r in side[workload]) for side in (parent, change)]
        print(f"{workload:16s} {'error_rate':12s} {'failed ops ' + str(errors[0]):>32s}"
              f" {'failed ops ' + str(errors[1]):>32s}  "
              f"{'worse' if errors[1] > errors[0] else 'unchanged'}")
        worse |= errors[1] > errors[0]
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC.get("run_seconds", 20))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)

    _load_program()
    from workloads import WORKLOADS

    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    _print_record(record, bool(args.trace))
    return 0 if record["failed"] == 0 and record["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
