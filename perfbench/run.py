#!/usr/bin/env python3
"""Benchmark of the jemaim toolchain: one workload per run.

Run from the root of a jemaim checkout:

    python3 perfbench/run.py --workload compile-run --seed 1 --seconds 32 --trace 0

Workloads (see ``workloads.py`` and ``CHOICES.md``): ``compile-run``,
``trace-equiv`` and ``witness``. A run is one single-threaded process that
runs the workload's fixed batch of ops in a closed loop, one op after
another. After a short untimed warm-up it runs whole batches, and starts
another only while that batch is expected to end within ``--seconds``. Every
op is checked against its known answer. ``compile-run`` then checks, untimed,
that its stack-limit probes still fail exactly as recorded (ROADMAP item 2).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one batch
untraced, then traced batches with the layer functions wrapped (``tracing.py``),
and reports the per-layer metrics with the tracing overhead.

Per-op rows go to ``perfbench/out/rows-*.jsonl`` and spans of traced runs to
``perfbench/out/spans-*.jsonl``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REQUIRED = ("src/jemaim/__init__.py", "tests/corpus.py")
WORKLOADS = ("compile-run", "trace-equiv", "witness")
SETUP_REPEATS = 15
WARMUP_S = 2.0
# The speed of a small shared machine drifts by a fifth within seconds and
# by a third within minutes, and jemaim's wall times drift with it. While ops
# run, a timer samples the machine's speed: every SAMPLE_S seconds it times a
# spin of SAMPLE_ROUNDS rounds. An op's normalised time is its wall time
# times CAL_REF_S over the mean spin time sampled during the op: the time the
# op would take on a machine where that spin takes CAL_REF_S. Sampling every
# 5 ms cut the variation of single witness ops between batches from 19 % to
# 6 %; every 50 ms only to 9 %. Every 2 ms the spin is too short to time.
SAMPLE_S = 0.005
SAMPLE_ROUNDS = 250
CAL_REF_S = 0.000025
# The end-to-end metrics of the JSON line: the ones that every workload
# reports, that are never 0, and that are steady between runs (CHOICES.md
# gives the measured spreads). The others are printed only. op_tail_s exists
# only on large batches and fail_ratio is 0 where no op fails. The median op
# of a fixed, mixed batch is one particular program, so op_p50 moves with that
# program's noise; op_p50_s_norm spread by 0.16 on compile-run.
E2E_REPORTED = ("setup_s", "ops_per_s_norm", "peak_rss_mb", "code_words")
# the fields of a row that every batch of a run must repeat exactly
ROW_COUNTS = ("ok", "verdict", "jem_steps", "aim_steps", "traces", "code_words", "witness_lines", "emulated_steps", "verify_jem_steps")


def spin(n: int) -> float:
    """Seconds for n rounds of a fixed pure-Python loop that calls no jemaim code."""
    t = perf_counter()
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - t


def calibrate() -> float:
    """Best of three 1 000 000-round spins: the machine's speed before and after a run."""
    return min(spin(1_000_000) for _ in range(3))


class SpeedSampler:
    """Samples the machine's speed from a SIGALRM handler while ops run.

    The handler runs in the main thread between bytecodes and touches no
    jemaim state; the samples take about 1 % of the time."""

    def __init__(self):
        self.times, self.spins = [], []

    def _sample(self, *_):
        self.times.append(perf_counter())
        self.spins.append(spin(SAMPLE_ROUNDS))

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spin_during(self, start: float, end: float, average=statistics.fmean) -> float:
        """Average spin time sampled in [start, end], else the last one before end."""
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        inside = self.spins[lo:hi]
        return average(inside) if inside else self.spins[hi - 1]


def setup(workload: str, seed: int):
    """Import jemaim and build the workload's inputs; returns (seconds, ops,
    stack-limit probes)."""
    t0 = perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import jemaim
    import workloads

    if not Path(jemaim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported jemaim from {jemaim.__file__}, not from {ROOT / 'src'}")
    ops = workloads.build(workload, seed)
    probes = workloads.stack_limit_probes(workload, seed)
    return perf_counter() - t0, ops, probes


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """setup() in a fresh interpreter, timed from its import of jemaim:
    (wall seconds, normalised CPU seconds)."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    raw, norm = out.stdout.split()[-2:]
    return float(raw), float(norm)


def warm_up(ops):
    """Run the batch's first ops untimed for WARMUP_S seconds, so that the
    interpreter has specialised the hot paths before timing starts (without
    this the small compile-run ops take a third longer in the first batch)."""
    until = perf_counter() + WARMUP_S
    for op in ops:
        try:
            op.run()
        except Exception:  # the timed batches report it
            pass
        if perf_counter() >= until:
            break


def run_op(op) -> dict:
    try:
        return op.run()
    except Exception as e:  # a failed op, not a failed benchmark
        return {"ok": False, "verdict": f"error: {type(e).__name__}: {e}"}


def run_batch(ops, batch: int, sampler: SpeedSampler, recorder=None) -> list[dict]:
    import workloads

    rows = []
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op_id = f"{batch}:{i}"
            sid = recorder.begin("op")
        t = perf_counter()
        row = run_op(op)
        end = perf_counter()
        wall = end - t
        if recorder is not None:
            recorder.end(sid)
        cal = sampler.spin_during(t, end)
        if "witness" in row:  # rendered outside the op's timing
            row["witness_lines"] = workloads.witness_lines(row.pop("witness"))
        rows.append({
            "batch": batch, "op": op.name, "wall_s": wall, "cal_s": cal, "norm_s": wall * CAL_REF_S / cal,
            **row,
        })
    return rows


def run_probes(probes) -> list[dict]:
    """Each stack-limit probe once, untimed, with its outcome against the
    recorded failure."""
    import workloads

    rows = []
    for op, limit in probes:
        row = run_op(op)
        rows.append({"batch": "stack-limit", "op": op.name, "limit": limit, **row,
                     "outcome": workloads.probe_outcome(row, limit)})
    return rows


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def check(rows_by_batch, count_diffs, probe_rows) -> list[str]:
    """Known answers, stack-limit probes and repeatability; returns what went wrong."""
    problems = []
    for row in rows_by_batch[0]:
        if not row["ok"]:
            problems.append(f"{row['op']}: {row['verdict']}")
    for row in probe_rows:
        if row["outcome"] not in ("recorded", "fixed"):
            problems.append(f"stack-limit probe {row['op']}: {row['outcome']}")
    first = [tuple(r.get(k) for k in ROW_COUNTS) for r in rows_by_batch[0]]
    for rows in rows_by_batch[1:]:
        if [tuple(r.get(k) for k in ROW_COUNTS) for r in rows] != first:
            problems.append(f"batch {rows[0]['batch']} counts differ from batch 0")
    if any(d != count_diffs[0] for d in count_diffs[1:]):
        problems.append("traced batches counted different work")
    if count_diffs and count_diffs[0]["traces.segments"] and not count_diffs[0]["traces.segment_steps"]:
        problems.append("trace segments ran but no MachineState.step call was counted in them")
    return problems


def _per_op_medians(rows, key) -> list[float]:
    """Each op's median over the run's batches."""
    by_op = {}
    for r in rows:
        by_op.setdefault(r["op"], []).append(r[key])
    return [statistics.median(v) for v in by_op.values()]


def _ops_per_s(rows, key) -> float:
    """Ops of the batch over the sum of each op's median time: the rate of a
    batch in which every op takes its median time. A batch disturbed by the
    machine moves it less than the pooled rate of all batches."""
    medians = _per_op_medians(rows, key)
    return len(medians) / sum(medians)


def end_to_end(rows, setup_times) -> dict:
    """Every end-to-end metric of a run's untraced ops: name -> (value, unit)."""
    walls = sorted(r["wall_s"] for r in rows)
    first = rows[0]["batch"]
    m = {
        "setup_s": (statistics.median(norm for _, norm in setup_times), "s"),
        "setup_s_raw": (statistics.median(raw for raw, _ in setup_times), "s"),
        "ops_per_s": (_ops_per_s(rows, "wall_s"), "op/s"),
        "op_p50_s": (statistics.median(_per_op_medians(rows, "wall_s")), "s"),
        "ops_per_s_norm": (_ops_per_s(rows, "norm_s"), "op/s"),
        "op_p50_s_norm": (statistics.median(_per_op_medians(rows, "norm_s")), "s"),
        "fail_ratio": (sum(not r["ok"] for r in rows) / len(rows), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "code_words": (sum(r.get("code_words", 0) for r in rows if r["batch"] == first), "words"),
    }
    # the highest percentile with at least ten ops beyond it
    k = len(walls) - 11
    if k >= 0:
        m["op_tail_s"] = (walls[k], f"s (p{100 * (k + 1) / len(walls):.1f} of {len(walls)} ops)")
    return m


def per_layer(recorder, rows, untraced_ops_per_s_norm) -> dict:
    """Every per-layer metric of a run's traced ops, per batch: name -> (value, unit)."""
    from tracing import LAYER_OF_SPAN

    nb = len({r["batch"] for r in rows})
    c = recorder.counts
    self_t, incl = recorder.self_times()
    t = Counter()
    for name, d in self_t.items():
        if name in LAYER_OF_SPAN:
            t[LAYER_OF_SPAN[name]] += d / nb

    def per(key):
        return c[key] / nb

    term = [r for r in rows if r.get("terminating")]
    corpus = [r for r in term if r["op"].startswith("corpus/")]
    traced_ops_per_s_norm = _ops_per_s(rows, "norm_s")
    m = {
        "jem.parse_s": (t["jem.parse_s"], "s"),
        "jem.run_s": (t["jem.run_s"], "s"),
        "jem.steps": (per("jem.steps"), "steps"),
        "jem.steps_per_s": (_ratio(c["jem.steps"], incl["jem.run"]), "steps/s"),
        "jem.fuel_runs": (per("jem.fuel_runs"), "count"),
        "jem.corpus_steps": (sum(r["jem_steps"] for r in corpus) / nb, "steps"),
        "compiler.compile_s": (t["compiler.compile_s"], "s"),
        "compiler.modules": (per("compiler.modules"), "count"),
        "aim.link_s": (t["aim.link_s"], "s"),
        "aim.run_s": (t["aim.run_s"], "s"),
        "aim.steps": (per("aim.steps"), "steps"),
        "aim.steps_per_s": (_ratio(c["aim.steps"], incl["aim.run"]), "steps/s"),
        "aim.steps_per_jem_step": (_ratio(sum(r["aim_steps"] for r in term), sum(r["jem_steps"] for r in term)), "1"),
        "aim.corpus_steps": (sum(r["aim_steps"] for r in corpus) / nb, "steps"),
        "aim.corpus_steps_per_jem_step": (_ratio(sum(r["aim_steps"] for r in corpus), sum(r["jem_steps"] for r in corpus)), "1"),
        "aim.fuel_runs": (per("aim.fuel_runs"), "count"),
        "aim.aborts": (per("aim.aborts"), "count"),
        "traces.equiv_s": (t["traces.equiv_s"], "s"),
        "traces.enum_s": (t["traces.enum_s"], "s"),
        "traces.canon_s": (t["traces.canon_s"], "s"),
        "traces.segment_s": (t["traces.segment_s"], "s"),
        "traces.traces": (per("traces.traces"), "count"),
        "traces.traces_per_s": (_ratio(c["traces.traces"], incl["traces.equiv"]), "traces/s"),
        "traces.segments": (per("traces.segments"), "count"),
        "traces.fuel_segments": (per("traces.fuel_segments"), "count"),
        "traces.clones": (per("traces.clones"), "count"),
        "traces.aim_steps_per_segment": (_ratio(c["traces.segment_steps"], c["traces.segments"]), "steps"),
        "backtrans.algo_s": (t["backtrans.algo_s"], "s"),
        "backtrans.verify_s": (t["backtrans.verify_s"], "s"),
        "backtrans.witness_lines": (sum(r.get("witness_lines", 0) for r in rows) / nb, "lines"),
        "backtrans.emulated_steps": (per("backtrans.emulated_steps"), "steps"),
        "backtrans.verify_jem_steps": (per("backtrans.verify_jem_steps"), "steps"),
        "trace.ops_per_s_norm": (traced_ops_per_s_norm, "op/s"),
        "trace.untraced_ops_per_s_norm": (untraced_ops_per_s_norm, "op/s"),
        "trace.overhead": (1 - _ratio(traced_ops_per_s_norm, untraced_ops_per_s_norm), "1"),
    }
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} missing under {ROOT}; run from a jemaim checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        # Set-up lasts about 30 samples, too few for the mean spin to absorb
        # one spin that the process is switched out in. So set-up is
        # normalised with the median spin, and CPU time leaves out the time
        # the process is switched out of the set-up itself.
        with SpeedSampler() as sampler:
            start, cpu = perf_counter(), process_time()
            seconds, _, _ = setup(args.workload, args.seed)
            cpu = process_time() - cpu
            cal = sampler.spin_during(start, perf_counter(), statistics.median)
        print(seconds, cpu * CAL_REF_S / cal)
        return 0

    calib_before = calibrate()
    _, ops, probes = setup(args.workload, args.seed)
    setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]

    warm_up(ops)
    start = perf_counter()
    rows_by_batch, recorder, count_diffs = [], None, []
    while True:
        if args.trace and len(rows_by_batch) == 1:
            import tracing

            recorder = tracing.Recorder()
            recorder.install()
        before = Counter(recorder.counts) if recorder else None
        with SpeedSampler() as sampler:
            rows_by_batch.append(run_batch(ops, len(rows_by_batch), sampler, recorder))
        if recorder is not None:
            count_diffs.append(recorder.counts - before)
        # another whole batch only if it is expected to end within --seconds
        elapsed = perf_counter() - start
        if (recorder is not None or not args.trace) and elapsed * (1 + 1 / len(rows_by_batch)) > args.seconds:
            break
    if recorder is not None:
        recorder.uninstall()
    calib_after = calibrate()
    probe_rows = run_probes(probes)

    all_rows = [r for rows in rows_by_batch for r in rows]
    problems = check(rows_by_batch, count_diffs, probe_rows)
    untraced = rows_by_batch[0] if args.trace else all_rows
    e2e = end_to_end(untraced, setup_times)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "batches": len(rows_by_batch), "setup_s": setup_times,
        "calibration_before_s": calib_before, "calibration_after_s": calib_after,
    }
    with open(OUT / f"rows-{stem}.jsonl", "w") as f:
        f.write(json.dumps({"run": meta}) + "\n")
        for r in all_rows + probe_rows:
            f.write(json.dumps(r) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  batches {len(rows_by_batch)}  ops {len(all_rows)}"
          f"  (closed loop, one client, one thread)")
    print(f"calibration  before {calib_before:.4f} s  after {calib_after:.4f} s"
          f"  (1 000 000-round spin; the {SAMPLE_ROUNDS}-round spin sampled during ops took"
          f" {statistics.median(r['cal_s'] for r in untraced) * 1e6:.2f} us)")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<18} {value:.6g} {unit}")
    if "op_tail_s" not in e2e:
        print(f"  {'op_tail_s':<18} n/a (10 ops or fewer)")
    for r in untraced:
        if not r["ok"] and r["batch"] == 0:
            print(f"    failed: {r['op']} {r['verdict']}")
    for r in probe_rows:
        note = {"recorded": "fails as recorded", "fixed": "now agrees; the recorded limit is gone"}.get(r["outcome"], "unexpected")
        print(f"  stack-limit probe {r['op']} ({r['limit']}, untimed): {r['verdict']}  [{note}]")
    metrics = {k: e2e[k] for k in E2E_REPORTED}
    if recorder is not None:
        recorder.write_spans(OUT / f"spans-{stem}.jsonl")
        metrics = per_layer(recorder, all_rows[len(ops):], e2e["ops_per_s_norm"][0])
        print(f"per layer, per batch, over {len(rows_by_batch) - 1} traced batches (times are self times):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:.6g} {unit}")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_rows),
        "failed": sum(not r["ok"] for r in all_rows),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
