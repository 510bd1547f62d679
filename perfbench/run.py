"""mazekit benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload build|score|ingest --seed N --seconds S --trace 0|1

With --trace 0 the run sets up SETUP_REPS times, then times requests back
to back for S seconds and reports the end-to-end metrics; throughput and
latency are priced in reference-kernel units (speed.py), with the plain
wall-clock figures on stderr.  With --trace 1
it sets up once, then alternates untraced and traced passes over a fixed
request list for S seconds and reports the per-layer metrics.  Every
output is checked; a wrong one counts as failed and the run exits 1.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  See perfbench/README.md for what each workload and
metric is for.
"""

import time

_START = time.perf_counter()

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from array import array

from speed import SpeedSampler
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, "perfbench", ".work")

# Set-up is repeated and its median reported, so one slow repetition
# (page cache, a busy neighbour) does not move setup_s.
SETUP_REPS = 3
# Report a tail percentile only with at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_kref": "items/kref",
    "request_p50_ref": "ref",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: traced function -> the statistics reported for it.
_CALLS_SELF = ("calls_per_item", "self_us_per_item")
LAYER_STATS = {
    "generate.generate_maze": _CALLS_SELF,
    "generate.place_endpoints": _CALLS_SELF,
    "generate.solve_shortest_path": _CALLS_SELF,
    "rng.SplitMix64.next_u64": ("calls_per_item",),
    "core.validate_maze": _CALLS_SELF,
    "core.simulate_moves": _CALLS_SELF,
    "tokens.render_maze_tokens": _CALLS_SELF,
    "bench.maze_id": _CALLS_SELF,
    "tokens.parse_maze_tokens": _CALLS_SELF,
    "tokens.extract_move_tokens": _CALLS_SELF + ("chars_per_call",),
    "augment.augment_trace": _CALLS_SELF,
    "dataset.build_splits": ("self_us_per_item",),
    "dataset.write_records": _CALLS_SELF + ("bytes_per_item",),
    "dataset.read_records": _CALLS_SELF + ("bytes_per_item",),
    "dataset.validate_record": _CALLS_SELF,
    "rewards.total_reward": _CALLS_SELF,
    "rewards.correctness_reward": _CALLS_SELF,
    "rewards.integrity_reward": _CALLS_SELF,
    "rewards.thinking_reward": _CALLS_SELF,
    "rewards.group_advantages": _CALLS_SELF,
    "cli.main": ("self_us_per_item",),
}
STAT_UNITS = {
    "calls_per_item": "calls/item",
    "self_us_per_item": "us/item",
    "chars_per_call": "chars/call",
    "bytes_per_item": "B/item",
}
RATIO_UNIT = "ratio"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("build", "score", "ingest"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _report_failure(what: str) -> None:
    _log(f"FAILED {what}:\n{traceback.format_exc()}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, seconds: float, import_s: float) -> tuple[int, int, dict]:
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    gc.collect()

    clock = time.perf_counter
    starts, ends = array("d"), array("d")  # compact: peak RSS must not count them
    items = attempted = failed = 0
    check_s = 0.0  # checks run between requests but outside the timed window
    with SpeedSampler() as speed:
        start = clock()
        while attempted == 0 or clock() - start - check_s < seconds:
            k = attempted
            attempted += 1
            t0 = clock()
            try:
                out = wl.request(k)
            except Exception:
                failed += 1
                _report_failure(f"request {k}")
                continue
            t1 = clock()
            try:
                wl.check(out)
            except Exception:
                failed += 1
                _report_failure(f"check of request {k}")
            else:
                starts.append(t0)
                ends.append(t1)
                items += wl.items(out)
            check_s += clock() - t1
        wall = clock() - start - check_s
    peak_mb = peak_rss_mb()

    costs = [speed.cost(t0, t1) for t0, t1 in zip(starts, ends)]
    latencies = sorted(own for own, _ in costs)
    ref_costs = [ref for _, ref in costs]
    n = len(costs)
    p50 = statistics.median(latencies) * 1e3 if n else 0.0
    tail = ""
    if n * 0.05 >= TAIL_SAMPLES:
        p95 = statistics.quantiles(latencies, n=20)[-1] * 1e3
        tail = f", p95 {p95:.3f} ms ({n * 0.05:.0f} beyond)"
    _log(
        f"{wl.name}: {n} requests, {items / wall:.1f} items/s over {wall:.2f} s, p50 {p50:.3f} ms{tail}; "
        f"reference kernel median {statistics.median(speed.durations) * 1e6:.1f} us over {len(speed.durations)} samples; "
        f"set-up {', '.join(f'{t:.3f}' for t in setup_times)} s + import {import_s:.3f} s; "
        f"checks {check_s:.2f} s; error rate {failed}/{attempted}"
    )
    metrics = {
        "setup_s": setup_s,
        "items_per_kref": 1000.0 * items / sum(ref_costs) if n else 0.0,
        "request_p50_ref": statistics.median(ref_costs) if n else 0.0,
        "peak_rss_mb": peak_mb,
    }
    return attempted, failed, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def _run_pass(wl, tracer=None):
    """One pass over the fixed request list; checks run after the clock stops."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        outs = [wl.request(k) for k in wl.trace_requests]
        duration = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return duration, [wl.check(o) for o in outs], sum(wl.items(o) for o in outs)


def trace_run(wl, seconds: float) -> tuple[int, int, dict]:
    wl.setup()
    gc.collect()
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    pass_counts = None
    items = retry = attempted = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        attempted += 2 * len(wl.trace_requests)
        try:
            duration, reference, _ = _run_pass(wl)
            untraced.append(duration)
            before = tracer.snapshot()
            duration, summaries, pass_items = _run_pass(wl, tracer)
            traced.append(duration)
        except Exception:
            _report_failure("trace pass")
            return attempted, 1, {}
        after = tracer.snapshot()
        counts = {name: tuple(a - b for a, b in zip(after[name], before.get(name, (0, 0)))) for name in after}
        if pass_counts is None:
            pass_counts = counts
        elif counts != pass_counts:
            _log("FAILED: call counts differ between traced passes")
            return attempted, 1, {}
        if summaries != reference:
            _log("FAILED: traced outputs differ from untraced outputs")
            return attempted, 1, {}
        items += pass_items
        retry += sum(wl.retry_records(s) for s in summaries)

    metrics = {}
    for name, wanted in LAYER_STATS.items():
        calls, _, self_ns, measure = tracer.stats.get(name, (0, 0, 0, 0))
        values = {
            "calls_per_item": calls / items,
            "self_us_per_item": self_ns / 1e3 / items,
            "chars_per_call": measure / calls if calls else 0.0,
            "bytes_per_item": measure / items,
        }
        for stat in wanted:
            metrics[f"{name}.{stat}"] = {"value": values[stat], "unit": STAT_UNITS[stat]}
    augment_calls = tracer.stats.get("augment.augment_trace", (0,))[0]
    metrics["augment.used_ratio"] = {"value": retry / augment_calls if augment_calls else 0.0, "unit": RATIO_UNIT}
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace_overhead"] = {"value": overhead, "unit": RATIO_UNIT}
    _log(
        f"{wl.name} traced: {len(traced)} passes of {len(wl.trace_requests)} requests, "
        f"{items} items; untraced pass {statistics.median(untraced):.3f} s, "
        f"traced {statistics.median(traced):.3f} s"
    )
    for name in sorted(tracer.stats):
        calls, total_ns, self_ns, _ = tracer.stats[name]
        if calls:
            _log(f"  {name:32s} {calls / items:10.4f} calls/item {self_ns / 1e3 / items:10.2f} us/item self "
                 f"{total_ns / 1e3 / items:10.2f} us/item total")
    return attempted, 0, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        _log(f"error: cannot import mazekit from {os.path.join(ROOT, 'src')}: {exc}")
        return 2
    import_s = time.perf_counter() - _START

    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            attempted, failed, metrics = trace_run(wl, args.seconds)
        else:
            attempted, failed, metrics = timed_run(wl, args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
