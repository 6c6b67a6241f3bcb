"""Time-to-verdict benchmark for tsocbmc.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src.  One invocation is one workload in one fresh process, so peak RSS
belongs to that workload alone.  It sets the workload up, then repeats
passes over the workload's searches, closed loop and single-threaded, while
another pass still fits in --seconds (at least one pass).  Every pass checks
every verdict against a known answer.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  Their times are in reference
seconds: wall time scaled by how fast this machine ran a fixed kernel while
it was measured (see speed.py), so that the host's drift in speed does not
show as a change in the program.  --trace 1 alternates an untraced
and a traced pass (with at least two traced passes) and reports the
per-layer metrics from a traced one, plus what tracing cost.  See bench/README.md for what each workload and
metric is for.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from speed import SpeedProbe  # noqa: E402
from tracing import EXACT_COUNTS, Tracer, audit, layer_metrics, merged  # noqa: E402
from workloads import WORKLOADS, BenchError, PassResult, load_package  # noqa: E402

# set-up samples taken before the passes and again after each pass
SETUP_SAMPLES = 5
# kernel samples taken before each set-up sample
SETUP_SPEED_SAMPLES = 3


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(wl, seeded: bool = True, scaled: bool = False) -> PassResult:
    """One pass; with `scaled`, its time is in reference seconds and
    `wall_seconds` keeps the wall time."""
    gc.collect()
    out = PassResult()
    with SpeedProbe() if scaled else contextlib.nullcontext() as probe:
        t0 = time.perf_counter()
        wl.run_pass(out, seeded)
    out.wall_seconds = out.seconds = time.perf_counter() - t0
    if probe is not None:
        out.wall_seconds -= probe.spent
        out.seconds = probe.scale(out.wall_seconds)
    return out


def _setup_seconds(name: str, seed: int, speed: SpeedProbe) -> list[float]:
    """Set-up time of the workload in fresh processes: import, generate or
    parse, build machines and indexes.  A fresh process per sample, since
    the import only costs anything once per process.  `speed` gets kernel
    samples taken next to them."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        p = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if p.returncode != 0:
            raise BenchError(f"set-up probe failed: {p.stderr.strip()}")
        samples.append(float(p.stdout.split()[-1]))
    return samples


def _determinism(passes: list[PassResult], tracers: list[Tracer]) -> list[str]:
    problems = []
    for p in passes[1:]:
        if p.states != passes[0].states:
            problems.append(f"determinism: states per search {p.states} "
                            f"!= {passes[0].states} in an earlier pass")
    for t in tracers[1:]:
        for name, hook in EXACT_COUNTS.items():
            if t.calls(hook) != tracers[0].calls(hook):
                problems.append(f"determinism: {name} {t.calls(hook)} != "
                                f"{tracers[0].calls(hook)} in an earlier pass")
    return problems


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pkg = load_package(ROOT)
    wl = WORKLOADS[name](pkg, seed, ROOT)
    setup_tracer = Tracer(pkg) if trace else None
    with setup_tracer or contextlib.nullcontext():
        wl.prepare()
    wl.known_answers()
    gc.collect()
    rss_setup = _maxrss_mb()
    # Set-up samples are taken now and after every pass, not all at once:
    # this machine's speed drifts by a third from one moment to the next.
    setup_speed = SpeedProbe()
    setup_samples = [] if trace else _setup_seconds(name, seed, setup_speed)

    # The first pass runs in job order and alone sets the memory figures:
    # ru_maxrss only grows, and how much later passes add depends on the
    # order of the searches and on how many passes fit.
    passes: list[PassResult] = []
    traced: list[tuple[PassResult, Tracer]] = []
    start = time.perf_counter()
    while True:
        passes.append(_timed_pass(wl, seeded=bool(passes), scaled=not trace))
        if len(passes) == 1:
            rss_first = _maxrss_mb()
        if trace:
            with Tracer(pkg) as t:
                traced.append((_timed_pass(wl), t))
        else:
            setup_samples += _setup_seconds(name, seed, setup_speed)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    if len(traced) == 1:
        # the exact-count check needs a second traced pass to compare with
        with Tracer(pkg) as t:
            traced.append((_timed_pass(wl), t))

    every = passes + [p for p, _ in traced]
    for i, p in enumerate(passes):
        print(f"pass {i}: {p.seconds:.3f} s ({p.wall_seconds:.3f} s wall), "
              f"states {p.states}", file=sys.stderr)
    for i, (p, _) in enumerate(traced):
        print(f"traced pass {i}: {p.seconds:.3f} s", file=sys.stderr)
    problems = [m for p in every for m in p.problems]
    problems += _determinism(every, [t for _, t in traced])
    for m in problems:
        print(f"problem: {m}", file=sys.stderr)

    verdict_s = statistics.median(p.seconds for p in passes)
    states = sum(passes[0].states)
    if trace:
        mid = sorted(traced, key=lambda pt: pt[0].seconds)[(len(traced) - 1) // 2]
        acc = merged(setup_tracer, mid[1])
        audit(acc, wl.hot)
        traced_s = statistics.median(p.seconds for p, _ in traced)
        metrics = layer_metrics(acc, states, mid[0].peak_frontier, verdict_s,
                                traced_s)
    else:
        print("set-up samples: " + " ".join(f"{x:.4f}" for x in setup_samples),
              file=sys.stderr)
        setup = setup_speed.scale(statistics.median(setup_samples))
        growth = (rss_first - rss_setup) * 2**20
        metrics = {
            "verdict_s": (verdict_s, "s"),
            "setup_s": (setup, "s"),
            "states": (states, "count"),
            "states_per_s": (states / verdict_s, "1/s"),
            "peak_rss_mb": (rss_first, "MB"),
            "bytes_per_state": (growth / max(passes[0].states), "B"),
            "decided_share": (sum(p.decided for p in every)
                              / sum(p.attempted for p in every), "share"),
        }
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in every),
        "failed": sum(p.failed for p in every),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes the order of the searches in every pass "
                         "after the first")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="no new pass starts unless it fits in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
