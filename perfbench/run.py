"""nilcoh benchmark: cold passes of one workload, with correctness checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs in a fresh interpreter (perfbench/worker.py), one at a time,
so no catalog or H1 cache carries over, just as in separate CLI runs.  Passes
are started until the next one, at the median length of the passes so far,
would end after S seconds (at least MIN_PASSES of each kind are run).  With
--trace 0 the passes are untraced and the end-to-end metrics are printed;
with --trace 1 untraced and traced passes alternate and the per-layer metrics
are printed, with the tracing overhead.  The last stdout line is one JSON
object: correct, attempted, failed, metrics.

On a shared host the CPU's speed drifts by more than half over minutes, and
every time a run measures drifts with it.  So each pass also times a fixed
pure-Python reference job that uses no nilcoh code (worker.reference_job),
and the end-to-end times are given in multiples of it (unit `ref`): each
case's time over the reference job's time around it, as a median over the
run's passes.  A change to nilcoh moves them as it moves the times in
seconds; the host's drift moves both the case and the reference, and
cancels.  The same figures in seconds are printed too, with the median and
quartiles of the pass times (perfbench/README.md has the measurements).

Exits with status 2, printing no result, when the nilcoh sources are not next
to the benchmark or a pass process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("structure_mix", "cocycle_heavy")
MIN_PASSES = 2            # per kind of pass
SETUP_SAMPLES = 15        # fresh interpreters behind the setup_s median
RUN_LIMIT_S = 170         # the whole run, including set-up samples

END_TO_END = (("setup_s", "s"), ("run_ref", "ref"), ("case_p50_ref", "ref"),
              ("slowest_case_ref", "ref"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, "-s", str(WORKER), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--out", str(OUT)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def case_medians(passes: list[dict], in_refs: bool = False) -> dict[str, float]:
    """Each case's median time over the passes: in seconds, or with in_refs
    in multiples of the reference job's time around the case."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for name, t, ref in p["cases"]:
            times.setdefault(name, []).append(t / ref if in_refs else t)
    return {name: statistics.median(ts) for name, ts in times.items()}


def summary(typical: dict[str, float]) -> tuple[float, float, float]:
    """The whole pass, the median case and the slowest case."""
    return (sum(typical.values()), statistics.median(typical.values()),
            max(typical.values()))


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    run, p50, slowest = summary(case_medians(passes, in_refs=True))
    return {
        "setup_s": statistics.median(setups),
        "run_ref": run,
        "case_p50_ref": p50,
        "slowest_case_ref": slowest,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced passes, and the tracing overhead: traced minus
    untraced run_ref, in seconds at the run's median reference-job time."""
    ref_s = statistics.median(p["ref_s"] for p in plain + traced)
    overhead = (sum(case_medians(traced, in_refs=True).values())
                - sum(case_medians(plain, in_refs=True).values()))
    out = {"trace.run_s": sum(case_medians(traced).values()),
           "trace.overhead_s": overhead * ref_s}
    for name in metric_names():
        if name not in out:
            out[name] = statistics.median(p["layers"][name] for p in traced)
    return {name: out[name] for name in metric_names()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".yield"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilcoh" / "__init__.py").is_file():
        print(f"no nilcoh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        run_child("warmup", args.workload, args.seed, deadline)
        window_start = time.monotonic()
        kinds = ["plain", "traced"] if args.trace else ["plain"]
        results: dict[str, list[dict]] = {k: [] for k in kinds}
        extra_setups: list[float] = []
        durations: list[float] = []
        i = 0
        while True:
            elapsed = time.monotonic() - window_start
            enough = all(len(v) >= MIN_PASSES for v in results.values())
            if enough and elapsed + statistics.median(durations) > args.seconds:
                break
            # Set-up samples are spread over the window, not taken in one burst.
            due = SETUP_SAMPLES * min(1.0, elapsed / args.seconds)
            if not args.trace and len(results["plain"]) + len(extra_setups) < due:
                extra_setups.append(
                    run_child("setup", args.workload, args.seed, deadline)["setup_s"])
                continue
            kind = kinds[i % len(kinds)]
            t0 = time.monotonic()
            results[kind].append(run_child(kind, args.workload, args.seed, deadline))
            durations.append(time.monotonic() - t0)
            i += 1
        setups = [p["setup_s"] for p in results["plain"]] + extra_setups
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_child("setup", args.workload, args.seed, deadline)["setup_s"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    all_passes = [p for v in results.values() for p in v]
    attempted = sum(p["attempted"] for p in all_passes)
    failures = [f for p in all_passes for f in p["failures"]]
    for name, problem in failures:
        print(f"FAILED {name}: {problem}")
    plain = results["plain"]
    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} passes {len(v)}" for k, v in results.items())
          + f"  wall {time.monotonic() - started:.1f} s")
    if args.trace:
        values = per_layer(plain, results["traced"])
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        values = end_to_end(plain, setups)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        q1, q2, q3 = statistics.quantiles([p["pass_s"] for p in plain], n=4)
        print(f"pass time: median {q2:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
              f"{len(plain)} passes; setup_s is the median of {len(setups)} interpreters")
        seconds = case_medians(plain)
        run, p50, slowest = summary(seconds)
        ref_s = statistics.median(p["ref_s"] for p in plain)
        print(f"in seconds: run {run:.4f} s, case p50 {p50:.6f} s, slowest case "
              f"{slowest:.4f} s; reference job {ref_s:.6f} s")
        parts: dict[str, float] = {}
        for name, t in seconds.items():
            part = name.split("/")[0]
            parts[part] = parts.get(part, 0.0) + t
        print("seconds by part: " + ", ".join(f"{p} {t:.4g} s" for p, t in parts.items()))
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':<48} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} cases failed)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
