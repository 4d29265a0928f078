"""One cold pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --mode plain|traced|setup|warmup \
        --workload NAME --seed N --out DIR

Prints one JSON object on its last stdout line.  `setup_s` is the time to
import nilcoh and nilcoh.harness; `pass_s` is the time of all cases, each
case timed on its own; `ref_s` is the median time of a fixed reference job
run between cases; checks run after the pass, outside the timed region.
Peak RSS is read before the checks.  A traced pass installs the tracer
between set-up and the first case and writes its spans to
DIR/<workload>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REF_SMALL = 64            # Z_64: its table stays in the CPU's caches
REF_ROUNDS = 40           # closures of all of Z_64, about 12 ms on a 2-vCPU Xeon VM
REF_BIG = 512             # Z_512: its table of distinct ints takes about 7 MB
REF_BIG_STEP = 6          # every sixth element of Z_512, about 14 ms
REF_EVERY_S = 0.5         # seconds of cases between two reference samples


def _import_nilcoh() -> float:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import nilcoh  # noqa: F401
    import nilcoh.harness  # noqa: F401
    setup_s = time.perf_counter() - t0
    if not Path(nilcoh.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"nilcoh imported from {nilcoh.__file__}, not from {SRC}")
    return setup_s


def reference_tables() -> tuple[list[list[int]], list[list[int]]]:
    """The addition tables of Z_64 and Z_512, held as nested lists like a
    nilcoh Cayley table."""
    return tuple([[(a + b) % n for b in range(n)] for a in range(n)]
                 for n in (REF_SMALL, REF_BIG))


def _close_cyclic(table: list[list[int]], step: int) -> None:
    seen = set()
    for g in range(1, len(table), step):
        x, closure = g, {0}
        while x not in closure:
            closure.add(x)
            x = table[x][g]
        seen.add(frozenset(closure))


def reference_job(tables: tuple[list[list[int]], list[list[int]]]) -> float:
    """Seconds for one run of a fixed pure-Python job that uses no nilcoh code.

    The job does the kind of work nilcoh's table scans do: it closes cyclic
    subgroups under an addition table and hashes each closure.  It closes
    every subgroup of Z_64 REF_ROUNDS times, on a table that stays in the
    CPU's caches, and those of every REF_BIG_STEP-th element of Z_512, on a
    table that does not.  On a shared host a nilcoh case slows partly like
    cached work and partly like memory-bound work, so the job has one half of
    each; its time follows the host's speed alone, and a case's time divided
    by it loses most of the host's drift but keeps every change to nilcoh.
    """
    small, big = tables
    t0 = time.perf_counter()
    for _ in range(REF_ROUNDS):
        _close_cyclic(small, 1)
    _close_cyclic(big, REF_BIG_STEP)
    return time.perf_counter() - t0


def run_pass(workload: str, seed: int, out_dir: Path, tracer=None) -> dict:
    """Run every case of the workload once, then check every result.

    The reference job runs before the first case, after the last, and between
    cases whenever REF_EVERY_S seconds of cases have passed since it last ran.
    Each case is reported as [name, seconds, reference seconds], the last
    being the mean of the two reference samples around the case; `ref_s` is
    the median of all the samples.
    """
    from workloads import WORKLOADS

    cases = WORKLOADS[workload](seed, out_dir)
    tables = reference_tables()
    timed = []            # name, seconds, index of the reference sample before
    refs = [reference_job(tables)]
    since_ref = 0.0
    for case in cases:
        if case.run is None:
            continue
        if since_ref >= REF_EVERY_S:
            refs.append(reference_job(tables))
            since_ref = 0.0
        t0 = time.perf_counter()
        try:
            case.result = tracer.run_case(case.run) if tracer else case.run()
        except Exception as exc:  # a case's failure is recorded, the pass goes on
            traceback.print_exc()
            case.result = exc
        timed.append((case.name, time.perf_counter() - t0, len(refs) - 1))
        since_ref += timed[-1][1]
    refs.append(reference_job(tables))
    times = [[name, t, (refs[i] + refs[i + 1]) / 2] for name, t, i in timed]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = []
    for case in cases:
        if isinstance(case.result, Exception):
            failures.append([case.name, f"{type(case.result).__name__}: {case.result}"])
            continue
        try:
            problem = case.check(case.result)
        except Exception as exc:  # a check that raises is a failed check
            traceback.print_exc()
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append([case.name, problem])
    return {"pass_s": sum(t for _, t, _ in times), "cases": times,
            "ref_s": statistics.median(refs), "attempted": len(cases),
            "failures": failures, "peak_rss_mb": peak_rss_mb}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced", "setup", "warmup"),
                        required=True)
    parser.add_argument("--workload", default="suite")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    args = parser.parse_args(argv)

    setup_s = _import_nilcoh()
    result: dict = {"setup_s": setup_s}
    if args.mode == "warmup":
        import tracer  # noqa: F401  (compiles the benchmark's own modules too)
        import workloads  # noqa: F401
    elif args.mode in ("plain", "traced"):
        args.out.mkdir(parents=True, exist_ok=True)
        tr = None
        if args.mode == "traced":
            from tracer import Tracer
            tr = Tracer()
            tr.install()
        result.update(run_pass(args.workload, args.seed, args.out, tr))
        if tr is not None:
            tr.uninstall()
            result["layers"] = tr.aggregate()
            tr.write_spans(str(args.out / f"{args.workload}.spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
