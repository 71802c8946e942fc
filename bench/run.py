"""Benchmark command: end-to-end and per-layer numbers for one workload.

    python3 bench/run.py --workload twin-headline --seed 1 --seconds 10 --trace 0

Generates the workload's input files from ``--seed`` under ``.bench_data/``,
then runs whole pipeline iterations (``bench/child.py``), each in its own
process with no more BLAS threads than cores, for ``--seconds``: at least
one, and another only while it is expected to end within that time.  Every iteration's outputs are
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, each
the median over the run's iterations.  All iterations' figures, and the
spans of traced ones, are kept in ``.bench_results/``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import CONFIGS, generate  # noqa: E402

CHILD_TIMEOUT_S = 170.0


def _spec() -> tuple[dict, dict[str, str]]:
    """BENCHMARK.json and the unit of every metric it names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _iteration(workload: str, data: Path, seed: int, trace: int, budget_s: float) -> dict | None:
    """One child process; its parsed result, or None if it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--data", str(data), "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"bench: {workload} iteration timed out after {budget_s:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"bench: {workload} iteration exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gad" / "__init__.py").is_file():
        print(f"bench: no gad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec, units = _spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    started = time.monotonic()
    data = ROOT / ".bench_data" / f"{args.workload}-s{args.seed}"
    generate(args.workload, args.seed, data)

    # whole iterations only: another one starts if, at the mean length so
    # far, it would end within --seconds
    runs, attempted, failed = [], 0, 0
    t0 = time.monotonic()
    while attempted == 0 or (time.monotonic() - t0) * (attempted + 1) / attempted <= args.seconds:
        budget = CHILD_TIMEOUT_S - (time.monotonic() - started)
        if budget <= 0:
            break
        attempted += 1
        result = _iteration(args.workload, data, args.seed, args.trace, budget)
        if result is None:
            failed += 1
        else:
            runs.append(result)
    if not runs:
        print("bench: no iteration finished", file=sys.stderr)
        return 1

    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"bench: check failed: {f}", file=sys.stderr)
    key = "layers" if args.trace else "metrics"
    metrics = {
        name: {"value": statistics.median(float(r[key][name]) for r in runs), "unit": units[name]}
        for name in wanted
    }
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  iterations=runs)
    (out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
