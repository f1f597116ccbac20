"""methodagree benchmark: four closed-loop workloads with one caller each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a fresh worker process (``worker.py``) that imports
``methodagree`` from ``src/``, does one warm-up op, then runs ops back to
back for ``--seconds`` of op time and checks every op's output outside its
timed interval. ``--trace 0`` reports the end-to-end metrics: the 90th
percentile of op time and of Monte Carlo call time, peak RSS, and
``setup_s``, the median over five fresh processes (two set-up-only ones
before the worker, the worker, two after it) of package import plus the
warm-up op; it also records ``items_per_s``, ``op_p50_ms``, ``op_p99_ms``
and ``mc_trials_per_s``, which BENCHMARK.json does not gate (see
``worker.main``).
``--trace 1`` reports per-layer metrics, per op, from spans recorded around
the package's public calls; ``numerics.bytes_computed`` is computed from
argument sizes, not measured.

Stdout lists every metric with its unit and sample count; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The full
record, environment included, goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Set-up-only processes before the worker, and as many again after it.
SETUP_ROUNDS = 2
#: Whole-run limit for one workload, below the 180 s a run may take.
RUN_LIMIT_S = 170.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    cap = str(os.cpu_count() or 1)
    env.update(PYTHONPATH=str(root / "src"), PYTHONIOENCODING="utf-8", PYTHONHASHSEED="0",
               OMP_NUM_THREADS=cap, OPENBLAS_NUM_THREADS=cap, MKL_NUM_THREADS=cap)
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int,
                 expected_metrics) -> dict:
    deadline = monotonic() + RUN_LIMIT_S
    out_dir = root / ".perfbench-out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    tag = f"{name}-seed{seed}-trace{trace}"
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    # Set-up-only processes run before and after the worker, so that the
    # set-up samples are spread over the run like its ops.
    setup_rounds = 0 if trace else SETUP_ROUNDS
    try:
        setups = [run_worker(common + ["--setup-only"], env, deadline)
                  for _ in range(setup_rounds)]
        spans_out = ["--spans-out", str(out_dir / f"{tag}-spans.json.gz")] if trace else []
        record = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace),
                                      *spans_out], env, deadline)
        setups += [run_worker(common + ["--setup-only"], env, deadline)
                   for _ in range(setup_rounds)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        samples = [s["import_s"] + s["warmup_s"] for s in setups + [record]]
        record["setup_samples_s"] = samples
        record["metrics"]["setup_s"] = (statistics.median(samples), "s", len(samples))
    missing = set(expected_metrics) - set(record["metrics"])
    if missing:
        raise RuntimeError(f"worker did not report {sorted(missing)}")
    record.update(workload=name, seconds=seconds, trace=trace)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def report(record: dict, expected_metrics) -> dict:
    print(f"perfbench {record['workload']} seed={record['environment']['seed']} "
          f"trace={record['trace']} seconds={record['seconds']}")
    for name, (value, unit, n) in record["metrics"].items():
        gate = "" if name in expected_metrics else "  (recorded, not gated)"
        print(f"  {name:<40} {value:>16.6f} {unit:<9} n={n}{gate}")
    metrics = {name: {"value": record["metrics"][name][0], "unit": record["metrics"][name][1]}
               for name in expected_metrics}
    failed = len(record["failures"])
    print(f"  ops_attempted {record['attempted']}  ops_failed {failed}")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure}")
    return {"correct": failed == 0, "attempted": record["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "methodagree" / "__init__.py").is_file():
        print(f"no src/methodagree under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        record = run_workload(root, name, args.seed, args.seconds, args.trace, expected)
        print(json.dumps(report(record, expected)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
