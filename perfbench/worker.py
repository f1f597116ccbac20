"""One workload in one fresh process; prints one JSON line for ``run.py``.

``--setup-only`` stops after the import and the warm-up op and reports
their times. Otherwise the closed loop runs for ``--seconds`` of summed
op time, every op's output is checked outside its timed interval, and
``--trace 1`` alternates untraced and traced rounds of ops.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS, MonteCarlo

#: Per-layer metrics and their units. Each is a total over the traced ops
#: of one phase divided by their number: the Monte Carlo phase for the
#: ``synthesis.monte_carlo_covariance`` and ``synthesis.mc_trials`` rows,
#: the main loop for every other row.
LAYER_SPANS = (
    "io.parse_replicated", "io.parse_paired", "io.write_paired", "io.emit_report",
    "io.render_plot_svg", "agreement.ReplicatedSample", "agreement.PairedSample",
    "agreement.estimate_variances", "agreement.paired_from_replicates",
    "agreement.analyze", "synthesis.generate", "synthesis.monte_carlo_covariance",
    "numerics.student_t_quantile", "numerics.student_t_cdf", "numerics.linear_fit",
    "numerics.moments", "numerics.orthonormalize", "cli.main",
)
COUNTERS = {"io.bytes_in": "bytes/op", "io.bytes_out": "bytes/op",
            "numerics.bytes_computed": "bytes/op", "synthesis.mc_trials": "trials/op",
            "cli.import_ms": "ms/op", "cli.calls": "calls/op", "cli.exit_nonzero": "calls/op"}
#: Span op tags of the Monte Carlo phase start here, after any main-loop op.
MC_TAG_BASE = 1 << 40
MC_PHASE = {"synthesis.monte_carlo_covariance", "synthesis.mc_trials"}


def quantile(values, q: float) -> float:
    """Linearly interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(line.partition(":")[2].strip() for line in fh
                             if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "thread_cap": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "cpu_model": cpu_model, "caches": caches, "seed": seed,
    }


class Loop:
    """Closed-loop runner of one kind of op: op times, failures, traced rounds.

    With tracing on, rounds of ``round_len`` ops alternate between untraced
    and traced, starting untraced.
    """

    def __init__(self, op, check, items_per_op, round_len, recorder, first=0,
                 child_trace=None, tag_base=0):
        self.op, self.check = op, check
        self.items_per_op, self.round_len = items_per_op, round_len
        self.recorder, self.child_trace = recorder, child_trace
        self.first = self.next = first
        self.tag_base = tag_base
        self.spent = 0.0
        self.times: dict[bool, list[float]] = {False: [], True: []}
        self.traced_walls: dict[int, float] = {}
        self.failures: list[str] = []
        self.attempted = 0

    @property
    def done(self) -> int:
        return self.next - self.first

    def step(self, trace: bool) -> None:
        traced = trace and (self.done // self.round_len) % 2 == 1
        elapsed = self.run_one(self.next, traced)
        self.times[traced].append(elapsed)
        self.spent += elapsed
        self.next += 1

    def run_one(self, i: int, traced: bool) -> float:
        rec = self.recorder
        restore = None
        if traced:
            rec.op = self.tag_base + i
            if self.child_trace is None:
                restore = spans.install(rec)
        start = perf_counter()
        try:
            out = self.op(i, self.child_trace) if traced and self.child_trace else self.op(i)
            error = None
        except Exception as exc:  # a failing op is counted, not fatal
            out, error = None, f"op {i}: {exc!r}"
        elapsed = perf_counter() - start
        if restore is not None:
            restore()
        if traced:
            self.traced_walls[rec.op] = elapsed
            if self.child_trace is not None:
                self._merge_child(rec.op)
        self.attempted += 1
        if error is None:
            try:
                self.check(i, out)
            except Exception as exc:
                error = f"op {i}: {exc!r}"
        if error is not None:
            self.failures.append(error)
        return elapsed

    def _merge_child(self, tag: int) -> None:
        rec, path = self.recorder, Path(self.child_trace)
        rec.count("cli.calls", 1)
        if not path.is_file():
            rec.count("cli.exit_nonzero", 1)
            return
        data = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        offset = len(rec.spans)
        for name, start, end, parent, _ in data["spans"]:
            rec.spans.append([name, start, end, parent + offset if parent >= 0 else -1, tag])
        for key, value in data["counters"].items():
            rec.count(key, value)

    def rate(self, traced: bool) -> float:
        times = self.times[traced]
        return self.items_per_op * len(times) / sum(times)


def run_interleaved(main: Loop, mc: Loop, seconds: float, mc_share: float, trace: bool) -> None:
    """Run main ops until ``seconds`` of op time, main and Monte Carlo
    together, are spent and the current round is complete. After each main
    op, Monte Carlo calls run until they hold ``mc_share`` of the op time, so
    both kinds of op are sampled across the whole run."""
    min_rounds = 2 if trace else 1
    while (main.spent + mc.spent < seconds or main.done % main.round_len
           or main.done < min_rounds * main.round_len or mc.done < min_rounds):
        main.step(trace)
        while mc.spent < mc_share * (main.spent + mc.spent):
            mc.step(trace)


def layer_metrics(recorder, main: Loop, mc: Loop) -> tuple[dict, list]:
    """Per-op layer metrics from the traced ops, plus trace sanity problems."""
    problems = []
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(recorder.spans, spans.self_times(recorder.spans)):
        if own < 0.0:
            problems.append(f"negative self time in {span[0]} of op {span[4]}")
        self_ms[span[0]] = self_ms.get(span[0], 0.0) + own * 1e3
        calls[span[0]] = calls.get(span[0], 0) + 1
    walls = {**main.traced_walls, **mc.traced_walls}
    for op, covered in spans.top_level_time(recorder.spans).items():
        if covered > walls[op]:
            problems.append(f"top-level spans of op {op} exceed its wall time")

    n_main = len(main.times[True])
    n_mc = len(mc.times[True])

    def per_op(name, total, unit):
        n = n_mc if name in MC_PHASE else n_main
        return (total / n if n else 0.0, unit, n)

    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = per_op(name, calls.get(name, 0), "calls/op")
        metrics[f"{name}.self_ms"] = per_op(name, self_ms.get(name, 0.0), "ms/op")
    for name, unit in COUNTERS.items():
        metrics[name] = per_op(name, recorder.counters.get(name, 0.0), unit)
    metrics["trace.overhead_frac"] = (1.0 - main.rate(True) / main.rate(False), "frac",
                                      n_main + len(main.times[False]))
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.work)
    mc = MonteCarlo(args.seed)
    input_s = perf_counter() - start

    start = perf_counter()
    import methodagree

    workload.load()
    import_s = perf_counter() - start
    source = Path(methodagree.__file__).resolve()
    if Path(os.environ.get("PYTHONPATH", "src")).resolve() not in source.parents:
        print(f"methodagree imported from {source}, not from the checkout", file=sys.stderr)
        return 2
    start = perf_counter()
    warm = workload.op(0)
    warmup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
        return 0

    recorder = spans.Recorder()
    child_trace = (args.work / "child_spans.json") if workload.in_children else None
    main_loop = Loop(workload.op, workload.check, workload.items_per_op, workload.round_len,
                     recorder, first=1, child_trace=child_trace)
    main_loop.attempted += 1
    try:
        workload.check(0, warm)
    except Exception as exc:
        main_loop.failures.append(f"warm-up op: {exc!r}")
    del warm
    mc.load()
    mc_loop = Loop(mc.op, mc.check, mc.trials, 1, recorder, tag_base=MC_TAG_BASE)

    run_start = perf_counter()
    run_interleaved(main_loop, mc_loop, args.seconds, workload.mc_share, bool(args.trace))
    run_s = perf_counter() - run_start

    usage = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    times = main_loop.times[False]
    result = {
        "environment": environment(args.seed),
        "input_s": input_s, "import_s": import_s, "warmup_s": warmup_s, "run_s": run_s,
        "attempted": main_loop.attempted + mc_loop.attempted,
        "failures": main_loop.failures + mc_loop.failures,
        "samples": {"main_ops": len(times), "traced_main_ops": len(main_loop.times[True]),
                    "mc_calls": len(mc_loop.times[False]),
                    "traced_mc_calls": len(mc_loop.times[True])},
    }
    if args.trace:
        metrics, problems = layer_metrics(recorder, main_loop, mc_loop)
        result["failures"] += problems
        result["metrics"] = metrics
        if args.spans_out is not None:
            with gzip.open(args.spans_out, "wt", encoding="utf-8") as fh:
                json.dump({"spans": recorder.spans, "counters": recorder.counters}, fh)
    else:
        mc_times = mc_loop.times[False]
        n, n_mc = len(times), len(mc_times)
        result["metrics"] = {
            "op_p90_ms": (quantile(times, 0.9) * 1e3, "ms", n),
            "mc_call_p90_ms": (quantile(mc_times, 0.9) * 1e3, "ms", n_mc),
            "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MiB", 1),
            # Recorded but not gated in BENCHMARK.json. On a shared virtual
            # machine (measured on a 2-vCPU Xeon VM) op speed switches between
            # two levels up to 2x apart for seconds at a time, so the share of
            # a run spent at each level moves its mean and median by more than
            # any allowed bound; the 90th percentile above stays at the slow
            # level in nearly every run. op_p99_ms has ten samples beyond it
            # only on simulation_batch.
            "items_per_s": (main_loop.rate(False), "items/s", n),
            "op_p50_ms": (quantile(times, 0.5) * 1e3, "ms", n),
            "op_p99_ms": (quantile(times, 0.99) * 1e3, "ms", n),
            "mc_trials_per_s": (mc_loop.rate(False), "trials/s", n_mc),
        }
        result["op_times_s"] = times
        result["mc_times_s"] = mc_times
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
