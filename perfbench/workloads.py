"""The four benchmark workloads: inputs, one operation, and its output check.

Each workload is a closed loop with one caller. ``__init__`` builds the
inputs from the seed with the standard library only; ``load`` imports the
package (timed as part of ``setup_s``); ``op(i)`` is operation ``i`` and
returns what :meth:`check` inspects outside the timed interval. A check
raises :class:`CheckFailed` on a wrong output.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


class Workload:
    name = ""
    #: Operations per tracing round: ops of one round are all traced or all
    #: untraced, so a cycle of inputs is never split between the two.
    round_len = 1
    items_per_op = 1
    #: Whether ops run in child processes (then peak RSS is the largest
    #: child's, and traced ops record their spans in the child).
    in_children = False
    #: Share of the op time that Monte Carlo calls take, interleaved with
    #: the workload's own ops. Outside ``simulation_batch`` they are a small
    #: probe, there so that every workload reports the Monte Carlo metrics.
    mc_share = 0.1

    def load(self) -> None:
        raise NotImplementedError

    def op(self, i: int, trace_path=None):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError


class ReplicateStudy(Workload):
    """Replicated CSV -> pooled variances -> both analyses -> reports and plots."""

    name = "replicate_study"

    def __init__(self, seed: int, work: Path):
        self.rows = inputs.replicated_rows(seed)
        self.text = inputs.replicated_csv(self.rows)
        self.items_per_op = len(self.rows)
        self.hashes = None
        self.expected = None

    def load(self):
        import numpy as np
        from methodagree import agreement, io

        self.np, self.agreement, self.io = np, agreement, io

    def op(self, i, trace_path=None):
        io, ag = self.io, self.agreement
        reps = io.parse_replicated(self.text)
        variances = ag.estimate_variances(reps)
        paired = ag.paired_from_replicates(reps)
        weighted = ag.analyze(paired, axis="weighted", variances=variances)
        classic = ag.analyze(paired, axis="mean")
        texts = (io.emit_report(weighted), io.emit_report(classic),
                 io.render_plot_svg(weighted), io.render_plot_svg(classic))
        return variances, paired, (weighted, classic), texts

    def _independent(self):
        np = self.np
        per_subject = inputs.REPS_A + inputs.REPS_B
        values = np.array([row[3] for row in self.rows]).reshape(-1, per_subject)
        out = []
        for block in (values[:, :inputs.REPS_A], values[:, inputs.REPS_A:]):
            means = block.mean(axis=1)
            ss = ((block - means[:, None]) ** 2).sum()
            out.append((means, ss / (block.shape[0] * (block.shape[1] - 1))))
        return out

    def check(self, i, out):
        np = self.np
        variances, paired, results, texts = out
        if self.expected is None:
            self.expected = self._independent()
        (mean_a, s_wa2), (mean_b, s_wb2) = self.expected
        expect(close(variances.s_wa2, s_wa2, 1e-12) and close(variances.s_wb2, s_wb2, 1e-12),
               "pooled within-subject variances differ from numpy")
        expect(np.allclose(paired.a, mean_a, rtol=1e-12, atol=0.0)
               and np.allclose(paired.b, mean_b, rtol=1e-12, atol=0.0),
               "per-subject replicate means differ from numpy")
        for result, text in zip(results, texts):
            x, y = result.axis_values, result.differences
            xc = x - x.mean()
            expect(close(result.fit.slope, float(xc @ (y - y.mean()) / (xc @ xc)), 1e-9),
                   f"{result.axis.value}-axis slope disagrees with its own points")
            expect(close(result.bias, float(y.mean()), 1e-9),
                   f"{result.axis.value}-axis bias disagrees with its own differences")
            back = self.io.parse_report(text)
            expect(back.direction is result.direction and back.axis is result.axis
                   and back.weights == result.weights and back.fit == result.fit
                   and (back.bias, back.loa_low, back.loa_high)
                   == (result.bias, result.loa_low, result.loa_high)
                   and np.array_equal(back.axis_values, x)
                   and np.array_equal(back.differences, y),
                   f"{result.axis.value}-axis report does not parse back exactly")
        hashes = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        if self.hashes is None:
            self.hashes = hashes
        expect(hashes == self.hashes, "report or SVG text differs from the first op")


class SyntheticStudies(Workload):
    """``generate`` at n, then ``analyze`` on the classic and weighted axes."""

    def __init__(self, seed: int, n: int, presets: str):
        self.n = n
        self.presets = presets
        self.round_len = len(presets)
        self.items_per_op = n
        self.base_seed = inputs.derived_seeds(seed, self.name, 1)[0]

    def load(self):
        from methodagree import agreement, synthesis

        self.agreement, self.synthesis = agreement, synthesis

    def op(self, i, trace_path=None):
        syn, ag = self.synthesis, self.agreement
        config = syn.preset_config(self.presets[i % len(self.presets)], n=self.n,
                                   seed=self.base_seed + i)
        sample = syn.generate(config)
        classic = ag.analyze(sample, axis="mean")
        weighted = ag.analyze(sample, axis="weighted", variances=config.error_variances())
        return config, classic, weighted

    def check(self, i, out):
        config, classic, weighted = out
        pair = self.agreement.WeightPair
        for result, w in ((classic, pair(1.0, 1.0)),
                          (weighted, pair.from_variances(config.error_variances()))):
            want = self.synthesis.closed_form_moments(config, w)
            expect(result.n == config.n, f"{result.n} points for n = {config.n}")
            # Whitened signals have sample mean exactly 0, so the bias is 0.
            for label, got, ref in (("slope", result.fit.slope, want.slope),
                                    ("r", result.fit.r, want.r), ("bias", result.bias, 0.0)):
                expect(close(got, ref, 1e-9),
                       f"{result.axis.value}-axis {label} {got!r} != closed form {ref!r}")


class PairedLarge(SyntheticStudies):
    name = "paired_large"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, n=1_000_000, presets="cd")


class SimulationBatch(SyntheticStudies):
    name = "simulation_batch"
    mc_share = 0.5

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, n=100, presets="abcd")
        self.items_per_op = 1  # the item is a study


class MonteCarlo:
    """Repeated ``monte_carlo_covariance``: preset c, equal weights, n = 100.

    Calls cycle through a few seeds derived from the workload seed, so each
    seed's result is also checked for exact repeatability. The 4-SE check is
    statistical; fewer distinct seeds keep a chance failure rare.
    """

    trials = 2000
    distinct_seeds = 4

    def __init__(self, seed: int):
        self.seeds = inputs.derived_seeds(seed, "monte_carlo", self.distinct_seeds)
        self.seen: dict[int, tuple[float, float]] = {}

    def load(self):
        from methodagree import agreement, synthesis

        self.agreement, self.synthesis = agreement, synthesis
        self.weights = agreement.WeightPair(1.0, 1.0)

    def op(self, j):
        config = self.synthesis.preset_config(
            "c", n=100, seed=self.seeds[j % len(self.seeds)], exact_moments=False)
        return config, self.synthesis.monte_carlo_covariance(config, self.weights, self.trials)

    def check(self, j, out):
        config, (mean, se) = out
        want = self.agreement.predicted_covariance(self.weights, config.error_variances())
        expect(abs(mean - want) <= 4.0 * se,
               f"Monte Carlo mean {mean!r} is more than 4 SE ({se!r}) from {want!r}")
        first = self.seen.setdefault(config.seed, (mean, se))
        expect(first == (mean, se), "Monte Carlo result changed for the same seed")


class CliSession(Workload):
    """Fresh interpreters, one at a time, cycling through four CLI commands."""

    name = "cli_session"
    round_len = 4
    in_children = True
    replicate_subjects = 1000
    paired_n = 10_000

    def __init__(self, seed: int, work: Path):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        (work / "replicates.csv").write_text(inputs.replicated_csv(
            inputs.replicated_rows(seed, subjects=self.replicate_subjects)), encoding="utf-8")
        (work / "paired.csv").write_text(inputs.paired_csv(seed, self.paired_n),
                                         encoding="utf-8")
        sim = work / "sim"
        self.swa, self.swb = inputs.PAIRED_SD_A ** 2, inputs.PAIRED_SD_B ** 2
        # (argv, output files the command writes)
        self.commands = [
            (["table1"], []),
            (["simulate", "--case", "c", "--n", "10000", "--out", str(sim)],
             [sim / f for f in ("pairs.csv", "report_mean.json", "report_weighted.json",
                                "plot_mean.svg", "plot_weighted.svg")]),
            (["analyze", "--replicates", str(work / "replicates.csv"),
              "--report", str(work / "rep_report.json"), "--plot", str(work / "rep_plot.svg")],
             [work / "rep_report.json", work / "rep_plot.svg"]),
            (["analyze", "--input", str(work / "paired.csv"), "--swa", repr(self.swa),
              "--swb", repr(self.swb), "--report", str(work / "paired_report.json")],
             [work / "paired_report.json"]),
        ]
        self.expected = None

    def load(self):
        from methodagree import agreement, io, synthesis

        self.agreement, self.io, self.synthesis = agreement, io, synthesis

    def op(self, i, trace_path=None):
        argv, outputs = self.commands[i % len(self.commands)]
        for path in outputs:
            path.unlink(missing_ok=True)
        launcher = [sys.executable, str(HERE / "cli_launcher.py")]
        if trace_path is not None:
            launcher += ["--trace-out", str(trace_path)]
        proc = subprocess.run(launcher + argv, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def _in_process(self):
        """What each command must print and write, computed in this process."""
        io, ag, syn = self.io, self.agreement, self.synthesis
        config = syn.preset_config("c", n=10000)
        sample = syn.generate(config)
        classic = ag.analyze(sample, axis="mean")
        weighted = ag.analyze(sample, axis="weighted", variances=config.error_variances())
        reps = io.parse_replicated((self.work / "replicates.csv").read_text(encoding="utf-8"))
        from_reps = ag.analyze(ag.paired_from_replicates(reps), axis="weighted",
                               variances=ag.estimate_variances(reps))
        paired = ag.analyze(io.parse_paired((self.work / "paired.csv").read_text(encoding="utf-8")),
                            axis="weighted",
                            variances=ag.WithinSubjectVariance(s_wa2=self.swa, s_wb2=self.swb))
        return [
            io.format_table(syn.preset_results()),
            [io.write_paired(sample), io.emit_report(classic), io.emit_report(weighted),
             io.render_plot_svg(classic), io.render_plot_svg(weighted)],
            [io.emit_report(from_reps), io.render_plot_svg(from_reps)],
            [io.emit_report(paired)],
        ]

    def check(self, i, out):
        returncode, stdout, stderr = out
        k = i % len(self.commands)
        expect(returncode == 0, f"exit code {returncode}: {stderr.decode(errors='replace')[-300:]}")
        if self.expected is None:
            self.expected = self._in_process()
        if k == 0:
            expect(stdout == self.expected[0].encode(),
                   "table1 stdout differs from format_table(preset_results())")
            return
        for path, text in zip(self.commands[k][1], self.expected[k]):
            expect(path.is_file() and path.read_bytes() == text.encode(),
                   f"{path.name} differs from the in-process result")


WORKLOADS = {cls.name: cls for cls in (ReplicateStudy, PairedLarge, SimulationBatch, CliSession)}
