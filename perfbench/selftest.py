"""Self-tests of the benchmark: generators, output checks, span arithmetic.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    CheckFailed, CliSession, MonteCarlo, ReplicateStudy, SimulationBatch,
)


def replaced(result, **fit_changes):
    return dataclasses.replace(result, fit=dataclasses.replace(result.fit, **fit_changes))


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.replicated_csv(inputs.replicated_rows(7, subjects=50)),
                         inputs.replicated_csv(inputs.replicated_rows(7, subjects=50)))
        self.assertEqual(inputs.paired_csv(7, 100), inputs.paired_csv(7, 100))
        self.assertEqual(inputs.derived_seeds(7, "x", 3), inputs.derived_seeds(7, "x", 3))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(inputs.replicated_rows(7, subjects=50),
                            inputs.replicated_rows(8, subjects=50))
        self.assertNotEqual(inputs.paired_csv(7, 100), inputs.paired_csv(8, 100))

    def test_replicate_counts_stay_unequal(self):
        rows = inputs.replicated_rows(1, subjects=3)
        self.assertEqual(sum(r[1] == "A" for r in rows), 3 * inputs.REPS_A)
        self.assertEqual(sum(r[1] == "B" for r in rows), 3 * inputs.REPS_B)
        self.assertNotEqual(inputs.REPS_A, inputs.REPS_B)


class SyntheticCheckTests(unittest.TestCase):
    def setUp(self):
        self.wl = SimulationBatch(3, Path("."))
        self.wl.load()
        self.config, self.classic, self.weighted = self.wl.op(1)

    def test_correct_output_passes(self):
        self.wl.check(1, (self.config, self.classic, self.weighted))

    def test_perturbed_slope_r_or_bias_fails(self):
        for bad in (replaced(self.weighted, slope=self.weighted.fit.slope + 1e-6),
                    replaced(self.weighted, r=self.weighted.fit.r + 1e-6),
                    dataclasses.replace(self.weighted, bias=self.weighted.bias + 1e-6)):
            with self.assertRaises(CheckFailed):
                self.wl.check(1, (self.config, self.classic, bad))


class ReplicateCheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = ReplicateStudy(5, Path("."))
        cls.wl.load()
        cls.out = cls.wl.op(0)
        cls.wl.check(0, cls.out)  # records the reference hashes

    def test_repeat_passes(self):
        self.wl.check(1, self.wl.op(1))

    def check_fails(self, out):
        with self.assertRaises(CheckFailed):
            self.wl.check(1, out)

    def test_perturbed_variance_fails(self):
        variances, paired, results, texts = self.out
        bad = dataclasses.replace(variances, s_wb2=variances.s_wb2 * (1 + 1e-9))
        self.check_fails((bad, paired, results, texts))

    def test_perturbed_subject_mean_fails(self):
        variances, paired, results, texts = self.out
        a = paired.a.copy()
        a[17] += 1e-9
        self.check_fails((variances, dataclasses.replace(paired, a=a), results, texts))

    def test_perturbed_slope_fails(self):
        variances, paired, (weighted, classic), texts = self.out
        bad = replaced(weighted, slope=weighted.fit.slope + 1e-6)
        self.check_fails((variances, paired, (bad, classic), texts))

    def test_changed_report_or_svg_byte_fails(self):
        variances, paired, results, texts = self.out
        for k, old, new in ((0, '"n": ', '"n":  '), (2, "#1f77b4", "#1f77b5")):
            changed = list(texts)
            changed[k] = texts[k].replace(old, new, 1)
            self.assertNotEqual(changed[k], texts[k])
            self.check_fails((variances, paired, results, tuple(changed)))


class MonteCarloCheckTests(unittest.TestCase):
    def setUp(self):
        self.mc = MonteCarlo(2)
        self.mc.load()
        self.mc.trials = 200
        self.config, (self.mean, self.se) = self.mc.op(0)

    def test_correct_output_passes(self):
        self.mc.check(0, (self.config, (self.mean, self.se)))
        self.mc.check(4, self.mc.op(4))  # same seed, same result

    def test_mean_far_from_prediction_fails(self):
        with self.assertRaises(CheckFailed):
            self.mc.check(0, (self.config, (self.mean + 5 * self.se, self.se)))

    def test_changed_repeat_fails(self):
        self.mc.check(0, (self.config, (self.mean, self.se)))
        with self.assertRaises(CheckFailed):
            self.mc.check(4, (self.config, (self.mean + 1e-12, self.se)))


class CliCheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.pythonpath = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = str(HERE.parent / "src")  # for the CLI children
        cls.wl = CliSession(4, Path(cls.tmp.name))
        cls.wl.load()
        cls.wl.expected = cls.wl._in_process()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()
        if cls.pythonpath is None:
            os.environ.pop("PYTHONPATH")
        else:
            os.environ["PYTHONPATH"] = cls.pythonpath

    def test_real_calls_pass(self):
        for i in (0, 3):
            self.wl.check(i, self.wl.op(i))

    def test_nonzero_exit_fails(self):
        with self.assertRaises(CheckFailed):
            self.wl.check(0, (2, self.wl.expected[0].encode(), b"error"))

    def test_changed_table1_byte_fails(self):
        out = self.wl.expected[0].replace("0.", "1.", 1).encode()
        with self.assertRaises(CheckFailed):
            self.wl.check(0, (0, out, b""))

    def test_changed_report_fails(self):
        path = self.wl.commands[3][1][0]
        path.write_text(self.wl.expected[3][0].replace('"n": ', '"n":  '), encoding="utf-8")
        with self.assertRaises(CheckFailed):
            self.wl.check(3, (0, b"", b""))


class QuantileTests(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        from worker import quantile

        self.assertEqual(quantile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5)
        self.assertAlmostEqual(quantile(range(11), 0.9), 9.0)
        self.assertEqual(quantile([7.0], 0.9), 7.0)


class SpanTests(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        tree = [
            ["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["a1", 2.0, 3.0, 1, 0],
            ["b", 5.0, 6.0, 0, 0],
            ["other", 11.0, 12.5, -1, 1],
        ]
        self.assertEqual(spans.self_times(tree), [6.0, 2.0, 1.0, 1.0, 1.5])
        self.assertEqual(spans.top_level_time(tree), {0: 10.0, 1: 1.5})

    def test_overlapping_children_are_not_counted_twice(self):
        tree = [["p", 0.0, 10.0, -1, 0], ["c1", 1.0, 5.0, 0, 0], ["c2", 3.0, 7.0, 0, 0]]
        self.assertEqual(spans.self_times(tree)[0], 4.0)

    def test_wrappers_nest_and_restore(self):
        from methodagree import agreement, numerics, synthesis

        original = numerics.student_t_quantile
        sample = synthesis.generate(synthesis.preset_config("c", n=20))
        recorder = spans.Recorder()
        restore = spans.install(recorder)
        try:
            agreement.analyze(sample)
        finally:
            restore()
        self.assertIs(numerics.student_t_quantile, original)
        names = [s[0] for s in recorder.spans]
        self.assertEqual(names[0], "agreement.analyze")
        fit = names.index("numerics.linear_fit")
        quantile = names.index("numerics.student_t_quantile")
        self.assertEqual(recorder.spans[fit][3], 0)
        self.assertEqual(recorder.spans[quantile][3], fit)
        self.assertTrue(all(t >= 0.0 for t in spans.self_times(recorder.spans)))
        self.assertEqual(recorder.counters["numerics.bytes_computed"] % 8, 0)


if __name__ == "__main__":
    unittest.main()
