"""Why unequal precision fakes a trend, and how the weighted axis removes it.

Two methods measure the same quantity. Method A is precise (error SD 0.5),
method B is noisy (error SD 4.5), and neither has any real dependence on
the magnitude of the measurement. The classic difference-vs-mean plot
still shows a significant positive trend; plotting against the
inverse-variance weighted average makes it vanish.

Run:  python demos/01_false_trend_from_unequal_precision.py
Writes SVG plots to demos/output/.
"""

from pathlib import Path

from methodagree import WithinSubjectVariance, analyze, generate, preset_config
from methodagree.io import render_plot_svg

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

# Case "c": equal scaling of the true signal (no real trend), error SDs
# 0.5 vs 4.5. Exact-moment generation makes the numbers reproducible.
config = preset_config("c")
sample = generate(config)
print(f"generated {sample.n} measurement pairs "
      f"(error SDs: A={config.s_a}, B={config.s_b})")

# --- classic analysis: difference vs arithmetic mean -------------------
classic = analyze(sample, axis="mean")
print("\nclassic difference-vs-mean analysis")
print(f"  r = {classic.fit.r:.4f}, p = {classic.fit.p_value:.4f}")
print(f"  trend slope k = {classic.fit.slope:.4f} "
      f"({classic.fit.ci_low:.4f}, {classic.fit.ci_high:.4f})")
print("  -> a significant trend, even though none exists in the data")

# --- weighted analysis: difference vs inverse-variance weighted average
variances = WithinSubjectVariance(s_wa2=config.s_a**2, s_wb2=config.s_b**2)
weighted = analyze(sample, axis="weighted", variances=variances)
print("\nweighted-average analysis (each method weighted by the other's variance)")
print(f"  r = {round(weighted.fit.r, 12) + 0.0:.4f}, p = {weighted.fit.p_value:.4f}")
print(f"  trend slope k = {round(weighted.fit.slope, 12) + 0.0:.4f} "
      f"({weighted.fit.ci_low:.4f}, {weighted.fit.ci_high:.4f})")
print("  -> the artifact is gone")

for name, result in (("mean", classic), ("weighted", weighted)):
    (out_dir / f"unequal_precision_{name}_axis.svg").write_text(
        render_plot_svg(result), encoding="utf-8", newline="")
print(f"\nplots written to {out_dir}/")
