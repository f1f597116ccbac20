"""End-to-end workflow for real replicated data.

If each subject is measured more than once per method, the within-subject
variances (and with them the weighted axis) come straight from the data:

  1. parse the long-format replicate CSV,
  2. pool per-subject replicate variances into s_wa2 / s_wb2,
  3. average replicates into one pair per subject,
  4. run classic and weighted analyses.

Here the "file" is synthesized on the fly with known error SDs (A: 2.0,
B: 6.0), so the estimates can be sanity-checked against the truth.

Run:  python demos/04_replicate_workflow.py
Writes a report pair to demos/output/.
"""

from pathlib import Path

import numpy as np

from methodagree import analyze, estimate_variances, paired_from_replicates
from methodagree.io import emit_report, parse_replicated

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

# --- synthesize a replicated CSV with known precision ------------------
TRUE_SD_A, TRUE_SD_B = 2.0, 6.0
N_SUBJECTS, N_REPLICATES = 60, 3
rng = np.random.default_rng(2024)
truth = rng.normal(120.0, 15.0, size=N_SUBJECTS)

lines = ["subject,method,replicate,value"]
for i, true_value in enumerate(truth, start=1):
    for rep in range(1, N_REPLICATES + 1):
        lines.append(f"s{i},A,{rep},{true_value + rng.normal(0, TRUE_SD_A):.3f}")
        lines.append(f"s{i},B,{rep},{true_value + rng.normal(0, TRUE_SD_B):.3f}")
csv_text = "\n".join(lines) + "\n"

# --- steps 1-3: parse, estimate, collapse ------------------------------
reps = parse_replicated(csv_text)
variances = estimate_variances(reps)
pairs = paired_from_replicates(reps)

print(f"{len(reps.subjects)} subjects, {N_REPLICATES} replicates per method")
print(f"estimated s_wa2 = {variances.s_wa2:6.2f}   (truth {TRUE_SD_A**2:.2f})")
print(f"estimated s_wb2 = {variances.s_wb2:6.2f}   (truth {TRUE_SD_B**2:.2f})")

# --- step 4: analyze both ways ------------------------------------------
classic = analyze(pairs, axis="mean")
weighted = analyze(pairs, axis="weighted", variances=variances)

for name, res in (("classic", classic), ("weighted", weighted)):
    print(f"\n{name} analysis")
    print(f"  bias = {res.bias:+.3f}, LoA = [{res.loa_low:.3f}, {res.loa_high:.3f}]")
    print(f"  trend k = {res.fit.slope:+.4f} "
          f"({res.fit.ci_low:+.4f}, {res.fit.ci_high:+.4f}), p = {res.fit.p_value:.3f}")

for name, result in (("mean", classic), ("weighted", weighted)):
    (out_dir / f"replicates_{name}_report.json").write_text(
        emit_report(result), encoding="utf-8", newline="")
print(f"\nreports written to {out_dir}/")
print("(the same workflow on the command line: "
      "methodagree analyze --replicates reps.csv)")
