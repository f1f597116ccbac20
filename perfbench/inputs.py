"""Seed-driven input generators for the benchmark.

Standard library only, so the workload process can build its inputs before
it imports numpy or methodagree and the import stays inside ``setup_s``.
The same seed always yields the same rows and the same text.
"""

from __future__ import annotations

import random

#: Replicate design of ``replicate_study``: unequal counts are the shape real
#: studies have, and the shape in which per-replicate weighting goes wrong.
REPLICATE_SUBJECTS = 5000
REPS_A, REPS_B = 2, 8
SD_A, SD_B = 2.0, 4.0


def replicated_rows(seed: int, subjects: int = REPLICATE_SUBJECTS,
                    reps_a: int = REPS_A, reps_b: int = REPS_B):
    """Long-format rows ``(subject, method, replicate, value)``.

    Rows are grouped by subject: ``reps_a`` rows of method A, then
    ``reps_b`` rows of method B, around a per-subject true value.
    """
    rng = random.Random(f"replicated:{seed}")
    rows = []
    for s in range(1, subjects + 1):
        true = rng.gauss(100.0, 15.0)
        sid = f"S{s:05d}"
        for r in range(1, reps_a + 1):
            rows.append((sid, "A", r, true + rng.gauss(0.0, SD_A)))
        for r in range(1, reps_b + 1):
            rows.append((sid, "B", r, true + rng.gauss(0.0, SD_B)))
    return rows


def replicated_csv(rows) -> str:
    lines = ["subject,method,replicate,value"]
    lines.extend(f"{s},{m},{r},{v!r}" for s, m, r, v in rows)
    return "\n".join(lines) + "\n"


#: Error SDs of the paired CSV; their squares go to ``--swa``/``--swb``.
PAIRED_SD_A, PAIRED_SD_B = 0.5, 4.5


def paired_csv(seed: int, n: int) -> str:
    """``subject,a,b`` CSV of ``n`` subjects with unequal error SDs."""
    rng = random.Random(f"paired:{seed}")
    lines = ["subject,a,b"]
    for s in range(1, n + 1):
        true = rng.gauss(100.0, 10.0)
        a = true + rng.gauss(0.0, PAIRED_SD_A)
        b = true + rng.gauss(0.0, PAIRED_SD_B)
        lines.append(f"P{s:06d},{a!r},{b!r}")
    return "\n".join(lines) + "\n"


def derived_seeds(seed: int, tag: str, count: int) -> list[int]:
    """``count`` reproducible 31-bit seeds for the package's generators."""
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]
