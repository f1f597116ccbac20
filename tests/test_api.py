"""The public API is pinned: adding or removing a name takes an edit here."""

import methodagree
from methodagree import io

PACKAGE = [
    "AgreementResult",
    "AxisKind",
    "CASE_PRESETS",
    "ClosedFormMoments",
    "DegenerateDataError",
    "Direction",
    "PairedSample",
    "RegressionFit",
    "ReplicatedSample",
    "SyntheticConfig",
    "WeightPair",
    "WithinSubjectVariance",
    "analyze",
    "closed_form_moments",
    "estimate_variances",
    "general_covariance_identity",
    "generate",
    "monte_carlo_covariance",
    "paired_from_replicates",
    "predicted_covariance",
    "preset_config",
    "preset_results",
    "weighted_average",
]

IO = [
    "ParseError",
    "emit_report",
    "format_table",
    "parse_paired",
    "parse_replicated",
    "parse_report",
    "render_plot_svg",
    "write_paired",
]


def test_public_names_are_pinned():
    for module, names in ((methodagree, PACKAGE), (io, IO)):
        assert sorted(module.__all__) == names
        for name in names:
            getattr(module, name)  # every listed name resolves
