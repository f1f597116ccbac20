"""Dataset ingestion, report serialization and SVG plot emission.

All emitters are deterministic: the same input produces byte-identical
output, so golden tests can assert on raw text. Reports serialize floats
with shortest round-trip precision and parse back to equal results.

CSV formats (UTF-8, LF line endings, comma separator, decimal point):

* paired:      ``subject,a,b`` -- one row per subject
* replicated:  ``subject,method,replicate,value`` -- long format,
  ``method`` is ``A`` or ``B``
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import asdict
from decimal import ROUND_HALF_UP, Decimal
from io import StringIO
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .agreement import (
    AgreementResult,
    AxisKind,
    Direction,
    PairedSample,
    ReplicatedSample,
    WeightPair,
    _coerce,
)
from .numerics import RegressionFit

__all__ = [
    "ParseError",
    "parse_paired",
    "parse_replicated",
    "write_paired",
    "emit_report",
    "parse_report",
    "emit_plot",
    "render_plot_svg",
    "format_table",
    "round_half_away",
]

REPORT_FORMAT = "methodagree.report"
REPORT_VERSION = 1
#: Lines parsed per chunk: bounds the memory held by csv row lists.
_CHUNK_LINES = 4096


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


def _chunks(text: str, header: list[str]):
    """Per chunk of lines: the line numbers and stripped columns of non-blank data rows."""
    lines = text.removeprefix("\ufeff").splitlines()  # a byte-order mark is not data
    reader, start, header_line = csv.reader(lines), 1, None
    while rows := list(islice(reader, _CHUNK_LINES)):
        linenos = [i for i, line in enumerate(map(str.strip, map("".join, rows)), start) if line]
        data = [rows[i - start] for i in linenos]
        start += len(rows)
        if header_line is None and linenos:
            header_line, first = linenos.pop(0), [f.strip() for f in data.pop(0)]
            if [f.lower() for f in first] != header:
                raise ParseError(f"line {header_line}: expected header "
                                 f"{','.join(header)!r}, got {','.join(first)!r}")
        if set(map(len, data)) - {len(header)}:
            lineno, row = next((n, r) for n, r in zip(linenos, data) if len(r) != len(header))
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        yield linenos, [list(map(str.strip, map(itemgetter(k), data))) for k in range(len(header))]
    if header_line is None:
        raise ParseError("empty input")


def _parse_float(raw: str, lineno: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"line {lineno}: invalid number {raw!r} for column {column}") from None
    if not np.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite value for column {column}")
    return value


def parse_paired(text: str) -> PairedSample:
    """Parse a ``subject,a,b`` CSV into a :class:`PairedSample`."""
    header, subjects, a_parts, b_parts = ["subject", "a", "b"], [], [], []
    try:
        for _, (chunk_subjects, raw_a, raw_b) in _chunks(text, header):
            subjects += chunk_subjects
            a_parts.append(np.array(raw_a, dtype=float))
            b_parts.append(np.array(raw_b, dtype=float))
        return PairedSample(a=np.concatenate(a_parts), b=np.concatenate(b_parts),
                            subject_ids=tuple(subjects))
    except ValueError as exc:
        problem = exc
    seen: set[str] = set()
    for linenos, (chunk_subjects, raw_a, raw_b) in _chunks(text, header):
        for lineno, subject, a, b in zip(linenos, chunk_subjects, raw_a, raw_b):
            if subject in seen:
                raise ParseError(f"line {lineno}: duplicate subject id {subject!r}")
            seen.add(subject)
            _parse_float(a, lineno, "a")
            _parse_float(b, lineno, "b")
    raise ParseError(f"invalid paired data: {problem}")


def parse_replicated(text: str) -> ReplicatedSample:
    """Parse a long-format ``subject,method,replicate,value`` CSV.

    Columns convert in bulk, with repeated ids and labels interned to share one
    string; a failure re-scans the rows one by one to name the offending line.
    """
    header = ["subject", "method", "replicate", "value"]
    subjects, methods, reps, values = [], [], [], []
    try:
        for _, (chunk_subjects, chunk_methods, raw_reps, raw_values) in _chunks(text, header):
            subjects += map(sys.intern, chunk_subjects)
            methods += map(sys.intern, chunk_methods)
            reps.append(np.array(raw_reps, dtype=np.int64))
            values.append(np.array(raw_values, dtype=float))
        return ReplicatedSample(subjects, methods, np.concatenate(reps), np.concatenate(values))
    except (ValueError, OverflowError) as exc:
        problem = exc
    seen: set[tuple[str, str, int]] = set()
    for linenos, columns in _chunks(text, header):
        for lineno, subject, method, rep, raw in zip(linenos, *columns):
            if method not in ("A", "B"):
                raise ParseError(f"line {lineno}: method must be 'A' or 'B', got {method!r}")
            try:
                index = np.int64(rep)
            except (ValueError, OverflowError):
                raise ParseError(f"line {lineno}: invalid replicate index {rep!r}") from None
            _parse_float(raw, lineno, "value")
            if (subject, method, index) in seen:
                raise ParseError(f"line {lineno}: duplicate replicate {index} for subject "
                                 f"{subject!r}, method {method}")
            seen.add((subject, method, index))
    raise ParseError(f"invalid replicated data: {problem}")


def write_paired(sample: PairedSample) -> str:
    """Serialize a paired sample to CSV (lossless float round-trip).

    Rows of a sample without subject ids are numbered 1..n. Ids that contain
    commas or quotes are quoted; ids with line breaks or surrounding spaces do
    not survive :func:`parse_paired`, which splits lines and strips fields.
    """
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("subject", "a", "b"))
    writer.writerows(zip(sample.subject_ids or range(1, sample.n + 1),
                         map(repr, sample.a.tolist()), map(repr, sample.b.tolist())))
    return out.getvalue()


def _write_text(path, text: str) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# --- JSON reports -----------------------------------------------------------

#: One (axis value, difference) row of the points block, as ``json.dumps``
#: with ``indent=2`` lays it out at that depth.
_POINT_ROW = "    [\n      %r,\n      %r\n    ]"


def emit_report(result: AgreementResult, path=None) -> str:
    """Serialize an :class:`AgreementResult` to JSON text.

    Floats keep shortest round-trip precision, so :func:`parse_report`
    reconstructs the result exactly. The scalar fields go through
    ``json.dumps(indent=2, sort_keys=True)``; the points block is formatted
    directly from the two columns in the same layout, one ``repr`` per
    number, which is the text ``json`` writes for a finite float. Points must
    be finite. Writes to ``path`` when given.
    """
    xs = np.asarray(result.axis_values, dtype=float)
    ds = np.asarray(result.differences, dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ds).all()):
        raise ValueError("report points must be finite")
    payload = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "n": result.n,
        "direction": result.direction.value,
        "axis": result.axis.value,
        "weights": None if result.weights is None else asdict(result.weights),
        "bias": result.bias,
        "loa_low": result.loa_low,
        "loa_high": result.loa_high,
        "fit": asdict(result.fit),
        "points": [],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    rows = ",\n".join(map(_POINT_ROW.__mod__, zip(xs.tolist(), ds.tolist())))
    text = text.replace('"points": []', f'"points": [\n{rows}\n  ]', 1)
    if path is not None:
        _write_text(path, text)
    return text


def parse_report(text: str) -> AgreementResult:
    """Rebuild an :class:`AgreementResult` from :func:`emit_report` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
        raise ParseError(f"not a {REPORT_FORMAT} document")
    if payload.get("version") != REPORT_VERSION:
        raise ParseError(f"unsupported report version {payload.get('version')!r}; "
                         f"expected {REPORT_VERSION}")
    try:
        fit = RegressionFit(**payload["fit"])
        weights = payload["weights"]
        points = np.asarray(payload["points"], dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or not np.isfinite(points).all():
            raise ValueError("points must be an (n, 2) array of finite numbers")
        if payload["n"] != len(points):
            raise ValueError(f"n is {payload['n']!r} but there are {len(points)} points")
        return AgreementResult(
            direction=_coerce(Direction, payload["direction"]),
            axis=_coerce(AxisKind, payload["axis"]),
            weights=None if weights is None else WeightPair(**weights),
            bias=float(payload["bias"]),
            loa_low=float(payload["loa_low"]),
            loa_high=float(payload["loa_high"]),
            fit=fit,
            axis_values=points[:, 0],
            differences=points[:, 1],
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed report document: {exc}") from None


# --- Rounding and the comparison table ---------------------------------------


def round_half_away(x: float, places: int = 2) -> float:
    """Round to ``places`` decimals with ties going away from zero."""
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(x).quantize(quantum, rounding=ROUND_HALF_UP))


def _fmt2(x: float) -> str:
    return f"{round_half_away(x, 2) + 0.0:.2f}"  # +0.0 normalizes -0.0


def _fmt_p(p: float) -> str:
    return "<0.001" if p < 0.001 else _fmt2(p)


def _fmt_slope(fit: RegressionFit) -> str:
    return f"{_fmt2(fit.slope)} ({_fmt2(fit.ci_low)} – {_fmt2(fit.ci_high)})"


def format_table(entries) -> str:
    """Render (label, mean-axis result, weighted-axis result) rows as text.

    Columns per analysis: correlation r, its p-value, and the trend slope k
    with its confidence interval, all rounded to two decimals (ties away
    from zero). p-values below 0.001 print as ``<0.001``.
    """
    k_width = 22
    header_1 = f"{'':6}{'mean axis':<{12 + k_width}}  {'weighted axis':<{12 + k_width}}"
    header_2 = (
        f"{'case':<6}{'r':<6}{'p':<7}{'k (95% CI)':<{k_width}}  "
        f"{'r':<6}{'p':<7}{'k (95% CI)':<{k_width}}"
    )
    lines = [header_1.rstrip(), header_2.rstrip()]
    for label, classic, weighted in entries:
        cells = []
        for res in (classic, weighted):
            cells.append(
                f"{_fmt2(res.fit.r):<6}{_fmt_p(res.fit.p_value):<7}"
                f"{_fmt_slope(res.fit):<{k_width}}"
            )
        lines.append(f"{label:<6}{cells[0]}  {cells[1]}".rstrip())
    return "\n".join(lines) + "\n"


# --- SVG plots ---------------------------------------------------------------

_VIEW_W, _VIEW_H = 800, 600
_PLOT_L, _PLOT_R = 70.0, 780.0
_PLOT_T, _PLOT_B = 40.0, 540.0


def _px(v: float) -> str:
    return f"{v:.2f}"


#: A scatter point; ``%.2f`` formats as :func:`_px` does.
_CIRCLE = '<circle class="pt" cx="%.2f" cy="%.2f" r="3" fill="#1f77b4" fill-opacity="0.7"/>'


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _data_range(values, pad_fraction: float = 0.1) -> tuple[float, float]:
    lo = float(min(values))
    hi = float(max(values))
    span = hi - lo
    pad = pad_fraction * span if span > 0.0 else 1.0
    return lo - pad, hi + pad


def render_plot_svg(result: AgreementResult, include_trend: bool = True) -> str:
    """Render the difference plot as a standalone SVG document.

    Scatter of (axis value, difference), a solid bias line, two dashed
    limit-of-agreement lines and (optionally) a dotted trend line. The
    viewBox is fixed at 800x600 with 10% data margins; x/y ticks at the
    data extremes carry ``%.6g`` labels, which makes the pixel-to-data
    mapping recoverable from the document itself.
    """
    xs = result.axis_values
    ds = result.differences
    fit = result.fit

    x_data_lo, x_data_hi = float(xs.min()), float(xs.max())
    trend_ys = (
        [fit.intercept + fit.slope * x_data_lo, fit.intercept + fit.slope * x_data_hi]
        if include_trend
        else []
    )
    y_candidates = [float(ds.min()), float(ds.max()), result.loa_low, result.loa_high,
                    result.bias, *trend_ys]
    y_data_lo, y_data_hi = float(min(y_candidates)), float(max(y_candidates))
    x_lo, x_hi = _data_range([x_data_lo, x_data_hi])
    y_lo, y_hi = _data_range([y_data_lo, y_data_hi])

    def sx(v: float) -> float:
        return _PLOT_L + (v - x_lo) / (x_hi - x_lo) * (_PLOT_R - _PLOT_L)

    def sy(v: float) -> float:
        return _PLOT_B - (v - y_lo) / (y_hi - y_lo) * (_PLOT_B - _PLOT_T)

    axis_name = "weighted average" if result.axis is AxisKind.WEIGHTED_AVERAGE else "mean"
    diff_name = result.direction.value.replace("-", " - ")
    title = f"Difference ({diff_name}) vs {axis_name}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}" '
        f'width="{_VIEW_W}" height="{_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="#ffffff"/>',
        f'<rect x="{_px(_PLOT_L)}" y="{_px(_PLOT_T)}" width="{_px(_PLOT_R - _PLOT_L)}" '
        f'height="{_px(_PLOT_B - _PLOT_T)}" fill="none" stroke="#444444"/>',
        f'<text x="{_px((_PLOT_L + _PLOT_R) / 2)}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    for value in (x_data_lo, x_data_hi):
        px = sx(value)
        parts.append(
            f'<line class="xtick" x1="{_px(px)}" y1="{_px(_PLOT_B)}" '
            f'x2="{_px(px)}" y2="{_px(_PLOT_B + 6)}" stroke="#444444"/>'
        )
        parts.append(
            f'<text class="xtick-label" x="{_px(px)}" y="{_px(_PLOT_B + 20)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{_tick_label(value)}</text>"
        )
    for value in (y_data_lo, y_data_hi):
        py = sy(value)
        parts.append(
            f'<line class="ytick" x1="{_px(_PLOT_L - 6)}" y1="{_px(py)}" '
            f'x2="{_px(_PLOT_L)}" y2="{_px(py)}" stroke="#444444"/>'
        )
        parts.append(
            f'<text class="ytick-label" x="{_px(_PLOT_L - 10)}" y="{_px(py + 4)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12">'
            f"{_tick_label(value)}</text>"
        )

    parts.append(
        f'<text x="{_px((_PLOT_L + _PLOT_R) / 2)}" y="{_px(_PLOT_B + 45)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="14">'
        f"{axis_name.capitalize()} of methods A and B</text>"
    )
    parts.append(
        f'<text x="20" y="{_px((_PLOT_T + _PLOT_B) / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {_px((_PLOT_T + _PLOT_B) / 2)})">'
        f"Difference ({diff_name})</text>"
    )

    # sx and sy apply to whole columns with the same float operations in the
    # same order, so every coordinate keeps its bits. Where Python floats
    # overflow to inf or give nan silently, so do the columns.
    with np.errstate(all="ignore"):
        cxs, cys = sx(np.asarray(xs, dtype=float)), sy(np.asarray(ds, dtype=float))
    parts += map(_CIRCLE.__mod__, zip(cxs.tolist(), cys.tolist()))

    def hline(cls: str, y_value: float, dash: str | None, color: str) -> str:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<line class="{cls}" x1="{_px(_PLOT_L)}" y1="{_px(sy(y_value))}" '
            f'x2="{_px(_PLOT_R)}" y2="{_px(sy(y_value))}" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )

    parts.append(hline("bias", result.bias, None, "#000000"))
    parts.append(hline("loa", result.loa_low, "8 5", "#d62728"))
    parts.append(hline("loa", result.loa_high, "8 5", "#d62728"))
    if include_trend:
        parts.append(
            f'<line class="trend" x1="{_px(sx(x_data_lo))}" y1="{_px(sy(trend_ys[0]))}" '
            f'x2="{_px(sx(x_data_hi))}" y2="{_px(sy(trend_ys[1]))}" stroke="#2ca02c" '
            f'stroke-width="1.5" stroke-dasharray="2 4"/>'
        )

    for name, value in (("bias", result.bias), ("loa_low", result.loa_low),
                        ("loa_high", result.loa_high)):
        parts.append(
            f'<text class="{name}-label" x="{_px(_PLOT_R - 4)}" '
            f'y="{_px(sy(value) - 5)}" text-anchor="end" font-family="sans-serif" '
            f'font-size="11">{name.replace("_", " ")} = {_tick_label(value)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(result: AgreementResult, path=None, include_trend: bool = True) -> str:
    """Render the difference plot, optionally writing it to ``path``."""
    text = render_plot_svg(result, include_trend=include_trend)
    if path is not None:
        _write_text(path, text)
    return text
