"""Dataset ingestion, report serialization and SVG plot emission.

Text in, text out: the parsers take the text of a file and the emitters
return text, so the caller decides where it is read from and written to.
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
import math
import sys
from dataclasses import asdict
from decimal import ROUND_HALF_UP, Context, Decimal
from io import StringIO
from itertools import chain, islice

import numpy as np

from .agreement import (
    AgreementResult,
    AxisKind,
    PairedSample,
    ReplicatedSample,
    WeightPair,
    _integer,
    _real,
)
from .numerics import RegressionFit, _pow2_shift

__all__ = [
    "ParseError",
    "parse_paired",
    "parse_replicated",
    "write_paired",
    "emit_report",
    "parse_report",
    "render_plot_svg",
    "format_table",
]

REPORT_FORMAT = "methodagree.report"
REPORT_VERSION = 1
#: Characters per piece of text that :func:`_lines` splits at once.
_PIECE_CHARS = 32 * 1024
#: Lines per chunk: bounds the memory held at once by one chunk's fields and
#: columns, or by the rows of one chunk where the csv module reads the text.
#: Both readers take their lines from the text a piece at a time, so neither
#: holds every line; a text with no ``"\n"``, such as one with CR-only line
#: endings, is one piece.
_CHUNK_LINES = 1024
#: The whitespace ``str.strip`` removes that can sit inside a line of ASCII
#: text: every other ASCII whitespace character breaks the line.
_ASCII_LINE_SPACE = (" ", "\t", "\x1f")


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


def _lines(text: str, keepends: bool = False):
    """The lines of ``text`` as ``text.splitlines(keepends)`` gives them, a piece at a time.

    Each piece but the last holds at least ``_PIECE_CHARS`` characters and ends
    just after a ``"\\n"``, so that no ``"\\r\\n"`` is cut. The lines of the
    pieces are chained in C, and only one piece's lines are held at once.
    """
    def pieces():
        start = 0
        while start < len(text):
            end = text.find("\n", start + _PIECE_CHARS - 1) + 1 or len(text)
            yield text[start:end].splitlines(keepends)
            start = end

    return chain.from_iterable(pieces())


def _rows(text: str, header: list[str]):
    """Yield the line number and stripped fields of each non-blank data row.

    The only reader that numbers lines: one ``csv.reader`` over the lines with
    their breaks, so a quoted field may span lines and keeps them. The lines
    come from :func:`_lines`, a piece of the text at a time, so no list of
    every line is built; a text with no ``"\\n"``, such as one with CR-only
    line endings, is one piece. A record is numbered by the line it starts
    on. A csv error, a wrong header (matched without regard to case), a wrong
    field count or empty input raises a :class:`ParseError` naming that line.
    """
    reader = csv.reader(_lines(text.removeprefix("\ufeff"), keepends=True))
    width, seen_header, done = len(header), False, 0
    try:
        for row in reader:
            lineno, done = done + 1, reader.line_num
            row = [field.strip() for field in row]
            if not any(row):  # a blank row, such as ` , , `
                continue
            if not seen_header:
                if [field.lower() for field in row] != header:
                    raise ParseError(f"line {lineno}: expected header {','.join(header)!r}, "
                                     f"got {','.join(row)!r}")
                seen_header = True
            elif len(row) != width:
                raise ParseError(f"line {lineno}: expected {width} fields, got {len(row)}")
            else:
                yield lineno, row
    except csv.Error as exc:
        raise ParseError(f"line {done + 1}: {exc}") from None
    if not seen_header:
        raise ParseError("empty input")


def _columns(text: str, header: list[str]):
    """Yield the stripped columns of the data rows, at most ``_CHUNK_LINES`` rows at a time.

    Numbers nothing: a caller that needs the line of an error reads the text
    again with :func:`_rows`. Text with a ``"``, or whose first non-empty line
    is not the header, is read by :func:`_rows` throughout; it alone handles
    quotes. Either way the lines come from :func:`_lines`, a piece of the text
    at a time, so no list of every line is built; a text with no ``"\\n"``,
    such as one with CR-only line endings, is one piece.

    Otherwise the csv module's default dialect would split each line at every
    comma and nowhere else, so the data lines are split a chunk at a time by
    whole-chunk string methods. A chunk's n non-empty lines are joined with
    ``",\\n"`` and split at the commas; each of the n - 1 newlines then starts
    one field. The chunk is accepted when it has width * n fields and its first
    column, every width-th field, holds all n - 1 newlines, so that joined and
    split at them it gives n ids. That holds exactly when every line has width
    fields: the newlines then start fields at multiples of width, so each line
    has a multiple of width fields, and width * n in all leaves width for each.
    Only a chunk with whitespace besides those newlines has its fields
    stripped; a chunk that is not ASCII counts as having some. A chunk that
    fails the check, such as one with a whitespace-only line or a wrong field
    count, is read under the header by :func:`_rows`, whose messages then
    number lines within the chunk. Yields at least one chunk, so that a file
    with only a header reaches the sample's own checks.
    """
    width = len(header)
    lines = filter(None, _lines(text.removeprefix("\ufeff")))
    header_line = next(lines, "")
    if '"' in text or [f.strip().lower() for f in header_line.split(",")] != header:
        rows = (row for _, row in _rows(text, header))
        chunk = list(islice(rows, _CHUNK_LINES))
        while True:
            yield list(zip(*chunk)) or [[] for _ in header]
            if not (chunk := list(islice(rows, _CHUNK_LINES))):
                return
    chunk = list(islice(lines, _CHUNK_LINES))
    while True:
        joined = ",\n".join(chunk)
        fields = joined.split(",")
        ids = "".join(fields[::width]).split("\n")
        if len(fields) != width * len(chunk) or len(ids) != len(chunk):
            rows = [row for _, row in _rows("\n".join([header_line, *chunk]), header)]
            yield list(zip(*rows)) or [[] for _ in header]
        else:
            if not joined.isascii() or any(map(joined.__contains__, _ASCII_LINE_SPACE)):
                fields = list(map(str.strip, fields))
                ids = fields[::width]
            columns = [ids, *(fields[k::width] for k in range(1, width))]
            if "" in ids:  # only a row whose first field is empty can be blank
                keep = [i for i, row in enumerate(zip(*columns)) if any(row)]
                columns = [[column[i] for i in keep] for column in columns]
            yield columns
        if not (chunk := list(islice(lines, _CHUNK_LINES))):
            return


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
    header, subjects, a, b = ["subject", "a", "b"], [], [], []
    try:
        for chunk_subjects, raw_a, raw_b in _columns(text, header):
            subjects += chunk_subjects
            a.append(np.array(raw_a, dtype=float))
            b.append(np.array(raw_b, dtype=float))
        a, b = np.concatenate(a), np.concatenate(b)  # frees the chunks before the sample
        return PairedSample(a=a, b=b, subject_ids=tuple(subjects))
    except ValueError as exc:
        problem = exc
    seen: set[str] = set()
    for lineno, (subject, a, b) in _rows(text, header):
        if subject in seen:
            raise ParseError(f"line {lineno}: duplicate subject id {subject!r}")
        seen.add(subject)
        _parse_float(a, lineno, "a")
        _parse_float(b, lineno, "b")
    raise ParseError(f"invalid paired data: {problem}")


def parse_replicated(text: str) -> ReplicatedSample:
    """Parse a long-format ``subject,method,replicate,value`` CSV.

    Columns convert in bulk, with repeated ids interned to share one string; a
    failure re-scans the rows one by one to name the offending line.
    """
    header = ["subject", "method", "replicate", "value"]
    subjects, methods, reps, values = [], [], [], []
    try:
        for chunk_subjects, chunk_methods, raw_reps, raw_values in _columns(text, header):
            subjects += map(sys.intern, chunk_subjects)
            methods += chunk_methods  # one-character labels: CPython shares them already
            reps.append(np.array(raw_reps, dtype=np.int64))
            values.append(np.array(raw_values, dtype=float))
        reps, values = np.concatenate(reps), np.concatenate(values)  # frees the chunks
        return ReplicatedSample(subjects, methods, reps, values)
    except (ValueError, OverflowError) as exc:
        problem = exc
    seen: set[tuple[str, str, int]] = set()
    for lineno, (subject, method, rep, raw) in _rows(text, header):
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
    commas, quotes or line feeds are quoted and read back by :func:`parse_paired`
    unchanged; surrounding whitespace, which it strips, and a lone carriage
    return, which is written unquoted, do not survive.
    """
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("subject", "a", "b"))
    writer.writerows(zip(sample.subject_ids or range(1, sample.n + 1),
                         map(repr, sample.a.tolist()), map(repr, sample.b.tolist())))
    return out.getvalue()


# --- JSON reports -----------------------------------------------------------


def _finite_points(result: AgreementResult) -> tuple[np.ndarray, np.ndarray]:
    """The points of ``result`` as float columns; both emitters refuse a non-finite number here."""
    xs, ds = np.asarray(result.axis_values, float), np.asarray(result.differences, float)
    if not (np.isfinite(xs).all() and np.isfinite(ds).all()):
        raise ValueError("result points must be finite")
    named = [("bias", result.bias), ("loa_low", result.loa_low), ("loa_high", result.loa_high)]
    for name, value in named + [(f"fit.{k}", v) for k, v in vars(result.fit).items() if k != "df"]:
        _real(f"result {name}", value)
    return xs, ds


#: One (axis value, difference) row of the points block, as ``json.dumps``
#: with ``indent=2`` lays it out at that depth.
_POINT_ROW = "    [\n      %r,\n      %r\n    ]"


def emit_report(result: AgreementResult) -> str:
    """Serialize an :class:`AgreementResult` to JSON text.

    Floats keep shortest round-trip precision, so :func:`parse_report`
    reconstructs the result exactly. The scalar fields go through
    ``json.dumps(indent=2, sort_keys=True)``; the points block is formatted
    directly from the two columns in the same layout, one ``repr`` per
    number, which is the text ``json`` writes for a finite float. A
    non-finite number raises ``ValueError``, as in :func:`render_plot_svg`.
    The caller writes the text where it wants it.
    """
    xs, ds = _finite_points(result)
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
    return text.replace('"points": []', f'"points": [\n{rows}\n  ]', 1)


def parse_report(text: str) -> AgreementResult:
    """Rebuild an :class:`AgreementResult` from :func:`emit_report` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
        raise ParseError(f"not a {REPORT_FORMAT} document")
    version = payload.get("version")
    if type(version) is not int or version != REPORT_VERSION:
        raise ParseError(f"unsupported report version {version!r}; expected {REPORT_VERSION}")
    try:
        fit = RegressionFit(**{name: _integer("fit.df", value) if name == "df"
                               else float(_real(f"fit.{name}", value))
                               for name, value in {**payload["fit"]}.items()})
        if fit.df < 1:
            raise ValueError(f"fit.df must be a positive integer, got {fit.df!r}")
        weights = payload["weights"]
        if weights is not None:
            weights = WeightPair(**{name: float(_real(f"weights.{name}", value))
                                    for name, value in {**weights}.items()})
        points = np.asarray(rows := payload["points"], dtype=float)
        if (points.ndim != 2 or points.shape[1] != 2 or not np.isfinite(points).all()
                or not set(map(type, chain.from_iterable(rows))) <= {int, float}):
            raise ValueError("points must be an (n, 2) array of finite numbers")
        if _integer("n", payload["n"]) != len(points):
            raise ValueError(f"n is {payload['n']!r} but there are {len(points)} points")
        return AgreementResult(
            direction=payload["direction"],
            axis=payload["axis"],
            weights=weights,
            fit=fit,
            axis_values=points[:, 0],
            differences=points[:, 1],
            **{k: float(_real(k, payload[k])) for k in ("bias", "loa_low", "loa_high")},
        )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed report document: {exc}") from None


# --- Rounding and the comparison table ---------------------------------------


def round_half_away(x: float, places: int = 2) -> float:
    """Round to ``places`` decimals with ties going away from zero."""
    quantum = Decimal(1).scaleb(-places)
    # 400 digits hold any double to a few decimals; the default context's 28 do not
    return float(Decimal(x).quantize(quantum, rounding=ROUND_HALF_UP, context=Context(prec=400)))


def _fmt2(x: float) -> str:
    return f"{round_half_away(x, 2) + 0.0:.2f}"  # +0.0 normalizes -0.0


def _fmt_p(p: float) -> str:
    if p < 0.001:
        return "<0.001"
    return f"{round_half_away(p, 3):.3f}" if p < 0.005 else _fmt2(p)  # two would print 0.00


def _fmt_slope(fit: RegressionFit) -> str:
    return f"{_fmt2(fit.slope)} ({_fmt2(fit.ci_low)} – {_fmt2(fit.ci_high)})"


def format_table(entries) -> str:
    """Render (label, mean-axis result, weighted-axis result) rows as text.

    Columns per analysis: correlation r, its p-value, and the trend slope k
    with its confidence interval, all rounded to two decimals (ties away
    from zero). p-values below 0.001 print as ``<0.001``, and those in
    [0.001, 0.005), which two decimals would print as ``0.00``, with three.
    """
    k_width = 22

    def columns(r: str, p: str, k: str) -> str:
        return f"{r:<6}{p:<7}{k:<{k_width}}"

    cell = len(columns("", "", ""))
    header_1 = f"{'':6}{'mean axis':<{cell}}  {'weighted axis':<{cell}}"
    header_2 = columns("r", "p", "k (95% CI)")
    lines = [header_1.rstrip(), f"{'case':<6}{header_2}  {header_2}".rstrip()]
    for label, classic, weighted in entries:
        cells = [columns(_fmt2(res.fit.r), _fmt_p(res.fit.p_value), _fmt_slope(res.fit))
                 for res in (classic, weighted)]
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


def _pixel_map(lo: float, hi: float, p_lo: float, p_hi: float):
    """Map data in [lo, hi], plus 10% margins, onto pixels ``p_lo`` to ``p_hi``.

    The mapping runs on values times an exact power of two that puts the
    larger of |lo| and |hi| in [0.5, 1), as ``numerics._centred`` does. A
    range wider than the largest double then still maps to finite pixels,
    and in the normal range every pixel keeps its bits.
    """
    shift = _pow2_shift(np.array([lo, hi]))
    lo, hi = math.ldexp(lo, shift), math.ldexp(hi, shift)
    span = hi - lo
    # from 2**53 on, rounding would absorb a constant's unit pad: pad by one ulp
    pad = 0.1 * span if span > 0.0 else max(math.ldexp(1.0, shift), math.ulp(lo))
    lo, hi = lo - pad, hi + pad

    def to_px(v):
        return p_lo + (np.ldexp(v, shift) - lo) / (hi - lo) * (p_hi - p_lo)

    return to_px


def _line(cls: str, x1: float, y1: float, x2: float, y2: float, stroke: str,
          width: str = "", dash: str = "") -> str:
    """A line element with pixel coordinates; an empty ``width`` or ``dash`` is left out."""
    width = width and f' stroke-width="{width}"'
    dash = dash and f' stroke-dasharray="{dash}"'
    return (f'<line class="{cls}" x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            f'stroke="{stroke}"{width}{dash}/>')


def _text(cls: str, x: str, y: str, anchor: str, size: int, body: str,
          transform: str = "") -> str:
    """A text element at formatted ``x``, ``y``; an empty ``cls`` or ``transform`` is left out."""
    cls = cls and f'class="{cls}" '
    transform = transform and f' transform="{transform}"'
    return (f'<text {cls}x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{transform}>{body}</text>')


def render_plot_svg(result: AgreementResult) -> str:
    """Render the difference plot as a standalone SVG document.

    Scatter of (axis value, difference), a solid bias line, two dashed
    limit-of-agreement lines and a dotted trend line. The
    viewBox is fixed at 800x600 with 10% data margins; x/y ticks at the
    data extremes carry ``%.6g`` labels, which makes the pixel-to-data
    mapping recoverable from the document itself. A non-finite number
    raises ``ValueError``, as in :func:`emit_report`.
    """
    xs, ds = _finite_points(result)
    fit = result.fit

    x_data_lo, x_data_hi = float(xs.min()), float(xs.max())
    trend_ys = [fit.intercept + fit.slope * x_data_lo, fit.intercept + fit.slope * x_data_hi]
    y_candidates = [float(ds.min()), float(ds.max()), result.loa_low, result.loa_high,
                    result.bias, *trend_ys]
    y_data_lo, y_data_hi = float(min(y_candidates)), float(max(y_candidates))
    sx = _pixel_map(x_data_lo, x_data_hi, _PLOT_L, _PLOT_R)
    sy = _pixel_map(y_data_lo, y_data_hi, _PLOT_B, _PLOT_T)

    axis_name = "weighted average" if result.axis is AxisKind.WEIGHTED_AVERAGE else "mean"
    diff_name = result.direction.value.replace("-", " - ")
    mid_x, mid_y = _px((_PLOT_L + _PLOT_R) / 2), _px((_PLOT_T + _PLOT_B) / 2)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}" '
        f'width="{_VIEW_W}" height="{_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="#ffffff"/>',
        f'<rect x="{_px(_PLOT_L)}" y="{_px(_PLOT_T)}" width="{_px(_PLOT_R - _PLOT_L)}" '
        f'height="{_px(_PLOT_B - _PLOT_T)}" fill="none" stroke="#444444"/>',
        _text("", mid_x, "25", "middle", 16, f"Difference ({diff_name}) vs {axis_name}"),
    ]
    for value in (x_data_lo, x_data_hi):
        px = sx(value)
        parts += [_line("xtick", px, _PLOT_B, px, _PLOT_B + 6, "#444444"),
                  _text("xtick-label", _px(px), _px(_PLOT_B + 20), "middle", 12,
                        _tick_label(value))]
    for value in (y_data_lo, y_data_hi):
        py = sy(value)
        parts += [_line("ytick", _PLOT_L - 6, py, _PLOT_L, py, "#444444"),
                  _text("ytick-label", _px(_PLOT_L - 10), _px(py + 4), "end", 12,
                        _tick_label(value))]
    parts += [
        _text("", mid_x, _px(_PLOT_B + 45), "middle", 14,
              f"{axis_name.capitalize()} of methods A and B"),
        _text("", "20", mid_y, "middle", 14, f"Difference ({diff_name})",
              transform=f"rotate(-90 20 {mid_y})"),
    ]

    # sx and sy apply to whole columns with the same float operations in the
    # same order as to one value, so every coordinate keeps its bits.
    cxs, cys = sx(xs), sy(ds)
    parts += map(_CIRCLE.__mod__, zip(cxs.tolist(), cys.tolist()))

    parts.append(_line("bias", _PLOT_L, sy(result.bias), _PLOT_R, sy(result.bias), "#000000",
                       "1.5"))
    for value in (result.loa_low, result.loa_high):
        parts.append(_line("loa", _PLOT_L, sy(value), _PLOT_R, sy(value), "#d62728", "1.5", "8 5"))
    parts.append(_line("trend", sx(x_data_lo), sy(trend_ys[0]), sx(x_data_hi), sy(trend_ys[1]),
                       "#2ca02c", "1.5", "2 4"))

    for name, value in (("bias", result.bias), ("loa_low", result.loa_low),
                        ("loa_high", result.loa_high)):
        parts.append(_text(f"{name}-label", _px(_PLOT_R - 4), _px(sy(value) - 5), "end", 11,
                           f'{name.replace("_", " ")} = {_tick_label(value)}'))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
