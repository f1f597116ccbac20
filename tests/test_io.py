import csv
import json
import re
import reprlib
import sys
import tracemalloc
from dataclasses import asdict, replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from methodagree import io as methodagree_io
from methodagree.agreement import (
    AgreementResult,
    AxisKind,
    Direction,
    PairedSample,
    WeightPair,
    WithinSubjectVariance,
    analyze,
)
from methodagree.io import _CHUNK_LINES as CHUNK_LINES
from methodagree.io import _PIECE_CHARS as PIECE_CHARS
from methodagree.io import (
    ParseError,
    emit_report,
    format_table,
    parse_paired,
    parse_replicated,
    parse_report,
    render_plot_svg,
    round_half_away,
    write_paired,
)
from methodagree.numerics import RegressionFit
from methodagree.synthesis import generate, preset_config, preset_results

PAIRED_OK = "subject,a,b\n1,120,124\n2,110,113\n3,100,99\n"

REPLICATED_OK = (
    "subject,method,replicate,value\n"
    "s1,A,1,100\ns1,A,2,104\ns1,B,1,98\ns1,B,2,95\n"
    "s2,A,1,120\ns2,A,2,118\ns2,B,1,121\ns2,B,2,125\n"
)


#: Every line break ``str.splitlines`` knows; ``"\r\n"`` counts as one.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]


def group_values(reps, subject: str, method: str) -> np.ndarray:
    """Replicate values of one (subject, method) group, in row order."""
    rows = reps.subject_code == reps.subjects.index(subject)
    return reps.value[rows & (reps.is_b == (method == "B"))]


class TestParsePaired:
    def test_minimal_valid_file(self):
        sample = parse_paired(PAIRED_OK)
        assert sample.n == 3
        assert sample.subject_ids == ("1", "2", "3")
        np.testing.assert_allclose(sample.a, [120, 110, 100])
        np.testing.assert_allclose(sample.b, [124, 113, 99])

    def test_crlf_tolerated(self):
        sample = parse_paired(PAIRED_OK.replace("\n", "\r\n"))
        assert sample.n == 3

    def test_non_numeric_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_paired("subject,a,b\nx,abc,1\n")

    def test_duplicate_subject_rejected(self):
        text = "subject,a,b\n1,1,2\n1,3,4\n2,5,6\n"
        with pytest.raises(ParseError, match="duplicate subject"):
            parse_paired(text)

    def test_wrong_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_paired("id,x,y\n1,2,3\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_paired("subject,a,b\n1,2,3\n2,4\n")

    def test_too_few_subjects(self):
        with pytest.raises(ParseError, match="invalid paired data"):
            parse_paired("subject,a,b\n1,2,3\n2,4,5\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_paired("")

    @pytest.mark.parametrize("text", ["subject,a,b\n", "\n , , \nSubject,A,B", '"subject",a,b\n'])
    def test_header_only_reaches_the_sample_check(self, text):
        with pytest.raises(ParseError, match="invalid paired data: need at least 3 subjects, got 0"):
            parse_paired(text)

    @pytest.mark.parametrize("row, message", [
        ("3,99,x", "line 6: invalid number 'x' for column b"),
        ("3,inf,99", "line 6: non-finite value for column a"),
        ("1,99,98", "line 6: duplicate subject id '1'"),
    ])
    def test_bad_row_after_blank_lines_names_its_line(self, row, message):
        text = "subject,a,b\n1,120,124\n\n2,110,113\n \n" + row + "\n4,1,2\n"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_paired(text)

    def test_quoted_line_break_counts_its_lines(self):
        # the quoted id spans lines 2 and 3, so the bad row is on line 4
        text = 'subject,a,b\n"x\ny",1,2\n3,zz,4\n'
        with pytest.raises(ParseError, match="line 4: invalid number 'zz' for column a"):
            parse_paired(text)
        assert parse_paired(text.replace("zz", "5") + "4,1,1\n").subject_ids == ("x\ny", "3", "4")

    def test_first_bad_row_in_file_order_wins(self):
        with pytest.raises(ParseError, match="line 2: invalid number 'x' for column a"):
            parse_paired("subject,a,b\n1,x,2\n2,3\n3,4,5\n")

    def test_duplicate_before_quoted_short_row_wins(self):
        with pytest.raises(ParseError, match="line 3: duplicate subject id '1'"):
            parse_paired('subject,a,b\n1,1,2\n1,3,4\n"2",5\n4,6,7\n')

    def test_byte_order_mark_ignored(self):
        sample = parse_paired("\ufeff" + PAIRED_OK)
        assert sample.subject_ids == ("1", "2", "3")
        np.testing.assert_array_equal(sample.a, [120, 110, 100])
        with pytest.raises(ParseError, match="line 2: invalid number"):
            parse_paired("\ufeffsubject,a,b\nx,abc,1\n")

    def test_write_read_round_trip(self):
        sample = generate(preset_config("c", seed=9))
        again = parse_paired(write_paired(sample))
        assert np.array_equal(again.a, sample.a)
        assert np.array_equal(again.b, sample.b)
        assert write_paired(again) == write_paired(sample)

    def test_ids_needing_quotes_round_trip(self):
        sample = PairedSample(a=[1.0, 2.0, 3.0], b=[1.5, 2.5, 3.5], subject_ids=("x,1", 'q"z', "p"))
        text = write_paired(sample)
        assert text.splitlines()[1:3] == ['"x,1",1.0,1.5', '"q""z",2.0,2.5']
        again = parse_paired(text)
        assert again.subject_ids == sample.subject_ids
        assert write_paired(again) == text

    def test_ids_with_line_feeds_round_trip(self):
        ids = ("x\ny", "a\n\nb", "c\r\nd")
        sample = PairedSample(a=[1.0, 2.0, 3.0], b=[1.5, 2.5, 3.5], subject_ids=ids)
        again = parse_paired(write_paired(sample))
        assert again.subject_ids == ids
        assert write_paired(again) == write_paired(sample)



class TestParseReplicated:
    def test_valid_file(self):
        reps = parse_replicated(REPLICATED_OK)
        assert reps.subjects == ("s1", "s2")
        np.testing.assert_allclose(group_values(reps, "s1", "A"), [100, 104])

    def test_byte_order_mark_ignored(self):
        reps = parse_replicated("\ufeff" + REPLICATED_OK)
        assert reps.subjects == ("s1", "s2")
        np.testing.assert_array_equal(group_values(reps, "s2", "B"), [121, 125])
        with pytest.raises(ParseError, match="line 3: invalid number"):
            parse_replicated("\ufeffsubject,method,replicate,value\ns1,A,1,100\ns1,A,2,oops\n")

    def test_single_replicate_rejected(self):
        text = (
            "subject,method,replicate,value\n"
            "s1,A,1,100\ns1,B,1,98\ns1,B,2,95\n"
        )
        with pytest.raises(ParseError, match="at least 2"):
            parse_replicated(text)

    @pytest.mark.parametrize("text", ["subject,method,replicate,value\n",
                                      '\n"subject",method,replicate,value\n,,,\n'])
    def test_header_only_reaches_the_sample_check(self, text):
        with pytest.raises(ParseError, match="invalid replicated data: no replicate records"):
            parse_replicated(text)

    def test_bad_method_label(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_replicated("subject,method,replicate,value\ns1,X,1,100\n")

    def test_bad_value(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_replicated(
                "subject,method,replicate,value\ns1,A,1,100\ns1,A,2,oops\n"
            )


class TestReplicatedErrorLines:
    """Each bad row follows blank lines, so the line number counts them."""

    HEAD = "subject,method,replicate,value\ns1,A,1,100\n\n , \ns1,A,2,104\n\n"

    @pytest.mark.parametrize("row, message", [
        ("s1,B,1,oops", "line 7: invalid number 'oops' for column value"),
        ("s1,B,1,nan", "line 7: non-finite value for column value"),
        ("s1,B,1,inf", "line 7: non-finite value for column value"),
        ("s1,B,1,-Infinity", "line 7: non-finite value for column value"),
        ("s1,B,1.5,98", "line 7: invalid replicate index '1.5'"),
        ("s1,B,x,98", "line 7: invalid replicate index 'x'"),
        ("s1,B,99999999999999999999,98", "line 7: invalid replicate index"),
        ("s1,B,1,98,5", "line 7: expected 4 fields, got 5"),
        ("s1,B,1", "line 7: expected 4 fields, got 3"),
        ("s1,C,1,98", "line 7: method must be 'A' or 'B', got 'C'"),
    ])
    def test_bad_row_names_its_line(self, row, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_replicated(self.HEAD + row + "\ns1,B,2,95\ns1,B,3,94\n")

    def test_first_bad_row_wins(self):
        text = self.HEAD + "s1,B,1,98\ns1,X,2,95\ns1,B,3,nan\n"
        with pytest.raises(ParseError, match="line 8: method must be"):
            parse_replicated(text)

    def test_bad_label_before_short_row_wins(self):
        text = "subject,method,replicate,value\ns1,A,1,100\ns1,C,2,104\ns1,B\ns1,B,2,95\n"
        with pytest.raises(ParseError, match="line 3: method must be 'A' or 'B', got 'C'"):
            parse_replicated(text)

    def test_duplicate_replicate_names_second_line(self):
        text = self.HEAD + "s1,B,1,98\n\ns1,B,2,95\ns1,A,1,101\n"
        with pytest.raises(ParseError, match=re.escape(
                "line 10: duplicate replicate 1 for subject 's1', method A")):
            parse_replicated(text)

    def test_sample_level_error_keeps_its_message(self):
        with pytest.raises(ParseError, match="invalid replicated data: subjects not covered"):
            parse_replicated(self.HEAD + "s2,B,1,98\ns2,B,2,95\n")

    def test_lines_count_across_chunks(self):
        # The header sits after more blank lines than one chunk holds, and the
        # bad row is several chunks further down.
        blank = "\n" * (CHUNK_LINES + 5)
        rows = "".join(f"s{i},A,1,{i}\ns{i},A,2,{i}\ns{i},B,1,{i}\ns{i},B,2,{i}\n"
                       for i in range(CHUNK_LINES))
        text = blank + "subject,method,replicate,value\n" + rows
        reps = parse_replicated(text)
        assert len(reps.subjects) == CHUNK_LINES
        np.testing.assert_array_equal(group_values(reps, f"s{CHUNK_LINES - 1}", "B"),
                                      [CHUNK_LINES - 1] * 2)
        bad_line = CHUNK_LINES + 6 + 3 * CHUNK_LINES + 2
        lines = text.splitlines()
        lines[bad_line - 1] = lines[bad_line - 1].rsplit(",", 1)[0] + ",nan"
        with pytest.raises(ParseError, match=f"line {bad_line}: non-finite"):
            parse_replicated("\n".join(lines))
        lines = text.splitlines()
        lines[bad_line - 1] = lines[bad_line - 5]
        with pytest.raises(ParseError, match=f"line {bad_line}: duplicate replicate"):
            parse_replicated("\n".join(lines))

    def test_bulk_values_equal_row_parsing(self):
        reps = parse_replicated(self.HEAD + "s1,B,1, 0.1 \ns1,B, 2 ,1e-3\n")
        np.testing.assert_array_equal(group_values(reps, "s1", "B"),
                                      [float("0.1"), float("1e-3")])
        np.testing.assert_array_equal(reps.replicate, [1, 2, 1, 2])


class TestLines:
    """``_lines`` splits a piece of the text at a time, as ``str.splitlines`` splits it whole."""

    # every line break after nothing, after text and after a "\r"; as the piece size
    # runs from 1 to 64, a piece ends at each "\n" of the text in turn
    TEXT = "".join(f"{word}{brk}" for word in ("", "a", "bc d", "\r") for brk in LINE_BREAKS)

    def test_line_breaks_are_every_break_splitlines_knows(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert {line[-1] for line in every.splitlines(keepends=True)[:-1]} == set(
            "".join(LINE_BREAKS))

    @pytest.mark.parametrize("keepends", [False, True])
    @pytest.mark.parametrize("tail", ["", "last"])  # with and without a final break
    def test_equals_splitlines_at_every_piece_size(self, monkeypatch, keepends, tail):
        text = self.TEXT + tail
        for piece in range(1, 65):
            monkeypatch.setattr(methodagree_io, "_PIECE_CHARS", piece)
            assert list(methodagree_io._lines(text, keepends)) == text.splitlines(keepends)

    @pytest.mark.parametrize("read, quote", [("_columns", ""), ("_columns", '"'),
                                             ("_rows", '"')])
    def test_peak_does_not_grow_with_the_lines(self, read, quote):
        # a reader that held every line at once would grow ~2.4 MiB from 10,000 lines to
        # 40,000; the quote sends _columns through _rows
        def peak(lines):
            text = f"subject,a,b\n{quote}P0{quote},1.5,2.5\n" + "".join(
                f"P{i},{i}.5,{i}.25\n" for i in range(1, lines))
            tracemalloc.start()
            try:
                for _ in getattr(methodagree_io, read)(text, ["subject", "a", "b"]):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40_000) - peak(10_000) < 256 * 1024


class TestChunkSplit:
    """Quote-free chunks of three data lines, as ``_columns`` splits them, from 1-char pieces."""

    @pytest.fixture(autouse=True)
    def three_line_chunks(self, monkeypatch):
        monkeypatch.setattr(methodagree_io, "_CHUNK_LINES", 3)
        monkeypatch.setattr(methodagree_io, "_PIECE_CHARS", 1)

    ROWS = [f"{s},{m},{r},{10 * i + r}.5" for i, s in enumerate(["S1", "S2", "S3"])
            for m in "AB" for r in (1, 2)]

    @pytest.mark.parametrize("before", [0, 3])  # in the first chunk, or the second
    def test_comma_total_right_but_lines_misaligned(self, before):
        # 5 + 3 fields: two lines' worth of commas, split across them wrongly. Read
        # four fields at a time and stripped (the space forces it), the chunk
        # would make a valid sample: only the line check can reject it.
        s0 = ["S0,A,1,1.0", "S0,A,2,2.0", "S0,B,1,3.0", "S0,B,2,4.0"]
        lines = ["subject,method,replicate,value", *s0[:before],
                 "S1,A,1,2.0,S1", "A,2,3.0", " S1,B,1,1.5", "S1,B,2,2.5",
                 "S2,A,1,1.0", "S2,A,2,2.0", "S2,B,1,3.0", "S2,B,2,4.0", *s0[before:]]
        with pytest.raises(ParseError, match=re.escape(
                f"line {before + 2}: expected 4 fields, got 5")):
            parse_replicated("\n".join(lines) + "\n")

    def test_blank_line_padding_and_crlf_parse_as_clean_text(self):
        clean = parse_replicated("\n".join(["subject,method,replicate,value", *self.ROWS]))
        # ASCII whitespace pads rows 7-9, one chunk, and "\xa0" the last two
        padded = [" \t" + row.replace(",", " ,\t", 1) + ("\xa0" if i >= 10 else "\x1f")
                  for i, row in enumerate(self.ROWS)]
        # whitespace-only lines end the first chunk and sit inside the third
        lines = ["Subject, method ,replicate,value", *padded[:2], "  \t",
                 *self.ROWS[2:6], "\t", *padded[6:]]
        messy = parse_replicated("\r\n".join(lines) + "\r\n")
        assert messy.subjects == clean.subjects == ("S1", "S2", "S3")
        for name in ("subject_code", "is_b", "replicate", "value"):
            np.testing.assert_array_equal(getattr(messy, name), getattr(clean, name))

    def test_ascii_line_space_is_every_ascii_space_inside_a_line(self):
        inside = {c for c in map(chr, range(128))
                  if c.isspace() and len(f"x{c}x".splitlines()) == 1}
        assert set(methodagree_io._ASCII_LINE_SPACE) == inside


class TestUnterminatedQuote:
    """A quote left open swallows the rest of the file into one field."""

    ROWS = "".join(f"s{i},A,1,1.0\n" for i in range(20_000))  # past the 128 KiB field limit

    def test_paired(self):
        with pytest.raises(ParseError, match=re.escape(
                "line 3: field larger than field limit (131072)")):
            parse_paired('subject,a,b\n1,2,3\n"s1,1,1\n' + self.ROWS.replace(",A,1", ""))

    @pytest.mark.parametrize("good_rows", [0, CHUNK_LINES + 5])  # in the first chunk or later
    def test_replicated(self, good_rows):
        good = "".join(f"t{i},A,1,1.0\n" for i in range(good_rows))
        with pytest.raises(ParseError, match=re.escape(
                f"line {good_rows + 2}: field larger than field limit (131072)")):
            parse_replicated('subject,method,replicate,value\n' + good + '"S1,A,1,1.0\n'
                             + self.ROWS)


def _reference_chunks(text: str, header: list[str]):
    """The tokenizer as the csv module alone gives it: csv records of the lines
    with their breaks, each numbered by the line it starts on, then blank rows
    dropped by joining and stripping each row, then rows transposed to columns."""
    reader, header_line = csv.reader(text.removeprefix("\ufeff").splitlines(keepends=True)), None

    def numbered():
        while True:
            start = reader.line_num + 1
            try:
                yield start, next(reader)
            except StopIteration:
                return

    records = numbered()
    while chunk := list(islice(records, methodagree_io._CHUNK_LINES)):
        kept = [(n, row) for n, row in chunk if "".join(row).strip()]
        linenos, data = [n for n, _ in kept], [row for _, row in kept]
        if header_line is None and linenos:
            header_line, first = linenos.pop(0), [f.strip() for f in data.pop(0)]
            if [f.lower() for f in first] != header:
                raise ParseError(f"line {header_line}: expected header "
                                 f"{','.join(header)!r}, got {','.join(first)!r}")
        if set(map(len, data)) - {len(header)}:
            lineno, row = next((n, r) for n, r in zip(linenos, data) if len(r) != len(header))
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        yield linenos, [[row[k].strip() for row in data] for k in range(len(header))]
    if header_line is None:
        raise ParseError("empty input")


def _tokens(chunks, text: str, header: list[str]):
    """Concatenated (line numbers, columns) of all chunks, or the ParseError message."""
    linenos, columns = [], [[] for _ in header]
    try:
        for chunk_linenos, chunk_columns in chunks(text, header):
            linenos += chunk_linenos
            for column, part in zip(columns, chunk_columns):
                column += part
    except ParseError as exc:
        return str(exc)
    return linenos, columns


def _row_chunks(text: str, header: list[str]):
    """``io._rows`` as one-row chunks of (line numbers, columns)."""
    for lineno, row in methodagree_io._rows(text, header):
        yield [lineno], [[field] for field in row]


def _column_chunks(text: str, header: list[str]):
    """``io._columns``, which numbers no lines, as chunks of (line numbers, columns)."""
    for columns in methodagree_io._columns(text, header):
        yield [], columns


# "\xa0", "\u3000" and "\x1f" are whitespace to str.strip and str.split, but break no line
_FIELDS = ["", " ", "\t", "s1", " S2 ", "A", "B", "1", " 2.5", "-3e4 ", "x y",
           "\xa0", "\u3000", " \x1f"]
_QUOTED = ['"', '""', '"q,1"', '"a""b"', ' "c" ', '"\r\n"', '"d\ne"']


@st.composite
def _csv_texts(draw):
    header = draw(st.sampled_from([["subject", "a", "b"],
                                   ["subject", "method", "replicate", "value"]]))
    field = st.sampled_from(_FIELDS + (_QUOTED if draw(st.booleans()) else []))
    row = st.lists(field, min_size=len(header), max_size=len(header)).map(",".join)
    line = st.one_of(
        row, row, row,  # mostly right-width rows, so that whole chunks split in one pass
        st.lists(field, max_size=6).map(",".join),
        st.sampled_from(["", "  ", "\t", ",,", ",,,", " , ,\t,", "\v"]),
    )
    lines = draw(st.lists(line, max_size=14))
    lines.insert(draw(st.integers(0, min(3, len(lines)))), draw(st.sampled_from([
        ",".join(header), ",".join(header).upper(), " " + " , ".join(header) + "\t",
        ",".join(header[:-1]), ",".join(header) + ",x", ""])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\v"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))[:-1 if draw(st.booleans()) else None]
    return header, ("\ufeff" if draw(st.booleans()) else "") + text


class TestTokenizer:
    @pytest.mark.parametrize("chunk_lines, piece_chars", [(3, 1), (CHUNK_LINES, PIECE_CHARS)])
    @settings(max_examples=400, deadline=None)
    @given(case=_csv_texts())
    def test_equals_csv_only_reference(self, chunk_lines, piece_chars, case):
        header, text = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(methodagree_io, "_CHUNK_LINES", chunk_lines)
            mp.setattr(methodagree_io, "_PIECE_CHARS", piece_chars)
            want = _tokens(_reference_chunks, text, header)
            assert _tokens(_row_chunks, text, header) == want
            got = _tokens(_column_chunks, text, header)
            assert isinstance(got, str) if isinstance(want, str) else got == ([], want[1])


class TestReports:
    def _result(self, axis="mean", variances=None):
        sample = generate(preset_config("d", seed=4))
        return analyze(sample, axis=axis, variances=variances)

    def test_round_trip_is_exact(self):
        v = WithinSubjectVariance(0.25, 20.25)
        for result in (self._result(), self._result("weighted", v)):
            back = parse_report(emit_report(result))
            assert back.direction == result.direction
            assert back.axis == result.axis
            assert back.weights == result.weights
            assert back.bias == result.bias
            assert back.loa_low == result.loa_low
            assert back.loa_high == result.loa_high
            assert back.fit == result.fit
            assert np.array_equal(back.axis_values, result.axis_values)
            assert np.array_equal(back.differences, result.differences)

    def test_emission_is_deterministic(self):
        result = self._result()
        assert emit_report(result) == emit_report(result)

    def test_rejects_foreign_json(self):
        with pytest.raises(ParseError, match="not a"):
            parse_report("{\"hello\": 1}")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_report("not json at all")

    def _edited(self, **fields):
        v = WithinSubjectVariance(0.25, 20.25)
        payload = json.loads(emit_report(self._result("weighted", v)))
        payload.update(fields)
        return json.dumps(payload)

    def test_rejects_bad_enum_value(self):
        with pytest.raises(ParseError, match="expected one of 'a-b', 'b-a', got 'sideways'"):
            parse_report(self._edited(direction="sideways"))

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ParseError, match="weights.alpha must be finite, got inf"):
            parse_report(self._edited(weights={"alpha": float("inf"), "beta": 1.0}))

    def test_rejects_other_version(self):
        with pytest.raises(ParseError, match="unsupported report version 99; expected 1"):
            parse_report(self._edited(version=99))

    @pytest.mark.parametrize("fields, message", [
        ({"fit": {"slope": "x"}}, "fit.slope must be finite, got 'x'"),
        ({"fit": {"r": None}}, "fit.r must be finite, got None"),
        ({"fit": {"intercept": True}}, "fit.intercept must be finite, got True"),
        ({"fit": {"slope": float("nan")}}, "fit.slope must be finite, got nan"),
        ({"fit": {"p_value": 10**400}}, "fit.p_value must be finite, got 1000"),
        ({"fit": {"df": 1.5}}, "fit.df must be an integer, got 1.5"),
        ({"fit": {"df": 0}}, "fit.df must be a positive integer, got 0"),
        ({"fit": {"df": True}}, "fit.df must be an integer, got True"),
        ({"bias": "1.5"}, "bias must be finite, got '1.5'"),
        ({"loa_low": float("-inf")}, "loa_low must be finite, got -inf"),
        ({"loa_high": [2.0]}, "loa_high must be finite, got [2.0]"),
    ], ids=["fit-slope-string", "fit-r-none", "fit-intercept-bool", "fit-slope-nan",
            "fit-p_value-int-beyond-double", "fit-df-float", "fit-df-zero", "fit-df-bool",
            "bias-string", "loa_low-minus-inf", "loa_high-list"])
    def test_rejects_malformed_numbers(self, fields, message):
        payload = json.loads(self._edited())
        payload.update({**fields, "fit": {**payload["fit"], **fields.get("fit", {})}})
        with pytest.raises(ParseError, match="malformed report document: " + re.escape(message)):
            parse_report(json.dumps(payload))

    def test_integral_numbers_are_numbers(self):
        payload = json.loads(self._edited(bias=2))
        payload["fit"]["slope"] = 0
        assert parse_report(json.dumps(payload)).bias == 2.0

    def test_integral_numbers_are_stored_as_floats(self):
        payload = json.loads(self._edited(bias=2, loa_low=-3, loa_high=7,
                                          weights={"alpha": 1, "beta": 4}))
        payload["fit"].update(slope=0, intercept=1, ci_low=-1, ci_high=1, r=0)
        back = parse_report(json.dumps(payload))
        numbers = [back.bias, back.loa_low, back.loa_high, back.weights.alpha,
                   back.weights.beta, *(getattr(back.fit, name) for name in payload["fit"]
                                        if name != "df")]
        assert all(type(value) is float for value in numbers)
        text = emit_report(back)
        assert '"slope": 0.0' in text and '"alpha": 1.0' in text and '"bias": 2.0' in text

    def test_rejects_boolean_weight(self):
        with pytest.raises(ParseError, match="weights.beta must be finite, got True"):
            parse_report(self._edited(weights={"alpha": 1.0, "beta": True}))

    @pytest.mark.parametrize("alpha", ["x", None, 10**400, [2.0]],
                             ids=["string", "null", "huge-int", "list"])
    def test_rejects_weight_that_is_not_a_number(self, alpha):
        message = f"weights.alpha must be finite, got {reprlib.repr(alpha)}"
        with pytest.raises(ParseError, match=f"^malformed report document: {re.escape(message)}$"):
            parse_report(self._edited(weights={"alpha": alpha, "beta": 1.0}))

    @pytest.mark.parametrize("fields, message", [
        ({"axis": "mean"}, "axis 'mean' does not match weights {'alpha': 20.25, 'beta': 0.25}"),
        ({"weights": None}, "axis 'weighted' does not match weights None"),
    ])
    def test_rejects_axis_that_disagrees_with_weights(self, fields, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_report(self._edited(**fields))

    FOUR_POINTS = [[1.0, 0.5], [2.0, -0.5], [3.0, 1.5], [4.0, 0.0]]

    def test_rejects_count_that_disagrees_with_points(self):
        with pytest.raises(ParseError, match="n is 99 but there are 4 points"):
            parse_report(self._edited(n=99, points=self.FOUR_POINTS))

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_is_the_json_integer_1(self, version):
        message = f"^unsupported report version {re.escape(repr(version))}; expected 1$"
        with pytest.raises(ParseError, match=message):
            parse_report(self._edited(version=version))

    @pytest.mark.parametrize("n, points", [(4.0, FOUR_POINTS), (True, FOUR_POINTS[:1]),
                                           ("4", FOUR_POINTS)], ids=["float", "bool", "string"])
    def test_count_is_a_json_integer(self, n, points):
        message = f"malformed report document: n must be an integer, got {n!r}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_report(self._edited(n=n, points=points))

    @pytest.mark.parametrize("coordinate, message", [
        ("1.5", "points must be an (n, 2) array of finite numbers"),
        (True, "points must be an (n, 2) array of finite numbers"),
        (None, "points must be an (n, 2) array of finite numbers"),
        (10**400, "int too large to convert to float"),
    ], ids=["string", "bool", "null", "huge-int"])
    def test_points_are_json_numbers(self, coordinate, message):
        rows = [[coordinate, 2.0]] + self.FOUR_POINTS[1:]
        with pytest.raises(ParseError, match=f"^malformed report document: {re.escape(message)}$"):
            parse_report(self._edited(n=4, points=rows))

    def test_integral_points_are_numbers(self):
        back = parse_report(self._edited(n=4, points=[[1, 0], [2, -1], [3, 1.5], [4, 0.0]]))
        assert back.axis_values.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_rows_of_three_numbers(self):
        rows = [row + [7.0] for row in self.FOUR_POINTS]
        with pytest.raises(ParseError, match=re.escape("points must be an (n, 2) array")):
            parse_report(self._edited(n=4, points=rows))

    def test_rejects_nan_points(self):
        rows = self.FOUR_POINTS[:3] + [[float("nan"), 1.0]]
        assert "NaN" in self._edited(n=4, points=rows)
        with pytest.raises(ParseError, match="array of finite numbers"):
            parse_report(self._edited(n=4, points=rows))

    @pytest.mark.parametrize("emit", [emit_report, render_plot_svg], ids=["report", "svg"])
    @pytest.mark.parametrize("column", ["axis_values", "differences"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_emit_rejects_non_finite_points(self, emit, column, value):
        result = self._result()
        bad = getattr(result, column).copy()
        bad[1] = value
        with pytest.raises(ValueError, match="^result points must be finite$"):
            emit(replace(result, **{column: bad}))

    @pytest.mark.parametrize("emit", [emit_report, render_plot_svg], ids=["report", "svg"])
    @pytest.mark.parametrize("name", ["bias", "loa_low", "loa_high", "fit.slope", "fit.intercept",
                                      "fit.slope_se", "fit.ci_low", "fit.ci_high", "fit.r",
                                      "fit.p_value"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_emit_rejects_non_finite_numbers(self, emit, name, value):
        result = self._result("weighted", WithinSubjectVariance(0.25, 20.25))
        if name.startswith("fit."):
            result = replace(result, fit=replace(result.fit, **{name[4:]: value}))
        else:
            result = replace(result, **{name: value})
        with pytest.raises(ValueError, match=f"^result {re.escape(name)} must be finite, got "
                                             f"{re.escape(repr(value))}$"):
            emit(result)


def _reference_report(result: AgreementResult) -> str:
    """A report as json.dumps writes it from a payload of per-point lists."""
    payload = {
        "format": "methodagree.report",
        "version": 1,
        "n": result.n,
        "direction": result.direction.value,
        "axis": result.axis.value,
        "weights": None if result.weights is None else asdict(result.weights),
        "bias": result.bias,
        "loa_low": result.loa_low,
        "loa_high": result.loa_high,
        "fit": asdict(result.fit),
        "points": [[float(x), float(d)] for x, d in zip(result.axis_values, result.differences)],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 1e16, 123456789.0, 0.1]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(st.sampled_from([5e-324, 1.0, 1.7976931348623157e308]),
                     st.floats(min_value=5e-324, allow_infinity=False))


class TestReportLayout:
    @given(points=st.lists(st.tuples(FINITE, FINITE), min_size=3, max_size=40),
           scalars=st.lists(FINITE, min_size=10, max_size=10),
           df=st.integers(1, 10**6),
           weights=st.none() | st.builds(WeightPair, POSITIVE, POSITIVE),
           direction=st.sampled_from(Direction))
    @settings(max_examples=100, deadline=None)
    def test_equals_json_dumps_of_per_point_payload(self, points, scalars, df, weights,
                                                    direction):
        bias, loa_low, loa_high, *fit = scalars
        result = AgreementResult(
            direction=direction,
            axis=AxisKind.ARITHMETIC_MEAN if weights is None else AxisKind.WEIGHTED_AVERAGE,
            weights=weights, bias=bias, loa_low=loa_low, loa_high=loa_high,
            fit=RegressionFit(*fit, df=df),
            axis_values=np.array([x for x, _ in points]),
            differences=np.array([d for _, d in points]),
        )
        text = emit_report(result)
        assert text == _reference_report(result)
        back = parse_report(text)
        for got, want in ((back.axis_values, result.axis_values),
                          (back.differences, result.differences)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestRounding:
    def test_ties_go_away_from_zero(self):
        assert round_half_away(0.125) == 0.13
        assert round_half_away(-0.125) == -0.13
        assert round_half_away(0.375) == 0.38

    def test_regular_rounding(self):
        assert round_half_away(0.095125) == 0.10
        assert round_half_away(-0.215399) == -0.22
        assert round_half_away(0.005242) == 0.01
        assert round_half_away(0.1849) == 0.18

    def test_places(self):
        assert round_half_away(1.2345, 3) == 1.234
        assert round_half_away(12.5, 0) == 13.0

    @pytest.mark.parametrize("x", [1e26, -1.1e27, 2.0**1023, np.finfo(float).max])
    def test_huge_values_beyond_decimals_default_28_digits(self, x):
        # an integer-valued double is its own rounding, at any number of digits
        assert round_half_away(x) == x
        assert round_half_away(x, 3) == x


class TestFormatTable:
    def test_reproduces_reference_cells(self):
        text = format_table(preset_results())
        lines = text.splitlines()
        assert lines[1].startswith("case")
        row = {ln.split()[0]: ln for ln in lines[2:]}
        assert row["c"].split()[1] == "0.22"  # mean-axis r
        assert "1.00" in row["a"]
        assert "<0.001" in row["b"]
        assert "-0.10 (-0.15 – -0.06)" in row["b"]
        assert "0.00 (-0.09 – 0.09)" in row["c"]

    def test_deterministic(self):
        entries = preset_results()
        assert format_table(entries) == format_table(entries)

    @pytest.mark.parametrize("p, cell", [
        (0.000999, "<0.001"), (0.001, "0.001"), (0.003, "0.003"), (0.00449, "0.004"),
        (0.005, "0.01"), (0.03, "0.03"), (1.0, "1.00"),
    ])
    def test_small_p_never_prints_as_zero(self, p, cell):
        label, classic, weighted = preset_results()[0]
        classic = replace(classic, fit=replace(classic.fit, p_value=p))
        row = format_table([(label, classic, weighted)]).splitlines()[2]
        assert row.split()[2] == cell  # the mean axis's p, after the case label and r

    def test_slope_of_thirty_digits_prints(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        sample = PairedSample(x, np.array([1e27, 3e27, 2e27, 5e27]))
        res = analyze(sample, axis="weighted", variances=WithinSubjectVariance(0.0, 1.0))
        row = format_table([("x", res, res)]).splitlines()[2]
        assert row.split()[3] == f"{res.fit.slope:.2f}"  # 1.1e27: 28 digits, then 2 decimals


def _tick_mapping(svg: str, axis: str):
    lines = re.findall(
        rf'<line class="{axis}tick" x1="([-0-9.]+)" y1="([-0-9.]+)"', svg
    )
    labels = re.findall(rf'<text class="{axis}tick-label"[^>]*>([^<]+)</text>', svg)
    assert len(lines) == 2 and len(labels) == 2
    if axis == "x":
        px = [float(x1) for x1, _ in lines]
    else:
        px = [float(y1) for _, y1 in lines]
    values = [float(v) for v in labels]
    span_px = px[1] - px[0]
    span_v = values[1] - values[0]

    def to_data(p: float) -> float:
        return values[0] + (p - px[0]) * span_v / span_px

    return to_data


def _reference_circles(result: AgreementResult) -> list[str]:
    """Scatter points as a per-point loop of scalar sx/sy closures draws them."""
    xs, ds, fit = result.axis_values, result.differences, result.fit

    def data_range(lo, hi):
        pad = 0.1 * (hi - lo) if hi - lo > 0.0 else 1.0
        return lo - pad, hi + pad

    x_data_lo, x_data_hi = float(xs.min()), float(xs.max())
    trend_ys = [fit.intercept + fit.slope * x_data_lo, fit.intercept + fit.slope * x_data_hi]
    y_candidates = [float(ds.min()), float(ds.max()), result.loa_low, result.loa_high,
                    result.bias, *trend_ys]
    x_lo, x_hi = data_range(x_data_lo, x_data_hi)
    y_lo, y_hi = data_range(float(min(y_candidates)), float(max(y_candidates)))

    def sx(v):
        return 70.0 + (v - x_lo) / (x_hi - x_lo) * (780.0 - 70.0)

    def sy(v):
        return 540.0 - (v - y_lo) / (y_hi - y_lo) * (540.0 - 40.0)

    def _px(v):
        return f"{v:.2f}"

    return [f'<circle class="pt" cx="{_px(sx(float(x)))}" cy="{_px(sy(float(d)))}" '
            f'r="3" fill="#1f77b4" fill-opacity="0.7"/>' for x, d in zip(xs, ds)]


def _scaled_result(scale: float, offset: float, axis: str) -> AgreementResult:
    rng = np.random.default_rng(21)
    truth = rng.normal(0.0, 1.0, 400)
    a = offset + scale * (truth + rng.normal(0.0, 0.3, truth.size))
    b = offset + scale * (truth + rng.normal(0.1, 0.9, truth.size))
    return analyze(PairedSample(a=a, b=b), axis=axis,
                   variances=WithinSubjectVariance(0.09, 0.81))  # only their ratio matters


class TestPlotPoints:
    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    @pytest.mark.parametrize("scale, offset", [(1e-300, 0.0), (1e300, 0.0), (1.0, 1e8),
                                               (1.0, 0.0)])
    def test_equal_to_per_point_loop(self, scale, offset, axis):
        result = _scaled_result(scale, offset, axis)
        svg = render_plot_svg(result)
        circles = [line for line in svg.splitlines() if line.startswith("<circle")]
        assert circles == _reference_circles(result)

    @staticmethod
    def _assert_pixels_in_box(result: AgreementResult) -> None:
        x_keys = {"pt": ["cx"], "xtick": ["x1"], "trend": ["x1", "x2"]}
        y_keys = {"pt": ["cy"], "ytick": ["y1"], "bias": ["y1"], "loa": ["y1"],
                  "trend": ["y1", "y2"]}
        elements = [(cls, dict(re.findall(r'(\w+)="([^"]*)"', attrs))) for cls, attrs
                    in re.findall(r'<(?:circle|line) class="(\w+)" ([^>]*)>',
                                  render_plot_svg(result))]
        x_px = [float(e[k]) for cls, e in elements for k in x_keys.get(cls, [])]
        y_px = [float(e[k]) for cls, e in elements for k in y_keys.get(cls, [])]
        assert len(x_px) == result.n + 4 and len(y_px) == result.n + 7
        assert all(70.0 <= x <= 780.0 for x in x_px), x_px  # nan fails too
        assert all(40.0 <= y <= 540.0 for y in y_px), y_px

    @pytest.mark.filterwarnings("error")
    def test_range_beyond_largest_double(self):
        # hi - lo overflows to inf for the x range, but not in the scaled space
        # the pixels are mapped in: every coordinate is finite, inside the box.
        xs = np.array([-1.7e308, -0.5e308, 0.5e308, 1.7e308])
        self._assert_pixels_in_box(AgreementResult(
            direction=Direction.B_MINUS_A, axis=AxisKind.ARITHMETIC_MEAN, weights=None,
            bias=0.0, loa_low=-1.0, loa_high=1.0,
            fit=RegressionFit(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2),
            axis_values=xs, differences=np.array([-0.5, 0.25, 0.5, 0.0]),
        ))
        a = np.array([-1e308, -0.9e308, 0.9e308, 1e308, 0.5e308])
        b = a * (1 + np.array([1e-3, -2e-3, 1e-3, 0, -1e-3]))
        self._assert_pixels_in_box(analyze(PairedSample(a=a, b=b), axis="weighted",
                                           variances=WithinSubjectVariance(1.0, 2.0)))

    @pytest.mark.filterwarnings("error")
    def test_constant_differences_beyond_unit_pad(self):
        # every difference is 2**70, where a pad of 1.0 would vanish in rounding
        a = np.array([0.0, 1e20, 2e20, 3e20, 5e20])
        result = analyze(PairedSample(a=a, b=a + 2.0**70))
        assert result.loa_low == result.loa_high == 2.0**70
        self._assert_pixels_in_box(result)


class TestPlots:
    def test_structure_one_bias_two_loa(self):
        res = analyze(generate(preset_config("c", seed=2)))
        svg = render_plot_svg(res)
        assert svg.count('class="bias"') == 1
        assert svg.count('class="loa"') == 2
        assert svg.count('class="trend"') == 1
        assert svg.count('class="pt"') == res.n
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")

    def test_deterministic_bytes(self):
        res = analyze(generate(preset_config("b", seed=3)))
        assert render_plot_svg(res) == render_plot_svg(res)

    def test_zero_bias_line_position(self):
        # exact-moment data has zero mean difference by construction
        res = analyze(generate(preset_config("a", seed=6)))
        svg = render_plot_svg(res)
        y_to_data = _tick_mapping(svg, "y")
        (bias_py,) = re.findall(r'<line class="bias" [^>]*y1="([-0-9.]+)"', svg)
        assert abs(y_to_data(float(bias_py))) < 1e-2

    def test_trend_slope_recoverable_from_coordinates(self):
        config = preset_config("d", seed=8)
        res = analyze(
            generate(config), axis=AxisKind.WEIGHTED_AVERAGE,
            variances=config.error_variances(),
        )
        svg = render_plot_svg(res)
        x_to_data = _tick_mapping(svg, "x")
        y_to_data = _tick_mapping(svg, "y")
        m = re.search(
            r'<line class="trend" x1="([-0-9.]+)" y1="([-0-9.]+)" '
            r'x2="([-0-9.]+)" y2="([-0-9.]+)"',
            svg,
        )
        x1, y1, x2, y2 = (float(g) for g in m.groups())
        slope = (y_to_data(y2) - y_to_data(y1)) / (x_to_data(x2) - x_to_data(x1))
        assert slope == pytest.approx(res.fit.slope, abs=1e-3)
        assert res.fit.slope == pytest.approx(-0.0999, abs=1e-3)

    def test_axis_labels_name_the_axis_kind(self):
        sample = generate(preset_config("c", seed=2))
        classic_svg = render_plot_svg(analyze(sample))
        weighted_svg = render_plot_svg(
            analyze(sample, axis="weighted", variances=WithinSubjectVariance(0.25, 20.25))
        )
        assert "vs mean" in classic_svg
        assert "vs weighted average" in weighted_svg
        assert "Difference (b - a)" in classic_svg


GOLDEN = Path(__file__).parent / "golden"


def _literal_result(axis: str) -> AgreementResult:
    """A result built from literal floats, so no library rounding enters the artifacts."""
    if axis == "mean":
        return AgreementResult(
            direction=Direction.B_MINUS_A, axis=AxisKind.ARITHMETIC_MEAN, weights=None,
            bias=0.5, loa_low=-3.4196, loa_high=4.4196,
            fit=RegressionFit(0.0825, -7.86125, 0.2133, -0.596, 0.761, 0.2125, 0.7315, 3),
            axis_values=np.array([98.5, 101.25, 103.0, 110.75, 96.125]),
            differences=np.array([1.5, -2.25, 0.75, 3.0, -0.5]),
        )
    return AgreementResult(
        direction=Direction.A_MINUS_B, axis=AxisKind.WEIGHTED_AVERAGE,
        weights=WeightPair(20.25, 0.25), bias=-0.123456789, loa_low=-4.1, loa_high=3.853086422,
        fit=RegressionFit(-0.1, 10.0, 0.05, -0.259, 0.059, -0.7550, 0.1403, 3),
        axis_values=np.array([98.0625, 101.75, 102.5, 111.3125, 96.5]),
        differences=np.array([-1.5, 2.25, -0.75, -3.0, 0.5]),
    )


class TestGoldenArtifacts:
    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    def test_report_text(self, axis):
        want = (GOLDEN / f"report_{axis}.json").read_text(encoding="utf-8")
        assert emit_report(_literal_result(axis)) == want

    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    def test_plot_text(self, axis):
        want = (GOLDEN / f"plot_{axis}.svg").read_text(encoding="utf-8")
        assert render_plot_svg(_literal_result(axis)) == want
