"""Differential tests of the trace-file body reader and writer.

``data._parse_rows`` reads a whole body with numpy's C text reader
(``np.loadtxt``), first as int64 cast to float64 when the body holds
no '-', then as float64, and runs a per-line pass when the reader
rejects the body: to name the first bad line, and to parse tokens that
only ``float()`` accepts. ``data._trace_lines`` formats a matrix whose
rounded values all lie in [0, 65536) by gathering each value's token
from a table and stripping its NUL padding, and any other matrix with
one ``%``. The oracles
below are the per-token ``float()`` loop and the per-row ``str.join``
that they replaced; the loop also refuses, naming its line, a finite
value outside [-2**63, 2**63), which the writer cannot write. On every
drawn body the reader must return the same array, bit for bit, or raise
ValueError with the same message; on every drawn matrix the writer must
produce the same text. A last property draws header field values: a
``Recording`` either refuses them with ValueError, or writes a file that
reads back equal and rewrites to the same bytes. Runs are
derandomized so every run sees the same examples.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graspslip import data

DIFF = settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def parse_rows_oracle(path, lines, body_start, n_channels):
    rows = []
    for ln, raw in enumerate(lines[body_start:], start=body_start + 1):
        stripped = raw.strip()
        if not stripped:
            continue
        cells = stripped.split()
        if len(cells) != n_channels:
            raise ValueError(
                f"{path}:{ln}: expected {n_channels} channels, got {len(cells)}"
            )
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ValueError(f"{path}:{ln}: non-numeric value in {stripped!r}") from None
        for ch, v in enumerate(row):
            if math.isfinite(v) and not -(2.0**63) <= v < 2.0**63:
                raise ValueError(f"{path}:{ln}: sample {v!r} at step {len(rows)}, channel {ch} "
                                 "does not fit a 64-bit integer")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty input")
    return np.asarray(rows, dtype=np.float64)


def trace_lines_oracle(values):
    rows = np.rint(values).astype(np.int64).tolist()
    return "\n".join(" ".join(map(str, row)) for row in rows)


def outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


DIGITS = "0123456789"
SIGN = st.sampled_from(["", "", "+", "-"])
INTS = st.integers(-(10**12), 10**12).map(str)
DECIMALS = st.floats(allow_nan=True, allow_infinity=True).map(repr)
EXPONENTS = st.builds(
    lambda sign, m, e, f: f"{sign}{m}{e}{f}",
    SIGN, st.text(DIGITS, min_size=1, max_size=4) | st.just("1.5"),
    st.sampled_from(["e", "E"]), st.integers(-400, 400).map(str),
)
UNDERSCORED = st.from_regex(r"[+-]?[0-9](_?[0-9]){0,4}(\.[0-9](_?[0-9]){0,2})?", fullmatch=True)
NON_ASCII = st.builds(lambda sign, s: sign + s, SIGN, st.text("٠١٢٣٤٥٦٧٨٩０１２３۴५𝟏", min_size=1, max_size=4))
SPECIAL = st.sampled_from([
    "nan", "NaN", "-nan", "+nan", "inf", "-inf", "+Infinity", "iNfInItY",
    "1.", ".5", "-0", "4.9e-324", "1e400", "1_0.5_0",
])
NUMBERS = st.one_of(INTS, DECIMALS, EXPONENTS, UNDERSCORED, NON_ASCII, SPECIAL)
BAD = st.one_of(
    st.from_regex(r"_[0-9]|[0-9]__[0-9]|[0-9]_|[0-9]_\.[0-9]", fullmatch=True),
    st.sampled_from(["infinit", "0x10", "1e", "e1", ".", "-", "1\x00", "1,5", "٫5", "1_e5",
                     "#", "#1", "1#", '"1"', "'1'"]),
    st.text(max_size=4),
)
TOKENS = st.one_of(NUMBERS, NUMBERS, NUMBERS, BAD)
# Tokens numpy's int64 parser reads, or rejects only past 2**63 - 1; '-0'
# must still read as -0.0.
UNSIGNED = st.one_of(
    st.integers(0, 70000).map(str),
    st.integers(0, 70000).map(str),
    st.builds(lambda sign, zeros, n: f"{sign}{zeros}{n}",
              st.sampled_from(["", "+"]), st.text("0", max_size=3), st.integers(0, 2**64)),
    st.sampled_from([str(2**53 + 1), str(2**63 - 1), str(2**63), "+0", "00", "-0"]),
)
# Python whitespace; the last three are also line breaks to str.splitlines().
SPACE = st.sampled_from([" "] * 12 + ["  ", "\t", "\xa0", "\u2003", "\u3000", "\x0b", "\x0c", "\x1f",
                                      "\x1c", "\x1d", "\x1e"])


@st.composite
def bodies(draw, tokens=None):
    """A trace body as the reader sees it: lines from str.splitlines().

    Without ``tokens``, half the bodies draw only tokens that float()
    accepts, so the whole-array path returns a matrix on many of them.
    """
    n_channels = draw(st.integers(1, 4))
    if tokens is None:
        tokens = draw(st.sampled_from([NUMBERS, TOKENS]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(st.text(" \t\xa0", max_size=3)))
            continue
        width = n_channels if kind == "row" else draw(st.integers(0, 6))
        cells = [draw(tokens) for _ in range(width)]
        seps = [draw(SPACE) for _ in range(width + 1)]
        lines.append(seps[0] + "".join(c + s for c, s in zip(cells, seps[1:])))
    header = ["graspslip-trace v1", "data"][: draw(st.integers(0, 2))]
    return "\n".join(header + lines).splitlines(), len(header), n_channels


@DIFF
@given(body=bodies())
def test_parse_rows_matches_per_token_float(body):
    lines, body_start, n_channels = body
    got, got_err = outcome(data._parse_rows, "f.txt", lines, body_start, n_channels)
    want, want_err = outcome(parse_rows_oracle, "f.txt", lines, body_start, n_channels)
    assert got_err == want_err
    if want is not None:
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@DIFF
@given(body=bodies(UNSIGNED))
def test_parse_rows_matches_per_token_float_on_integer_bodies(body):
    # Bodies the int64 pass reads, and bodies it must hand on: a '-0',
    # a value past 2**63 - 1, a ragged row.
    lines, body_start, n_channels = body
    got, got_err = outcome(data._parse_rows, "f.txt", lines, body_start, n_channels)
    want, want_err = outcome(parse_rows_oracle, "f.txt", lines, body_start, n_channels)
    assert got_err == want_err
    if want is not None:
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_parse_rows_is_exact_under_numpys_int_via_float_fallback(monkeypatch):
    # NumPy from 1.23 on may read a non-integer token for an int dtype as a
    # float, truncate it and only issue a DeprecationWarning, which Python
    # hides when library code raises it. A loadtxt that does so must not
    # change what the reader returns.
    real_loadtxt = np.loadtxt

    def loadtxt_with_fallback(lines, dtype=np.float64, **kwargs):
        try:
            return real_loadtxt(lines, dtype=dtype, **kwargs)
        except ValueError:
            if dtype is not np.int64:
                raise
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string to int64") from exc
            with np.errstate(invalid="ignore"):
                return real_loadtxt(lines, dtype=np.float64, **kwargs).astype(np.int64)

    lines = ["1.5 2.7", "nan 3", "inf 1", "1e3 4"]
    monkeypatch.setattr(np, "loadtxt", loadtxt_with_fallback)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        assert loadtxt_with_fallback(lines[:1], dtype=np.int64).tolist() == [1, 2]
        got = data._parse_rows("f.txt", lines, 0, 2)
    assert got.tobytes() == parse_rows_oracle("f.txt", lines, 0, 2).tobytes()


@pytest.mark.parametrize("lines", [
    ["1\r2 3", "4\n5 6"],
    ["1\x1c2\x1d3", "4\x1e5\x856", "7\u20288\u20299", "1\x0b2\x0c3"],
    ["# 1 2", "1 2 3"],
    ["1 2 3", "4 5 #6"],
    ['"1" 2 3'],
    ["1_000 2 3", "٤ ５ 6"],
    ["1 2 3", "", "\r", "4 5 6"],
], ids=["cr-lf", "other-breaks", "hash-line", "hash-token", "quoted", "float-only", "blanks"])
def test_parse_rows_matches_per_token_float_on_lines_with_breaks_and_marks(lines):
    # convert_csv joins CSV cells with spaces, so its lines are not split by
    # str.splitlines() and may hold any line-break character.
    got, got_err = outcome(data._parse_rows, "f.txt", lines, 0, 3)
    want, want_err = outcome(parse_rows_oracle, "f.txt", lines, 0, 3)
    assert got_err == want_err
    if want is not None:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("body", ["", "\n\n", "  \n\t\n\xa0\u3000\x85\n"],
                         ids=["empty", "blank-lines", "unicode-blanks"])
def test_an_empty_or_blank_body_fails_without_a_warning(body, tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text(data._recording_text(data.synth_grasp(1)).split("data\n")[0] + "data\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty input"):
            data.read_recording(path)
        lines = path.read_text().splitlines()
        with pytest.raises(ValueError, match="empty input"):
            data._parse_rows("f.txt", lines, lines.index("data") + 1, 16)


MATRIX_SHAPES = st.tuples(st.integers(1, 12), st.integers(1, 16))
INT_ELEMENTS = st.integers(-(10**10), 10**10) | st.integers(-(10**15), 10**15)


@DIFF
@given(matrix=MATRIX_SHAPES.flatmap(lambda shape: arrays(np.int64, shape, elements=INT_ELEMENTS)))
def test_trace_lines_match_str_join_on_ints(matrix):
    assert data._trace_lines(matrix) == trace_lines_oracle(matrix)


@DIFF
@given(matrix=MATRIX_SHAPES.flatmap(lambda shape: arrays(
    np.float64, shape, elements=st.floats(-(10**12), 10**12, allow_nan=False))))
def test_trace_lines_match_str_join_on_floats(matrix):
    # Writers pass float64 samples: non-integral values and -0.0 round first.
    assert data._trace_lines(matrix) == trace_lines_oracle(matrix)


# Per matrix, either every element fits the token table or some may not.
TABLE_TOPS = st.sampled_from([data.TOKEN_VALUES - 1, 70000])


@DIFF
@given(matrix=st.tuples(MATRIX_SHAPES, TABLE_TOPS).flatmap(
    lambda drawn: arrays(np.int64, drawn[0], elements=st.integers(0, drawn[1]))))
def test_trace_lines_match_str_join_on_token_table_ints(matrix):
    assert data._trace_lines(matrix) == trace_lines_oracle(matrix)


@DIFF
@given(matrix=st.tuples(MATRIX_SHAPES, TABLE_TOPS).flatmap(
    lambda drawn: arrays(np.float64, drawn[0], elements=st.floats(-0.5, drawn[1] + 0.5))))
def test_trace_lines_match_str_join_on_token_table_floats(matrix):
    # -0.5 and -0.0 round to -0.0, which the table writes as "0".
    assert data._trace_lines(matrix) == trace_lines_oracle(matrix)


@pytest.mark.parametrize("matrix", [
    [[0.0]], [[65535.0, 0.0]], [[65536.0, 5.0]], [[-1.0, 5.0]], [[-0.0, 7.0]], [[0.0], [65535.0]],
    [[65535.4, 65535.5]], [[-0.5, 9.0]],
], ids=["zero", "top", "past-top", "minus-one", "minus-zero", "column", "round-to-top", "round-to-minus-zero"])
def test_trace_lines_match_str_join_at_token_table_edges(matrix):
    matrix = np.array(matrix)
    assert data._trace_lines(matrix) == trace_lines_oracle(matrix)


# -- header fields: the constructor's rules against the writer and the reader ----------

FIELDS = ("kind", "freq_hz", "outcome", "direction", "object_id", "weight", "force_level",
          "initial", "slip_onset", "drop_step")
OMIT = object()  # the field is not passed: it keeps its dataclass default
SCALARS = st.one_of(
    st.integers(), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([2.5, 20.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 2.0**64 + 2**12]),
    st.sampled_from([*data.CHANNELS, *data.OUTCOMES, *data.DIRECTIONS, "torque", "Back", " top"]),
    st.text(max_size=4),
)
ANY = SCALARS | st.lists(SCALARS, max_size=5).map(tuple)
STEP = st.integers(-2, 42)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70)
# Values the drawn kind accepts for each field (bar the order of the ground truth).
VALID = {
    "force": {
        "freq_hz": st.floats(1e-3, 1e6) | st.integers(1, 2**70), "outcome": st.sampled_from(data.OUTCOMES),
        "direction": st.sampled_from(data.DIRECTIONS), "object_id": st.integers() | st.just(OMIT),
        "weight": st.integers() | st.just(OMIT), "force_level": st.integers() | st.just(OMIT),
        "initial": st.just(OMIT), "slip_onset": STEP | st.just(OMIT), "drop_step": STEP | st.just(OMIT),
    },
    "pressure": {
        "freq_hz": st.floats(1e-3, 1e6) | st.integers(1, 2**70),
        "initial": st.tuples(FINITE, FINITE, FINITE, FINITE),
    },
}


@st.composite
def recording_fields(draw):
    """A kind and a value for every header field: valid for the kind, but
    with up to three fields (the kind among them) set to an arbitrary value."""
    kind = draw(st.sampled_from(list(VALID)))
    fields = {"kind": kind, **{f: draw(VALID[kind].get(f, st.just(OMIT))) for f in FIELDS[1:]}}
    for f in draw(st.sets(st.sampled_from(FIELDS), max_size=3)):
        fields[f] = draw(ANY)
    return {f: v for f, v in fields.items() if v is not OMIT}


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trip")


@DIFF
@given(fields=recording_fields())
def test_every_recording_that_constructs_reads_back_equal(trace_dir, fields):
    kind = fields["kind"]
    n_channels = data.CHANNELS[kind] if kind in data.CHANNELS else data.FORCE_CHANNELS
    samples = np.arange(40 * n_channels, dtype=np.float64).reshape(40, n_channels) * 37.0
    try:
        rec = data.Recording(samples, **fields)
    except ValueError:
        return  # TypeError is no answer either: every drawn value is of a writable type
    path, again_path = trace_dir / "r.txt", trace_dir / "again.txt"
    data.write_recording(rec, path)
    again = data.read_recording(path)
    assert [getattr(again, f) for f in FIELDS] == [getattr(rec, f) for f in FIELDS]
    np.testing.assert_array_equal(again.as_matrix(), rec.as_matrix())
    data.write_recording(again, again_path)
    assert again_path.read_bytes() == path.read_bytes()
