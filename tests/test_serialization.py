import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiscope.channels import Channel
from choiscope.errors import ParseError
from choiscope.generators import random_cp_channel, random_state
from choiscope.serialization import (_lists_to_matrix, canonical_dumps,
                                     dump_channel, dump_file, dump_state,
                                     load_path, parse_bytes, parse_text)

from conftest import random_complex
from oracles import dump_file_elementwise, lists_to_matrix_elementwise


def test_canonical_dumps_is_sorted_and_stable():
    a = canonical_dumps({"b": 1, "a": [1.5, -0.0, True, None, "x"]})
    b = canonical_dumps({"a": [1.5, -0.0, True, None, "x"], "b": 1})
    assert a == b
    assert a.startswith('{"a":') and a.endswith("\n")


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(ParseError):
        canonical_dumps({"x": float("nan")})


@pytest.mark.parametrize("kind", ["kraus", "liouville", "choi"])
def test_channel_round_trip_byte_identical(kind):
    ch = random_cp_channel(2, 3, seed=7)
    text = dump_channel(ch, kind)
    parsed = parse_text(text)
    assert parsed.kind == kind and parsed.dims == (2, 3)
    again = dump_channel(parsed.to_channel(), kind)
    if kind == "kraus":
        # Kraus sets are only unique up to isometry; compare Liouville instead
        assert np.allclose(parsed.to_channel().liouville, ch.liouville,
                           atol=1e-12)
        text = dump_channel(parsed.to_channel(), "liouville")
        again = dump_channel(parse_text(text).to_channel(), "liouville")
    assert again == text


def test_state_round_trip_byte_identical(rng):
    rho = random_state(6, seed=3)
    text = dump_state(rho, (2, 3))
    parsed = parse_text(text)
    assert parsed.kind == "state" and parsed.dims == (2, 3)
    assert np.allclose(parsed.to_state(), rho, atol=0)
    assert dump_state(parsed.to_state(), parsed.dims) == text


def test_parse_reports_json_position():
    with pytest.raises(ParseError, match=r"line 2 column"):
        parse_text('{"format_version": "1",\n "kind": }')


@pytest.mark.parametrize("text,fragment", [
    ('[1]', "top level"),
    ('{"kind":"state","dims":[2,2],"data":[[[0,0]]]}', "format_version"),
    ('{"format_version":"1","kind":"blah","dims":[2,2],"data":[]}', "kind"),
    ('{"format_version":"1","kind":"state","dims":[2],"data":[]}', "dims"),
    ('{"format_version":"1","kind":"state","dims":[2,0],"data":[]}', "dims"),
    ('{"format_version":"1","kind":"kraus","dims":[2,2],"data":[]}', "data"),
    ('{"format_version":"1","kind":"state","dims":[1,1],"data":[[[1,0],[0,0]],[[0,0]]]}',
     r"data\[1\]"),
    ('{"format_version":"1","kind":"state","dims":[1,1],"data":[[[1,0,0]]]}',
     r"data\[0\]\[0\]"),
    ('{"format_version":"1","kind":"state","dims":[1,2],"data":[[[1,0]]]}',
     "shape"),
])
def test_parse_rejections(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_text(text)


_STATE_1x1 = '{"format_version":"1","kind":"state","dims":%s,"data":[[[%s,0]]]}'


@pytest.mark.parametrize("text,fragment", [
    # JSON booleans parse as Python bool, a subclass of int
    (_STATE_1x1 % ("[1,1]", "true"), r"data\[0\]\[0\]"),
    (_STATE_1x1 % ("[1,1]", "false"), r"data\[0\]\[0\]"),
    (_STATE_1x1 % ("[true,1]", "1"), "dims"),
    (_STATE_1x1 % ("[1,true]", "1"), "dims"),
    # non-finite tokens and numbers that overflow a float
    (_STATE_1x1 % ("[1,1]", "NaN"), "non-finite number NaN"),
    (_STATE_1x1 % ("[1,1]", "Infinity"), "non-finite number Infinity"),
    (_STATE_1x1 % ("[1,1]", "-Infinity"), "non-finite number -Infinity"),
    (_STATE_1x1 % ("[NaN,1]", "1"), "non-finite number NaN"),
    (_STATE_1x1 % ("[1,1]", "1e999"), r"data\[0\]\[0\]"),
    (_STATE_1x1 % ("[1,1]", "1" + "0" * 400), r"data\[0\]\[0\]"),
])
def test_parse_rejects_booleans_and_non_finite_numbers(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_text(text)


def test_negative_zero_round_trip_byte_identical():
    rho = np.array([[0.5, -0.0], [complex(-0.0, -0.0), 0.5]])
    text = dump_state(rho, (1, 2))
    assert "-0" not in text
    assert dump_state(parse_text(text).to_state(), (1, 2)) == text


def test_kind_mismatch_accessors():
    state_text = dump_state(np.eye(2) / 2, (1, 2))
    with pytest.raises(ParseError):
        parse_text(state_text).to_channel()
    chan_text = dump_channel(Channel.from_kraus([np.eye(2)]), "choi")
    with pytest.raises(ParseError):
        parse_text(chan_text).to_state()


def test_load_path_round_trip(tmp_path, rng):
    M = random_complex(rng, 2, 2)
    ch = Channel.from_kraus([M / np.linalg.norm(M, 2)])
    p = tmp_path / "chan.json"
    p.write_text(dump_channel(ch, "liouville"), encoding="utf-8")
    assert np.allclose(load_path(p).to_channel().liouville, ch.liouville,
                       atol=1e-12)


# -- dump_file refuses what parse_text would reject --------------------------

def test_dump_state_rejects_shape_that_does_not_match_dims():
    with pytest.raises(ParseError, match=r"shape \(3, 3\) does not match dims \(2, 2\)"):
        dump_state(np.eye(3) / 3, (2, 2))


def test_dump_file_rejects_kraus_list_of_mixed_shapes():
    with pytest.raises(ParseError, match=r"data\[1\]: shape \(3, 3\)"):
        dump_file("kraus", (2, 2), [np.eye(2), np.eye(3)])


@pytest.mark.parametrize("dims,matrices,fragment", [
    ((2, 2), [], "non-empty list of matrices"),
    ((0, 2), [np.zeros((2, 0))], "dims"),
    ((2,), [np.eye(2)], "dims"),
])
def test_dump_file_rejects_dims_and_empty_kraus_list(dims, matrices, fragment):
    with pytest.raises(ParseError, match=fragment):
        dump_file("kraus", dims, matrices)


# -- whole-matrix writer and parser against the element-wise oracle ----------

_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                   2.2250738585072014e-308, 1e308, -1e308,
                   1.7976931348623157e308, -1.7976931348623157e308,
                   1.0, -1.0, 1e16, 2.0 ** 53 + 2.0, 0.1, 1 / 3]

_FLOATS = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _complex_matrix(draw, rows, cols):
    vals = draw(st.lists(_FLOATS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    if draw(st.booleans()):  # a non-contiguous view of the same values
        return np.array(vals).view(complex).reshape(cols, rows).T
    return np.array(vals).view(complex).reshape(rows, cols)


@st.composite
def _file_objects(draw):
    kind = draw(st.sampled_from(["kraus", "liouville", "choi", "state"]))
    if kind == "kraus":
        r, c = draw(st.integers(1, 9)), draw(st.integers(1, 7))
        count = draw(st.integers(1, 3))
        return kind, (c, r), [draw(_complex_matrix(r, c)) for _ in range(count)]
    if kind == "liouville":
        d0, d1 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return kind, (d0, d1), [draw(_complex_matrix(d1 * d1, d0 * d0))]
    d0, d1 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return kind, (d0, d1), [draw(_complex_matrix(d0 * d1, d0 * d1))]


@settings(max_examples=200, deadline=None)
@given(_file_objects())
def test_dump_file_matches_elementwise_oracle(obj):
    kind, dims, matrices = obj
    text = dump_file(kind, dims, matrices)
    assert text == dump_file_elementwise(kind, dims, matrices)
    assert dump_file(kind, dims, parse_text(text).matrices) == text


def test_channel_dumps_match_elementwise_oracle():
    for N in (3, 4, 5):
        for seed in range(3):
            ch = random_cp_channel(N, N, seed)
            for kind, mats in (("kraus", ch.kraus_operators()),
                               ("liouville", [ch.liouville]), ("choi", [ch.choi])):
                assert (dump_channel(ch, kind)
                        == dump_file_elementwise(kind, (N, N), mats))


# leaves of a parsed file: finite numbers, and what the parser must reject
# (inf stands for the JSON number 1e400, which json.loads reads as inf)
_LEAVES = st.one_of(
    _FLOATS,
    st.integers(-10**20, 10**20),
    st.sampled_from([10**400, -10**400, float("inf"), float("-inf"),
                     True, False, None, "", "x", "1.5"]),
)


def _bad_entry():
    return st.one_of(
        _LEAVES,                                    # not a pair
        st.lists(_LEAVES, min_size=0, max_size=1),  # too short
        st.lists(_LEAVES, min_size=3, max_size=3),  # too long
        st.tuples(st.lists(_FLOATS, min_size=2, max_size=2), _FLOATS).map(list),
        st.tuples(_LEAVES, _LEAVES).map(list),      # a bad number in a pair
    )


@st.composite
def _matrix_lists(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([[], {}, None, "x", 1.0, [[]], [[], []]]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    data = [[[draw(_FLOATS), draw(_FLOATS)] for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, rows - 1))
        if not (isinstance(data[i], list) and len(data[i]) == cols):
            continue  # a row an earlier step made ragged or replaced
        what = draw(st.sampled_from(["entry", "entry", "ragged", "empty", "row"]))
        if what == "entry":
            data[i][draw(st.integers(0, cols - 1))] = draw(_bad_entry())
        elif what == "ragged":
            data[i] = data[i][:-1] if draw(st.booleans()) else data[i] + [[0.0, 0.0]]
        elif what == "empty":
            data[i] = []
        else:
            data[i] = draw(_LEAVES)
    return data


@settings(max_examples=300, deadline=None)
@given(_matrix_lists(), st.sampled_from(["data", "data[0]", "data[2]"]))
def test_lists_to_matrix_matches_elementwise_oracle(data, where):
    # through JSON text, so 1e400 and 10**400 arrive as json.loads gives them
    text = json.dumps(data).replace("Infinity", "1e400")
    data = json.loads(text)
    try:
        want = lists_to_matrix_elementwise(data, where)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _lists_to_matrix(data, where)
        assert str(got.value) == str(exc)
        return
    got = _lists_to_matrix(data, where)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("number", ["1e400", "-1e400", "1" + "0" * 400, "true"])
def test_parse_names_first_bad_entry_after_good_rows(number):
    row = "[[1,0],[0,%s]]" % number
    # the first row holds the largest finite float and an integer that converts to it
    first = "[[1.7976931348623157e308,0],[%d,0]]" % int(1.7976931348623157e308)
    text = ('{"format_version":"1","kind":"state","dims":[1,2],"data":[%s,%s]}'
            % (first, row))
    with pytest.raises(ParseError) as got:
        parse_text(text)
    assert str(got.value) == ("data[1][1]: expected an [re, im] pair "
                              "of finite numbers")


@pytest.mark.parametrize("call,fragment", [
    (lambda: canonical_dumps({"x": object()}), "cannot serialize object"),
    (lambda: dump_file("unitary", (2, 2), [np.eye(2)]), "unknown kind 'unitary'"),
    (lambda: dump_channel(random_cp_channel(2, 2, 1), "unitary"),
     "unknown channel kind 'unitary'"),
    (lambda: parse_bytes(b'{"kind": "\xff"}'), "not UTF-8 text: byte 10"),
])
def test_serialization_raises_parse_errors(call, fragment):
    with pytest.raises(ParseError) as raised:
        call()
    assert fragment in str(raised.value)
