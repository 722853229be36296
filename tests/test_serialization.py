import numpy as np
import pytest

from choiscope.channels import Channel
from choiscope.errors import ParseError
from choiscope.generators import random_cp_channel, random_state
from choiscope.serialization import (canonical_dumps, dump_channel,
                                     dump_state, load_path, parse_text)

from conftest import random_complex


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
