from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnkit.ppm import PpmFormatError, load_ppm, save_ppm


def test_round_trip(tmp_path):
    img = np.random.default_rng(0).integers(0, 256, (13, 17, 3), dtype=np.uint8)
    p = tmp_path / "x.ppm"
    save_ppm(p, img)
    back = load_ppm(p)
    assert back.dtype == np.uint8
    assert (back == img).all()


def test_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.ppm"
    body = bytes([10, 20, 30, 40, 50, 60])
    p.write_bytes(b"P6 # a comment\n# another\n 2 1\n255\n" + body)
    img = load_ppm(p)
    assert img.shape == (1, 2, 3)
    assert img.reshape(-1).tolist() == list(body)


def test_rejects_p3(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P3\n1 1\n255\n1 2 3\n")
    with pytest.raises(PpmFormatError):
        load_ppm(p)


def test_rejects_wide_maxval(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(PpmFormatError):
        load_ppm(p)


def test_rejects_truncated_body(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(PpmFormatError):
        load_ppm(p)


@pytest.mark.parametrize("header", [b"P66\n1 1\n255\n", b"P6x\n1 1\n255\n",
                                    b"P6\n1_0 1\n255\n", b"P6\n+1 1\n255\n",
                                    b"P6\n1 1\n2_55\n", b"P6\n1 1\n 255.0\n",
                                    b"P6\n" + b"1" * 5000 + b" 1\n255\n"],
                         ids=["P66", "P6x", "1_0", "+1", "2_55", "255.0", "5000-digits"])
def test_rejects_what_is_not_p6(tmp_path, header):
    p = tmp_path / "a.ppm"
    p.write_bytes(header + bytes(30))
    with pytest.raises(PpmFormatError):
        load_ppm(p)


@pytest.mark.parametrize("prefix", [b"\t", b" ", b"\n", b"#c\n"],
                         ids=["tab", "space", "newline", "comment"])
def test_rejects_bytes_before_the_magic(tmp_path, prefix):
    p = tmp_path / "a.ppm"
    p.write_bytes(prefix + b"P6\n1 1\n255\n" + bytes(3))
    with pytest.raises(PpmFormatError):
        load_ppm(p)


_SPACE = st.text(" \t\n\r\v\f", min_size=1, max_size=3).map(str.encode)
_COMMENT = st.tuples(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
                     st.sampled_from("\n\r")).map(lambda t: ("#" + t[0] + t[1]).encode())
# what may part header tokens: whitespace and comments, in any mix
_GAP = st.lists(st.one_of(_SPACE, _COMMENT), min_size=1, max_size=4).map(b"".join)
# the Netpbm P6 header grammar, read independently of the loader: a comment
# runs from "#" to the line end, wherever it starts, and the raster follows
# one whitespace byte after maxval (or the line end closing a comment there)
_SEP = rb"(?:\s|#[^\n\r]*[\n\r])+"
_HEADER = re.compile(rb"P6" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP
                     + rb"(\d+)(?:#[^\n\r]*)?\s")


def _grammar_load(raw: bytes):
    """The image a P6 file holds by the format's grammar, or None."""
    m = _HEADER.match(raw)
    if m is None:
        return None
    w, h, maxval = map(int, m.groups())
    body = raw[m.end():m.end() + w * h * 3]
    if w < 1 or h < 1 or maxval != 255 or len(body) < w * h * 3:
        return None
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.lists(_GAP, min_size=3, max_size=3),
       st.one_of(st.sampled_from([b" ", b"\t", b"\n", b"\r"]), _COMMENT),
       st.binary(max_size=4), st.integers(0, 3))
def test_any_header_layout_round_trips_and_only_digits_count(tmp_path_factory, h, w, seed,
                                                             gaps, last, tail, bad):
    img = np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)
    toks = [b"P6", b"%d" % w, b"%d" % h, b"255"]
    p = tmp_path_factory.getbasetemp() / "layout.ppm"

    def write(tokens):
        head = b"".join(t + g for t, g in zip(tokens, gaps)) + tokens[3] + last
        p.write_bytes(head + img.tobytes() + tail)

    write(toks)
    assert np.array_equal(load_ppm(p), img)
    # the same layout with one token off the grammar is refused
    toks[bad] = b"P6x" if bad == 0 else b"+" + toks[bad]
    write(toks)
    with pytest.raises(PpmFormatError):
        load_ppm(p)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from("rid"), st.integers(0, 16), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_mutated_files_load_exactly_as_the_grammar_reads(tmp_path_factory, seed, edits):
    img = np.random.default_rng(seed).integers(0, 256, (2, 3, 3), dtype=np.uint8)
    raw = bytearray(b"P6 # c\n3 2\n255\n" + img.tobytes())
    for op, pos, byte in edits:   # replace, insert or delete one byte
        pos %= len(raw) + (op == "i")
        if op == "r":
            raw[pos] = byte
        elif op == "i":
            raw.insert(pos, byte)
        else:
            del raw[pos]
    p = tmp_path_factory.getbasetemp() / "mutated.ppm"
    p.write_bytes(bytes(raw))
    want = _grammar_load(bytes(raw))
    if want is None:
        with pytest.raises(PpmFormatError):
            load_ppm(p)
    else:
        assert np.array_equal(load_ppm(p), want)


def test_save_validates_shape(tmp_path):
    with pytest.raises(ValueError):
        save_ppm(tmp_path / "b.ppm", np.zeros((4, 4), dtype=np.uint8))
