"""Tests for the flat config format."""

from __future__ import annotations

import pytest

from emergence_lab.serialize import format_config, read_config, write_config


def test_config_roundtrip_preserves_types(tmp_path):
    mapping = {
        "flag": True,
        "other_flag": False,
        "count": 12,
        "rate": 0.1,
        "tiny": 1e-300,
        "name": "kernel",
        "shape": (64, 64),
        "mixed": (1, 2.5, "x"),
    }
    path = tmp_path / "run.cfg"
    write_config(path, mapping)
    back = read_config(path)
    assert back == mapping
    assert isinstance(back["flag"], bool)
    assert isinstance(back["count"], int)
    assert isinstance(back["rate"], float)
    assert back["rate"] == 0.1  # repr floats survive exactly


def test_config_canonical_text():
    text = format_config({"b": 2, "a": True, "c": (1.5, 3)})
    assert text == "a = true\nb = 2\nc = 1.5 3\n"
    assert format_config({}) == ""


def test_config_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\n\nmass = 2.0\n  # indented comment\n")
    assert read_config(path) == {"mass": 2.0}


def test_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        read_config(path)
    path.write_text("= 3\n")
    with pytest.raises(ValueError, match="missing key"):
        read_config(path)
    path.write_text("a = 1\na = 2\n")
    with pytest.raises(ValueError, match="duplicate key"):
        read_config(path)
    path.write_text("a =\n")
    with pytest.raises(ValueError, match="empty value"):
        read_config(path)


def test_config_rejects_unwritable_values(tmp_path):
    with pytest.raises(ValueError, match="whitespace"):
        format_config({"a": "two words"})
    with pytest.raises(ValueError, match="empty tuple"):
        format_config({"a": ()})
