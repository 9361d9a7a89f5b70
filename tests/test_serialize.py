"""Tests for the flat config format."""

from __future__ import annotations

import pytest

from emergence_lab.serialize import read_config


def test_config_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\n\nmass = 2.0\n  # indented comment\n")
    assert read_config(path) == {"mass": "2.0"}


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

