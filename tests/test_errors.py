"""The one reader of JSON input, ``errors.read`` and ``errors.load_object``,
and the one writer of output files, ``errors.write_text``."""

import json
import math
import os
import stat

import pytest

from expander_cs import errors
from expander_cs.errors import load_object, read, write_text


@pytest.mark.parametrize("value,kind", [
    (3, int), (3, float), (2.5, float), (-(10**300), float), (True, bool), ("x", str),
    (2**1024 - 2**970 - 1, float), (-(2**1024 - 2**970 - 1), float),   # the largest double
    ({}, dict), ([], list), (math.nan, float), (None, float | None), (1.5, float | None),
    ("a", str | dict), ([1, 2.5], list[float]), ([[0], []], list[list[int]]),
])
def test_read_accepts_and_returns_the_decoded_value(value, kind):
    if type(value) is int and kind is float:
        float(value)                                    # fits a double
    assert read({"k": value}, "k", kind) is value       # never converted


@pytest.mark.parametrize("value,kind", [
    (True, int), (False, float), (1, bool), (0, bool), ("false", bool), (1.0, int),
    (10**400, float), (-(10**400), float), ("1", float), (None, float), (5, str),
    (2**1024 - 2**970, float), (-(2**1024 - 2**970), float),   # float() overflows
    ([True], list[float]), ([10**400], list[float]), ([[1.5]], list[list[int]]),
    ((1, 2), list), ([1], float | None), (1, str | dict),
])
def test_read_refuses_another_type_naming_the_key(value, kind):
    if type(value) is int and kind is float:
        with pytest.raises(OverflowError):
            float(value)
    with pytest.raises(ValueError, match="^'k' must be of type "):
        read({"k": value}, "k", kind)


def test_read_defaults_and_missing_fields():
    assert read({}, "k", int, None) is None
    assert read({"k": 2}, "k", int, None) == 2
    with pytest.raises(ValueError, match="^missing field 'k'$"):
        read({"j": 1}, "k", int)


def test_load_object(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"a": [1, 2.5, None]}))
    assert load_object(path) == {"a": [1, 2.5, None]}
    path.write_text("[1]")
    with pytest.raises(ValueError, match="top level must be a JSON object$"):
        load_object(path)
    path.write_text("{")
    with pytest.raises(ValueError):
        load_object(path)


def test_write_text_cuts_a_longer_file_to_the_new_bytes(tmp_path):
    path = tmp_path / "out.json"
    write_text(path, "x" * 5000 + "\n")
    write_text(path, "{\u00e9}\n")                 # shorter, and not ASCII
    assert path.read_bytes() == "{\u00e9}\n".encode("utf-8")
    write_text(path, "")
    assert path.read_bytes() == b""


def test_write_text_rewrites_in_place(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("a,b\n" * 100)
    path.chmod(0o600)
    before = path.stat()
    write_text(path, "c\n")
    after = path.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)
    assert path.read_text() == "c\n"


def test_write_text_creates_with_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_text(tmp_path / "new.json", "{}\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o640


def test_write_text_through_a_symlink_updates_the_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old text that is longer\n")
    link.symlink_to(target)
    write_text(link, "new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "new\n"


def test_write_text_accepts_a_character_device():
    write_text(os.devnull, "discarded\n")           # not a regular file: never cut


def test_write_text_finishes_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(errors.os, "write", lambda fd, data: real_write(fd, data[:3]))
    write_text(tmp_path / "out.txt", "0123456789\u00e9")
    monkeypatch.undo()
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "0123456789\u00e9"
