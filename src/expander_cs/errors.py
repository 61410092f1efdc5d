"""Shared exception types, the size check that raises CapacityError, the
one reader of JSON input and the one writer of output files. Every file
the package reads is decoded by :func:`load_object` and every field typed
by :func:`read`, which returns values as decoded, never converted. Every
file it writes is written by :func:`write_text`.
"""

import json
import os
import reprlib
import stat
from types import GenericAlias, UnionType


class CapacityError(RuntimeError):
    """A configured enumeration or size limit would be exceeded."""


class SolverStatusError(RuntimeError):
    """An optimization problem turned out infeasible or unbounded."""


def check_power(what: str, base: int, exp: int, limit: int) -> int:
    """``base**exp`` for base, exp >= 0, or CapacityError naming ``what``
    when it exceeds ``limit``. The size test comes first, so a huge
    exponent never builds (or formats) a huge integer."""
    if exp * (base.bit_length() - 1) >= limit.bit_length() or base**exp > limit:
        raise CapacityError(f"{what} = {base}**{exp} exceeds limit {limit}")
    return base**exp


_REQUIRED = object()
_PAST_DOUBLE = 2**1024 - 2**970   # the least int that float() cannot convert


def _is(value, kind) -> bool:
    """Whether a decoded JSON value has the type ``kind``: a type, a union
    such as ``float | None``, or ``list[item]``. A float may be written as
    an int that fits a double, and a bool counts only as a bool."""
    if isinstance(kind, GenericAlias):
        return isinstance(value, list) and all(_is(v, *kind.__args__) for v in value)
    if isinstance(kind, UnionType):
        return any(_is(value, k) for k in kind.__args__)
    if kind is float and type(value) is int:
        return -_PAST_DOUBLE < value < _PAST_DOUBLE
    return (isinstance(value, bool) == (kind is bool)
            and isinstance(value, (int, float) if kind is float else kind))


def read(obj: dict, key: str, kind, default=_REQUIRED):
    """``obj[key]`` checked to have the type ``kind`` (see :func:`_is`), or
    ``default`` when the key is absent. The value is returned as decoded.
    A missing required key or a value of another type is a ValueError
    naming the key."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"missing field {key!r}")
        return default
    value = obj[key]
    if not _is(value, kind):
        name = kind.__name__ if isinstance(kind, type) else str(kind)
        raise ValueError(f"{key!r} must be of type {name}, got {reprlib.repr(value)}")
    return value


def load_object(path) -> dict:
    """The decoded JSON file at ``path``, whose top level must be an object."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return obj


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, rewriting an existing file in
    place: it is opened without truncation (created with mode 0o666 less
    the umask when absent), written whole and then, when it is a regular
    file, cut to the written length. Truncating a non-empty file on open
    costs far more than cutting it after the write. A character device
    or a FIFO, such as /dev/null, is written but not cut."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
