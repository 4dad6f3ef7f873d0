"""File reading and writing shared by the serializers and the CLI.

Every input file is read through ``read_json`` or ``read_csv``: each opens the
file, decodes it and hands the document to a parser, and maps every failure
along the way to one ``InputError`` that names the file. A CSV parser gets
the file's text and splits it into rows with ``csv_rows``. The parsers of the
JSON inputs read numbers through ``json_number``, ``json_numbers`` or
``json_integer``, which reject ``true``, ``false`` and strings. Every output
file is written through ``atomic_files``, which streams chunks (text, or
bytes) into temp files and renames them into place only when all of them are
written; ``write_text_atomic`` writes one whole text through it. The evaluation
reports, mostly long lists of numbers, are laid out as ``json.dumps(doc,
indent=2)`` lays them out by ``format_json`` and, for item texts rendered by
the caller, ``json_array`` and ``json_object``.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import os
import secrets
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import InputError

T = TypeVar("T")

# What a parser raises on a document of the wrong shape or with a bad value
# (OverflowError: ``int()`` of a JSON ``1e999``). An InputError passes through.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError, OverflowError)


def _read(path: str | Path, what: str, fmt: str, decode: Callable[[Path], object],
          parse: Callable[..., T]) -> T:
    path = Path(path)
    try:
        doc = decode(path)
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # e.g. UnicodeDecodeError
        raise InputError(f"{what} file {path} is not valid {fmt}: {exc}") from exc
    try:
        return parse(doc)
    except csv.Error as exc:  # from csv_rows, e.g. a field over csv.field_size_limit()
        raise InputError(f"{what} file {path} is not valid {fmt}: {exc}") from exc
    except _MALFORMED as exc:
        raise InputError(f"malformed {what} file {path}: {exc}") from exc


def _read_text(path: Path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


def csv_rows(text: str) -> list[list[str]]:
    """The non-empty rows of ``text``, split as ``csv.reader`` splits a file opened
    with ``newline=""``: a CR, an LF or a CRLF ends a line.

    Raises csv.Error, which ``read_csv`` reports as invalid CSV.
    """
    return [row for row in csv.reader(io.StringIO(text, newline="")) if row]


def read_json(path: str | Path, what: str, parse: Callable[..., T]) -> T:
    """``parse`` the UTF-8 JSON document in ``path``; ``what`` names the file in errors.

    An unreadable or undecodable file, and an AttributeError, KeyError,
    TypeError, ValueError or OverflowError from ``parse``, become an InputError.
    """
    return _read(path, what, "JSON", lambda p: json.loads(p.read_text(encoding="utf-8")),
                 parse)


def read_csv(path: str | Path, what: str, parse: Callable[[str], T]) -> T:
    """``parse`` the text of the UTF-8 CSV file in ``path``; ``what`` names the file.

    The file is decoded whole with ``newline=""``, so every CR stays in the
    text. Failures become an InputError as in ``read_json``; a csv.Error from
    ``parse`` (raised by ``csv_rows``) reports the file as not valid CSV.
    """
    return _read(path, what, "CSV", _read_text, parse)


def json_number(value) -> float:
    """``float(value)`` of a number read from JSON; TypeError for ``true`` and
    ``false``, which ``json`` reads as bools and ``float()`` as 1.0 and 0.0, and
    for a string, which ``float()`` would parse."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {_encode(value)}")
    return float(value)


def json_numbers(values: Sequence) -> np.ndarray:
    """``json_number`` of each of ``values``, as one float array. ``sum`` raises
    TypeError at a value that is neither a number nor a bool, a string say, and
    only then is each value checked; of the numbers, only a value read as 0 or
    1 can have been a bool, so only those are checked."""
    try:
        sum(values)
    except TypeError:
        for value in values:
            json_number(value)
    array = np.fromiter(values, float, len(values))
    for i in np.flatnonzero((array == 0.0) | (array == 1.0)).tolist():
        json_number(values[i])
    return array


def json_integer(value) -> int:
    """``value`` as an int when it is a JSON number with no fractional part;
    ValueError otherwise, and TypeError for ``true`` and ``false``."""
    number = json_number(value)
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return value if type(value) is int else int(number)


@contextlib.contextmanager
def atomic_files(*paths: str | Path, binary: bool = False) -> Iterator[list[IO]]:
    """Open one temp file per path in the path's directory, and yield them in order,
    for text, or for bytes when ``binary``.

    When the block ends normally, every file is closed, and only then is each
    renamed onto its path, in order. When the block raises, or a path is a
    directory (IsADirectoryError, checked before the first rename; a symlink
    is replaced, not followed), every temp file is removed and no path is
    replaced. The renames are one at a time, so when one fails for another
    reason, the paths before it are already replaced. The temp files are
    created with mode 0o666 less the umask, as ``open`` would create the
    paths themselves; the rename keeps that mode.
    """
    tmps: list[Path] = []
    files: list[IO] = []
    try:
        for path in map(Path, paths):
            tmp = path.with_name(f"{path.name}{secrets.token_hex(8)}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmps.append(tmp)
            files.append(os.fdopen(fd, "wb" if binary else "w"))
        yield files
        for fh in files:
            fh.close()
        for path in paths:
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh in files:
            with contextlib.suppress(OSError):
                fh.close()
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through ``atomic_files``."""
    with atomic_files(path) as (fh,):
        fh.write(text)


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as indented JSON with a trailing newline."""
    write_text_atomic(path, json.dumps(doc, indent=2) + "\n")


# json's C encoder: compact separators, ensure_ascii and allow_nan, as json.dumps.
_encode = json.JSONEncoder().encode
# Exact types: a bool is formatted on its own (the encoder writes it alike).
_NUMBER_TYPES = {float, int}


def format_json(doc, pad: str = "") -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for dicts with str keys.

    Every line after the first is indented by ``pad`` more, as the text of a
    value nested at that indentation. ``json.dumps`` falls back to its
    pure-Python encoder whenever ``indent`` is set. Here a list of plain floats
    and ints is encoded in one call to the C encoder and its ``", "``
    separators re-indented; every other scalar goes through the C encoder on
    its own, so NaN, infinities, -0.0 and escaped strings come out as ``json``
    writes them.
    """
    inner = pad + "  "
    if isinstance(doc, dict):
        return json_object([(key, format_json(item, inner)) for key, item in doc.items()],
                           pad)
    if isinstance(doc, (list, tuple)):
        # Numbers only: one encoder call; nested items need their own indentation.
        if doc and set(map(type, doc)) <= _NUMBER_TYPES:
            body = _encode(doc)[1:-1].replace(", ", ",\n" + inner)
            return "[\n" + inner + body + "\n" + pad + "]"
        return json_array([format_json(item, inner) for item in doc], pad)
    return _encode(doc)


def json_array(texts: Sequence[str], pad: str) -> str:
    """A JSON array of items already in JSON text, laid out as ``format_json`` lays
    it out at ``pad``: each item's own lines must be indented for ``pad + "  "``."""
    if not texts:
        return "[]"
    inner = "\n" + pad + "  "
    return "".join(["[", inner, ("," + inner).join(texts), "\n", pad, "]"])


def json_object(items: Sequence[tuple[str, str]], pad: str) -> str:
    """A JSON object of (str key, value text) items, laid out as ``json_array``, in
    one join of keys, texts and separators: a long text, say a radiomap's points,
    is copied once."""
    if not items:
        return "{}"
    inner = "\n" + pad + "  "
    parts = ["," + inner] * (3 * len(items) - 1)
    parts[0::3] = [_key(key) + ": " for key, _ in items]
    parts[1::3] = [text for _, text in items]
    return "".join(["{", inner, *parts, "\n", pad, "}"])


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _encode(key)
