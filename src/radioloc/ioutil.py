"""File reading and writing shared by the serializers and the CLI.

Every input file is read through ``read_json`` or ``read_csv``: each opens the
file, decodes it and hands the document to a parser, and maps every failure
along the way to one ``InputError`` that names the file.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, TypeVar

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
    except (ValueError, RecursionError, csv.Error) as exc:  # e.g. UnicodeDecodeError
        raise InputError(f"{what} file {path} is not valid {fmt}: {exc}") from exc
    try:
        return parse(doc)
    except _MALFORMED as exc:
        raise InputError(f"malformed {what} file {path}: {exc}") from exc


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def read_json(path: str | Path, what: str, parse: Callable[..., T]) -> T:
    """``parse`` the UTF-8 JSON document in ``path``; ``what`` names the file in errors.

    An unreadable or undecodable file, and an AttributeError, KeyError,
    TypeError, ValueError or OverflowError from ``parse``, become an InputError.
    """
    return _read(path, what, "JSON", lambda p: json.loads(p.read_text(encoding="utf-8")),
                 parse)


def read_csv(path: str | Path, what: str, parse: Callable[..., T]) -> T:
    """``parse`` the non-empty rows of the UTF-8 CSV file in ``path``, header first.

    Failures become an InputError as in ``read_json``.
    """
    return _read(path, what, "CSV", _csv_rows, parse)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent if str(path.parent) else ".",
                               prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as indented JSON with a trailing newline."""
    write_text_atomic(path, json.dumps(doc, indent=2) + "\n")
