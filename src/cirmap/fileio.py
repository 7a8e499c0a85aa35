"""Binary embedding files, JSON/JSONL helpers, and atomic writes.

Embedding file layout (little-endian):

    magic   4 bytes  b"DEGE"
    version u32      currently 1
    count   u64      number of rows
    dim     u32      row width
    payload count*dim float32 values, row-major

Each embedding file has a companion JSONL id file (same path with the
suffix ``.ids.jsonl``), one ``{"row": r, "id": ...}`` object per line, rows
in order. Every value must be finite.
"""

from __future__ import annotations

import json
import json.scanner
import os
import struct
import tempfile
import typing
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"DEGE"
VERSION = 1
_HEADER = struct.Struct("<4sIQI")


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: Path):
    """Parse one JSON document; malformed JSON or UTF-8 raises FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: malformed JSON: {exc}") from exc


def fits(value, hint) -> bool:
    """Whether a JSON value has a declared type: a bool is not an int, an int
    is a float, and a list's elements must fit its element type."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(fits(v, item) for v in value)
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def check_object(doc, keys: dict, where: str) -> None:
    """Raise FormatError naming ``where`` and the key unless ``doc`` is a JSON
    object holding every key of ``keys`` with a value that :func:`fits` its type."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    for key, hint in keys.items():
        if key not in doc:
            raise FormatError(f"{where}: missing key {key!r}")
        if not fits(doc[key], hint):
            expected = str(hint) if typing.get_origin(hint) else hint.__name__
            raise FormatError(
                f"{where}: key {key!r} must be {expected}, got {type(doc[key]).__name__}"
            )


def write_jsonl(path: Path, rows) -> None:
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    atomic_write_text(path, text)


# The decoder's own scanner: it parses one value and reports where it stopped.
_scan_value = json.scanner.make_scanner(json.JSONDecoder())


def read_jsonl(path: Path) -> list:
    """Parse one JSON value per non-blank line; errors name the file and line.

    A line the scanner cannot take whole is handed to ``json.loads``, which
    raises the decoder's own error for it.
    """
    out = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            try:
                value, end = _scan_value(text, 0)
            except StopIteration:
                end = -1
            out.append(value if end == len(text) else json.loads(text))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
    return out


def ids_path_for(path: Path) -> Path:
    path = Path(path)
    return path.with_suffix(".ids.jsonl")


def write_embeddings(path: Path, matrix: np.ndarray, ids: list[str]) -> None:
    path = Path(path)
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise FormatError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    count, dim = matrix.shape
    if len(ids) != count:
        raise FormatError(f"{path}: {len(ids)} ids for {count} rows")
    header = _HEADER.pack(MAGIC, VERSION, count, dim)
    atomic_write_bytes(path, header + matrix.tobytes())
    # Each line is json.dumps({"row": r, "id": i}, sort_keys=True), spelled out.
    quote = json.encoder.encode_basestring_ascii
    text = "".join(f'{{"id": {quote(i)}, "row": {r}}}\n' for r, i in enumerate(ids))
    atomic_write_text(ids_path_for(path), text)


def read_embeddings(path: Path) -> tuple[np.ndarray, list[str]]:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read embedding file: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, count, dim = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    expected = _HEADER.size + count * dim * 4
    if len(raw) != expected:
        raise FormatError(f"{path}: payload is {len(raw) - _HEADER.size} bytes, expected {count * dim * 4}")
    matrix = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(count, dim).copy()
    if not np.isfinite(matrix).all():
        row = np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0]
        raise FormatError(f"{path}: row {row} holds a non-finite value")

    idp = ids_path_for(path)
    if not idp.exists():
        raise FormatError(f"{idp}: companion id file is missing")
    rows = read_jsonl(idp)
    if len(rows) != count:
        raise FormatError(f"{idp}: {len(rows)} ids for {count} rows")
    ids = []
    for r, row in enumerate(rows):
        if type(row) is not dict or len(row) != 2 or row.get("row") != r or "id" not in row:
            raise FormatError(f"{idp}: malformed id record at line {r}")
        ids.append(str(row["id"]))
    return matrix, ids
