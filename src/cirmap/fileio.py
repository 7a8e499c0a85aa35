"""Binary embedding files, JSON/JSONL helpers, and atomic writes.

Embedding file layout (little-endian):

    magic   4 bytes  b"DEGE"
    version u32      currently 1
    count   u64      number of rows
    dim     u32      row width
    payload count*dim float32 values, row-major

Each embedding file has a companion JSONL id file (same path with the
suffix ``.ids.jsonl``), one ``{"id": ..., "row": r}`` object per line, rows
in order. Every value must be finite: the writer and the reader both reject
a matrix holding NaN or infinity, naming the file and the first such row.

write_embeddings spells each id line out canonically as
``{"id": "<id>", "row": <r>}`` and a newline, the id escaped as
``json.dumps`` escapes it (ASCII only) and ``r`` in plain decimal. Numbered
ids (:class:`NumberedIds`, a prefix and a zero-padded row number) are
written from their template by a few numpy passes per chunk of rows; no
string is made per row. The reader takes a template from the first line's
id, its trailing zeros as the width and the rest as the prefix, and
compares the file with that template's lines chunk by chunk. A file that
matches is returned as that :class:`NumberedIds`; any other file is parsed
line by line into an :class:`IdList`.

The two sides of one set of pairs are read by :func:`read_embedding_pair`,
which checks that their ids and their widths agree.
"""

from __future__ import annotations

import json
import mmap
import operator
import os
import struct
import tempfile
import typing
from collections.abc import Iterator, Sequence
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


def _compact(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def write_json(path: Path, obj) -> None:
    """One compact line with sorted keys: ``json.dumps`` takes its C encoder
    for it, where ``indent`` falls back to the pure-Python one.

    A 2-D integer array held under a key of a top-level object is written by
    :func:`_int_rows_json`, in the bytes its ``tolist()`` would give.
    """
    if isinstance(obj, dict) and any(isinstance(v, np.ndarray) for v in obj.values()):
        fields = [
            _compact(key) + b":" + (_int_rows_json(v) if isinstance(v, np.ndarray) else _compact(v))
            for key, v in sorted(obj.items())
        ]
        atomic_write_bytes(path, b"{" + b",".join(fields) + b"}\n")
    else:
        atomic_write_bytes(path, _compact(obj) + b"\n")


# Rows of an integer array spelled out per pass of _int_rows_json. It bounds
# the pass's temporaries, several times the rows' own size.
_JSON_BLOCK_ROWS = 16384


def _int_rows_json(rows: np.ndarray) -> bytes:
    """``json.dumps(rows.tolist(), separators=(",", ":"))`` of a 2-D integer
    array, from a few numpy passes per block of rows."""
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise TypeError(f"expected a 2-D integer array, got {rows.dtype} of shape {rows.shape}")
    blocks = (rows[lo : lo + _JSON_BLOCK_ROWS] for lo in range(0, len(rows), _JSON_BLOCK_ROWS))
    return b"[" + b",".join(map(_int_rows_text, blocks)) + b"]"


def _int_rows_text(rows: np.ndarray) -> bytes:
    """The JSON lists of ``rows``, joined by commas. Every value is spelled
    right-aligned in a field as wide as the widest, and the padding bytes
    are dropped."""
    n, m = rows.shape
    negative = rows < 0
    magnitude = rows.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # |v| of any int64, modulo 2**64
    digits = np.ones(rows.shape, dtype=np.uint8)
    for place in range(1, 20):
        wider = magnitude >= np.uint64(10**place)
        if not wider.any():
            break
        digits += wider
    width = int((digits + negative).max(initial=1))
    # Each row: "[", m fields of width digit bytes and a "," (none after the
    # last), then "]" and ",". Zero bytes are padding.
    out = np.zeros((n, m * (width + 1) + 3), dtype=np.uint8)
    out[:, 0], out[:, -2], out[:, -1] = ord("["), ord("]"), ord(",")
    fields = out[:, 1:-2].reshape(n, m, width + 1)
    fields[:, :-1, width] = ord(",")
    for place in range(int(digits.max(initial=1))):
        digit = (magnitude // np.uint64(10**place) % np.uint64(10)).astype(np.uint8)
        fields[:, :, width - 1 - place] = np.where(place < digits, digit + ord("0"), 0)
    i, j = np.nonzero(negative)
    fields[i, j, width - 1 - digits[i, j]] = ord("-")
    return out[out != 0][:-1].tobytes()


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
            raise FormatError(
                f"{where}: key {key!r} must be {type_name(hint)}, got {type(doc[key]).__name__}"
            )


def type_name(hint) -> str:
    """A declared type as error messages spell it: ``list[str]``, ``int``."""
    return str(hint) if typing.get_origin(hint) else hint.__name__


def write_jsonl(path: Path, rows) -> None:
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    atomic_write_bytes(path, text.encode("utf-8"))


def read_jsonl(path: Path) -> list:
    """Parse one JSON value per non-blank line; errors name the file and line."""
    out = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            text = line.decode("utf-8").strip()
            if text:
                out.append(json.loads(text))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
    return out


def ids_path_for(path: Path) -> Path:
    path = Path(path)
    return path.with_suffix(".ids.jsonl")


def write_embeddings(path: Path, matrix: np.ndarray, ids: Sequence[str]) -> None:
    path = Path(path)
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise FormatError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    count, dim = matrix.shape
    if len(ids) != count:
        raise FormatError(f"{path}: {len(ids)} ids for {count} rows")
    _check_finite(path, matrix)
    header = _HEADER.pack(MAGIC, VERSION, count, dim)
    # One copy of the payload, not two (tobytes, then the concatenation).
    atomic_write_bytes(path, b"".join([header, matrix.reshape(-1).view(np.uint8)]))
    atomic_write_bytes(ids_path_for(path), _id_lines(ids))


def _check_finite(path: Path, matrix: np.ndarray) -> None:
    """Raise FormatError naming ``path`` and the first row of ``matrix`` that
    holds a NaN or an infinity. The minimum and the maximum, which both
    reach such a value, decide it with no full-size mask."""
    if matrix.size and not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
        row = np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0]
        raise FormatError(f"{path}: row {row} holds a non-finite value")


# Id lines filled in together from a template. It bounds a block's size.
_ID_CHUNK_LINES = 8192


def _id_lines(ids: Sequence[str]) -> bytes | bytearray:
    """The bytes of an id file: each line is
    ``json.dumps({"row": r, "id": i}, sort_keys=True)``, spelled out.

    :class:`NumberedIds` are filled into one buffer of the file's size from
    their template (see :func:`_numbered_id_lines`); any other ids are
    escaped and spelled one line at a time.
    """
    if isinstance(ids, NumberedIds):
        out, at = bytearray(_numbered_file_size(ids)), 0
        view = np.frombuffer(out, np.uint8)
        for block in _numbered_id_lines(ids):
            view[at : at + block.size] = block.reshape(-1)
            at += block.size
        return out
    quote = json.encoder.encode_basestring_ascii
    lines = [f'{{"id": {quote(i)}, "row": {r}}}\n' for r, i in enumerate(ids)]
    return "".join(lines).encode("ascii")


def _digit_groups(count: int) -> Iterator[tuple[int, int, int]]:
    """``(first row, end row, digits)`` of each run of the rows
    ``0 .. count - 1`` whose numbers have the same number of digits."""
    lo, digits = 0, 1
    while lo < count:
        hi = min(count, 10**digits)
        yield lo, hi, digits
        lo, digits = hi, digits + 1


def _numbered_line(ids: "NumberedIds", digits: int) -> bytes:
    """The id line of numbered ids for a row of ``digits`` digits, with every
    digit 0."""
    spelled = ids.prefix.encode("ascii") + b"0" * max(ids.width, digits)
    return b'{"id": "' + spelled + b'", "row": ' + b"0" * digits + b"}\n"


def _numbered_file_size(ids: "NumberedIds") -> int:
    return sum((hi - lo) * len(_numbered_line(ids, d)) for lo, hi, d in _digit_groups(len(ids)))


def _numbered_id_lines(ids: "NumberedIds") -> Iterator[np.ndarray]:
    """The lines of ``_id_lines`` of numbered ids, as [n x line length]
    uint8 blocks of at most ``_ID_CHUNK_LINES`` rows, from their template.

    Rows with the same number of digits have lines of one length, so each
    chunk of them is one block: the line's fixed bytes are broadcast into
    it, then each decimal place's digit column is written twice, once into
    the id and once into the row number (before the closing ``}\\n``).
    """
    for lo, hi, digits in _digit_groups(len(ids)):
        line = np.frombuffer(_numbered_line(ids, digits), np.uint8)
        id_end = len(line) - 12 - digits  # where the id's closing quote sits
        for start in range(lo, hi, _ID_CHUNK_LINES):
            block = np.empty((min(_ID_CHUNK_LINES, hi - start), len(line)), np.uint8)
            block[:] = line
            for place in range(digits):
                column = _place_digits(place, start, len(block))
                block[:, id_end - 1 - place] = column
                block[:, -3 - place] = column
            yield block


def _place_digits(place: int, lo: int, n: int) -> np.ndarray:
    """The ASCII digit at decimal ``place`` of each of the rows ``lo`` ..
    ``lo + n - 1``, ``0`` where a row has fewer digits.

    Down the rows the digit cycles through 0-9, each repeated ``10**place``
    times, so the column is a run of each digit the rows reach.
    """
    if n <= 0:
        return np.empty(0, np.uint8)
    run = 10**place
    first, skip = divmod(lo, run)
    runs = (skip + n + run - 1) // run
    lengths = np.full(runs, run)
    lengths[0] -= skip
    lengths[-1] -= runs * run - skip - n
    values = (np.arange(first, first + runs) % 10 + ord("0")).astype(np.uint8)
    return np.repeat(values, lengths)


def _array_rows(i: np.ndarray, count: int) -> list[int]:
    """The rows that an array of row numbers names among ``count`` ids, a
    negative one counted from the end; one out of range raises IndexError."""
    rows = i.tolist()
    if rows and not 0 <= min(rows) <= max(rows) < count:
        for r in rows:
            if not -count <= r < count:
                raise IndexError(f"row {r} out of range for {count} ids")
        rows = [r + count if r < 0 else r for r in rows]
    return rows


class NumberedIds(Sequence):
    """The ids ``f"{prefix}{r:0{width}d}"`` of rows ``0 .. count - 1``, held
    as that template; an id becomes a ``str`` only when it is read.

    Rows at ``10**width`` or above get more digits, as the f-string gives.
    It equals an equal template and a list (an :class:`IdList` too) of the
    same strings. The prefix must be printable ASCII other than ``"`` and
    ``\\``, so that its id lines need no escape.
    """

    def __init__(self, prefix: str, width: int, count: int):
        plain = prefix.isascii() and prefix.isprintable() and not {'"', "\\"} & set(prefix)
        if not plain:
            raise FormatError(f"id prefix {prefix!r} must be printable ASCII without \" or \\")
        if width < 0 or count < 0:
            raise FormatError(f"id width {width} and count {count} must be >= 0")
        self.prefix, self.width, self._count = prefix, width, count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        """The id at row ``i``; for a slice or an array of rows, a list of ids."""
        if isinstance(i, slice):
            return [self._spell(r) for r in range(*i.indices(self._count))]
        if isinstance(i, np.ndarray):
            return list(map(self._spell, _array_rows(i, self._count)))
        r = operator.index(i)
        if r < 0:
            r += self._count
        if not 0 <= r < self._count:
            raise IndexError(f"row {i} out of range for {self._count} ids")
        return self._spell(r)

    def _spell(self, r: int) -> str:
        return f"{self.prefix}{r:0{self.width}d}"

    def __iter__(self):
        return map(self._spell, range(self._count))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (NumberedIds, list)):
            return NotImplemented
        template = (self.prefix, self.width, len(self))
        if isinstance(other, NumberedIds) and template == (other.prefix, other.width, len(other)):
            return True  # no id spelled
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"NumberedIds({self.prefix!r}, {self.width}, {self._count})"

    def find(self, ids: list[str]) -> list[int | None]:
        """The row holding each of ``ids``, or None where no row holds it."""
        return list(map(self._row, ids))

    def _row(self, id: str) -> int | None:
        # The digits after the prefix name the row, and its spelling must be
        # the id. A run longer than any row's is not parsed: int() refuses
        # strings of thousands of digits.
        digits = id[len(self.prefix) :]
        longest = max(self.width, len(str(self._count)))
        if not (id.startswith(self.prefix) and 0 < len(digits) <= longest):
            return None
        if not (digits.isascii() and digits.isdigit()):
            return None
        r = int(digits)
        return r if r < self._count and self._spell(r) == id else None

    def first_repeat(self) -> None:
        """None: a template spells each row's id differently."""
        return None


class IdList(list):
    """Ids in row order, as a list of ``str`` that answers :meth:`find` and
    :meth:`first_repeat` as :class:`NumberedIds` does."""

    @classmethod
    def of(cls, ids) -> "IdList":
        """``ids``, any sequence of ``str``, as an IdList."""
        return ids if isinstance(ids, IdList) else cls(ids)

    def __getitem__(self, i):
        """The id at row ``i``; for a slice or an array of rows, a list of ids."""
        if isinstance(i, np.ndarray):
            return list(map(super().__getitem__, _array_rows(i, len(self))))
        return super().__getitem__(i)

    def find(self, ids: list[str]) -> list[int | None]:
        """The row holding each of ``ids``, or None where no row holds it;
        for an id held twice, its first row."""
        first: dict[str, int] = {}
        for r, id in enumerate(self):
            first.setdefault(id, r)
        return [first.get(id) for id in ids]

    def first_repeat(self) -> str | None:
        """The first id, in row order, that an earlier row also holds, or None."""
        seen: set[str] = set()
        for id in self:
            if id in seen:
                return id
            seen.add(id)
        return None


# The bytes around the id on the first line of an id file.
_FIRST_HEAD, _FIRST_TAIL = b'{"id": "', b'", "row": 0}\n'


def _numbered_ids(path: Path, count: int) -> NumberedIds | None:
    """The numbered ids whose id file is exactly the file at ``path``, or None.

    The template comes from the first line's id: its trailing zeros are the
    width, the rest is the prefix. The file is then compared with that
    template's :func:`_numbered_id_lines`, one block at a time.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        if not (first.startswith(_FIRST_HEAD) and first.endswith(_FIRST_TAIL)):
            return None
        first_id = first[len(_FIRST_HEAD) : -len(_FIRST_TAIL)]
        prefix = first_id.rstrip(b"0")
        try:
            ids = NumberedIds(prefix.decode("ascii"), len(first_id) - len(prefix), count)
        except (UnicodeDecodeError, FormatError):
            return None
        if os.fstat(fh.fileno()).st_size != _numbered_file_size(ids):
            return None
        fh.seek(0)
        for block in _numbered_id_lines(ids):
            if fh.read(block.nbytes) != block.tobytes():
                return None
    return ids


def _read_ids(path: Path, count: int) -> NumberedIds | IdList:
    """The ``count`` ids of an id file, in row order.

    A file that write_embeddings would write for numbered ids (see
    :func:`_numbered_ids`) is returned as those ids. Any other file goes
    through read_jsonl and the per-record checks, so every error keeps its
    text and line number.
    """
    numbered = _numbered_ids(path, count)
    if numbered is not None:
        return numbered
    rows = read_jsonl(path)
    if len(rows) != count:
        raise FormatError(f"{path}: {len(rows)} ids for {count} rows")
    ids = IdList()
    for r, row in enumerate(rows):
        if type(row) is not dict or len(row) != 2 or row.get("row") != r or "id" not in row:
            raise FormatError(f"{path}: malformed id record at line {r}")
        ids.append(str(row["id"]))
    return ids


def read_embeddings(path: Path) -> tuple[np.ndarray, NumberedIds | IdList]:
    """The matrix of an embedding file and the ids of its companion id file.

    The matrix maps the file's payload copy-on-write: no byte of it is
    copied or read ahead, writes to it stay private, and its pages leave the
    process with the array rather than staying in the heap. The program
    replaces files whole (``os.replace``), so a file never changes under a
    matrix that maps it. Finiteness is checked by the minimum and maximum,
    which NaN and inf both reach, with no full-size mask.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise FormatError(f"{path}: truncated header ({len(header)} bytes)")
            magic, version, count, dim = _HEADER.unpack(header)
            if magic != MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
            if version != VERSION:
                raise FormatError(f"{path}: unsupported format version {version}")
            if size != _HEADER.size + count * dim * 4:
                raise FormatError(
                    f"{path}: payload is {size - _HEADER.size} bytes, expected {count * dim * 4}"
                )
            payload = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_COPY)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read embedding file: {exc}") from exc
    matrix = np.frombuffer(payload, "<f4", count * dim, _HEADER.size).reshape(count, dim)
    _check_finite(path, matrix)

    idp = ids_path_for(path)
    if not idp.exists():
        raise FormatError(f"{idp}: companion id file is missing")
    return matrix, _read_ids(idp, count)


def read_embedding_pair(first: Path, second: Path) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of two embedding files whose rows pair up: the same ids
    in the same order, and rows of one width. Either mismatch raises
    FormatError naming both files."""
    first, second = Path(first), Path(second)
    a, a_ids = read_embeddings(first)
    b, b_ids = read_embeddings(second)
    if a_ids != b_ids:
        raise FormatError(f"{ids_path_for(first)} and {ids_path_for(second)} hold different ids")
    if a.shape[1] != b.shape[1]:
        raise FormatError(f"{first}: rows are {a.shape[1]}-d, {second} rows are {b.shape[1]}-d")
    return a, b
