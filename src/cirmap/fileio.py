"""Binary embedding files, JSON/JSONL helpers, and atomic writes.

Embedding file layout (little-endian):

    magic   4 bytes  b"DEGE"
    version u32      currently 1
    count   u64      number of rows
    dim     u32      row width
    payload count*dim float32 values, row-major

Each embedding file has a companion JSONL id file (same path with the
suffix ``.ids.jsonl``), one ``{"id": ..., "row": r}`` object per line, rows
in order. Every value must be finite.

write_embeddings spells each id line out canonically as
``{"id": "<id>", "row": <r>}`` and a newline, the id escaped as
``json.dumps`` escapes it (ASCII only) and ``r`` in plain decimal. Numbered
ids (:class:`NumberedIds`, a prefix and a zero-padded row number) are
written from their template by a few numpy passes per chunk of rows; no
string is made per row. A file whose ids are all printable ASCII other than
``"`` and ``\\`` is read in one pass: a few numpy passes over its bytes
check every line's template, row number and id bytes, and the ids stay in
the file's bytes as an :class:`IdList`. Any other file is parsed line by
line.
"""

from __future__ import annotations

import json
import json.scanner
import mmap
import operator
import os
import struct
import tempfile
import typing
from collections.abc import Sequence
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


def write_embeddings(path: Path, matrix: np.ndarray, ids: Sequence[str]) -> None:
    path = Path(path)
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise FormatError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    count, dim = matrix.shape
    if len(ids) != count:
        raise FormatError(f"{path}: {len(ids)} ids for {count} rows")
    header = _HEADER.pack(MAGIC, VERSION, count, dim)
    # One copy of the payload, not two (tobytes, then the concatenation).
    atomic_write_bytes(path, b"".join([header, matrix.reshape(-1).view(np.uint8)]))
    atomic_write_bytes(ids_path_for(path), _id_lines(ids))


# Id lines made together: spelled out and encoded from a list of ids, or
# filled in from a template. It bounds the live line strings, whose heap
# would otherwise grow by some 75 bytes per row, and a template's digit
# columns.
_ID_CHUNK_LINES = 8192


def _id_lines(ids: Sequence[str]) -> bytes | bytearray:
    """The bytes of an id file: each line is
    ``json.dumps({"row": r, "id": i}, sort_keys=True)``, spelled out.

    :class:`NumberedIds` are filled into one buffer of the file's size from
    their template (see :func:`_numbered_id_lines`); any other ids are
    escaped and spelled one line at a time.
    """
    if isinstance(ids, NumberedIds):
        return _numbered_id_lines(ids)
    quote = json.encoder.encode_basestring_ascii
    return b"".join(
        "".join(
            [
                f'{{"id": {quote(i)}, "row": {r}}}\n'
                for r, i in enumerate(ids[lo : lo + _ID_CHUNK_LINES], start=lo)
            ]
        ).encode("ascii")
        for lo in range(0, len(ids), _ID_CHUNK_LINES)
    )


def _numbered_id_lines(ids: "NumberedIds") -> bytearray:
    """``_id_lines`` of numbered ids, from their template.

    Rows with the same number of digits have lines of one length, so each
    chunk of them is a 2-D block of the output: the line's fixed bytes are
    broadcast into it, then each decimal place's digit column is written
    twice, once into the id and once into the row number.
    """
    head = b'{"id": "' + ids.prefix.encode("ascii")
    groups, lo, digits = [], 0, 1  # (first row, end row, digits) per line length
    while lo < len(ids):
        hi = min(len(ids), 10**digits)
        groups.append((lo, hi, digits))
        lo, digits = hi, digits + 1
    lines = [
        head + b"0" * max(ids.width, digits) + b'", "row": ' + b"0" * digits + b"}\n"
        for _, _, digits in groups
    ]
    out = bytearray(sum((hi - lo) * len(line) for (lo, hi, _), line in zip(groups, lines)))
    view, at = np.frombuffer(out, np.uint8), 0
    for (lo, hi, digits), line in zip(groups, lines):
        size, id_end = len(line), len(head) + max(ids.width, digits)
        for start in range(lo, hi, _ID_CHUNK_LINES):
            n = min(_ID_CHUNK_LINES, hi - start)
            block = view[at : at + n * size].reshape(n, size)
            block[:] = np.frombuffer(line, np.uint8)
            for place in range(digits):
                column = _place_digits(place, start, n)
                block[:, id_end - 1 - place] = column
                block[:, size - 3 - place] = column  # before the "}\n"
            at += n * size
    return out


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


class NumberedIds(Sequence):
    """The ids ``f"{prefix}{r:0{width}d}"`` of rows ``0 .. count - 1``, held
    as that template; an id becomes a ``str`` only when it is read.

    Rows at ``10**width`` or above get more digits, as the f-string gives.
    It equals an equal template and a list of the same strings. The prefix
    must be printable ASCII other than ``"`` and ``\\``, so that its id lines
    need no escape.
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
        """The id at row ``i``; for a slice, a list of ids."""
        if isinstance(i, slice):
            return [self._spell(r) for r in range(*i.indices(self._count))]
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
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"NumberedIds({self.prefix!r}, {self.width}, {self._count})"


# Ids in the index are keyed by at most this many leading UTF-8 bytes, so the
# index holds at most this many bytes per row; ids whose keys are equal are
# told apart by their exact text.
_ID_KEY_BYTES = 64


class IdList(Sequence):
    """Ids in row order, held as one UTF-8 buffer and each id's byte span;
    an id becomes a ``str`` only when it is read.

    A sorted index of the ids' keys answers :meth:`find` and
    :meth:`first_repeat` with a binary search and a comparison of neighbours,
    and gives ``ranks``, each row's place in the order of the exact ids. The
    exact ids are compared only where two keys are equal. Lone surrogates,
    which JSON escapes can produce, are kept with ``surrogatepass``.
    """

    def __init__(self, buf: bytes, starts: np.ndarray, ends: np.ndarray):
        self._buf, self._starts, self._ends = buf, starts, ends
        lens = ends - starts
        width = int(min(lens.max(initial=1), _ID_KEY_BYTES))
        if len(starts) and int(starts.max()) + width > len(buf):
            buf = buf + bytes(width)
        # Every id's first ``width`` bytes, as overlapping fixed-width windows
        # of the buffer; bytes past an id's end are zeroed.
        windows = np.ndarray((len(buf) - width + 1,), f"S{width}", buf, strides=(1,))
        keys = windows[starts]
        keys.view(np.uint8).reshape(-1, width)[np.arange(width) >= lens[:, None]] = 0
        order = np.argsort(keys, kind="stable")
        self._order, self._sorted = order, keys[order]
        # Places in the sorted keys whose key equals the next one's.
        self._same = np.flatnonzero(self._sorted[1:] == self._sorted[:-1])
        self.ranks = np.empty(len(order), np.intp)
        self.ranks[order] = np.arange(len(order))
        for run in np.split(self._same, np.flatnonzero(np.diff(self._same) > 1) + 1):
            if len(run):
                at = np.arange(run[0], run[-1] + 2)
                self.ranks[sorted(order[at].tolist(), key=self.__getitem__)] = at

    @classmethod
    def of(cls, ids) -> "IdList":
        """``ids``, any sequence of ``str``, as an IdList."""
        if isinstance(ids, IdList):
            return ids
        encoded = [i.encode("utf-8", "surrogatepass") for i in ids]
        lens = np.fromiter(map(len, encoded), np.intp, len(encoded))
        ends = lens.cumsum()
        return cls(b"".join(encoded), ends - lens, ends)

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i):
        """The id at row ``i``; for a slice or an array of rows, a list of ids."""
        starts, ends = self._starts[i], self._ends[i]
        if isinstance(i, (int, np.integer)):
            return self._buf[starts:ends].decode("utf-8", "surrogatepass")
        return [
            self._buf[start:end].decode("utf-8", "surrogatepass")
            for start, end in zip(starts.tolist(), ends.tolist())
        ]

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (IdList, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"IdList({list(self)!r})"

    def find(self, ids: list[str]) -> list[int | None]:
        """The row holding each of ``ids``, or None where no row holds it;
        for an id held twice, its first row."""
        width = self._sorted.itemsize
        keys = np.array([i.encode("utf-8", "surrogatepass")[:width] for i in ids], f"S{width}")
        los = np.searchsorted(self._sorted, keys, side="left").tolist()
        his = np.searchsorted(self._sorted, keys, side="right").tolist()
        # A stable sort keeps the rows of equal keys in row order.
        return [
            next((r for r in self._order[lo:hi].tolist() if self[r] == i), None)
            for i, lo, hi in zip(ids, los, his)
        ]

    def first_repeat(self) -> str | None:
        """The first id, in row order, that an earlier row also holds, or None."""
        seen: set[str] = set()
        for r in np.union1d(self._order[self._same], self._order[self._same + 1]).tolist():
            id = self[r]
            if id in seen:
                return id
            seen.add(id)
        return None


# The fixed bytes of a line of an id file: {"id": "<id>", "row": <row>}\n.
_ID_HEAD = np.frombuffer(b'{"id": "', "<u8")[0]
_ID_MID = np.frombuffer(b'", "row": ', np.uint8)
_ID_MID_LO, _ID_MID_HI = _ID_MID[:8].view("<u8")[0], _ID_MID[2:].view("<u8")[0]
# Bytes of an id file per pass of the byte scan. It bounds the scan's
# temporaries, which would otherwise grow the heap by a file's size.
_SCAN_BYTES = 1 << 18


def _canonical_id_spans(raw: bytes, count: int):
    """The byte spans (starts, ends) of the ids in ``raw`` if it is exactly
    ``_id_lines(ids)`` of ``count`` ids in printable ASCII other than ``"``
    and ``\\``, else None. A few numpy passes over the bytes decide it.
    """
    if not count:
        return (np.empty(0, np.intp),) * 2 if not raw else None
    if not raw.isascii() or b"\\" in raw or b"\x7f" in raw:
        return None
    data = np.frombuffer(raw, np.uint8)
    controls = quotes = 0
    ends_nl = []
    for at in range(0, len(raw), _SCAN_BYTES):
        block = data[at : at + _SCAN_BYTES]
        controls += np.count_nonzero(block < 0x20)
        quotes += np.count_nonzero(block == 0x22)
        ends_nl.append(np.flatnonzero(block == 0x0A) + at)
    # Line ends are the only control bytes, and each line has six quotes.
    if controls != count or quotes != 6 * count:
        return None
    ends_nl = np.concatenate(ends_nl)
    if len(ends_nl) != count or ends_nl[-1] != len(raw) - 1:
        return None
    starts = np.concatenate(([0], ends_nl[:-1] + 1))
    digits = np.searchsorted(10 ** np.arange(1, 19), np.arange(count), side="right") + 1
    id_ends = ends_nl - 11 - digits  # where the id's closing quote must be
    if not (id_ends >= starts + 8).all():
        return None
    # The head, the middle and the row number sit at offsets that the line's
    # start and end and its row number fix. The head and the middle hold six
    # quotes, so no id holds one.
    words = np.ndarray((len(raw) - 7,), "<u8", raw, strides=(1,))
    if not (
        (words[starts] == _ID_HEAD).all()
        and (words[id_ends] == _ID_MID_LO).all()
        and (words[id_ends + 2] == _ID_MID_HI).all()
        and (data[ends_nl - 1] == ord("}")).all()
    ):
        return None
    # Rows below 10**place have no digit at that place.
    for place in range(int(digits[-1])):
        low = 10**place if place else 0
        expected = _place_digits(place, low, count - low)
        if not (data[ends_nl[low:] - (2 + place)] == expected).all():
            return None
    return starts + 8, id_ends


def _read_ids(path: Path, count: int) -> IdList:
    """The ``count`` ids of an id file, in row order.

    A file in write_embeddings' own form with printable-ASCII ids (see
    :func:`_canonical_id_spans`) is taken as it is. Any other file goes
    through read_jsonl and the per-record checks, so every error keeps its
    text and line number.
    """
    raw = path.read_bytes()
    spans = _canonical_id_spans(raw, count)
    if spans is not None:
        return IdList(raw, *spans)
    rows = read_jsonl(path)
    if len(rows) != count:
        raise FormatError(f"{path}: {len(rows)} ids for {count} rows")
    ids = []
    for r, row in enumerate(rows):
        if type(row) is not dict or len(row) != 2 or row.get("row") != r or "id" not in row:
            raise FormatError(f"{path}: malformed id record at line {r}")
        ids.append(str(row["id"]))
    return IdList.of(ids)


def read_embeddings(path: Path) -> tuple[np.ndarray, IdList]:
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
    if matrix.size and not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
        row = np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0]
        raise FormatError(f"{path}: row {row} holds a non-finite value")

    idp = ids_path_for(path)
    if not idp.exists():
        raise FormatError(f"{idp}: companion id file is missing")
    return matrix, _read_ids(idp, count)
