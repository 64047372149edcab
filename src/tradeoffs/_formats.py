"""What the file formats share, without numpy.

The resolution names a trace's records may carry and the dimension of a
trace that names none; text read a line at a time from bytes or a text
stream; text written with the digest of its bytes, and the digest of a
file; and the CSVs of finite numbers: sweep curves and frontier samples.
``cache``, ``workload``, ``sim`` and ``cli`` take these from here, so a
command that reads a CSV, as ``fit`` and ``frontier`` do, never loads numpy.
``sim`` re-exports the curve names, which are its public API.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Sequence

from .errors import ParseError, _number

RESOLUTIONS: tuple[str, ...] = ("720p", "1080p", "2k")

DEFAULT_DIM = 768

GB = 1e9


def _opened(source):
    """A context manager over ``source``: a path is opened for reading as
    bytes and closed on exit; a stream is used as is and left open."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb")
    return contextlib.nullcontext(source)


_NOT_UTF8 = "not valid UTF-8"


def _lines(stream, size: float = math.inf) -> Iterator[tuple[int, str]]:
    """The lines of ``stream`` as text, numbered from 1; of a binary
    stream, only those in its next ``size`` bytes. Bytes are split where
    universal newlines split text (no UTF-8 sequence holds a CR or LF
    byte), and each line is decoded as strict UTF-8 on its own: one that
    does not decode is a :class:`ParseError` on its line. A text stream
    decodes itself, reading ahead, so its decode error names no line."""
    lineno = 0
    try:
        for chunk in stream:
            # Most lines hold no CR, and splitlines would copy them.
            lines = chunk.splitlines() if isinstance(chunk, bytes) and b"\r" in chunk else (chunk,)
            for line in lines:
                lineno += 1
                try:
                    yield lineno, line if isinstance(line, str) else line.decode("utf-8")
                except UnicodeDecodeError:
                    raise ParseError(_NOT_UTF8, line_number=lineno) from None
            size -= len(chunk)
            if size <= 0:
                return
    except UnicodeDecodeError:  # from a text stream's decoder
        raise ParseError(_NOT_UTF8) from None


# Text is written in slices of this many characters, so a path's encoder
# never holds a second, encoded copy of a whole trace.
_WRITE_SLICE = 1 << 20


def _write_text(dest: str | os.PathLike | IO, text: str) -> str | None:
    """Write ``text`` to a text stream, or to a path as UTF-8; for a path,
    return the SHA-256 (hex) of the bytes written."""
    slices = (text[start : start + _WRITE_SLICE] for start in range(0, len(text), _WRITE_SLICE))
    if not isinstance(dest, (str, os.PathLike)):
        dest.writelines(slices)
        return None
    digest = hashlib.sha256()
    with open(dest, "wb") as f:
        for part in slices:
            data = part.encode("utf-8")
            digest.update(data)
            f.write(data)
    return digest.hexdigest()


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    buf = bytearray(1 << 20)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            digest.update(memoryview(buf)[:n])
    return digest.hexdigest()


def _read_float_csv(source: str | os.PathLike | IO, header: str, record: Callable) -> list:
    """``record(*values)`` for each row of a CSV of finite numbers under
    the exact line ``header``.

    Lines are read as ``_lines`` reads them, and blank ones are skipped.
    Raises :class:`ParseError` with the 1-based physical line number for
    a line that is not UTF-8, a missing or wrong header, a row whose
    column count differs from the header's, a value that is not a
    finite number, or a row that ``record`` rejects with ``ValueError``.
    """
    width = header.count(",") + 1
    records = []
    with _opened(source) as stream:
        lines = ((n, ln.strip()) for n, ln in _lines(stream) if ln.strip())
        lineno, first = next(lines, (1, ""))
        if first != header:
            raise ParseError(f"expected header {header!r}", line_number=lineno)
        for lineno, line in lines:
            parts = line.split(",")
            if len(parts) != width:
                raise ParseError(
                    f"expected {width} comma-separated values, got {len(parts)}",
                    line_number=lineno,
                )
            try:
                row = [float(v) for v in parts]
            except ValueError:
                raise ParseError("non-numeric value", line_number=lineno) from None
            if not all(map(math.isfinite, row)):
                raise ParseError("values must be finite", line_number=lineno)
            try:
                records.append(record(*row))
            except ValueError as e:  # a finite value out of its column's range
                raise ParseError(str(e), line_number=lineno) from None
    return records


# ---------------------------------------------------------------------------
# Curve CSV
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    """One sweep row; saved/expected FLOPs are trace totals.

    Raises ``ValueError`` for a capacity that is negative or not finite,
    a hit rate outside [0, 1], or FLOPs that are not finite.
    """

    capacity_bytes: int
    hit_rate: float
    saved_flops: float
    expected_cost_flops: float

    def __post_init__(self):
        _number(self.capacity_bytes, "capacity", 0)
        if not 0.0 <= self.hit_rate <= 1.0:
            raise ValueError("hit rate must lie in [0, 1]")
        _number(self.saved_flops, "saved_flops")
        _number(self.expected_cost_flops, "expected_cost_flops")

    @property
    def capacity_gb(self) -> float:
        return self.capacity_bytes / GB


# The attributes of a CurvePoint that the CSV and ``tradeoffs sweep`` write.
CURVE_COLUMNS = ("capacity_gb", "hit_rate", "saved_flops", "expected_cost_flops")
CURVE_CSV_HEADER = ",".join(CURVE_COLUMNS)


def curve_to_csv(curve: Sequence[CurvePoint]) -> str:
    """Render sweep rows as CSV with shortest-round-trip floats."""
    lines = [CURVE_CSV_HEADER]
    for p in curve:
        lines.append(",".join(repr(getattr(p, name)) for name in CURVE_COLUMNS))
    return "\n".join(lines) + "\n"


def write_curve_csv(curve: Sequence[CurvePoint], dest: str | os.PathLike | IO) -> str | None:
    """Write ``curve_to_csv(curve)`` to a path or text stream; return the
    SHA-256 (hex) of the bytes written to a path, or None for a stream."""
    return _write_text(dest, curve_to_csv(curve))


def _curve_row(cap_gb: float, hit: float, saved: float, cost: float) -> CurvePoint:
    # A capacity finite in GB can leave float range in bytes.
    return CurvePoint(round(_number(cap_gb * GB, "capacity_bytes")), hit, saved, cost)


def read_curve_csv(source: str | os.PathLike | IO) -> list[CurvePoint]:
    """Parse curve CSV back into points; inverse of ``curve_to_csv``.

    Raises :class:`ParseError` with its line number for a wrong header,
    a row without exactly four values, a value that is not a finite
    number, a negative capacity or one too large to count in bytes, or a
    hit rate outside [0, 1].
    """
    return _read_float_csv(source, CURVE_CSV_HEADER, _curve_row)
