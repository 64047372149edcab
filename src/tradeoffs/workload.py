"""Request traces: file ingest and synthetic clustered generation.

A trace is a timestamp-ordered sequence of (embedding, resolution)
requests. On disk it is UTF-8 JSON-lines: an optional first header line
``{"dim": D}`` followed by one record per line with keys ``ts`` (integer
milliseconds), ``id`` (string), ``res`` (one of "720p"|"1080p"|"2k"),
and ``emb`` (array of decimals of length D). Without a header the
dimension comes from the first record. A trace saved to a path also
gets a sidecar cache of its columns; see ``save_trace``.

The generator synthesizes request streams with tunable repetition:
cluster centers drawn uniformly on the unit sphere, cluster popularity
Zipf-distributed over popularity rank, and per-request isotropic noise
re-normalized onto the sphere. Randomness comes from NumPy's
``default_rng`` (the PCG64 bit generator), so a fixed seed reproduces
traces bit-for-bit across runs on one platform and numpy version; the
draw order (centers, then cluster assignments, then noise, then
resolutions) is part of the format contract and must not be reordered.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import IO, Callable, Mapping, Sequence

import numpy as np

from ._forkmap import fork_map, fork_workers
from .cache import DEFAULT_DIM, RESOLUTIONS
from .errors import (
    DimensionMismatch,
    NonFiniteEmbedding,
    ParseError,
    TradeoffError,
    ZeroNormEmbedding,
)

__all__ = [
    "Trace",
    "GeneratorConfig",
    "load_trace",
    "serialize_trace",
    "save_trace",
    "generate_trace",
]


class Trace:
    """Immutable timestamp-ordered request sequence, stored columnar.

    Embeddings are kept as one (n, dim) float64 matrix so replay can
    hand contiguous rows to the cache. Construction stably sorts by
    timestamp (input order breaks ties; rows already in order are not
    moved) and unit-normalizes every embedding; vectors already
    unit-norm within 1e-9 are passed through bit-for-bit, which makes
    save/load a round trip. A trace of no rows holds a (0, dimension)
    matrix, whatever the width of the empty input.
    Raises :class:`ZeroNormEmbedding` for a zero embedding,
    :class:`NonFiniteEmbedding` for one whose norm is NaN or infinite,
    and ``ValueError`` for a ``dimension`` below 1.

    ``source_sha256`` is the SHA-256 (hex) of the file :func:`load_trace`
    read the trace from when it checked a sidecar against it, and None
    for any other trace; equality ignores it.
    """

    source_sha256: str | None = None

    def __init__(
        self,
        timestamps,
        request_ids: Sequence[str],
        resolutions: Sequence[str],
        embeddings,
        dimension: int | None = None,
    ):
        if dimension is not None and dimension < 1:
            raise ValueError("dimension must be at least 1")
        ts = np.array(timestamps, dtype=np.int64)  # a copy: it is frozen below
        emb = np.array(embeddings, dtype=np.float64)
        if emb.ndim == 1 and emb.size == 0:
            emb = emb.reshape(0, 0)  # no rows; given the trace's width below
        if emb.ndim != 2:
            raise DimensionMismatch(f"embeddings must be 2-d, got shape {emb.shape}")
        n = ts.shape[0]
        if not (len(request_ids) == len(resolutions) == emb.shape[0] == n):
            raise ValueError("column lengths disagree")
        if dimension is not None and n > 0 and emb.shape[1] != dimension:
            raise DimensionMismatch(
                f"expected dimension {dimension}, got {emb.shape[1]}"
            )
        self.dimension = int(dimension if dimension is not None else (emb.shape[1] if n else DEFAULT_DIM))
        if not n:
            # No row fixes the width: the matrix takes the trace's
            # dimension, as a parse of the trace's file gives it.
            emb = emb.reshape(0, self.dimension)
        for r in resolutions:
            if r not in RESOLUTIONS:
                raise ValueError(f"unknown resolution {r!r}")

        if n:
            norms = np.linalg.norm(emb, axis=1)
            if not np.isfinite(norms).all():
                bad = int(np.argmin(np.isfinite(norms)))
                raise NonFiniteEmbedding(f"request {request_ids[bad]!r} has a non-finite norm")
            if np.any(norms == 0.0):
                bad = int(np.argmax(norms == 0.0))
                raise ZeroNormEmbedding(f"request {request_ids[bad]!r} has a zero embedding")
            off = np.abs(norms - 1.0) > 1e-9
            if np.any(off):
                emb[off] /= norms[off, None]
            # The stable sort is the identity on timestamps already in
            # order, as every generated and saved trace's are.
            if (ts[1:] < ts[:-1]).any():
                order = np.argsort(ts, kind="stable")
                ts = ts[order]
                emb = emb[order]
                request_ids = [request_ids[i] for i in order]
                resolutions = [resolutions[i] for i in order]

        self.timestamps = ts
        self.request_ids = tuple(request_ids)
        self.resolutions = tuple(resolutions)
        self.embeddings = emb
        self.embeddings.setflags(write=False)
        self.timestamps.setflags(write=False)

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and np.array_equal(self.timestamps, other.timestamps)
            and self.request_ids == other.request_ids
            and self.resolutions == other.resolutions
            and np.array_equal(self.embeddings, other.embeddings)
        )


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic workload generator.

    ``zipf_exponent`` = 0 makes clusters equally popular; larger values
    concentrate requests on the top-ranked clusters. ``noise_sigma`` is
    the ambient-space noise scale before re-normalization; 0 collapses
    each cluster to a point mass.
    """

    num_requests: int
    num_clusters: int
    dimension: int = DEFAULT_DIM
    zipf_exponent: float = 1.1
    noise_sigma: float = 0.05
    resolution_mix: Mapping[str, float] = field(default_factory=lambda: {"720p": 1.0})
    seed: int = 0

    def __post_init__(self):
        if self.num_requests < 0:
            raise ValueError("num_requests must be nonnegative")
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be at least 1")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not 0 <= self.zipf_exponent < math.inf:
            raise ValueError("zipf_exponent must be finite and nonnegative")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and nonnegative")
        mix = dict(self.resolution_mix)
        if not mix:
            raise ValueError("resolution_mix must be non-empty")
        for res, p in mix.items():
            if res not in RESOLUTIONS:
                raise ValueError(f"unknown resolution {res!r}")
            if not 0 <= p < math.inf:
                raise ValueError("resolution probabilities must be finite and nonnegative")
        if abs(sum(mix.values()) - 1.0) > 1e-9:
            raise ValueError("resolution_mix probabilities must sum to 1")
        object.__setattr__(self, "resolution_mix", mix)


def _open_text(source):
    """A context manager over ``source``: a path is opened for reading as
    UTF-8 text and closed on exit; a stream is used as is and left open."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, encoding="utf-8")
    return contextlib.nullcontext(source)


_NOT_UTF8 = "not valid UTF-8"
_JSON_NUMBERS = frozenset({int, float})
# Trace I/O runs in one share per CPU once a trace holds more embedding
# values than this. Splitting costs about 10-13 ms on 2 CPUs (a fork, and
# the share's result sent back); a value takes about 0.25 us to format
# and 0.6 us to parse, so parsing gains from about 2^16 values on, and
# formatting breaks even between 2^16 and 2^17.
_SPLIT_MIN_VALUES = 1 << 16


def _share_count(values: int) -> int:
    """How many shares to split the I/O of ``values`` embedding values into."""
    return fork_workers() if values > _SPLIT_MIN_VALUES else 1


def _numbered_lines(stream, start: int = 1):
    """``enumerate(stream, start)``, raising :class:`ParseError` for text that
    does not decode. It has no line number: the decoder reads ahead in
    chunks, so the failing line is not the one being counted."""
    try:
        yield from enumerate(stream, start)
    except UnicodeDecodeError:
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


def _read_float_csv(source: str | os.PathLike | IO, header: str, record: Callable) -> list:
    """``record(*values)`` for each row of a CSV of finite numbers under
    the exact line ``header``.

    Blank lines are skipped. Raises :class:`ParseError` with the 1-based
    physical line number for a missing or wrong header, a row whose
    column count differs from the header's, a value that is not a
    finite number, or a row that ``record`` rejects with ``ValueError``.
    """
    width = header.count(",") + 1
    records = []
    with _open_text(source) as stream:
        lines = ((n, ln.strip()) for n, ln in _numbered_lines(stream) if ln.strip())
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


class _Records:
    """The columns of parsed trace lines, each record with its line number.

    ``dim`` is the dimension every record must have, or None until a
    header or the first record fixes it. ``headers`` is False for a share
    of a file that starts after its first record, where a header is out
    of place. ``lines`` is the number of the last line read.
    """

    def __init__(self, dim: int | None, headers: bool = True):
        self.dim = dim
        self.headers = headers
        self.ts, self.ids, self.res, self.embs, self.linenos = [], [], [], [], []
        self.lines = 0

    def read(self, numbered_lines) -> None:
        """Parse ``(line number, line)`` pairs, raising on the first bad line."""
        ts, ids, res, embs, linenos = self.ts, self.ids, self.res, self.embs, self.linenos
        dim = self.dim
        for lineno, line in numbered_lines:
            self.lines = lineno
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"invalid JSON: {e.msg}", line_number=lineno) from None
            except UnicodeDecodeError:  # a byte stream's line
                raise ParseError(_NOT_UTF8, line_number=lineno) from None
            if not isinstance(obj, dict):
                raise ParseError("record must be a JSON object", line_number=lineno)
            if "dim" in obj and "ts" not in obj:
                # Header line; legal only before any record.
                if ts or not self.headers:
                    raise ParseError("header after records", line_number=lineno)
                if not isinstance(obj["dim"], int) or obj["dim"] < 1:
                    raise ParseError("dim must be a positive integer", line_number=lineno)
                if dim is not None and obj["dim"] != dim:
                    raise DimensionMismatch(
                        f"header dim {obj['dim']} != expected {dim}"
                    )
                dim = self.dim = obj["dim"]
                continue
            missing = {"ts", "id", "res", "emb"} - obj.keys()
            if missing:
                raise ParseError(
                    f"missing keys: {', '.join(sorted(missing))}", line_number=lineno
                )
            if not isinstance(obj["ts"], int) or isinstance(obj["ts"], bool):
                raise ParseError("ts must be an integer", line_number=lineno)
            if not isinstance(obj["id"], str):
                raise ParseError("id must be a string", line_number=lineno)
            if obj["res"] not in RESOLUTIONS:
                raise ParseError(f"unknown resolution {obj['res']!r}", line_number=lineno)
            emb = obj["emb"]
            # json.loads makes only these number types; bool is its own type.
            if not isinstance(emb, list) or not set(map(type, emb)) <= _JSON_NUMBERS:
                raise ParseError("emb must be an array of numbers", line_number=lineno)
            if dim is None:
                dim = self.dim = len(emb)
            if len(emb) != dim:
                raise DimensionMismatch(
                    f"line {lineno}: embedding has {len(emb)} values, expected {dim}"
                )
            try:
                embs.append(np.array(emb, dtype=np.float64))
            except OverflowError:  # an integer beyond float64 range
                raise ParseError("emb values must be finite", line_number=lineno) from None
            ts.append(obj["ts"])
            ids.append(obj["id"])
            res.append(obj["res"])
            linenos.append(lineno)

    def columns(self) -> tuple:
        """``(ts, ids, res, embedding matrix, line numbers, lines)``."""
        emb = np.stack(self.embs) if self.embs else np.zeros((0, self.dim or DEFAULT_DIM))
        return self.ts, self.ids, self.res, emb, self.linenos, self.lines


def _trace_of(parts: list[tuple], dim: int | None) -> Trace:
    """The trace of ``(ts, ids, res, embedding matrix, line numbers)``
    parts in file order; a non-finite value is a :class:`ParseError` on
    the line of the first record that holds one."""
    ts, ids, res, linenos = ([x for part in parts for x in part[i]] for i in (0, 1, 2, 4))
    embs = parts[0][3] if len(parts) == 1 else np.concatenate([part[3] for part in parts])
    finite = np.isfinite(embs).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ParseError("emb values must be finite", line_number=linenos[bad])
    return Trace(ts, ids, res, embs, dimension=dim or DEFAULT_DIM)


class _ByteRange(io.RawIOBase):
    """The next ``size`` bytes of an unbuffered binary file."""

    def __init__(self, raw: io.RawIOBase, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._raw.readinto(memoryview(buf)[: self._left])
        self._left -= n
        return n


def _utf8_lines(buffered) -> io.TextIOWrapper:
    # The decoding and universal newlines of open(path, "r", encoding="utf-8").
    return io.TextIOWrapper(buffered, encoding="utf-8")


def _read_share(path, dim: int, start: int, stop: int, first_line: int = 1) -> _Records:
    """Parse bytes ``[start, stop)`` of a trace file that come after its
    first record, numbering their lines from ``first_line``."""
    records = _Records(dim, headers=False)
    with open(path, "rb", buffering=0) as raw:
        raw.seek(start)
        lines = _utf8_lines(io.BufferedReader(_ByteRange(raw, stop - start)))
        records.read(_numbered_lines(lines, first_line))
    return records


def _share_columns(path, dim: int, share: tuple[int, int]) -> tuple | None:
    """A share's columns, with lines numbered from 1 within the share, or
    None if it holds an error (its parent raises it; see ``_parse_file``)."""
    try:
        return _read_share(path, dim, *share).columns()
    except TradeoffError:
        return None


def _parse_file(path, dimension: int | None) -> Trace:
    """``load_trace`` of a regular file, parsed in shares.

    The header or first record is read here and fixes the dimension. The
    rest of the file is cut after a newline into one share per worker,
    and each share is parsed by ``_share_columns``. A share that holds an
    error is parsed again here with its absolute line numbers, so the
    first error in file order is raised as one pass over the file raises
    it.
    """
    head = _Records(dimension)
    with open(path, "rb") as f:
        first = b""
        while not head.ts:
            first = f.readline()
            if not first:
                break
            head.read(_numbered_lines(_utf8_lines(io.BytesIO(first)), head.lines + 1))
        start, size = f.tell(), os.fstat(f.fileno()).st_size
        ways = _share_count(head.dim * (size - start) // len(first)) if head.ts else 1
        cuts = [start]
        for i in range(1, ways):
            f.seek(start + (size - start) * i // ways)
            f.readline()
            cuts.append(f.tell())
        cuts.append(size)
    shares = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    parts = fork_map(functools.partial(_share_columns, path, head.dim), shares, ways)

    out, offset = [head.columns()], head.lines
    for (a, b), part in zip(shares, parts):
        if part is None:
            # Parse the share again, its lines numbered from where it
            # starts in the file, to raise its error on the right line.
            _read_share(path, head.dim, a, b, offset + 1)
            raise ParseError("trace file changed while it was read")
        ts, ids, res, emb, linenos, lines = part
        out.append((ts, ids, res, emb, [offset + n for n in linenos]))
        offset += lines
    return _trace_of(out, head.dim)


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    buf = bytearray(1 << 20)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            digest.update(memoryview(buf)[:n])
    return digest.hexdigest()


# ``save_trace`` keeps the columns of a trace it writes to a path in a
# sidecar next to it, with the SHA-256 of the bytes written. A load of the
# path reads the sidecar instead of parsing the JSON only while that
# digest is the file's, so the sidecar never needs invalidating.
_SIDECAR_SUFFIX = ".cache.npz"
_SIDECAR_VERSION = 1


def _write_sidecar(trace: Trace, path, digest: str) -> None:
    """Save ``trace`` as the sidecar of ``path``, whose bytes hash to
    ``digest``; the sidecar is replaced whole, never seen half written."""
    ids = [rid.encode("utf-8", "surrogatepass") for rid in trace.request_ids]
    code = {res: i for i, res in enumerate(RESOLUTIONS)}
    columns = {
        "version": np.array(_SIDECAR_VERSION),
        "sha256": np.array(digest),
        "dimension": np.array(trace.dimension),
        "timestamps": trace.timestamps,
        "embeddings": trace.embeddings,
        "resolutions": np.array([code[res] for res in trace.resolutions], dtype=np.int8),
        "ids": np.frombuffer(b"".join(ids), dtype=np.uint8),
        "id_offsets": np.cumsum([0, *map(len, ids)], dtype=np.int64),
    }
    sidecar = os.fspath(path) + _SIDECAR_SUFFIX
    partial = f"{sidecar}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as f:
            np.savez(f, **columns)
        os.replace(partial, sidecar)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)


# What reading a missing, damaged, foreign or older sidecar raises: a
# member's CRC is checked once it has been read to its end, so damage to
# the data is a BadZipFile too.
_UNREADABLE = (OSError, EOFError, RuntimeError, KeyError, ValueError, zipfile.BadZipFile)


def _read_sidecar(path, digest: str, dimension: int | None) -> Trace | None:
    """The trace in the sidecar of ``path`` if it was saved for bytes
    that hash to ``digest`` and, when ``dimension`` is given, has that
    dimension; otherwise None."""
    try:
        with zipfile.ZipFile(os.fspath(path) + _SIDECAR_SUFFIX) as zf:

            def column(name: str) -> np.ndarray:
                with zf.open(name + ".npy") as f:
                    return np.lib.format.read_array(f, allow_pickle=False)

            if column("version").item() != _SIDECAR_VERSION or column("sha256").item() != digest:
                return None
            dim = column("dimension").item()
            if dimension is not None and dimension != dim:
                return None
            names = ("timestamps", "ids", "id_offsets", "resolutions", "embeddings")
            ts, ids, offsets, codes, emb = map(column, names)
    except _UNREADABLE:
        return None
    ids, offsets = ids.tobytes(), offsets.tolist()
    return Trace(
        ts,
        [ids[a:b].decode("utf-8", "surrogatepass") for a, b in zip(offsets, offsets[1:])],
        [RESOLUTIONS[i] for i in codes.tolist()],
        emb,
        dimension=dim,
    )


def load_trace(source: str | os.PathLike | IO, dimension: int | None = None) -> Trace:
    """Parse a JSON-lines trace from a path, text stream, or byte stream.

    The input is read one line at a time; a large regular file is read
    in one share per CPU, in forked workers (see ``_parse_file``), with
    the same result and the same errors. A regular file with a
    ``save_trace`` sidecar beside it is hashed first (the trace's
    ``source_sha256``); if the sidecar was saved for exactly those bytes,
    the trace is built from it instead, through the same checks, and
    equals the parse. A file without a sidecar is parsed, not hashed.
    ``dimension``, if given, overrides inference and every record must
    conform. Raises :class:`ParseError` with the 1-based line number for
    malformed lines (NaN, infinite and out-of-range embedding values
    included; text that is not UTF-8 has a line number only in a byte
    stream), :class:`DimensionMismatch` for wrong-length embeddings, and
    :class:`ZeroNormEmbedding` for zero vectors.
    """
    if isinstance(source, (str, os.PathLike)) and os.path.isfile(source):
        if not os.path.exists(os.fspath(source) + _SIDECAR_SUFFIX):
            return _parse_file(source, dimension)
        digest = _file_sha256(source)
        trace = _read_sidecar(source, digest, dimension)
        if trace is None:
            trace = _parse_file(source, dimension)
        trace.source_sha256 = digest
        return trace
    records = _Records(dimension)
    with _open_text(source) as stream:
        records.read(_numbered_lines(stream))
    return _trace_of([records.columns()], records.dim)


def _format_rows(trace: Trace, rows: tuple[int, int]) -> list[str]:
    """The JSON lines of rows ``[start, stop)``: each is the text of
    ``json.dumps(record, separators=(",", ":"))``, written here from the
    parts ``json.dumps`` would write."""
    from ._floatrepr import float_rows  # imported by serialize_trace

    start, stop = rows
    res_json = {res: _json_string(res) for res in RESOLUTIONS}
    return [
        f'{{"ts":{ts},"id":{_json_string(rid)},"res":{res_json[res]},"emb":[{emb}]}}'
        for ts, rid, res, emb in zip(
            trace.timestamps[start:stop].tolist(),
            trace.request_ids[start:stop],
            trace.resolutions[start:stop],
            float_rows(trace.embeddings[start:stop]),
        )
    ]


def serialize_trace(trace: Trace) -> str:
    """Render a trace back to JSON-lines text, header line included.

    Floats are written in shortest round-trip form, the text of
    ``repr``, formatted a block of rows at a time (``_floatrepr``), so
    ``load_trace(serialize_trace(t)) == t`` exactly. A large trace is
    formatted in one share of rows per CPU, in forked workers; the text
    is the same.
    """
    # Imported on first use, since building its tables takes about 2 ms
    # that every command writing no trace would pay at startup, and before
    # the fork, so that workers inherit the tables instead of building them.
    from . import _floatrepr  # noqa: F401

    n = len(trace)
    ways = min(_share_count(n * trace.dimension), n)
    shares = [(n * i // ways, n * (i + 1) // ways) for i in range(ways)]
    lines = [json.dumps({"dim": trace.dimension}, separators=(",", ":"))]
    for part in fork_map(functools.partial(_format_rows, trace), shares, ways):
        lines += part
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def save_trace(trace: Trace, dest: str | os.PathLike | IO) -> None:
    """Write ``serialize_trace(trace)`` to a path or text stream.

    A path that names a regular file once written also gets the sidecar
    ``<path>.cache.npz``, which ``load_trace`` of the path reads in place
    of the JSON while the file's bytes are the ones written here. A
    sidecar that cannot be written (no room, a read-only directory) is
    left out without an error.
    """
    digest = _write_text(dest, serialize_trace(trace))
    if digest is not None and os.path.isfile(dest):
        # The trace is already saved; without its optional sidecar a
        # load of it parses the JSON.
        with contextlib.suppress(OSError):
            _write_sidecar(trace, dest, digest)


def generate_trace(config: GeneratorConfig) -> Trace:
    """Synthesize a clustered request trace; deterministic per seed.

    Cluster popularity follows rank^(-zipf_exponent). Noise is applied
    in the ambient space and the result re-normalized, approximating a
    von Mises-Fisher draw without special functions. Timestamps are
    0, 1, 2, ... ms; only their order matters downstream.
    """
    rng = np.random.default_rng(config.seed)
    n, k, d = config.num_requests, config.num_clusters, config.dimension

    centers = rng.standard_normal((k, d))
    norms = np.linalg.norm(centers, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormEmbedding("degenerate cluster center draw")
    centers /= norms[:, None]

    ranks = np.arange(1, k + 1, dtype=np.float64)
    weights = ranks ** (-config.zipf_exponent)
    weights /= weights.sum()
    assignments = rng.choice(k, size=n, p=weights)

    emb = centers[assignments] + rng.normal(0.0, config.noise_sigma, size=(n, d))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(emb, axis=1)
    if not np.isfinite(norms).all():
        raise ValueError("noise_sigma is too large: the noise overflows float64")
    if np.any(norms == 0.0):
        raise ZeroNormEmbedding("degenerate noise draw")
    emb /= norms[:, None]

    mix_names = [r for r in RESOLUTIONS if r in config.resolution_mix]
    mix_probs = np.array([config.resolution_mix[r] for r in mix_names])
    mix_probs = mix_probs / mix_probs.sum()
    res_idx = rng.choice(len(mix_names), size=n, p=mix_probs)
    resolutions = [mix_names[i] for i in res_idx]

    return Trace(
        np.arange(n, dtype=np.int64),
        [f"r{i}" for i in range(n)],
        resolutions,
        emb,
        dimension=d,
    )
