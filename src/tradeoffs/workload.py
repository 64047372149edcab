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
import json
import math
import numbers
import os
import threading
import zipfile
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import IO, Mapping, Sequence

import numpy as np

from . import _EXPORTS
from ._forkmap import fork_map, fork_workers
from ._formats import DEFAULT_DIM, RESOLUTIONS, _file_sha256, _lines, _opened, _write_text
from .cache import _RES_CODE, _UNIT_TOL
from .errors import (
    DimensionMismatch,
    NonFiniteEmbedding,
    ParseError,
    TradeoffError,
    ZeroNormEmbedding,
    _number,
    _size,
)

__all__ = list(_EXPORTS["workload"])


class Trace:
    """Immutable timestamp-ordered request sequence, stored columnar.

    Embeddings are kept as one (n, dim) float64 matrix so replay can
    hand contiguous rows to the cache. Construction stably sorts by
    timestamp (input order breaks ties; rows already in order are not
    moved) and unit-normalizes every embedding; vectors already
    unit-norm within 1e-9 are passed through bit-for-bit, which makes
    save/load a round trip. The width of the 2-d ``embeddings`` is the
    trace's ``dimension``, so a trace of no rows takes a (0, d) matrix.
    Raises :class:`DimensionMismatch` for embeddings not 2-d, ``ValueError``
    for a matrix with no columns, a timestamp that is not an integer in
    int64 range or a request id that is not a string,
    :class:`ZeroNormEmbedding` for a zero embedding, and
    :class:`NonFiniteEmbedding` for a NaN or infinite norm.

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
    ):
        ts = np.asarray(timestamps)
        if ts.size and not (ts.dtype.kind in "iu" and ts.max() < 2**63):
            raise ValueError("timestamps must be integers in int64 range")
        ts = np.array(ts, dtype=np.int64)  # a copy: it is frozen below
        emb = np.array(embeddings, dtype=np.float64)
        if emb.ndim != 2:
            raise DimensionMismatch(f"embeddings must be 2-d, got shape {emb.shape}")
        if emb.shape[1] < 1:
            raise ValueError("dimension must be at least 1")
        n = ts.shape[0]
        if not (len(request_ids) == len(resolutions) == emb.shape[0] == n):
            raise ValueError("column lengths disagree")
        self.dimension = emb.shape[1]
        if not all(isinstance(r, str) for r in request_ids):
            raise ValueError("request ids must be strings")
        for r in resolutions:
            if r not in RESOLUTIONS:
                raise ValueError(f"unknown resolution {r!r}")

        with np.errstate(over="ignore"):  # an overflow is reported just below
            norms = np.linalg.norm(emb, axis=1)
        if not np.isfinite(norms).all():
            bad = int(np.argmin(np.isfinite(norms)))
            raise NonFiniteEmbedding(f"request {request_ids[bad]!r} has a non-finite norm")
        if np.any(norms == 0.0):
            bad = int(np.argmax(norms == 0.0))
            raise ZeroNormEmbedding(f"request {request_ids[bad]!r} has a zero embedding")
        off = np.abs(norms - 1.0) > _UNIT_TOL
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
            np.array_equal(self.timestamps, other.timestamps)
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
        _size(self.num_requests, "num_requests", 0, "nonnegative, finite and whole")
        _size(self.num_clusters, "num_clusters", 1, "at least 1, finite and whole")
        _size(self.dimension, "dimension", 1, "at least 1, finite and whole")
        for count in ("num_requests", "num_clusters"):
            if getattr(self, count) * self.dimension >= 2**60:  # 2**63 bytes of float64
                raise ValueError(f"{count} * dimension must be below 2**60")
        # numpy's SeedSequence takes a nonnegative int of any size.
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            _number(self.seed, "seed", 0, whole=True, rule="nonnegative, finite and whole")
        rule = "finite and nonnegative"
        _number(self.zipf_exponent, "zipf_exponent", 0, rule=rule)
        _number(self.noise_sigma, "noise_sigma", 0, rule=rule)
        mix = dict(self.resolution_mix)
        if not mix:
            raise ValueError("resolution_mix must be non-empty")
        for res, p in mix.items():
            if res not in RESOLUTIONS:
                raise ValueError(f"unknown resolution {res!r}")
            _number(p, "resolution probabilities", 0, rule=rule)
        if abs(sum(mix.values()) - 1.0) > 1e-9:
            raise ValueError("resolution_mix probabilities must sum to 1")
        object.__setattr__(self, "resolution_mix", mix)


_JSON_NUMBERS = frozenset({int, float})
# Trace I/O runs in one share per CPU once a trace holds more embedding
# values than this. Splitting costs about 11 ms (formatting) to 14 ms
# (parsing) on 2 CPUs: a fork, and the share's result sent back. At 2^16
# values one share took 27 ms to format and 58 ms to parse, and two shares
# 24 and 43 ms, so both gain from about 2^16 values on.
_SPLIT_MIN_VALUES = 1 << 16
# A trace file is split by its size alone: its text takes about 21 bytes
# per embedding value (21.2 measured at dim 768, 21.3 at dim 64).
_BYTES_PER_VALUE = 20


def _share_count(values: int) -> int:
    """How many shares to split the I/O of ``values`` embedding values into."""
    return fork_workers() if values > _SPLIT_MIN_VALUES else 1


class _Records:
    """The columns of parsed trace lines.

    ``dim`` is the dimension every record must have, or None until a
    header or the first record fixes it. ``headers`` is False for a share
    of a file that does not start at its first byte, where a header is out
    of place.
    """

    def __init__(self, headers: bool = True):
        self.dim = None
        self.headers = headers
        self.ts, self.ids, self.res, self.embs = [], [], [], []

    def read(self, numbered_lines) -> None:
        """Parse ``(line number, text)`` pairs, raising on the first bad line."""
        ts, ids, res, embs = self.ts, self.ids, self.res, self.embs
        dim = self.dim
        for lineno, line in numbered_lines:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"invalid JSON: {e.msg}", line_number=lineno) from None
            except RecursionError:
                raise ParseError("invalid JSON: nested too deeply", line_number=lineno) from None
            if not isinstance(obj, dict):
                raise ParseError("record must be a JSON object", line_number=lineno)
            if "dim" in obj and "ts" not in obj:
                # Header line; legal only before any record.
                if ts or not self.headers:
                    raise ParseError("header after records", line_number=lineno)
                if type(obj["dim"]) is not int or obj["dim"] < 1:  # bool is its own type
                    raise ParseError("dim must be a positive integer", line_number=lineno)
                if dim is not None and obj["dim"] != dim:  # a second header
                    raise DimensionMismatch(f"header dim {obj['dim']} != first header's {dim}")
                dim = self.dim = obj["dim"]
                continue
            missing = {"ts", "id", "res", "emb"} - obj.keys()
            if missing:
                raise ParseError(
                    f"missing keys: {', '.join(sorted(missing))}", line_number=lineno
                )
            if type(obj["ts"]) is not int or not -(2**63) <= obj["ts"] < 2**63:
                raise ParseError("ts must be an integer in int64 range", line_number=lineno)
            if not isinstance(obj["id"], str):
                raise ParseError("id must be a string", line_number=lineno)
            if obj["res"] not in RESOLUTIONS:
                raise ParseError(f"unknown resolution {obj['res']!r}", line_number=lineno)
            emb = obj["emb"]
            # json.loads makes only these number types; bool is its own type.
            if not isinstance(emb, list) or not emb or not set(map(type, emb)) <= _JSON_NUMBERS:
                raise ParseError("emb must be a non-empty array of numbers", line_number=lineno)
            if dim is None:
                dim = self.dim = len(emb)
            if len(emb) != dim:
                raise DimensionMismatch(
                    f"line {lineno}: embedding has {len(emb)} values, expected {dim}"
                )
            try:
                values = np.array(emb, dtype=np.float64)
            except OverflowError:  # an integer beyond float64 range
                raise ParseError("emb values must be finite", line_number=lineno) from None
            # A finite sum proves the values finite, and one that overflows falls through
            # to the exact test; summed from 0.0, huge integers overflow to inf, not an int.
            if not (math.isfinite(sum(emb, 0.0)) or np.isfinite(values).all()):
                raise ParseError("emb values must be finite", line_number=lineno)
            embs.append(values)
            ts.append(obj["ts"])
            ids.append(obj["id"])
            res.append(obj["res"])

    def extend(self, other: _Records) -> None:
        """Append the records of ``other``, read after this one's."""
        self.ts += other.ts
        self.ids += other.ids
        self.res += other.res
        self.embs += other.embs
        self.dim = self.dim or other.dim

    def trace(self) -> Trace:
        """The trace of the records."""
        embs = np.vstack(self.embs) if self.embs else np.zeros((0, self.dim or DEFAULT_DIM))
        return Trace(self.ts, self.ids, self.res, embs)


def _read_range(path, start: int, stop: int) -> _Records:
    """The records of bytes ``[start, stop)`` of a trace file, a run of
    whole lines, numbered from 1; from 0 to the file's size, this is one
    pass over the file."""
    records = _Records(headers=start == 0)
    with open(path, "rb") as f:
        f.seek(start)
        records.read(_lines(f, stop - start))
    return records


def _read_share(path, share: tuple[int, int]) -> _Records | None:
    """A share's records, their width its own, or None if a later share
    holds an error (``_parse_file`` then parses the file in one pass).
    The first share raises its own error, where it finds it."""
    try:
        records = _read_range(path, *share)
    except TradeoffError:
        if share[0] == 0:
            raise
        return None
    records.embs = [np.vstack(records.embs)] if records.embs else []  # one array to send back
    return records


def _parse_file(path) -> Trace:
    """``load_trace`` of a regular file, parsed in shares.

    The file is cut after a newline into one share per worker, and each
    worker parses its share on its own (``_read_share``). The first
    share raises its own error, which is one pass's error: each line is
    decoded and checked on its own, so what a line raises depends on the
    lines up to it alone. The shares' records are joined here in file
    order. If a later share holds an error, or its records have another
    width than the width fixed so far, the file is parsed in one pass
    instead, and what that pass returns or raises is the result.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        ways = _share_count(size // _BYTES_PER_VALUE)
        cuts = [0]
        for i in range(1, ways):
            f.seek(size * i // ways)
            f.readline()
            cuts.append(f.tell())
        cuts.append(size)
    shares = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    records = _Records()
    for part in fork_map(functools.partial(_read_share, path), shares, ways):
        if part is None or records.dim and part.dim not in (None, records.dim):
            return _read_range(path, 0, size).trace()
        records.extend(part)
    return records.trace()


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
    columns = {
        "version": np.array(_SIDECAR_VERSION),
        "sha256": np.array(digest),
        "timestamps": trace.timestamps,
        "embeddings": trace.embeddings,
        "resolutions": np.array([_RES_CODE[res] for res in trace.resolutions], dtype=np.int8),
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


def _read_sidecar(path) -> tuple[str, Trace | Exception] | None:
    """The digest that the sidecar of ``path`` was saved for, with the trace
    it holds or the error that building that trace raised; None for a
    sidecar that cannot be read or is of another format version."""
    try:
        with zipfile.ZipFile(os.fspath(path) + _SIDECAR_SUFFIX) as zf:

            def column(name: str) -> np.ndarray:
                with zf.open(name + ".npy") as f:
                    return np.lib.format.read_array(f, allow_pickle=False)

            if column("version").item() != _SIDECAR_VERSION:
                return None
            names = ("sha256", "timestamps", "ids", "id_offsets", "resolutions", "embeddings")
            saved, ts, ids, offsets, codes, emb = map(column, names)
            saved = saved.item()
    except _UNREADABLE:
        return None
    try:
        ids, offsets = ids.tobytes(), offsets.tolist()
        trace = Trace(
            ts,
            [ids[a:b].decode("utf-8", "surrogatepass") for a, b in zip(offsets, offsets[1:])],
            [RESOLUTIONS[i] for i in codes.tolist()],
            emb,
        )
    except Exception as e:  # raised only if the sidecar is the file's
        return saved, e
    return saved, trace


class _Hashing(threading.Thread):
    """``_file_sha256(path)`` on a thread of its own; ``digest()`` joins
    it and returns the digest, or raises the error that hashing raised."""

    def __init__(self, path):
        super().__init__(name="trace-sha256")
        self._path = path
        self._result = self._error = None
        self.start()

    def run(self) -> None:
        try:
            self._result = _file_sha256(self._path)
        except BaseException as e:  # raised in the caller, by digest()
            self._error = e

    def digest(self) -> str:
        self.join()
        if self._error is not None:
            raise self._error
        return self._result


def load_trace(source: str | os.PathLike | IO) -> Trace:
    """Parse a JSON-lines trace from a path, text stream, or byte stream.

    The input is read one line at a time. A path, a pipe included, and a
    byte stream are split into lines where universal newlines split text,
    and each line is decoded as strict UTF-8 on its own; a text stream
    decodes itself. A large regular file is read in one share per CPU, in
    forked workers (see ``_parse_file``), with the same result and the
    same errors. A regular file with a ``save_trace`` sidecar beside it is
    hashed (the trace's ``source_sha256``) on a thread while the sidecar
    is read; if the sidecar was saved for exactly those bytes, the trace
    is built from it instead, through the same checks, and equals the
    parse. The thread ends before anything else happens, so a parse may
    still fork. A file without a sidecar is parsed, not hashed.
    Raises :class:`ParseError` with the 1-based line number of the first
    malformed line (NaN, infinite and out-of-range embedding values and
    text that is not UTF-8 included; a text stream's decode error has no
    line number), :class:`DimensionMismatch` for an embedding, or a
    second header, whose width differs from the header's or first
    record's, and :class:`ZeroNormEmbedding` for zero vectors.
    """
    if isinstance(source, (str, os.PathLike)) and os.path.isfile(source):
        if not os.path.exists(os.fspath(source) + _SIDECAR_SUFFIX):
            return _parse_file(source)
        hashing = _Hashing(source)
        try:
            sidecar = _read_sidecar(source)
        finally:
            hashing.join()
        digest = hashing.digest()
        if sidecar is None or sidecar[0] != digest:
            trace = _parse_file(source)
        elif isinstance(sidecar[1], Exception):
            raise sidecar[1]
        else:
            trace = sidecar[1]
        trace.source_sha256 = digest
        return trace
    records = _Records()
    with _opened(source) as stream:
        records.read(_lines(stream))
    return records.trace()


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


def save_trace(trace: Trace, dest: str | os.PathLike | IO) -> str | None:
    """Write ``serialize_trace(trace)`` to a path or text stream; return
    the SHA-256 (hex) of the bytes written to a path, or None for a stream.

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
    return digest


def generate_trace(config: GeneratorConfig) -> Trace:
    """Synthesize a clustered request trace; deterministic per seed.

    Cluster popularity follows rank^(-zipf_exponent). Noise is applied
    in the ambient space and the result re-normalized, approximating a
    von Mises-Fisher draw without special functions. Timestamps are
    0, 1, 2, ... ms; only their order matters downstream.
    """
    rng = np.random.default_rng(int(config.seed))
    n, k, d = int(config.num_requests), int(config.num_clusters), int(config.dimension)

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
    )
