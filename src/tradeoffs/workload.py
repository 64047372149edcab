"""Request traces: file ingest and synthetic clustered generation.

A trace is a timestamp-ordered sequence of (embedding, resolution)
requests. On disk it is UTF-8 JSON-lines: an optional first header line
``{"dim": D}`` followed by one record per line with keys ``ts`` (integer
milliseconds), ``id`` (string), ``res`` (one of "720p"|"1080p"|"2k"),
and ``emb`` (array of decimals of length D). Without a header the
dimension comes from the first record.

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
import json
import math
import os
from dataclasses import dataclass, field
from typing import IO, Callable, Mapping, Sequence

import numpy as np

from .cache import DEFAULT_DIM, RESOLUTIONS
from .errors import DimensionMismatch, NonFiniteEmbedding, ParseError, ZeroNormEmbedding

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
    timestamp (input order breaks ties) and unit-normalizes every
    embedding; vectors already unit-norm within 1e-9 are passed through
    bit-for-bit, which makes save/load a round trip. Raises
    :class:`ZeroNormEmbedding` for a zero embedding and
    :class:`NonFiniteEmbedding` for one whose norm is NaN or infinite.
    """

    def __init__(
        self,
        timestamps,
        request_ids: Sequence[str],
        resolutions: Sequence[str],
        embeddings,
        dimension: int | None = None,
    ):
        ts = np.asarray(timestamps, dtype=np.int64)
        emb = np.array(embeddings, dtype=np.float64)
        if emb.ndim == 1:
            emb = emb.reshape(0, dimension or DEFAULT_DIM) if emb.size == 0 else emb
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
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be nonnegative")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        mix = dict(self.resolution_mix)
        if not mix:
            raise ValueError("resolution_mix must be non-empty")
        for res, p in mix.items():
            if res not in RESOLUTIONS:
                raise ValueError(f"unknown resolution {res!r}")
            if p < 0:
                raise ValueError("resolution probabilities must be nonnegative")
        if abs(sum(mix.values()) - 1.0) > 1e-9:
            raise ValueError("resolution_mix probabilities must sum to 1")
        object.__setattr__(self, "resolution_mix", mix)


def _open_text(source, mode: str):
    """A context manager over ``source``: a path is opened as UTF-8 text
    and closed on exit; a stream is used as is and left open."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, mode, encoding="utf-8")
    return contextlib.nullcontext(source)


_NOT_UTF8 = "not valid UTF-8"
_JSON_NUMBERS = frozenset({int, float})


def _numbered_lines(stream):
    """``enumerate(stream, 1)``, raising :class:`ParseError` for text that
    does not decode. It has no line number: the decoder reads ahead in
    chunks, so the failing line is not the one being counted."""
    try:
        yield from enumerate(stream, start=1)
    except UnicodeDecodeError:
        raise ParseError(_NOT_UTF8) from None


def _write_text(dest: str | os.PathLike | IO, text: str) -> None:
    with _open_text(dest, "w") as stream:
        stream.write(text)


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
    with _open_text(source, "r") as stream:
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


def load_trace(source: str | os.PathLike | IO, dimension: int | None = None) -> Trace:
    """Parse a JSON-lines trace from a path, text stream, or byte stream.

    The input is read one line at a time. ``dimension``, if given,
    overrides inference and every record must conform. Raises
    :class:`ParseError` with the 1-based line number for malformed
    lines (NaN, infinite and out-of-range embedding values included;
    text that is not UTF-8 has a line number only in a byte stream),
    :class:`DimensionMismatch` for wrong-length embeddings, and
    :class:`ZeroNormEmbedding` for zero vectors.
    """
    ts, ids, res, embs, linenos = [], [], [], [], []
    dim = dimension
    with _open_text(source, "r") as stream:
        for lineno, line in _numbered_lines(stream):
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
                if ts:
                    raise ParseError("header after records", line_number=lineno)
                if not isinstance(obj["dim"], int) or obj["dim"] < 1:
                    raise ParseError("dim must be a positive integer", line_number=lineno)
                if dim is not None and obj["dim"] != dim:
                    raise DimensionMismatch(
                        f"header dim {obj['dim']} != expected {dim}"
                    )
                dim = obj["dim"]
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
                dim = len(emb)
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

    if dim is None:
        dim = DEFAULT_DIM
    emb_matrix = np.stack(embs) if embs else np.zeros((0, dim))
    finite = np.isfinite(emb_matrix).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ParseError("emb values must be finite", line_number=linenos[bad])
    return Trace(ts, ids, res, emb_matrix, dimension=dim)


def serialize_trace(trace: Trace) -> str:
    """Render a trace back to JSON-lines text, header line included.

    Floats are written in shortest round-trip form, so
    ``load_trace(serialize_trace(t)) == t`` exactly.
    """
    lines = [json.dumps({"dim": trace.dimension}, separators=(",", ":"))]
    for ts, rid, res, emb in zip(
        trace.timestamps.tolist(), trace.request_ids, trace.resolutions, trace.embeddings
    ):
        # One row at a time: a whole-matrix tolist() holds every float at once.
        lines.append(
            json.dumps(
                {"ts": ts, "id": rid, "res": res, "emb": emb.tolist()},
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n"


def save_trace(trace: Trace, dest: str | os.PathLike | IO) -> None:
    """Write ``serialize_trace(trace)`` to a path or text stream."""
    _write_text(dest, serialize_trace(trace))


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
    norms = np.linalg.norm(emb, axis=1)
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
