import hashlib
import io
import json
import os
import warnings

import numpy as np
import pytest
import scipy.stats

import tradeoffs._forkmap as forkmap
import tradeoffs.workload as workload
from tradeoffs import (
    DimensionMismatch,
    GeneratorConfig,
    NonFiniteEmbedding,
    ParseError,
    Trace,
    ZeroNormEmbedding,
    generate_trace,
    load_trace,
    save_trace,
    serialize_trace,
)


def _load(text, **kw):
    return load_trace(io.StringIO(text), **kw)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_empty_stream():
    tr = _load("")
    assert len(tr) == 0 and tr.dimension == 768


def test_a_trace_of_no_rows_takes_its_dimension(tmp_path):
    trace = Trace([], [], [], np.zeros((0, 5)), dimension=7)
    assert trace.embeddings.shape == (0, 7)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    assert load_trace(path) == trace
    os.remove(_sidecar(path))
    assert load_trace(path) == trace
    inferred = Trace([], [], [], np.zeros((0, 5)))
    assert inferred.embeddings.shape == (0, inferred.dimension)
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        Trace([], [], [], [], dimension=0)


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 3, 3, 3], [0, 0, 1, 1], [1, 0, 2, 2], [3, 2, 1, 0]])
def test_rows_are_stably_sorted_into_copies(order):
    ts, emb = np.array(order, dtype=np.int64), np.eye(4)[[2, 0, 3, 1]]
    trace = Trace(ts, list("abcd"), ["720p", "2k", "720p", "1080p"], emb)
    rows = np.argsort(ts, kind="stable")
    assert trace.timestamps.tobytes() == ts[rows].tobytes()
    assert trace.embeddings.tobytes() == emb[rows].tobytes()
    assert trace.request_ids == tuple(np.array(list("abcd"))[rows])
    assert trace.resolutions == tuple(np.array(["720p", "2k", "720p", "1080p"])[rows])
    ts[0], emb[0, 0] = 9, 0.5  # the caller's arrays stay its own, and writable
    assert trace.timestamps.tolist() == sorted(order)
    assert trace.embeddings.tobytes() == np.eye(4)[[2, 0, 3, 1]][rows].tobytes()


def test_sorting_is_stable():
    text = (
        '{"ts":5,"id":"b","res":"720p","emb":[0,1]}\n'
        '{"ts":3,"id":"a","res":"720p","emb":[1,0]}\n'
        '{"ts":5,"id":"c","res":"2k","emb":[0,1]}\n'
    )
    tr = _load(text)
    assert tr.request_ids == ("a", "b", "c")
    assert list(tr.timestamps) == [3, 5, 5]


def test_header_fixes_dimension():
    tr = _load('{"dim":4}\n{"ts":0,"id":"x","res":"720p","emb":[1,0,0,0]}\n')
    assert tr.dimension == 4
    with pytest.raises(DimensionMismatch):
        _load('{"dim":4}\n{"ts":0,"id":"x","res":"720p","emb":[1,0]}\n')
    with pytest.raises(ParseError, match="line 2"):
        _load('{"ts":0,"id":"x","res":"720p","emb":[1,0]}\n{"dim":2}\n')


def test_dimension_inferred_from_first_record():
    text = (
        '{"ts":0,"id":"x","res":"720p","emb":[1,0,0]}\n'
        '{"ts":1,"id":"y","res":"720p","emb":[1,0]}\n'
    )
    with pytest.raises(DimensionMismatch, match="line 2"):
        _load(text)


def test_explicit_dimension_argument_wins():
    with pytest.raises(DimensionMismatch):
        _load('{"ts":0,"id":"x","res":"720p","emb":[1,0]}\n', dimension=3)


PARSE_ERROR_CASES = [
    ("not json\n", "line 1"),
    ('{"ts":0,"id":"x","res":"720p"}\n', "missing keys: emb"),
    ('{"ts":"0","id":"x","res":"720p","emb":[1]}\n', "ts must be"),
    ('{"ts":0,"id":5,"res":"720p","emb":[1]}\n', "id must be"),
    ('{"ts":0,"id":"x","res":"4k","emb":[1]}\n', "resolution"),
    ('{"ts":0,"id":"x","res":"720p","emb":"no"}\n', "emb must be"),
    *(('{"ts":0,"id":"x","res":"720p","emb":[1,%s]}\n' % v,
       "emb must be an array of numbers")
      for v in ("true", "null", '"0.5"', "[1]", "{}")),
    ('[1,2,3]\n', "object"),
]


def test_parse_errors_carry_line_numbers():
    for text, fragment in PARSE_ERROR_CASES:
        with pytest.raises(ParseError, match=fragment):
            _load(text)


def test_zero_embedding_rejected():
    with pytest.raises(ZeroNormEmbedding):
        _load('{"ts":0,"id":"x","res":"720p","emb":[0,0,0]}\n')


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_embedding_is_parse_error_on_its_line(value):
    text = (
        '{"dim":2}\n'
        '{"ts":0,"id":"x","res":"720p","emb":[1,0]}\n'
        '{"ts":1,"id":"y","res":"720p","emb":[%s,1.0]}\n' % value
    )
    with pytest.raises(ParseError, match="line 3: emb values must be finite"):
        _load(text)


def test_huge_integer_embedding_fails_on_its_own_line():
    text = (
        '{"ts":0,"id":"x","res":"720p","emb":[%s,0]}\n'
        'not json\n'
    ) % ("1" + "0" * 400)
    with pytest.raises(ParseError, match="line 1: emb values must be finite"):
        _load(text)


def test_non_utf8_trace_is_parse_error(tmp_path):
    data = (b'{"ts":0,"id":"x","res":"720p","emb":[1,0]}\n'
            b'{"ts":1,"id":"\xff","res":"720p","emb":[0,1]}\n')
    with pytest.raises(ParseError, match="line 2: not valid UTF-8"):
        load_trace(io.BytesIO(data))
    path = tmp_path / "t.jsonl"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_trace(path)
    assert exc.value.line_number is None  # the text decoder reads ahead


def test_trace_rejects_non_finite_embedding():
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteEmbedding, match="'y'"):
            Trace([0, 1], ["x", "y"], ["720p", "720p"], [[1.0, 0.0], [bad, 1.0]])


def test_blank_lines_ignored():
    tr = _load('\n{"dim":2}\n\n{"ts":0,"id":"x","res":"720p","emb":[1,0]}\n\n')
    assert len(tr) == 1


def test_embeddings_normalized_at_ingest():
    tr = _load('{"ts":0,"id":"x","res":"720p","emb":[3,4]}\n')
    assert np.allclose(tr.embeddings[0], [0.6, 0.8])
    norms = np.linalg.norm(tr.embeddings, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-6)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_serialize_round_trip_exact():
    cfg = GeneratorConfig(num_requests=300, num_clusters=7, dimension=24,
                          resolution_mix={"720p": 0.5, "1080p": 0.3, "2k": 0.2},
                          seed=13)
    tr = generate_trace(cfg)
    again = _load(serialize_trace(tr))
    assert again == tr  # bitwise equality, embeddings included


def test_save_trace_to_path(tmp_path):
    tr = generate_trace(GeneratorConfig(num_requests=20, num_clusters=3,
                                        dimension=8, seed=1))
    path = tmp_path / "t.jsonl"
    save_trace(tr, path)
    assert load_trace(path) == tr
    os.remove(_sidecar(path))
    assert load_trace(path) == tr


def test_byte_stream_loads_like_text_stream():
    tr = generate_trace(GeneratorConfig(num_requests=30, num_clusters=3, dimension=8,
                                        resolution_mix={"720p": 0.5, "2k": 0.5}, seed=4))
    text = "\n" + serialize_trace(tr).replace("\n", "\n\n", 3)
    from_bytes = load_trace(io.BytesIO(text.encode("utf-8")))
    assert from_bytes == _load(text) == tr


def test_crlf_path_loads_the_same_trace(tmp_path):
    tr = generate_trace(GeneratorConfig(num_requests=20, num_clusters=3,
                                        dimension=8, seed=5))
    path = tmp_path / "t.jsonl"
    path.write_bytes(serialize_trace(tr).replace("\n", "\r\n").encode("utf-8"))
    assert load_trace(path) == tr


# ---------------------------------------------------------------------------
# trace I/O in shares
# ---------------------------------------------------------------------------


@pytest.fixture
def split_io(monkeypatch):
    """Trace I/O in three shares on forked workers, whatever the trace
    size; the list it gives holds the share count of each split."""
    monkeypatch.setattr(workload, "_SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(forkmap, "_usable_cpus", lambda: 3)
    if forkmap.fork_workers() < 3:
        pytest.skip("this platform cannot fork workers")
    shares = []

    def counted(fn, items, workers):
        shares.append(len(items))
        return forkmap.fork_map(fn, items, workers)

    monkeypatch.setattr(workload, "fork_map", counted)
    return shares


def _mixed_trace(n, dim, seed=3):
    return generate_trace(GeneratorConfig(
        num_requests=n, num_clusters=5, dimension=dim, seed=seed,
        resolution_mix={"720p": 0.5, "1080p": 0.3, "2k": 0.2}))


@pytest.mark.parametrize("n, dim", [(0, 4), (1, 4), (2, 3), (3, 8), (10, 1), (101, 16)])
def test_serialize_in_shares_is_byte_identical(request, n, dim):
    trace = _mixed_trace(n, dim)
    records = [{"dim": dim}] + [
        {"ts": int(trace.timestamps[i]), "id": trace.request_ids[i],
         "res": trace.resolutions[i], "emb": [float(v) for v in trace.embeddings[i]]}
        for i in range(n)
    ]
    one_share = serialize_trace(trace)
    assert one_share == "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    shares = request.getfixturevalue("split_io")
    assert serialize_trace(trace) == one_share
    assert shares == [min(n, 3)]


def test_load_in_shares_equals_serial_load(tmp_path, split_io):
    trace = _mixed_trace(200, 12)
    text = serialize_trace(trace)
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    assert load_trace(path) == _load(text) == trace
    assert load_trace(path, dimension=12) == trace
    # No header: the first record fixes the dimension.
    path.write_text("\n\n" + text.split("\n", 1)[1])
    assert load_trace(path) == trace
    assert split_io[1:] == [3, 3, 3]


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_load_in_shares_reads_crlf_and_cr_files(tmp_path, split_io, newline):
    trace = _mixed_trace(60, 6)
    path = tmp_path / "t.jsonl"
    path.write_bytes(serialize_trace(trace).replace("\n", newline).encode("utf-8"))
    assert load_trace(path) == trace
    # Without a "\n" to cut after, a file of lone "\r" stays one piece.
    assert split_io[1:] == [3 if newline == "\r\n" else 0]


def test_small_traces_stay_in_one_share(tmp_path, monkeypatch):
    shares = []
    monkeypatch.setattr(workload, "fork_map",
                        lambda fn, items, workers: shares.append(len(items)) or list(map(fn, items)))
    trace = _mixed_trace(400, 64)  # 25,600 values
    # Written without a sidecar, so that the load parses the file.
    workload._write_text(tmp_path / "t.jsonl", serialize_trace(trace))
    assert load_trace(tmp_path / "t.jsonl") == trace
    assert shares == [1, 1]


def _late_error_text(bad_line, newline="\n"):
    """A header, 90 good records, then ``bad_line`` and 9 more records:
    with three shares the bad line lies in the last one."""
    good = ['{"ts":%d,"id":"r%d","res":"720p","emb":[0.6,0.8]}' % (i, i) for i in range(100)]
    lines = ['{"dim":2}', *good[:90], bad_line, *good[90:]]
    return newline.join(lines) + newline


def _error_of(load):
    with pytest.raises((ParseError, DimensionMismatch)) as exc:
        load()
    return type(exc.value), str(exc.value), exc.value


LATE_ERRORS = [text.rstrip("\n") for text, _ in PARSE_ERROR_CASES] + [
    '{"dim":2}',
    '{"ts":0,"id":"x","res":"720p","emb":[1,0,0]}',
    '{"ts":0,"id":"x","res":"720p","emb":[NaN,1.0]}',
    '{"ts":0,"id":"x","res":"720p","emb":[1e400,1.0]}',
    '{"ts":0,"id":"x","res":"720p","emb":[%s,1]}' % ("1" + "0" * 400),
]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("bad_line", LATE_ERRORS)
def test_error_in_a_later_share_matches_the_serial_parse(tmp_path, split_io, bad_line, newline):
    text = _late_error_text(bad_line, newline)
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert text.rindex(bad_line) > 2 * len(text) // 3
    serial_type, serial_message, _ = _error_of(lambda: _load(text))
    split_type, split_message, _ = _error_of(lambda: load_trace(path))
    assert (split_type, split_message) == (serial_type, serial_message)
    assert "line 92" in split_message
    assert split_io == [3]


def test_header_right_after_the_first_record_is_out_of_place(tmp_path, split_io):
    # The line after the first record starts the first share.
    text = _late_error_text('{"ts":0,"id":"x","res":"720p","emb":[1,0]}')
    lines = text.split("\n")
    text = "\n".join([lines[0], lines[1], '{"dim":2}', *lines[2:]])
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    assert _error_of(lambda: load_trace(path))[:2] == (ParseError, "line 3: header after records")


def test_non_utf8_in_a_later_share_is_parse_error(tmp_path, split_io):
    text = _late_error_text('{"ts":0,"id":"@","res":"720p","emb":[1,0]}')
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8").replace(b"@", b"\xff"))
    _, message, error = _error_of(lambda: load_trace(path))
    assert message == "not valid UTF-8" and error.line_number is None
    assert split_io == [3]


# ---------------------------------------------------------------------------
# the sidecar cache of a saved trace
# ---------------------------------------------------------------------------


def _sidecar(path):
    return str(path) + ".cache.npz"


@pytest.fixture
def parses(monkeypatch):
    """The paths that ``load_trace`` parses instead of reading a sidecar."""
    parsed = []

    def counted(path, dimension):
        parsed.append(str(path))
        return real(path, dimension)

    real = workload._parse_file
    monkeypatch.setattr(workload, "_parse_file", counted)
    return parsed


SIDECAR_TRACES = {
    "three resolutions": _mixed_trace(200, 12),
    "no rows": Trace([], [], [], [], dimension=7),
    # Its file holds no rows to give the matrix a width of 5.
    "no rows, matrix of another width": Trace([], [], [], np.zeros((0, 5)), dimension=7),
    "equal timestamps and odd ids": Trace(
        [5, 5, 3, 5, 3],
        ["é✓", "a,b", 'say "hi"', "nul\u0000end", "\ud800 lone surrogate"],
        ["2k", "720p", "1080p", "720p", "2k"],
        [[-0.0, 1.0], [0.6, 0.8], [1.0, -0.0], [3.0, 4.0], [0.0, -1.0]],
    ),
}


@pytest.mark.parametrize("name", SIDECAR_TRACES)
def test_sidecar_hit_equals_the_parse_bit_for_bit(tmp_path, parses, name):
    trace = SIDECAR_TRACES[name]
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    hit = load_trace(path)
    assert parses == []
    parsed = workload._parse_file(path, None)
    assert hit == parsed
    assert hit == trace or name == "no rows, matrix of another width"
    assert (hit.dimension, hit.request_ids, hit.resolutions) == (
        parsed.dimension, parsed.request_ids, parsed.resolutions)
    for a, b in ((hit.timestamps, parsed.timestamps), (hit.embeddings, parsed.embeddings)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert hit.source_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_sidecar_goes_stale_on_a_same_length_edit(tmp_path, parses):
    trace = _mixed_trace(50, 4)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    text = path.read_text()
    at = text.index('"emb":[') + len('"emb":[') + 4  # a digit of the first value
    edited = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
    path.write_text(edited)
    assert len(edited) == len(text)
    assert load_trace(path) == _load(edited) != trace
    assert parses == [str(path)]


def _npy(data, trace):
    out = io.BytesIO()
    np.save(out, trace.embeddings)
    return out.getvalue()


def _flipped(data, trace):
    # One bit of the first embedding: the zip member's CRC no longer holds.
    at = data.index(trace.embeddings[0].tobytes())
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


DAMAGE = {
    "truncated": lambda data, trace: data[: len(data) // 2],
    "empty": lambda data, trace: b"",
    "garbage": lambda data, trace: np.random.default_rng(0).bytes(len(data)),
    "an .npy file": _npy,
    "a bit flipped": _flipped,
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_damaged_sidecar_gives_the_parse_quietly(tmp_path, parses, damage):
    trace = _mixed_trace(80, 16)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    with open(_sidecar(path), "r+b") as f:
        data = DAMAGE[damage](f.read(), trace)
        f.seek(0)
        f.truncate()
        f.write(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_trace(path) == trace
    assert parses == [str(path)]


def test_sidecar_of_another_format_version_is_ignored(tmp_path, parses, monkeypatch):
    trace = _mixed_trace(20, 4)
    path = tmp_path / "t.jsonl"
    version = workload._SIDECAR_VERSION
    monkeypatch.setattr(workload, "_SIDECAR_VERSION", version + 1)
    save_trace(trace, path)
    monkeypatch.setattr(workload, "_SIDECAR_VERSION", version)
    assert load_trace(path) == trace
    assert parses == [str(path)]


def test_randomly_damaged_sidecars_load_the_trace_quietly(tmp_path):
    rng = np.random.default_rng(5)
    trace = _mixed_trace(12, 3)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    with open(_sidecar(path), "rb") as f:
        data = f.read()
    for _ in range(300):
        damaged = bytearray(data)
        damaged[rng.integers(len(data))] = rng.integers(256)
        with open(_sidecar(path), "wb") as f:
            f.write(damaged[: rng.integers(len(data) // 2, len(data) + 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_trace(path) == trace


@pytest.mark.parametrize("n", [0, 30])
def test_dimension_mismatch_is_the_same_with_or_without_a_sidecar(tmp_path, n):
    path = tmp_path / "t.jsonl"
    save_trace(_mixed_trace(n, 8), path)
    with_sidecar = _error_of(lambda: load_trace(path, dimension=4))
    os.remove(_sidecar(path))
    without = _error_of(lambda: load_trace(path, dimension=4))
    assert with_sidecar[:2] == without[:2]
    assert with_sidecar[0] is DimensionMismatch


def test_streams_never_read_a_sidecar_and_loads_never_write_one(tmp_path):
    saved, other = _mixed_trace(40, 6, seed=1), _mixed_trace(40, 6, seed=2)
    path = tmp_path / "t.jsonl"
    save_trace(saved, path)
    # A sidecar of another trace under the file's digest: only a path load
    # reads it, which shows that the digest alone decides.
    workload._write_sidecar(other, path, hashlib.sha256(path.read_bytes()).hexdigest())
    assert load_trace(path) == other
    with open(path, encoding="utf-8") as f:
        assert load_trace(f) == saved
    with open(path, "rb") as f:
        assert load_trace(f) == saved
    assert load_trace(io.StringIO(path.read_text())).source_sha256 is None
    os.remove(_sidecar(path))
    assert load_trace(path) == saved
    assert sorted(os.listdir(tmp_path)) == ["t.jsonl"]


def test_saving_to_a_stream_writes_no_sidecar(tmp_path):
    with open(tmp_path / "t.jsonl", "w", encoding="utf-8") as f:
        save_trace(_mixed_trace(10, 4), f)
    assert sorted(os.listdir(tmp_path)) == ["t.jsonl"]


@pytest.mark.parametrize("fails", ["open", "savez", "replace"])
def test_a_sidecar_that_cannot_be_written_is_left_out(tmp_path, monkeypatch, fails):
    # No room or no right to create a file: the trace itself is saved.
    trace = _mixed_trace(20, 5)
    path = tmp_path / "t.jsonl"

    def refuse(*args, **kwargs):
        raise OSError(28, "No space left on device")

    if fails == "open":
        real_open = open

        def open_(file, mode="r", *args, **kwargs):
            if str(file).endswith(".tmp"):
                refuse()
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", open_)
    else:
        monkeypatch.setattr({"savez": np, "replace": os}[fails], fails, refuse)
    save_trace(trace, path)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["t.jsonl"]
    assert path.read_text(encoding="utf-8") == serialize_trace(trace)
    assert load_trace(path) == trace


def test_a_file_without_a_sidecar_is_parsed_not_hashed(tmp_path, monkeypatch):
    trace = _mixed_trace(20, 5)
    path = tmp_path / "t.jsonl"
    workload._write_text(path, serialize_trace(trace))
    hashed = []
    monkeypatch.setattr(workload, "_file_sha256", lambda p: hashed.append(p) or "0" * 64)
    loaded = load_trace(path)
    assert loaded == trace and loaded.source_sha256 is None and hashed == []


def _crlf(path, trace):
    """Rewrite ``path`` as the same trace in other bytes: its sidecar is stale."""
    path.write_bytes(serialize_trace(trace).replace("\n", "\r\n").encode())


def test_a_stale_sidecar_parses_and_records_the_digest_of_the_file(tmp_path, parses):
    trace = _mixed_trace(60, 4)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    _crlf(path, trace)
    loaded = load_trace(path)
    assert loaded == trace and parses == [str(path)]
    assert loaded.source_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def _forged_sidecar(path, digest):
    """A sidecar under ``digest`` whose second embedding is zero."""
    trace = _mixed_trace(10, 4)
    emb = trace.embeddings.copy()
    emb[1] = 0.0
    ids = "".join(trace.request_ids).encode()
    np.savez(_sidecar(path), version=np.array(workload._SIDECAR_VERSION),
             sha256=np.array(digest), dimension=np.array(4), timestamps=trace.timestamps,
             embeddings=emb, resolutions=np.zeros(10, dtype=np.int8),
             ids=np.frombuffer(ids, dtype=np.uint8),
             id_offsets=np.cumsum([0, *map(len, trace.request_ids)]))


def test_a_sidecar_that_fails_its_checks_raises_only_if_it_is_the_files(tmp_path):
    trace = _mixed_trace(20, 4)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    _forged_sidecar(path, "0" * 64)
    assert load_trace(path) == trace
    _forged_sidecar(path, hashlib.sha256(path.read_bytes()).hexdigest())
    with pytest.raises(ZeroNormEmbedding, match="has a zero embedding"):
        load_trace(path)


def test_a_failure_of_the_hash_reaches_the_caller_unchanged(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    save_trace(_mixed_trace(30, 4), path)
    failure = OSError(5, "Input/output error")

    def fail(p):
        raise failure

    monkeypatch.setattr(workload, "_file_sha256", fail)
    with pytest.raises(OSError) as exc:
        load_trace(path)
    assert exc.value is failure


def test_trace_equality_detects_differences():
    tr = generate_trace(GeneratorConfig(num_requests=5, num_clusters=2,
                                        dimension=4, seed=2))
    other = Trace(tr.timestamps, tr.request_ids,
                  ["2k"] * len(tr), tr.embeddings, dimension=4)
    assert tr != other


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generator_deterministic():
    cfg = GeneratorConfig(num_requests=100, num_clusters=9, dimension=16, seed=77)
    assert generate_trace(cfg) == generate_trace(cfg)
    assert serialize_trace(generate_trace(cfg)) == serialize_trace(generate_trace(cfg))


def test_generator_seed_changes_output():
    a = generate_trace(GeneratorConfig(num_requests=50, num_clusters=3,
                                       dimension=8, seed=1))
    b = generate_trace(GeneratorConfig(num_requests=50, num_clusters=3,
                                       dimension=8, seed=2))
    assert a != b


def test_single_cluster_noiseless_is_point_mass():
    cfg = GeneratorConfig(num_requests=40, num_clusters=1, dimension=16,
                          noise_sigma=0.0, seed=5)
    tr = generate_trace(cfg)
    assert np.all(tr.embeddings == tr.embeddings[0])
    assert list(tr.timestamps) == list(range(40))


def test_generated_embeddings_unit_norm():
    tr = generate_trace(GeneratorConfig(num_requests=500, num_clusters=20,
                                        dimension=32, noise_sigma=0.3, seed=3))
    norms = np.linalg.norm(tr.embeddings, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-6)


def _cluster_counts(trace, centers):
    # Assign each request to its nearest center; with moderate noise the
    # assignment recovers the generator's own draw.
    sims = trace.embeddings @ centers.T
    return np.bincount(np.argmax(sims, axis=1), minlength=len(centers))


def _regenerate_centers(cfg):
    rng = np.random.default_rng(cfg.seed)
    centers = rng.standard_normal((cfg.num_clusters, cfg.dimension))
    return centers / np.linalg.norm(centers, axis=1, keepdims=True)


def test_zipf_zero_gives_uniform_clusters():
    cfg = GeneratorConfig(num_requests=100_000, num_clusters=50, dimension=32,
                          zipf_exponent=0.0, noise_sigma=0.02, seed=11)
    tr = generate_trace(cfg)
    counts = _cluster_counts(tr, _regenerate_centers(cfg))
    _, p = scipy.stats.chisquare(counts)
    assert p > 0.001


def test_zipf_weights_recovered():
    cfg = GeneratorConfig(num_requests=100_000, num_clusters=20, dimension=32,
                          zipf_exponent=1.1, noise_sigma=0.02, seed=12)
    tr = generate_trace(cfg)
    counts = _cluster_counts(tr, _regenerate_centers(cfg))
    ranks = np.arange(1, 21, dtype=float)
    w = ranks ** -1.1
    w /= w.sum()
    _, p = scipy.stats.chisquare(counts, f_exp=w * cfg.num_requests)
    assert p > 0.001


def test_resolution_mix_converges():
    mix = {"720p": 0.5, "1080p": 0.3, "2k": 0.2}
    cfg = GeneratorConfig(num_requests=100_000, num_clusters=5, dimension=8,
                          resolution_mix=mix, seed=4)
    tr = generate_trace(cfg)
    counts = [tr.resolutions.count(r) for r in ("720p", "1080p", "2k")]
    _, p = scipy.stats.chisquare(counts, f_exp=[mix[r] * len(tr) for r in ("720p", "1080p", "2k")])
    assert p > 0.001


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(num_requests=-1, num_clusters=1)
    with pytest.raises(ValueError):
        GeneratorConfig(num_requests=1, num_clusters=0)
    with pytest.raises(ValueError):
        GeneratorConfig(num_requests=1, num_clusters=1, zipf_exponent=-0.1)
    with pytest.raises(ValueError):
        GeneratorConfig(num_requests=1, num_clusters=1, noise_sigma=-1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(num_requests=1, num_clusters=1,
                        resolution_mix={"720p": 0.7})
    with pytest.raises(ValueError):
        GeneratorConfig(num_requests=1, num_clusters=1,
                        resolution_mix={"8k": 1.0})


def test_generator_rejects_noise_that_overflows():
    cfg = GeneratorConfig(num_requests=30, num_clusters=3, dimension=4, noise_sigma=1e308, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="noise_sigma is too large"):
            generate_trace(cfg)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_generator_config_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="zipf_exponent must be finite"):
        GeneratorConfig(num_requests=1, num_clusters=1, zipf_exponent=bad)
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        GeneratorConfig(num_requests=1, num_clusters=1, noise_sigma=bad)
    with pytest.raises(ValueError, match="probabilities must be finite"):
        GeneratorConfig(num_requests=1, num_clusters=1,
                        resolution_mix={"720p": 1.0, "2k": bad})
