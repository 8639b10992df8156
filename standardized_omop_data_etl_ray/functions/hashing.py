"""Vectorized hashing kernels (content sha256, stable key hash, partition).

The per-row invariant vs the reference is ``sha256(content)`` equality
(BASELINE.json input_hint).  sha256 has no pyarrow compute kernel, so the
hot path uses DuckDB's vectorized C++ ``sha256()`` over a zero-copy Arrow
view of the batch; a pure-hashlib fallback exists for environments without
duckdb.  The key hash is the first 8 bytes of ``sha256(repo \\x00 path)``
— stable across processes, Python versions and runs, which matters because
partition assignment is persisted in lake manifests (unlike ``hash()``,
which is salted per process).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

try:
    import duckdb

    _HAVE_DUCKDB = True
except ImportError:  # pragma: no cover
    _HAVE_DUCKDB = False

_CON = None
_TUNED = False


def tune_worker_threads() -> None:
    """Pin per-worker library thread pools to 1 CPU thread.

    Ray owns the parallelism: N workers × Arrow's default
    os.cpu_count()-sized pool means N×N threads fighting for N cores —
    intermittent multi-second stalls at num_cpus=32.  Called lazily from
    every hot-stage kernel (idempotent, once per worker process)."""
    global _TUNED
    if _TUNED:
        return
    try:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
    except Exception:
        pass
    try:
        # return freed batch memory to the OS promptly: N workers each
        # retaining jemalloc arenas grew to tens of GB across epochs
        pa.jemalloc_set_decay_ms(0)
    except Exception:
        pass
    _TUNED = True


def _con():
    """Process-local DuckDB connection (one per Ray worker process)."""
    global _CON
    if _CON is None:
        tune_worker_threads()
        _CON = duckdb.connect()
        _CON.execute("SET threads TO 1")  # Ray owns parallelism, not duckdb
        # default limit is 80% of RAM PER WORKER PROCESS; dozens of
        # workers each retaining a GB-scale buffer pool starves the
        # object store across epochs
        _CON.execute("SET memory_limit='1GB'")
    return _CON


def sha256_hex(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized sha256 hexdigest of a string column; null in → null out."""
    if _HAVE_DUCKDB:
        tbl = pa.table({"v": arr})
        out = _con().execute(
            "SELECT CASE WHEN v IS NULL THEN NULL ELSE sha256(v) END AS h FROM tbl"
        ).fetch_arrow_table()
        return out.column("h").combine_chunks()
    # fallback: hashlib row loop (correct, slower)
    vals = arr.to_pylist()
    return pa.array(
        [None if v is None else hashlib.sha256(v.encode()).hexdigest() for v in vals],
        type=pa.string(),
    )


def key_hash_u64(*cols: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Stable uint64 hash of the composite key = first 8 bytes of
    sha256(col1 || \\x00 || col2 || ...).  Deterministic across runs →
    safe to persist in manifests (partition → watermark maps)."""
    cols = [
        c if pa.types.is_string(c.type) else pc.cast(c, pa.string())
        for c in cols
    ]
    joined = pc.binary_join_element_wise(*cols, "\x00")
    if joined.null_count:
        # a null key column would propagate to a null hash, and
        # partition_of would cast the NaN to a garbage partition id —
        # fail loudly instead (the CDC key contract is non-null)
        raise ValueError(
            f"{joined.null_count} row(s) have a NULL key column — "
            "CDC key columns must be non-null"
        )
    if _HAVE_DUCKDB:
        tbl = pa.table({"k": joined})
        out = _con().execute(
            "SELECT ('0x' || substr(sha256(k), 1, 16))::UBIGINT AS h FROM tbl"
        ).fetch_arrow_table()
        return out.column("h").combine_chunks()
    vals = joined.to_pylist()
    return pa.array(
        [int.from_bytes(hashlib.sha256(v.encode()).digest()[:8], "big") for v in vals],
        type=pa.uint64(),
    )


def partition_of(key_hash: pa.Array | np.ndarray, num_partitions: int) -> pa.Array:
    """part = key_hash % P, as int32 (the shuffle key)."""
    kh = key_hash.to_numpy(zero_copy_only=False) if isinstance(
        key_hash, (pa.Array, pa.ChunkedArray)
    ) else key_hash
    return pa.array((kh % np.uint64(num_partitions)).astype(np.int32))


def sha256_hex_str(s: str) -> str:
    return hashlib.sha256(s.encode()).hexdigest()


def sha_rollup(shas: pa.Array | pa.ChunkedArray) -> str:
    """Partition-level lineage checksum: sha256 over the key-ordered
    row content-shas (tombstones, i.e. nulls, contribute "D").  ONE
    formula shared by the writer and compaction — a rollup must compare
    equal for byte-identical partition content regardless of which
    path wrote it.

    Vectorized: after the null fill, each chunk's string values sit
    back to back in its data buffer, so hashing the byte range between
    the chunk's first and last offsets equals hashing the rows one by
    one (no per-row Python)."""
    filled = pc.fill_null(shas, "D")
    chunks = filled.chunks if isinstance(filled, pa.ChunkedArray) else [filled]
    h = hashlib.sha256()
    for c in chunks:
        if not len(c):
            continue
        _, offsets, data = c.buffers()
        width = np.int64 if pa.types.is_large_string(c.type) else np.int32
        offs = np.frombuffer(offsets, dtype=width)
        h.update(memoryview(data)[offs[c.offset]:offs[c.offset + len(c)]])
    return h.hexdigest()
