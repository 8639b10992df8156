"""Joins and lookups: broadcast small sides, Usagi-style mapping joins.

Reference analogs (SURVEY.md §2.4): J1 demographics⟕subjects
(demographics--person.py:53), J2 Usagi mapping join — case-insensitive
key, one-to-many fan-out, anti-drop or default-zero on miss
(medical_history--condition_occurrence.py:22-41,85-106;
answer_als_medications_log--drug_exposure.py:184-195;
neurolog--condition_occurrence.py:27-42 first-match variant),
J3/J4 dict lookups, J6 global rekey (person_id_map.py:42-55).

Scale pattern: the small side is ``ray.put`` ONCE on the driver; each
worker process materializes it at most once (process-local cache keyed
by the object ref) — never re-shipped per batch.  Large-large joins use
``Dataset.join`` (hash shuffle) — see pipelines using it.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..spec import _as_arrow_schema

_BCAST_CACHE: dict[str, object] = {}
_BCAST_CACHE_MAX = 64  # bounded: long-running tailing workers would
# otherwise retain every epoch's broadcast (e.g. winner sets) forever


def _cached_get(ref: "ray.ObjectRef"):
    key = ref.hex()
    if key not in _BCAST_CACHE:
        while len(_BCAST_CACHE) >= _BCAST_CACHE_MAX:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))  # FIFO evict
        _BCAST_CACHE[key] = ray.get(ref)
    return _BCAST_CACHE[key]


def broadcast_join(
    ds: rd.Dataset,
    small: pa.Table | pd.DataFrame,
    on: str | list[str],
    how: str = "left",
    suffix: str = "_r",
) -> rd.Dataset:
    """Equi-join against a broadcast small side inside ``map_batches``.

    ``how``: left | inner | semi | anti.  No shuffle — the big side
    streams; the small side is shipped once via the object store.
    """
    if isinstance(small, pa.Table):
        small = small.to_pandas()
    on_cols = [on] if isinstance(on, str) else list(on)
    ref = ray.put(small)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        sm: pd.DataFrame = _cached_get(ref)
        if how in ("semi", "anti"):
            keys = sm[on_cols].drop_duplicates()
            marked = batch.merge(keys, on=on_cols, how="left", indicator=True)
            keep = marked["_merge"] == ("both" if how == "semi" else "left_only")
            return batch[keep.to_numpy()]
        return batch.merge(sm, on=on_cols, how=how, suffixes=("", suffix))

    return ds.map_batches(fn, batch_format="pandas")


def broadcast_rekey(
    ds: rd.Dataset, mapping: dict, cols: list[str], default=None
) -> rd.Dataset:
    """Apply a small key→key mapping to one or more columns (J6: the
    person rekey applied to person + 9 fact tables)."""
    ref = ray.put(mapping)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        m: dict = _cached_get(ref)
        for c in cols:
            mapped = batch[c].map(m)
            batch[c] = mapped if default is None else mapped.fillna(default)
        return batch

    return ds.map_batches(fn, batch_format="pandas")


def default_buckets(
    num_rows: int | None = None,
    rows_per_bucket: int = 250_000,
    lo: int = 64,
    hi: int = 4096,
) -> int:
    """Coarse-bucket count sized to the job, not a constant: with a
    known row count, one bucket per ~rows_per_bucket rows (each bucket
    becomes ONE pandas frame in one task — both the per-task memory
    bound and the parallelism ceiling); otherwise 8× the cluster CPU
    count so no core starves even at small data.

    The ``lo`` floor exists for parallelism, but it only pays off when
    each bucket holds real work — for a tiny input (thousands of rows)
    64 shuffle partitions are pure per-task overhead, so with a KNOWN
    row count the floor is additionally capped at ~1 bucket per 500
    rows.  The memory bound (rows // rows_per_bucket) always wins over
    both caps, so behavior at scale is unchanged."""
    if num_rows is not None:
        mem_lb = num_rows // rows_per_bucket + 1
        overhead_cap = num_rows // 500 + 1
        return int(min(hi, max(mem_lb, min(lo, overhead_cap))))
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return int(min(hi, max(lo, cpus * 8)))


def bucketed_groupby(
    ds: rd.Dataset,
    key_cols: list[str],
    fn,
    num_buckets: int | None = None,
) -> rd.Dataset:
    """Per-key grouped apply WITHOUT one-Python-call-per-group cost:
    co-locate keys by a coarse hash bucket, then call ``fn`` once per
    BUCKET with the whole bucket DataFrame — ``fn`` must handle many keys
    vectorized (pandas groupby/transform).  Ray's ``map_groups`` pays a
    Python call per group, which dominates when groups are small and
    numerous (bands×docs LSH buckets, per-user sessions, per-key merges).

    ``num_buckets=None`` derives a count from the cluster size
    (``default_buckets``); pass an explicit count sized from the input
    row count when known — each bucket is materialized as one pandas
    frame, so buckets bound per-task memory AND parallelism.

    NB: the bucket hash is dtype-sensitive — key columns must carry the
    SAME dtype in every block (run inputs through
    ``schema_ops.union_by_name`` first when unioning mixed sources).
    """
    import numpy as np

    if num_buckets is None:
        num_buckets = default_buckets()

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[key_cols], index=False).to_numpy()
        df = df.copy()
        df["__bucket"] = (h % np.uint64(num_buckets)).astype("int32")
        return df

    def run(g: pd.DataFrame) -> pd.DataFrame:
        out = fn(g.drop(columns="__bucket"))
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas")
    )


# partial-op (inside each input batch) and final-op (per bucket) pairs
# for distributive aggregates: count partials SUM in the final step
_AGG_OPS = {"sum": ("sum", "sum"), "min": ("min", "min"),
            "max": ("max", "max"), "count": ("count", "sum")}


def bucketed_sum(
    ds: rd.Dataset,
    key_cols: list[str],
    sum_cols: list[str],
    num_buckets: int | None = None,
    combine: bool = True,
    source_types: dict[str, pa.DataType] | None = None,
) -> rd.Dataset:
    """groupby-SUM for HIGH-CARDINALITY keys: Ray's sort-based
    ``groupby().aggregate()`` reduce step pays ~0.1-1 ms of Python per
    GROUP (measured 22 s for a 17k-distinct-key sum that takes 20 ms
    vectorized), so keys with ~row-count cardinality must reduce
    inside a bucket with ONE pandas groupby per bucket instead.  Same
    output as ``groupby(key).aggregate(Sum(c) for c in sum_cols)``
    (column order: keys then sums; nulls kept as groups)."""
    return bucketed_agg(
        ds, key_cols, {c: (c, "sum") for c in sum_cols}, num_buckets,
        combine=combine, source_types=source_types,
    )


def bucketed_agg(
    ds: rd.Dataset,
    key_cols: list[str],
    aggs: dict[str, tuple[str, str]],
    num_buckets: int | None = None,
    combine: bool = True,
    source_types: dict[str, pa.DataType] | None = None,
) -> rd.Dataset:
    """General high-cardinality groupby aggregate (see ``bucketed_sum``
    for why): ``aggs`` maps output column → (source column, op) with
    op ∈ {'sum', 'min', 'max', 'count'}.  Output columns: keys in
    order, then ``aggs`` keys in order.

    ``combine=True`` pre-aggregates inside every input batch first
    (one row per distinct key per batch through the shuffle — the same
    partial/combiner discipline as Ray's own AggregateMap); turn it
    off when batches rarely repeat keys (pre-reduced inputs), where
    the extra pass is pure overhead.

    Null semantics match Ray's aggregates: a group whose values are
    ALL null sums to NULL, not pandas' 0 — a hidden non-null count
    rides with every sum and masks the result (min/max already agree:
    both yield null for all-null groups).

    WHEN TO USE WHICH (measured at sf0.1/32cpus): group count ≈ row
    count, or input already pre-combined → this function (Ray's
    per-group reduce cost dominates: 71 s → 3.5 s on the window
    table).  Large raw input reducing to a MODERATE group count
    (≲50k) → Ray's ``groupby().aggregate()`` (its Arrow-native
    partial beats this function's pandas conversion of every input
    row: q3 measured 3.1 s vs 4.7 s)."""
    import numpy as np

    sum_outs = [o for o, (c, op) in aggs.items() if op == "sum"]

    # Pin numeric output dtypes from the SOURCE schema once: a bucket
    # holding an all-null group routes through pandas NaN and would emit
    # float64 where other buckets emit int64, so blocks of one logical
    # column could disagree in Arrow dtype and break downstream schema
    # unification (advisor finding, round 3).  Non-numeric (temporal /
    # string min-max) outputs keep the from_pandas type — callers like
    # observation_periods re-cast those explicitly.
    def _source_arrow_types() -> dict[str, pa.DataType]:
        try:
            sch = ds.schema(fetch_if_missing=True)
            out = {}
            for name, typ in zip(sch.names, sch.types):
                if typ is None or typ is object:
                    # Ray's sentinel for a pandas dtype it could not
                    # convert (extension dtypes) — NB from_numpy_dtype(
                    # None) would silently yield float64
                    raise TypeError(f"unconvertible dtype for {name}")
                if not isinstance(typ, pa.DataType):
                    typ = pa.from_numpy_dtype(typ)  # pandas blocks
                out[name] = typ
            return out
        except Exception:
            pass
        try:  # pandas blocks w/ extension dtypes (Int64, …)
            head = ds.limit(1).to_pandas()
            asch = pa.Schema.from_pandas(head, preserve_index=False)
            return {f.name: f.type for f in asch}
        except Exception:
            return {}

    # ``source_types``: static (col → Arrow type) from the caller when
    # the upstream partial's schema is known at authoring time — the
    # derived fetch is not free: schema(fetch_if_missing=True) (and the
    # limit(1) fallback) EXECUTES the first upstream block, which
    # showed up as the round-4 incremental_doc_frequencies regression
    # (three bucketed_sum calls → three partial lineage executions).
    out_types: dict[str, pa.DataType] = {}
    src_t = dict(source_types) if source_types else _source_arrow_types()
    for o, (c, op) in aggs.items():
        st = src_t.get(c)
        if op == "count":
            out_types[o] = pa.int64()
        elif st is not None and pa.types.is_integer(st):
            out_types[o] = pa.int64() if op == "sum" else st
        elif st is not None and pa.types.is_floating(st):
            out_types[o] = pa.float64()

    def _emit(out: pd.DataFrame, names: list[str]) -> pa.Table:
        cols = {}
        for kc in key_cols:
            arr = pa.Array.from_pandas(out[kc])
            # pin KEY dtypes like agg outputs: a bucket whose values for
            # some key column are ALL null (e.g. the null-extended right
            # columns of a left-join view fold) would otherwise emit
            # float64/null where other buckets emit the real type, and
            # block unification fails downstream
            kt = src_t.get(kc)
            if kt is not None and arr.type != kt:
                arr = arr.cast(kt)
            cols[kc] = arr
        for o in names:
            if o in sum_outs:
                mask = (out["__nn_" + o] == 0).to_numpy(dtype=bool)
                ser = out[o]
                if pd.api.types.is_extension_array_dtype(ser.dtype):
                    # from_pandas(mask=...) rejects extension arrays
                    ser = ser.astype("float64")
                arr = pa.Array.from_pandas(ser, mask=mask)
            else:
                arr = pa.Array.from_pandas(out[o])
            tt = out_types.get(o)
            if tt is not None and arr.type != tt:
                arr = arr.cast(tt)
            cols[o] = arr
        for o in sum_outs:
            cols["__nn_" + o] = pa.Array.from_pandas(
                out["__nn_" + o]
            ).cast(pa.int64())
        return pa.table(cols)

    def partial(df: pd.DataFrame) -> pa.Table:
        named = {
            o: pd.NamedAgg(column=c, aggfunc=_AGG_OPS[op][0])
            for o, (c, op) in aggs.items()
        }
        for o in sum_outs:
            named["__nn_" + o] = pd.NamedAgg(column=aggs[o][0],
                                             aggfunc="count")
        out = df.groupby(key_cols, sort=False, dropna=False).agg(
            **named
        ).reset_index()
        return _emit(out, list(aggs))

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        named = {}
        for o, (c, op) in aggs.items():
            if combine:
                named[o] = pd.NamedAgg(column=o,
                                       aggfunc=_AGG_OPS[op][1])
            else:
                named[o] = pd.NamedAgg(column=c,
                                       aggfunc=_AGG_OPS[op][0])
        for o in sum_outs:
            src = "__nn_" + o if combine else aggs[o][0]
            named["__nn_" + o] = pd.NamedAgg(
                column=src, aggfunc="sum" if combine else "count"
            )
        out = g.groupby(key_cols, sort=False, dropna=False).agg(
            **named
        ).reset_index()
        t = _emit(out, list(aggs))
        return t.drop_columns([f"__nn_{o}" for o in sum_outs])

    if combine:
        ds = ds.map_batches(partial, batch_format="pandas")
    return bucketed_groupby(ds, key_cols, per_bucket, num_buckets)


@ray.remote
def _block_rows(block) -> int:
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).num_rows()


@ray.remote
def _block_to_arrow(block) -> pa.Table:
    from ray.data.block import BlockAccessor

    acc = BlockAccessor.for_block(block)
    t = acc.to_arrow()
    # strip pandas metadata so block schemas compare equal downstream
    return t.replace_schema_metadata(None)


def nonempty_arrow_blocks(ds: rd.Dataset) -> rd.Dataset:
    """MATERIALIZED dataset → the same rows as guaranteed-Arrow,
    non-empty blocks.

    Ray skips map UDFs on empty blocks, so a pipeline that produced an
    empty block upstream carries a SCHEMA-LESS empty through every later
    stage; when a hash shuffle then combines it with real blocks the
    merged partition degrades to pandas and NaN-pads integer columns to
    float64 (observed: partitioned_hash_join right side with int keys
    arriving as int32/float64).  Dropping empties is semantics-
    preserving and conversion happens block-local — only row counts
    reach the driver."""
    refs = ds.to_arrow_refs()  # raw block refs; may be pandas blocks
    counts = ray.get([_block_rows.remote(r) for r in refs])
    keep = [
        _block_to_arrow.remote(r) for r, c in zip(refs, counts) if c
    ]
    if not keep:
        keep = [_block_to_arrow.remote(refs[0])] if refs else []
    return rd.from_arrow_refs(keep) if keep else ds


def _mix64(x):
    """splitmix64 finalizer — bucket hashing needs dispersion, not
    cryptographic stability (nothing derived from it is persisted)."""
    import numpy as np

    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _null_bytes_per_row(schema: pa.Schema) -> float:
    """Per-row cost of shipping this schema's columns as all-null pad
    (measured: Arrow allocates the full data buffer for null
    fixed-width columns — 8.125 B/row for a null int64 — and the
    offsets buffer for null var-width — 4.125 B/row for a null
    string)."""
    total = 0.0
    for f in schema:
        t = f.type
        if pa.types.is_boolean(t):
            total += 0.25
        elif pa.types.is_string(t) or pa.types.is_binary(t) \
                or pa.types.is_large_string(t) or pa.types.is_list(t):
            total += 4.125
        else:
            try:
                total += t.bit_width / 8 + 0.125
            except (ValueError, AttributeError):  # nested/unknown
                total += 8.125
    return total


def est_row_bytes(schema: pa.Schema, assumed_var: int = 24) -> float:
    """Static per-row DATA bytes estimate: fixed-width types contribute
    their width; var-width columns 4 B offsets + ``assumed_var`` payload
    (callers with a measured bytes-per-row — e.g. parquet footer
    ``total_byte_size / num_rows`` — should pass it instead)."""
    total = 0.0
    for f in schema:
        t = f.type
        if pa.types.is_string(t) or pa.types.is_binary(t) \
                or pa.types.is_large_string(t) or pa.types.is_list(t):
            total += 4 + assumed_var
        elif pa.types.is_boolean(t):
            total += 0.125
        else:
            try:
                total += t.bit_width / 8
            except (ValueError, AttributeError):
                total += 8
    return total


def auto_exchange(
    lschema: pa.Schema,
    rschema: pa.Schema,
    left_row_bytes: float | None = None,
    right_row_bytes: float | None = None,
) -> str:
    """Pick the shuffle exchange for ``partitioned_hash_join`` from the
    bytes-per-row cost model (ROADMAP #13): every exchanged row ships
    the OTHER side's columns as nulls, so the per-row pad overhead is
    schema-determined; ipc instead re-serializes the actual data
    bytes.  Route through ipc only when the pad overhead is both
    material in absolute terms (narrow joins are dominated by per-row
    shuffle overhead — a wash, and pad skips the serialize hop) AND a
    substantial fraction of the data actually moving (wide-content
    rows make the pad nulls negligible).  Reproduces the measured
    choices: ipc for full-width lineitem⋈orders (~20% faster at
    sf0.1), pad for narrow int joins and long-text⋈labels joins."""
    pad_over = _null_bytes_per_row(lschema) + _null_bytes_per_row(rschema)
    data = (left_row_bytes or est_row_bytes(lschema)) + (
        right_row_bytes or est_row_bytes(rschema)
    )
    return (
        "ipc" if pad_over >= 48 and pad_over / max(data, 1e-9) >= 0.25
        else "pad"
    )


def partitioned_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: list[str],
    right_on: list[str] | None = None,
    how: str = "inner",
    num_buckets: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    exchange: str = "auto",
    ipc_compression: str | None = None,
    left_row_bytes: float | None = None,
    right_row_bytes: float | None = None,
) -> rd.Dataset:
    """Large-large equi-join as an explicit partitioned hash join:
    both sides get ``bucket = stable_hash(key) % B``, are unioned with a
    side tag, and matching buckets merge pairwise inside ``map_groups``
    (one shuffle each side; skewed keys can be salted by raising B).

    This is the portable pattern for scale (and is robust to empty
    buckets, unlike Dataset.join in this Ray version which fails when a
    hash partition's right side is empty).

    ``exchange`` selects how the two sides travel through the shuffle:

    * ``"pad"`` — both sides are padded to the permissive union of the
      two schemas and unioned row-wise.  Simple, but every row ships
      null columns for the OTHER side's fields (the cost scales with
      the WIDER side's column count).
    * ``"ipc"`` — the bucket ROUTER: each side's prep splits its batch
      by bucket and emits one row per (batch, bucket) holding that
      slice as Arrow IPC bytes (``__bucket, __side, __payload``).  The
      union is schema-identical by construction, the exchange moves
      exactly the data bytes (optionally ``ipc_compression="lz4"`` /
      ``"zstd"`` for multi-node network shuffles), and the per-bucket
      merge deserializes and joins.  Output rows/columns/dtypes are
      identical to ``"pad"`` (tested).
    * ``"auto"`` (default) — a bytes-per-row cost model: ``ipc`` when
      the schema-determined pad overhead (null columns each row ships
      for the other side) is ≥48 B/row AND ≥25% of the estimated data
      bytes moving (``est_row_bytes``, overridable with measured
      ``left_row_bytes``/``right_row_bytes`` from e.g. parquet
      footers); else ``pad``.  Reproduces the measurements: ipc ~20%
      faster at sf0.1 for full-width lineitem⋈orders (3.3–3.9 s →
      2.7–2.8 s), pad for narrow joins (a wash, minus the
      serialize/deserialize hop) and for wide-content rows where the
      pad nulls are noise.

    PERF: ``Dataset.schema()`` on a shuffle-containing lineage executes
    the WHOLE upstream pipeline.  Pass ``left_schema``/``right_schema``
    when an input is not a plain read; the join also stamps its output
    schema on the returned Dataset (``_graft_schema``) so directly
    chained joins never pay a schema probe."""
    import pyarrow.compute as pc

    from ..functions.hashing import key_hash_u64, partition_of
    from .schema_ops import pad_to_schema

    right_on = right_on or left_on
    lschema = (
        left_schema
        or getattr(left, "_graft_schema", None)
        or _as_arrow_schema(left.schema())
    )
    rschema = (
        right_schema
        or getattr(right, "_graft_schema", None)
        or _as_arrow_schema(right.schema())
    )
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    if exchange == "auto":
        exchange = auto_exchange(
            lschema, rschema, left_row_bytes, right_row_bytes
        )

    import numpy as np

    # the fast numeric path must be chosen identically on BOTH sides
    # (equal values must land in the same bucket regardless of width)
    _all_int = all(
        pa.types.is_integer(lschema.field(a).type)
        and pa.types.is_integer(rschema.field(b).type)
        for a, b in zip(left_on, right_on or left_on)
    )

    def bucket_of(t: pa.Table, keys: list[str]):
        """int32 bucket per row — identical hash on both sides."""
        if _all_int:
            # fast path: numeric mix, no string cast / sha; sign-
            # extend through int64 so widths agree across sides
            h = np.zeros(t.num_rows, np.uint64)
            for k in keys:
                col = pc.fill_null(t.column(k), 0)
                x = (
                    col.to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                    .astype(np.uint64)
                )
                h = h * np.uint64(1099511628211) ^ _mix64(x)
            kh = h
        else:
            # null join keys never MATCH, but they must still land in
            # some bucket (key_hash_u64 rejects nulls by contract) —
            # a sentinel keeps them routable; the per-bucket join
            # drops them naturally (SQL NULL = NULL is not true)
            kh = key_hash_u64(
                *[
                    pc.coalesce(
                        pc.cast(t.column(k), pa.string()),
                        pa.scalar("\x00__null__"),
                    )
                    for k in keys
                ]
            )
        return partition_of(kh, num_buckets)

    def prep(side: int, keys: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            t = t.append_column("__bucket", bucket_of(t, keys))
            return t.append_column(
                "__side", pa.array([side] * t.num_rows, pa.int8())
            )

        return fn

    _frag_schema = pa.schema(
        [
            ("__bucket", pa.int32()),
            ("__side", pa.int8()),
            ("__payload", pa.large_binary()),
        ]
    )

    def pack(side: int, keys: list[str]):
        """Router prep: one output row per (batch, bucket) —
        ``(__bucket, __side, __payload: IPC stream bytes)``."""
        def fn(t: pa.Table) -> pa.Table:
            # built per batch: IpcWriteOptions is not picklable
            opts = pa.ipc.IpcWriteOptions(compression=ipc_compression)
            if t.num_rows == 0:
                return _frag_schema.empty_table()
            bk = (
                bucket_of(t, keys)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            order = np.argsort(bk, kind="stable")
            ts = t.take(pa.array(order))
            bs = bk[order]
            bounds = np.flatnonzero(np.diff(bs)) + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [len(bs)]))
            buckets, payloads = [], []
            for s, e in zip(starts, ends):
                sub = ts.slice(s, e - s)
                sink = pa.BufferOutputStream()
                with pa.ipc.new_stream(sink, sub.schema, options=opts) as w:
                    w.write_table(sub)
                buckets.append(int(bs[s]))
                payloads.append(sink.getvalue())
            return pa.table(
                {
                    "__bucket": pa.array(buckets, pa.int32()),
                    "__side": pa.array([side] * len(buckets), pa.int8()),
                    "__payload": pa.array(
                        [p.to_pybytes() for p in payloads], pa.large_binary()
                    ),
                }
            )

        return fn

    if exchange == "ipc":
        l = left.map_batches(pack(0, left_on), batch_format="pyarrow")
        r = right.map_batches(pack(1, right_on), batch_format="pyarrow")
        u = l.union(r)
    else:
        l = left.map_batches(prep(0, left_on), batch_format="pyarrow")
        r = right.map_batches(prep(1, right_on), batch_format="pyarrow")
        unified = pa.unify_schemas(
            [
                pa.schema(list(zip(lschema.names, lschema.types))),
                pa.schema(list(zip(rschema.names, rschema.types))),
                pa.schema([("__bucket", pa.int32()), ("__side", pa.int8())]),
            ],
            promote_options="permissive",
        )
        l = l.map_batches(
            lambda b: pad_to_schema(b, unified), batch_format="pyarrow"
        )
        r = r.map_batches(
            lambda b: pad_to_schema(b, unified), batch_format="pyarrow"
        )
        u = l.union(r)

    # per-bucket merge stays zero-copy Arrow: split by side tag, then a
    # DuckDB C++ hash join over the two Arrow tables (the pandas path
    # paid astype copies of every column per bucket).  Output columns:
    # all left cols, then ALL right cols with an "_r" suffix on name
    # collisions — note the right join KEY is always kept (suffixed if
    # left_on == right_on), unlike pandas.merge which coalesces
    # identically-named keys into one column.
    lset = set(lcols)
    rsel = ", ".join(
        f'r."{c}" AS "{c}{"_r" if c in lset else ""}"' for c in rcols
    )
    lsel = ", ".join(f'l."{c}"' for c in lcols)
    on_clause = " AND ".join(
        f'l."{a}" = r."{b}"' for a, b in zip(left_on, right_on)
    )
    join_kw = {
        "inner": "JOIN",
        "left": "LEFT JOIN",
        "outer": "FULL JOIN",
    }[how]
    sql = f"SELECT {lsel}, {rsel} FROM lg l {join_kw} rg r ON {on_clause}"
    out_schema = pa.schema(
        [lschema.field(c) for c in lcols]
        + [
            pa.field(c + ("_r" if c in lset else ""), rschema.field(c).type)
            for c in rcols
        ]
    )

    def merge_bucket(g: pa.Table) -> pa.Table:
        from ..functions import hashing

        hashing.tune_worker_threads()
        side = g.column("__side")
        lg = g.filter(pc.equal(side, 0)).select(lcols)  # noqa: F841
        rg = g.filter(pc.equal(side, 1)).select(rcols)  # noqa: F841
        con = hashing._con()
        got = con.execute(sql).fetch_arrow_table()
        try:
            return got.cast(out_schema)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
            mismatches = [
                f"{f.name}: got {got.schema.field(f.name).type}, "
                f"want {f.type}"
                for f in out_schema
                if got.schema.field(f.name).type != f.type
            ]
            raise TypeError(
                "partitioned_hash_join output cast failed — "
                + "; ".join(mismatches)
            ) from e

    def merge_bucket_ipc(g: pa.Table) -> pa.Table:
        from ..functions import hashing

        hashing.tune_worker_threads()
        side = g.column("__side").to_numpy(zero_copy_only=False)
        payloads = g.column("__payload")
        parts: tuple[list, list] = ([], [])
        for i in range(g.num_rows):
            buf = payloads[i].as_buffer()
            parts[int(side[i])].append(
                pa.ipc.open_stream(buf).read_all()
            )
        lg = (  # noqa: F841  (read by the DuckDB SQL below)
            pa.concat_tables(parts[0], promote_options="permissive")
            .select(lcols)
            if parts[0]
            else lschema.empty_table()
        )
        rg = (  # noqa: F841
            pa.concat_tables(parts[1], promote_options="permissive")
            .select(rcols)
            if parts[1]
            else rschema.empty_table()
        )
        con = hashing._con()
        got = con.execute(sql).fetch_arrow_table()
        return got.cast(out_schema)

    # num_partitions routes through the hash-shuffle path (measured
    # faster than the sort shuffle for this payload — see lww_merge)
    out = u.groupby("__bucket", num_partitions=num_buckets).map_groups(
        merge_bucket_ipc if exchange == "ipc" else merge_bucket,
        batch_format="pyarrow",
    )
    out._graft_schema = out_schema  # free schema for chained joins
    return out


def auto_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: list[str],
    right_on: list[str] | None = None,
    how: str = "inner",
    right_rows: int | None = None,
    broadcast_limit: int = 2_000_000,
    num_buckets: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    left_row_bytes: float | None = None,
    right_row_bytes: float | None = None,
) -> rd.Dataset:
    """Size-aware join selection (the broadcast-threshold pattern every
    shuffle engine uses): ``right_rows`` is an UPPER BOUND on the build
    (right) side's row count obtained WITHOUT executing its lineage —
    a parquet footer, or the pre-filter/pre-join count of its source
    table.  Below ``broadcast_limit`` the build side is collected once
    to the driver, shipped once via the object store, and the probe
    side STREAMS through a zero-shuffle per-batch hash join; at or
    above it (or with no bound) the two-sided partitioned hash join
    runs.  The sf0.1 bench therefore measures the broadcast plan —
    which IS the correct plan at that build size — while a 100 TB run
    of the same query takes the partitioned path automatically.

    Output column semantics match ``partitioned_hash_join`` on both
    paths: all left columns, then all right columns with an ``_r``
    suffix on name collisions (the right join key is always kept), and
    identical Arrow dtypes (the broadcast probe is the same DuckDB
    Arrow join as ``merge_bucket``, never a pandas NaN-degrading
    merge).  Broadcast requires ``how="inner"``; other joins always
    take the partitioned path."""
    import pyarrow.compute as pc  # noqa: F401  (parity with merge path)

    right_on = right_on or left_on
    if right_rows is None or right_rows > broadcast_limit or how != "inner":
        return partitioned_hash_join(
            left, right, left_on, right_on, how=how,
            num_buckets=num_buckets,
            left_schema=left_schema, right_schema=right_schema,
            left_row_bytes=left_row_bytes, right_row_bytes=right_row_bytes,
        )

    lschema = (
        left_schema
        or getattr(left, "_graft_schema", None)
        or _as_arrow_schema(left.schema())
    )
    # collect + normalize the build side (bounded by right_rows)
    sm = pa.Table.from_pandas(right.to_pandas(), preserve_index=False)
    rschema = right_schema or getattr(right, "_graft_schema", None)
    if rschema is not None:
        sm = sm.select(list(rschema.names)).cast(
            pa.schema([rschema.field(c) for c in rschema.names])
        )
    lcols, rcols = list(lschema.names), list(sm.column_names)
    lset = set(lcols)
    rsel = ", ".join(
        f'r."{c}" AS "{c}{"_r" if c in lset else ""}"' for c in rcols
    )
    lsel = ", ".join(f'l."{c}"' for c in lcols)
    on_clause = " AND ".join(
        f'l."{a}" = r."{b}"' for a, b in zip(left_on, right_on)
    )
    sql = f"SELECT {lsel}, {rsel} FROM lg l JOIN rg r ON {on_clause}"
    out_schema = pa.schema(
        [lschema.field(c) for c in lcols]
        + [
            pa.field(c + ("_r" if c in lset else ""), sm.schema.field(c).type)
            for c in rcols
        ]
    )
    ref = ray.put(sm)

    def probe(batch: pa.Table) -> pa.Table:
        from ..functions import hashing

        hashing.tune_worker_threads()
        lg = batch.select(lcols)  # noqa: F841
        rg = _cached_get(ref)  # noqa: F841
        con = hashing._con()
        return con.execute(sql).fetch_arrow_table().cast(out_schema)

    out = left.map_batches(probe, batch_format="pyarrow")
    out._graft_schema = out_schema
    return out


def usagi_join(
    ds: rd.Dataset,
    mapping: pa.Table | pd.DataFrame,
    source_col: str,
    domain: str | None = None,
    mode: str = "one_to_many",
    concept_id_col: str = "conceptId",
    concept_name_col: str = "conceptName",
    map_source_col: str = "sourceName",
    domain_col: str = "domainId",
) -> rd.Dataset:
    """Usagi-style concept-mapping join (J2).

    Key is case-insensitive, whitespace-stripped equality on the mapping's
    sourceName, optionally filtered to one domain.  Modes:
      one_to_many — a row duplicates per matching concept
                    (medical_history--*: 1 source term → N concepts)
      first       — first match only (neurolog--condition_occurrence.py:27-42)
      anti_drop   — unmatched rows are DROPPED (medical_history--*)
      default_zero — unmatched rows keep concept 0 / 'No Matching Concept'
                    (answer_als_medications_log--drug_exposure.py:184-195)
    """
    if isinstance(mapping, pa.Table):
        mapping = mapping.to_pandas()
    m = mapping.copy()
    if domain is not None:
        m = m[m[domain_col] == domain]
    m["__key"] = m[map_source_col].astype(str).str.strip().str.lower()
    m = m[["__key", concept_id_col, concept_name_col]].rename(
        columns={concept_id_col: "concept_id", concept_name_col: "concept_name"}
    )
    if mode == "first":
        m = m.drop_duplicates("__key", keep="first")
    ref = ray.put(m)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        mm: pd.DataFrame = _cached_get(ref)
        batch = batch.copy()
        batch["__key"] = batch[source_col].astype(str).str.strip().str.lower()
        joined = batch.merge(mm, on="__key", how="left")
        if mode in ("one_to_many", "first"):
            pass
        if mode == "anti_drop":
            joined = joined[joined["concept_id"].notna()]
        elif mode == "default_zero":
            joined["concept_id"] = joined["concept_id"].fillna(0).astype("int64")
            joined["concept_name"] = joined["concept_name"].fillna(
                "No Matching Concept"
            )
        return joined.drop(columns="__key")

    return ds.map_batches(fn, batch_format="pandas")


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by_cols: list[str],
    ts_col: str,
    direction: str = "backward",
    tolerance=None,
    allow_exact_matches: bool = True,
    suffix: str = "_r",
    num_buckets: int | None = None,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Distributed AS-OF join (pandas ``merge_asof`` semantics as a
    first-class two-input operator): every left row picks the nearest
    right row of the same ``by_cols`` key at-or-before
    (``backward``), at-or-after (``forward``) or closest
    (``nearest``) in ``ts_col``, optionally within ``tolerance`` —
    the enrich-with-latest-dimension-version / sensor-alignment /
    trade-quote join Ray Data has no native form of.

    Left rows with no qualifying right row keep NULL right columns
    (left-outer, merge_asof's contract).  Right columns that collide
    with left names get ``suffix``.  DETERMINISM: the right side must
    be unique per (key, ts) — with several equal-ts right rows the
    winner would be input-order-dependent; de-duplicate upstream
    (e.g. max-lsn per (key, ts)) as the documented contract.

    Scale shape: ONE coarse-bucket exchange co-locates each key's rows
    from BOTH sides (side-tagged union through ``bucketed_groupby``);
    per bucket a single C-speed ``pd.merge_asof`` resolves every key
    at once (it requires only ts-sorted frames and handles the ``by``
    grouping internally).  Output dtypes are pinned from the two
    sides' Arrow schemas so a bucket whose int columns picked up
    NaN during the mixed-schema exchange cannot flip block dtypes."""
    import numpy as np

    lschema = (left_schema or getattr(left, "_graft_schema", None)
               or _as_arrow_schema(left.schema()))
    rschema = (right_schema or getattr(right, "_graft_schema", None)
               or _as_arrow_schema(right.schema()))
    lcols = list(lschema.names)
    rcols = [c for c in rschema.names if c not in by_cols + [ts_col]]
    lset = set(lcols)
    out_fields = [lschema.field(c) for c in lcols] + [
        pa.field(c + (suffix if c in lset else ""),
                 rschema.field(c).type)
        for c in rcols
    ]
    # right values are NULL for unmatched left rows — nullable ints
    # land as float64 from pandas, so pin those fields to float64
    out_schema = pa.schema([
        pa.field(f.name, pa.float64())
        if f.name not in lset and pa.types.is_integer(f.type) else f
        for f in out_fields
    ])

    def tag(side: int, cols: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            t = t.select(cols)
            return t.append_column(
                "__side", pa.array(np.full(t.num_rows, side, np.int8)))
        return fn

    union = left.map_batches(
        tag(0, lcols), batch_format="pyarrow"
    ).union(right.map_batches(
        tag(1, list(by_cols) + [ts_col] + rcols), batch_format="pyarrow"
    ))

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        # a bucket fed by only one side's blocks lacks the other
        # side's columns entirely — reindex to the union first
        g = g.reindex(columns=list(dict.fromkeys(
            lcols + list(by_cols) + [ts_col] + rcols + ["__side"])))
        side = g["__side"].to_numpy()
        lg = g.loc[side == 0, lcols].sort_values(
            ts_col, kind="mergesort")
        rg = g.loc[side == 1, list(by_cols) + [ts_col] + rcols]
        rg = rg.sort_values(ts_col, kind="mergesort")
        # the exchange degrades int/ts dtypes in mixed buckets (the
        # other side's rows are NaN there) — restore the on-key dtype
        # so merge_asof's exact comparisons hold
        want_ts = lschema.field(ts_col).type.to_pandas_dtype()
        lg = lg.astype({ts_col: want_ts})
        rg = rg.astype({ts_col: want_ts})
        out = pd.merge_asof(
            lg, rg, on=ts_col, by=list(by_cols),
            direction=direction, tolerance=tolerance,
            allow_exact_matches=allow_exact_matches,
            suffixes=("", suffix),
        )
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).select(out_schema.names).cast(out_schema)

    out = bucketed_groupby(union, list(by_cols), per_bucket, num_buckets)
    out._graft_schema = out_schema
    return out


def range_join(
    points: rd.Dataset,
    intervals: rd.Dataset,
    val_col: str,
    start_col: str,
    end_col: str,
    cell_width: float,
    num_buckets: int | None = None,
    point_schema: pa.Schema | None = None,
    interval_schema: pa.Schema | None = None,
    suffix: str = "_r",
) -> rd.Dataset:
    """KEYLESS range join (grid partitioning): pair every point row
    with every interval row whose ``[start, end)`` contains the
    point's ``val_col`` — SQL ``JOIN ... ON v >= start AND v < end``
    with NO equi-key (the ip-range-lookup / price-band /
    genomic-overlap shape ``interval_join`` cannot express, since that
    operator co-locates by an equi-key).

    Grid scheme: the value axis is cut into ``cell_width`` cells; each
    interval REPLICATES to every cell it covers (fan-out =
    ⌈length/cell_width⌉ + 1 — choose the width near the typical
    interval length so replication stays O(1)); each point lands in
    exactly ONE cell, so every qualifying (point, interval) pair meets
    exactly once and needs NO distinct pass.  One bucketed exchange on
    the cell id; per bucket one vectorized pandas merge on the cell +
    band filter.  COST: a cell's points × intervals materializes
    before the filter — size ``cell_width`` (and bucket count) so a
    cell stays block-sized; a pathological mega-interval is better
    pre-split upstream.  Output dtypes pin from the two sides' Arrow
    schemas (inner join — no null-extension)."""
    import numpy as np

    pschema = (point_schema or getattr(points, "_graft_schema", None)
               or _as_arrow_schema(points.schema()))
    ischema = (interval_schema
               or getattr(intervals, "_graft_schema", None)
               or _as_arrow_schema(intervals.schema()))
    pcols = list(pschema.names)
    icols = list(ischema.names)
    pset = set(pcols)
    out_schema = pa.schema(
        [pschema.field(c) for c in pcols]
        + [pa.field(c + (suffix if c in pset else ""),
                    ischema.field(c).type) for c in icols]
    )

    def cell_of(v: np.ndarray) -> np.ndarray:
        return np.floor(v / cell_width).astype(np.int64)

    def tag_points(t: pa.Table) -> pa.Table:
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        t = t.select(pcols)
        t = t.append_column("__cell", pa.array(cell_of(v)))
        return t.append_column(
            "__side", pa.array(np.zeros(t.num_rows, np.int8)))

    def explode_intervals(df: pd.DataFrame) -> pd.DataFrame:
        lo = df[start_col].to_numpy(dtype=np.float64)
        hi = df[end_col].to_numpy(dtype=np.float64)
        c0 = cell_of(lo)
        # end-exclusive: the last covered cell holds end − ε
        c1 = np.maximum(c0, np.floor(
            np.nextafter(hi, -np.inf) / cell_width).astype(np.int64))
        reps = (c1 - c0 + 1).clip(min=0)
        idx = np.repeat(np.arange(len(df)), reps)
        offs = (np.arange(int(reps.sum()))
                - np.repeat(np.cumsum(reps) - reps, reps))
        out = df.iloc[idx][icols].reset_index(drop=True)
        out["__cell"] = c0[idx] + offs
        out["__side"] = np.ones(len(out), np.int8)
        return out

    union = points.map_batches(
        tag_points, batch_format="pyarrow"
    ).union(intervals.map_batches(
        explode_intervals, batch_format="pandas"
    ))

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        # a bucket fed by only one side's blocks lacks the other
        # side's columns entirely — reindex to the union first
        g = g.reindex(columns=list(dict.fromkeys(
            pcols + icols + ["__cell", "__side"])))
        is_point = (g["__side"].to_numpy() == 0)
        pg = g.loc[is_point, pcols + ["__cell"]]
        ig = g.loc[~is_point, icols + ["__cell"]]
        merged = pg.merge(ig, on="__cell", suffixes=("", suffix))
        sc = start_col + (suffix if start_col in pset else "")
        ec = end_col + (suffix if end_col in pset else "")
        v = merged[val_col].to_numpy(dtype=np.float64)
        lo = merged[sc].to_numpy(dtype=np.float64)
        hi = merged[ec].to_numpy(dtype=np.float64)
        keep = (v >= lo) & (v < hi)
        out = merged.loc[keep, out_schema.names]
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).select(out_schema.names).cast(out_schema)

    out = bucketed_groupby(union, ["__cell"], per_bucket, num_buckets)
    out._graft_schema = out_schema
    return out


def interval_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: list[str],
    ts_col: str,
    start_col: str,
    end_col: str,
    right_rows: int | None = None,
    num_buckets: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Equi-key + interval-containment join: pair each left row with
    every right row of the same key whose ``[start, end)`` window
    contains the left row's ``ts_col`` — the event-attribution shape
    (events→incident windows, reads→sessions) SQL writes as
    ``JOIN ... ON key AND ts >= start AND ts < end``.

    Shape: the size-aware equi-join co-locates the key (broadcast
    while the window table fits, partitioned hash join beyond), then a
    fused vectorized band filter drops non-containing pairs — no extra
    exchange beyond the equi-join's.  COST assumption to size for: the
    intermediate is per-key |left| × |right| BEFORE the band filter
    (identical to the SQL plan's hash-join-then-filter); keys whose
    fan-out explodes need a coarser pre-filter (e.g. bucket both sides
    by coarse time range into the key) — same discipline as salting a
    hot groupby key."""
    import pyarrow.compute as pc

    j = auto_hash_join(
        left, right, on, right_rows=right_rows, num_buckets=num_buckets,
        left_schema=left_schema, right_schema=right_schema,
    )

    def band(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col)
        keep = pc.and_(
            pc.greater_equal(ts, t.column(start_col)),
            pc.less(ts, t.column(end_col)),
        )
        return t.filter(keep)

    return j.map_batches(band, batch_format="pyarrow")


def banded_interval_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: list[str],
    ts_col: str,
    start_col: str,
    end_col: str,
    band_width: int,
    right_rows: int | None = None,
    num_buckets: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    max_copies: int = 2,
) -> rd.Dataset:
    """``interval_join`` for keys with pathological fan-out (the
    salting analog, ROADMAP #16): add a coarse time band to the join
    key so the pre-filter cross product is per-(key, band), not
    per-key.  A single hot key whose |left|×|right| would explode under
    the plain equi-join is cut by the band into products between rows
    that can actually match.

    Each left row joins in exactly ONE band (``floor(ts / w)``); each
    right interval is REPLICATED to every band it overlaps — with
    ``band_width`` ≥ the max interval length that is ≤ 2 copies — so
    every matching pair meets in exactly one band and the output equals
    the plain ``interval_join`` row-for-row, no dedup pass needed.

    ``band_width`` is in the ts columns' underlying integer unit
    (microseconds for ``timestamp[us]``).  ``right_rows`` is the
    pre-replication bound; the broadcast decision scales it by
    ``max_copies`` — and that contract is ENFORCED: an interval
    spanning more than ``max_copies`` bands raises inside
    ``explode_right`` (at the data, with the offending span) instead of
    silently exploding the build side past what the broadcast plan was
    sized for.  Raise ``max_copies`` (or ``band_width``) for workloads
    with longer intervals."""
    import numpy as np
    import pyarrow.compute as pc

    w = int(band_width)

    def _ints(col: pa.ChunkedArray) -> "np.ndarray":
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        return col.to_numpy(zero_copy_only=False).astype(np.int64)

    def tag_left(t: pa.Table) -> pa.Table:
        b = np.floor_divide(_ints(t.column(ts_col)), w)
        return t.append_column("__band", pa.array(b, pa.int64()))

    def explode_right(t: pa.Table) -> pa.Table:
        s = _ints(t.column(start_col))
        e = _ints(t.column(end_col))
        sb = np.floor_divide(s, w)
        eb = np.floor_divide(e - 1, w)
        counts = np.where(e > s, eb - sb + 1, 0).astype(np.int64)
        if counts.size and counts.max() > max_copies:
            i = int(counts.argmax())
            raise ValueError(
                f"banded_interval_join: interval [{s[i]}, {e[i]}) spans "
                f"{counts[i]} bands of width {w} > max_copies="
                f"{max_copies}; raise band_width or max_copies (the "
                "broadcast sizing relies on this bound)"
            )
        rep = np.repeat(np.arange(len(counts)), counts)
        offs = np.arange(counts.sum(), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        return t.take(pa.array(rep, pa.int64())).append_column(
            "__band", pa.array(sb[rep] + offs, pa.int64())
        )

    band_field = pa.field("__band", pa.int64())
    ls = left_schema.append(band_field) if left_schema else None
    rs = right_schema.append(band_field) if right_schema else None
    j = auto_hash_join(
        left.map_batches(tag_left, batch_format="pyarrow"),
        right.map_batches(explode_right, batch_format="pyarrow"),
        on + ["__band"],
        right_rows=None if right_rows is None else max_copies * right_rows,
        num_buckets=num_buckets, left_schema=ls, right_schema=rs,
    )

    def band(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col)
        keep = pc.and_(
            pc.greater_equal(ts, t.column(start_col)),
            pc.less(ts, t.column(end_col)),
        )
        return t.filter(keep).drop_columns(["__band", "__band_r"])

    return j.map_batches(band, batch_format="pyarrow")


def _bloom_probe_indices(col: pa.ChunkedArray, n_bits: int, k: int):
    """The k probe bit-indices per key — ONE definition shared by the
    build and filter sides (the no-false-negative guarantee is exactly
    'both sides compute identical indices', so the double-hash math
    must never fork).  Yields k int64 index arrays."""
    import numpy as np

    from ..functions.text import hash_u64

    v = col.cast(pa.string()).to_pandas().to_numpy(dtype=object)
    h1 = hash_u64(v)
    h2 = ((h1 >> np.uint64(31)) | (h1 << np.uint64(33))) | np.uint64(1)
    for i in range(k):
        yield ((h1 + np.uint64(i) * h2) % np.uint64(n_bits)).astype(
            np.int64
        )


def build_bloom(
    ds: rd.Dataset, col: str, n_bits: int = 1 << 23, k: int = 4
) -> tuple["ray.ObjectRef", int, int]:
    """Distributed Bloom filter over a join column: each block folds
    its keys into one ``n_bits``-bit bitmap (double hashing, k probes),
    the driver ORs the per-block bitmaps (one ``n_bits/8``-byte row per
    block — never the keys) and ``ray.put``s the result once.

    Sizing: fpr ≈ (1 − e^(−k·n/m))^k — the 1 MiB default holds ~1.5M
    keys at ~5% fpr; scale ``n_bits`` with the build side (the bitmap,
    not the keys, is what ships).  Returns (bitmap ref, n_bits, k)."""
    import numpy as np

    import ray

    def partial(t: pa.Table) -> pa.Table:
        bits = np.zeros(n_bits // 8, np.uint8)
        for idx in _bloom_probe_indices(t.column(col), n_bits, k):
            np.bitwise_or.at(
                bits, idx >> 3, (1 << (idx & 7)).astype(np.uint8)
            )
        return pa.table({"bm": pa.array([bits.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    bitmap = np.zeros(n_bits // 8, np.uint8)
    for b in parts["bm"]:
        bitmap |= np.frombuffer(b, np.uint8)
    return ray.put(bitmap), n_bits, k


def bloom_prefilter(
    ds: rd.Dataset, col: str, bloom: tuple
) -> rd.Dataset:
    """Drop probe-side rows whose join key CANNOT be in the build side
    (no false negatives — semantics-preserving before an INNER join):
    the classic shuffle-volume cut for selective joins.  The bitmap is
    fetched once per worker process (``_cached_get``)."""
    import numpy as np

    ref, n_bits, k = bloom

    def keep(t: pa.Table) -> pa.Table:
        bitmap: np.ndarray = _cached_get(ref)
        ok = np.ones(t.num_rows, bool)
        for idx in _bloom_probe_indices(t.column(col), n_bits, k):
            ok &= (bitmap[idx >> 3] & (1 << (idx & 7)).astype(np.uint8)) != 0
        return t.filter(pa.array(ok))

    return ds.map_batches(keep, batch_format="pyarrow")


def detect_hot_keys(
    ds: rd.Dataset, col: str, min_rows: int, cap: int = 64
) -> list:
    """Probe-side keys with ≥ ``min_rows`` occurrences (top ``cap`` by
    count): per-block count partials → one vocabulary-sized bucketed
    sum → threshold filter.  Only the (bounded) hot list reaches the
    driver."""
    import numpy as np
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([col]).group_by(col).aggregate([([], "count_all")])
        # arrow names the count column 'count_all'; normalize + order
        return pa.table({
            col: g.column(col),
            "n": pc.cast(g.column("count_all"), pa.int64()),
        })

    counts = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        [col], ["n"], combine=False,
    )
    hot = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n"), min_rows)),
        batch_format="pyarrow",
    ).to_pandas()
    hot = hot.sort_values("n", ascending=False).head(cap)
    return hot[col].tolist()


def skew_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str | None = None,
    hot_keys: list | None = None,
    right_rows: int | None = None,
    num_buckets: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    materialize_inputs: bool = False,
) -> rd.Dataset:
    """Skew-aware inner equi-join: rows whose key is in ``hot_keys``
    (caller-known, or ``detect_hot_keys``) take the BROADCAST plan —
    the hot build rows ship once, the hot probe rows never enter a
    shuffle partition that one reducer would have to swallow — while
    cold keys take the normal partitioned hash join; the two plans'
    outputs are column/dtype-identical (both are ``auto_hash_join``
    shapes) and union back.  Semantics-preserving: every row goes
    through exactly one plan.

    COST NOTE: the hot/cold split consumes each input's lineage twice
    (Ray re-executes a lazy upstream per filter branch).
    ``materialize_inputs=True`` pins each input in the (spillable)
    object store first — one upstream execution, two cheap scans.
    Choose by upstream cost: re-reading pruned parquet twice is often
    cheaper than spilling a huge probe side; a compute-heavy upstream
    (joins, parsing) should materialize."""
    import pyarrow.compute as pc

    right_on = right_on or left_on
    if not hot_keys:
        return auto_hash_join(
            left, right, [left_on], [right_on],
            right_rows=right_rows, num_buckets=num_buckets,
            left_schema=left_schema, right_schema=right_schema,
        )
    if materialize_inputs:
        left = left.materialize()
        right = right.materialize()
    hot_arr = pa.array(hot_keys)

    def split(col):
        def fn(t: pa.Table, keep_hot: bool, c: str) -> pa.Table:
            m = pc.is_in(t.column(c), value_set=hot_arr)
            return t.filter(m if keep_hot else pc.invert(m))
        return fn

    lf, rf = split(left_on), split(right_on)
    l_hot = left.map_batches(lambda t: lf(t, True, left_on),
                             batch_format="pyarrow")
    l_cold = left.map_batches(lambda t: lf(t, False, left_on),
                              batch_format="pyarrow")
    r_hot = right.map_batches(lambda t: rf(t, True, right_on),
                              batch_format="pyarrow")
    r_cold = right.map_batches(lambda t: rf(t, False, right_on),
                               batch_format="pyarrow")
    # hot side: MEASURE the hot build slice instead of assuming one
    # build row per hot key (a build-side-skewed input could otherwise
    # blow past what the broadcast plan was sized for — advisor
    # finding, round 3).  The slice is materialized once (spillable,
    # expected dimension-sized) and its true count drives the plan:
    # small → broadcast; huge → partitioned fallback.
    r_hot = r_hot.materialize()
    n_hot_build = r_hot.count()
    hot_join = auto_hash_join(
        l_hot, r_hot, [left_on], [right_on],
        right_rows=n_hot_build,
        num_buckets=num_buckets,
        left_schema=left_schema, right_schema=right_schema,
    )
    cold_join = auto_hash_join(
        l_cold, r_cold, [left_on], [right_on],
        right_rows=right_rows, num_buckets=num_buckets,
        left_schema=left_schema, right_schema=right_schema,
    )
    return hot_join.union(cold_join)
