"""Aggregations: per-key spans, deterministic ids, redundancy audit.

Reference analogs (SURVEY.md §2.5): A4 per-person min/max date span
(create_observation_periods.py:38-166 — O(persons × tables) re-reading
every CSV per person; ours is one shuffle), A5 sequential id assignment
(create_table_ids.py:27-48 — arrival-order range(1, n+1); ours offers
both a deterministic key-hash id and an explicit global-order variant),
A6 cross-table redundancy report (find_redundant.py:30-109).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd


from ..functions.dates import INDEX_DATE, exclude_sentinel


def observation_periods(
    tables: list[tuple[rd.Dataset, list[str]]],
    person_col: str = "person_id",
    default_date=INDEX_DATE,
    reduce_partitions: int = 32,
) -> rd.Dataset:
    """(person, min date, max date) across many tables' date columns,
    excluding the 1900-01-01 sentinel; persons whose dates are ALL
    sentinel/null get the default single-day span (A4 — the reference
    emits an index-date span rather than dropping the person).

    Each projection pre-aggregates per block (one row per person per
    block, a vectorized ``pyarrow`` group_by), so the single groupby
    shuffle moves per-person partials — and the union's block count
    (which would otherwise drive the sort-shuffle partition count:
    5 fact projections × 64 blocks = 320 partitions for a
    persons-sized result) is coalesced to ``reduce_partitions`` first.
    At larger scale raise ``reduce_partitions`` toward the cluster's
    core count — the reduced data is one row per (person, block)."""
    import pyarrow.compute as pc

    projected = []
    for ds, date_cols in tables:
        for dc in date_cols:
            def proj(batch: pa.Table, dc=dc) -> pa.Table:
                # keep null/sentinel rows so the person still forms a
                # group; min/max ignore nulls, the fill below defaults.
                # Dates reduce as int32 epoch DAYS: a nullable date32
                # turns into a pandas object column whose NaN/date mix
                # breaks groupby min/max, while nullable ints reduce as
                # clean float64 — fill() casts back to date32.
                d = pc.cast(exclude_sentinel(batch.column(dc)), pa.int32())
                t = pa.table(
                    {person_col: batch.column(person_col), "d": d}
                )
                # per-block combiner: the shuffle ships one row per
                # person per block instead of one per fact row
                return t.group_by(person_col).aggregate(
                    [("d", "min"), ("d", "max")]
                )

            projected.append(
                ds.select_columns([person_col, dc]).map_batches(
                    # large batches: the combiner emits one row per
                    # person per BATCH, so coalescing ~32 small blocks
                    # into one batch cuts the partial-row volume (and
                    # the task count) by the same factor
                    proj, batch_format="pyarrow", batch_size=262144,
                )
            )
    u = projected[0]
    for p in projected[1:]:
        u = u.union(p)
    # person-cardinality key: vectorized bucketed reduce (Ray's
    # aggregate pays ~0.1 ms of Python per group)
    from .joins import bucketed_agg

    agg = bucketed_agg(
        u, [person_col],
        {"observation_period_start_date": ("d_min", "min"),
         "observation_period_end_date": ("d_max", "max")},
        num_buckets=reduce_partitions, combine=False,
    )

    def fill(t: pa.Table) -> pa.Table:
        d = pa.scalar(default_date, pa.date32())
        for c in ("observation_period_start_date",
                  "observation_period_end_date"):
            i = t.column_names.index(c)
            days = pc.cast(t.column(c), pa.int32())  # float64 → days
            t = t.set_column(
                i, c, pc.fill_null(pc.cast(days, pa.date32()), d)
            )
        return t

    return agg.map_batches(fill, batch_format="pyarrow")


def deterministic_ids(
    ds: rd.Dataset, id_col: str, key_cols: list[str]
) -> rd.Dataset:
    """Key-derived surrogate id (scale-safe replacement for A5: stable
    under any parallelism / arrival order)."""
    from ..functions.ids import stable_key_id

    def fn(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            id_col, stable_key_id(*[batch.column(c) for c in key_cols])
        )

    return ds.map_batches(fn, batch_format="pyarrow")


@ray.remote
def _block_order_key(t, cols: list[str]):
    """(first-row, last-row) key tuples of a block that is internally
    sorted by ``cols`` — None for an empty block.  Null key components
    map to a null-safe pair so tuples stay comparable (Arrow/Ray sorts
    place nulls last by default)."""
    if isinstance(t, pd.DataFrame):
        t = pa.Table.from_pandas(t, preserve_index=False)
    if t.num_rows == 0:
        return None

    def ns(v):
        return (v is None, 0 if v is None else v)

    first = tuple(ns(t.column(c)[0].as_py()) for c in cols)
    last = tuple(ns(t.column(c)[-1].as_py()) for c in cols)
    return (first, last)


def ordered_sorted_refs(
    ds: rd.Dataset, key_cols: list[str]
) -> list["ray.ObjectRef"]:
    """Arrow refs of a dataset sorted by ``key_cols``, returned in
    GLOBAL key order derived from the DATA (each block's first/last key
    — blocks from a sort are range-partitioned and internally sorted),
    not from executor bundle order: with the default
    ``execution_options.preserve_order = False`` Ray may hand back
    post-sort blocks permuted, which would silently scramble any
    block-position-based enumeration (advisor finding, round 3).
    Empty blocks sort last.  Cost: one tiny task per block reading two
    rows — no extra pass over the data."""
    refs = ds.to_arrow_refs()
    keys = ray.get([_block_order_key.remote(r, key_cols) for r in refs])
    order = sorted(
        range(len(refs)),
        key=lambda i: (keys[i] is None, keys[i] or ()),
    )
    return [refs[i] for i in order]


def sequential_ids(
    ds: rd.Dataset,
    id_col: str,
    sort_col: str | None = None,
    start: int = 1,
    order_cols: list[str] | None = None,
) -> rd.Dataset:
    """Exact reference semantics (A5): global 1..N enumeration.  Requires
    a defined global order — pass ``sort_col`` (the reference's implicit
    order is concat order, which is not reproducible at scale), or
    ``order_cols`` when the input is ALREADY sorted by those columns
    (skips the re-sort; blocks are re-ordered by their first/last keys).

    Enumeration is fully deterministic when the order key is unique;
    rows tied on the key may be numbered in any order among themselves
    (same caveat as any non-total sort order).

    Implementation: per-block counts → prefix-sum offsets → add offset
    per block (two passes, no shuffle beyond the sort)."""
    if sort_col is not None:
        ds = ds.sort(sort_col)
        refs = ordered_sorted_refs(ds, [sort_col])
    elif order_cols is not None:
        refs = ordered_sorted_refs(ds, order_cols)
    else:
        refs = ds.to_arrow_refs()

    # Ray skips UDF execution on empty blocks, so a zero-row pandas
    # block from an upstream pandas stage can survive every
    # batch_format="pyarrow" stage unconverted and reach us here —
    # count generically and drop empties from the output.
    @ray.remote
    def _count(t) -> int:
        return len(t) if isinstance(t, pd.DataFrame) else t.num_rows

    @ray.remote
    def _with_ids(t, offset: int) -> pa.Table:
        if isinstance(t, pd.DataFrame):
            t = pa.Table.from_pandas(t, preserve_index=False)
        ids = pa.array(np.arange(offset, offset + t.num_rows, dtype=np.int64))
        return t.append_column(id_col, ids)

    counts = ray.get([_count.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) + start
    out_refs = [
        _with_ids.remote(r, int(off))
        for r, off, c in zip(refs, offsets, counts) if c > 0
    ]
    if not out_refs:
        return ds  # fully empty input: nothing to enumerate
    return rd.from_arrow_refs(out_refs)


def redundancy_report(
    ds: rd.Dataset,
    person_col: str,
    concept_col: str,
    source_col: str,
) -> rd.Dataset:
    """Concept ids appearing for the same person in >1 source (A6).

    Shaped for many tiny groups: keys co-locate by coarse hash bucket
    (``bucketed_groupby``) and each bucket resolves ALL its groups in
    one vectorized pandas pass — not one Ray ``map_groups`` Python call
    per (person, concept) (the engine's documented anti-pattern, fixed
    per VERDICT r2 #7)."""
    from .joins import bucketed_groupby

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(
            [person_col, concept_col, source_col]
        ).sort_values([person_col, concept_col, source_col])
        grp = d.groupby([person_col, concept_col], sort=False)
        out = grp[source_col].agg(n_sources="size", **{
            source_col: lambda s: ", ".join(map(str, s))
        }).reset_index()
        out = out[out["n_sources"] >= 2]
        return out[[person_col, concept_col, source_col, "n_sources"]]

    return bucketed_groupby(
        ds.select_columns([person_col, concept_col, source_col]),
        [person_col, concept_col],
        per_bucket,
    )


def partial_then_global_agg(
    ds: rd.Dataset,
    key: str,
    value: str,
) -> rd.Dataset:
    """Pre-aggregate (sum/count/min/max) inside map_batches then groupby
    over the partials — the scale pattern for high-cardinality-input /
    low-cardinality-key aggregation (SURVEY.md §4: push aggregation
    partial).  Matches direct ``ds.groupby(key)`` semantics including
    the null-key group (pandas' default dropna would silently shed
    those rows from the partials)."""
    from ray.data.aggregate import Max as RMax, Min as RMin, Sum as RSum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key, value]).to_pandas()
        g = (
            df.groupby(key, dropna=False)[value]
            .agg(["sum", "count", "min", "max"])
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(key).aggregate(
        RSum("sum", alias_name=f"{value}_sum"),
        RSum("count", alias_name=f"{value}_count"),
        RMin("min", alias_name=f"{value}_min"),
        RMax("max", alias_name=f"{value}_max"),
    )


def exact_quantiles(
    ds: rd.Dataset, col: str, qs: list[float],
    interpolation: str = "disc",
) -> pa.Table:
    """EXACT distributed quantiles (discrete: the element at rank
    ``max(0, ceil(q·n) − 1)`` — DuckDB ``quantile_disc`` semantics,
    verified empirically for interior/0/1 q on odd and even n).

    ``interpolation="linear"`` gives ``quantile_cont`` semantics
    instead: the value at fractional rank ``h = q·(n−1)``, linearly
    interpolated between ranks ``floor(h)`` and ``floor(h)+1`` (the
    two ranks may land in different sorted blocks — both are fetched).
    Linear output is always float64.

    Scale shape: one global sort of the single projected column, then
    the driver reads ONLY per-block row counts plus the ≤len(qs)
    blocks that contain target ranks — never the sorted data.  The
    sort is the honest cost of an exact quantile; approximate needs
    (t-digest) trade it away but lose the oracle.

    NULL rows are dropped before the sort so rank math matches
    ``quantile_disc`` (which ignores NULLs) on nullable columns —
    otherwise nulls would occupy sorted ranks and shift every quantile.

    Returns a small in-memory table (q float64, value <col type>)."""
    import math

    s = (
        ds.select_columns([col])
        .map_batches(lambda t: t.drop_null(), batch_format="pyarrow")
        .sort(col)
    )
    # block order re-derived from the data, not executor bundle order
    # (ties across block boundaries are identical values, so any
    # non-decreasing block arrangement yields the same rank→value map)
    refs = ordered_sorted_refs(s, [col])
    from .joins import _block_rows

    counts = ray.get([_block_rows.remote(r) for r in refs])
    total = int(sum(counts))
    if total == 0:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.null())})
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    if interpolation == "linear":
        # quantile_cont: per q, the two bracketing ranks + the fraction
        targets = []
        for q in qs:
            h = float(q) * (total - 1)
            lo = int(math.floor(h))
            targets.append((float(q), lo, min(lo + 1, total - 1), h - lo))
        want_ranks = sorted({r for _, lo, hi, _ in targets for r in (lo, hi)})
    else:
        targets = [
            (float(q), max(0, math.ceil(q * total - 1e-9) - 1), None, None)
            for q in qs
        ]
        want_ranks = sorted({t[1] for t in targets})
    # fetch each needed block once
    need: dict[int, list[int]] = {}
    for rank in want_ranks:
        b = int(np.searchsorted(starts, rank, side="right") - 1)
        # skip empty blocks whose start equals the next block's start
        while counts[b] == 0:
            b += 1
        need.setdefault(b, []).append(rank)
    rank_val: dict[int, object] = {}
    for b, ranks in need.items():
        t = ray.get(refs[b])
        if isinstance(t, pd.DataFrame):
            t = pa.Table.from_pandas(t, preserve_index=False)
        for rank in ranks:
            rank_val[rank] = t.column(col)[int(rank - starts[b])].as_py()
    out_q, out_v = [], []
    for q, lo, hi, frac in sorted(targets):
        out_q.append(q)
        if interpolation == "linear":
            vlo, vhi = float(rank_val[lo]), float(rank_val[hi])
            out_v.append(vlo + frac * (vhi - vlo))
        else:
            out_v.append(rank_val[lo])
    return pa.table({
        "q": pa.array(out_q, pa.float64()),
        "value": pa.array(
            out_v, pa.float64() if interpolation == "linear" else None
        ),
    })


def grouped_quantiles(
    ds: rd.Dataset,
    key_cols: list[str],
    col: str,
    qs: list[float],
    num_buckets: int | None = None,
    interpolation: str = "disc",
) -> rd.Dataset:
    """Per-group EXACT discrete quantiles (DuckDB ``quantile_disc``
    semantics: the element at rank ``max(0, ceil(q·n)−1)`` of the
    group's non-null values, ascending).  Output: one row per
    (group × q) — columns ``key_cols + [q, value]``.  Groups with no
    non-null values are omitted (SQL emits NULL for them; filter the
    oracle accordingly on nullable inputs).

    ``interpolation="linear"`` gives ``quantile_cont`` semantics (the
    value at fractional rank ``q·(n−1)``, interpolated; float64
    output), same vectorized offset arithmetic.

    Scale shape: unlike the global ``exact_quantiles`` (one full sort),
    groups co-locate by coarse hash bucket and EVERY group in a bucket
    resolves in one vectorized pass — sort-within-bucket + offset
    arithmetic, never a Python call or a pandas ``.quantile`` per
    group."""
    from .joins import bucketed_groupby

    qs_arr = np.asarray(sorted(float(q) for q in qs), dtype=np.float64)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.dropna(subset=[col]).sort_values(
            key_cols + [col], kind="mergesort"
        )
        if not len(g):
            return pd.DataFrame(
                {**{k: g[k] for k in key_cols},
                 "q": pd.Series([], dtype="float64"),
                 "value": g[col]}
            )
        # dropna=False: null-KEY groups are real groups (SQL GROUP BY
        # emits them) — and with the default dropna their rows would
        # still occupy the sorted value array, shifting every later
        # group's offsets (review finding, round 4)
        grp = g.groupby(key_cols, sort=False, dropna=False)
        sizes = grp.size().reset_index(name="__n")
        n = sizes["__n"].to_numpy()
        starts = np.concatenate([[0], np.cumsum(n)[:-1]])
        vals = g[col].to_numpy()
        out = sizes.loc[sizes.index.repeat(len(qs_arr)),
                        key_cols].reset_index(drop=True)
        out["q"] = np.tile(qs_arr, len(n))
        if interpolation == "linear":
            # fractional rank matrix (G × Q); bracketing ranks clipped
            # into each group's range, then one vectorized interpolate
            h = np.outer(n - 1, qs_arr)
            lo = np.floor(h).astype(np.int64)
            frac = h - lo
            hi = np.minimum(lo + 1, (n - 1)[:, None])
            vlo = vals[(starts[:, None] + lo).ravel()].astype(np.float64)
            vhi = vals[(starts[:, None] + hi).ravel()].astype(np.float64)
            out["value"] = vlo + frac.ravel() * (vhi - vlo)
        else:
            # rank matrix (G × Q), clipped into each group's range
            ranks = np.maximum(
                0, np.ceil(np.outer(n, qs_arr) - 1e-9).astype(np.int64) - 1
            )
            out["value"] = vals[(starts[:, None] + ranks).ravel()]
        return out

    return bucketed_groupby(
        ds.select_columns(key_cols + [col]), key_cols, per_bucket,
        num_buckets,
    )


def grouping_sets_agg(
    ds: rd.Dataset,
    group_cols: list[str],
    sets: list[list[str]],
    aggs: dict[str, tuple[str, str]],
    num_buckets: int | None = None,
) -> rd.Dataset:
    """SQL ``GROUP BY GROUPING SETS`` in ONE scan of the input.

    A map stage replicates each batch once per grouping set with the
    non-set key columns nulled and a ``grouping_id`` bitmask attached
    (SQL ``GROUPING(cols...)`` semantics: first listed column = most
    significant bit, bit set when the column is NOT in the set), then
    the whole union flows through ``bucketed_agg``'s per-block
    combiner + bucketed reduce keyed on (group_cols…, grouping_id).
    Scale shape: the S-fold replication collapses to per-block
    per-set partials before anything shuffles — the exchange carries
    ~(distinct keys per block × |sets|) rows, never S copies of the
    data.  ``grouping_id`` also disambiguates a rolled-up NULL from a
    genuinely NULL key value, exactly as in SQL.

    ``aggs`` maps output column → (source column, op ∈ {'sum', 'min',
    'max', 'count'}) as in ``bucketed_agg``.  Output columns:
    group_cols in order, grouping_id, then agg outputs.
    """
    from .joins import bucketed_agg

    n = len(group_cols)
    for s in sets:
        unknown = [c for c in s if c not in group_cols]
        if unknown:
            raise ValueError(f"grouping set {s}: {unknown} not in "
                             f"group_cols {group_cols}")
    gids = [
        sum((c not in s) << (n - 1 - i)
            for i, c in enumerate(group_cols))
        for s in sets
    ]
    if len(set(gids)) != len(gids):
        raise ValueError("duplicate grouping sets")
    # an agg source that is ALSO a key column must keep its original
    # values for aggregation while the key copy gets nulled per set —
    # alias such sources so one physical column never plays both roles
    src_cols = sorted({c for c, _ in aggs.values()})
    alias = {c: (f"__src_{c}" if c in group_cols else c)
             for c in src_cols}
    aggs = {o: (alias[c], op) for o, (c, op) in aggs.items()}
    keep = group_cols + [c for c in src_cols if c not in group_cols]

    def replicate(batch: pa.Table) -> pa.Table:
        batch = batch.select(keep)
        pieces = []
        for s, gid in zip(sets, gids):
            cols = {}
            for c in group_cols:
                col = batch.column(c)
                cols[c] = (col if c in s
                           else pa.nulls(len(batch), col.type))
            for c in src_cols:
                cols[alias[c]] = batch.column(c)
            cols["grouping_id"] = pa.array(
                np.full(len(batch), gid, dtype=np.int64))
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces)

    rep = ds.map_batches(replicate, batch_format="pyarrow")
    out = bucketed_agg(rep, group_cols + ["grouping_id"], aggs,
                       num_buckets=num_buckets)
    return out


def rollup_agg(
    ds: rd.Dataset,
    group_cols: list[str],
    aggs: dict[str, tuple[str, str]],
    num_buckets: int | None = None,
) -> rd.Dataset:
    """SQL ``GROUP BY ROLLUP(cols...)``: every prefix of the column
    list down to the grand total, via ``grouping_sets_agg``."""
    sets = [group_cols[:k] for k in range(len(group_cols), -1, -1)]
    return grouping_sets_agg(ds, group_cols, sets, aggs, num_buckets)


def cube_agg(
    ds: rd.Dataset,
    group_cols: list[str],
    aggs: dict[str, tuple[str, str]],
    num_buckets: int | None = None,
) -> rd.Dataset:
    """SQL ``GROUP BY CUBE(cols...)``: all 2^n column subsets, via
    ``grouping_sets_agg`` (n is bounded by sanity, not the engine —
    the replication factor is 2^n)."""
    if len(group_cols) > 6:
        raise ValueError("cube over >6 columns replicates >64x; "
                         "use explicit grouping sets")
    from itertools import combinations

    sets = [
        list(c)
        for k in range(len(group_cols), -1, -1)
        for c in combinations(group_cols, k)
    ]
    return grouping_sets_agg(ds, group_cols, sets, aggs, num_buckets)


def moment_stats(
    ds: rd.Dataset,
    key_cols: list[str],
    x_col: str,
    y_col: str | None = None,
    num_buckets: int | None = None,
) -> rd.Dataset:
    """Grouped second-moment statistics — VAR_POP / STDDEV_POP and,
    with ``y_col``, COVAR_POP / CORR — as one-pass MERGEABLE partials:
    each block contributes (n, Σx, Σx², [Σy, Σy², Σxy]) per group (a
    vectorized ``pyarrow`` group_by), the bucketed reduce sums them,
    and a finalize map derives the moments.  Population semantics
    (divide by n), matching SQL VAR_POP/COVAR_POP/CORR.

    Pairwise SQL null semantics: rows where x (or, when ``y_col`` is
    given, x OR y) is null are excluded from EVERY statistic — the
    both-non-null filter CORR applies.

    Scale shape: the only exchange ships one partial row per
    (group, batch); groups of one row get variance 0 and a NULL corr
    (zero denominator), like SQL.  Σx² in float64 is exact enough when
    |x| is moderate; for 1e9-scale columns pre-shift x by a constant
    (variance is shift-invariant) before calling.
    """
    import pyarrow.compute as pc

    from .joins import bucketed_agg

    pair = y_col is not None

    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(t.column(x_col), pa.float64())
        keep = pc.is_valid(x)
        cols = {"x": x}
        if pair:
            y = pc.cast(t.column(y_col), pa.float64())
            keep = pc.and_(keep, pc.is_valid(y))
            cols["y"] = y
        base = pa.table({**{k: t.column(k) for k in key_cols}, **cols}
                        ).filter(keep)
        x = base.column("x")
        ext = {"x": x, "xx": pc.multiply(x, x)}
        if pair:
            y = base.column("y")
            ext.update(y=y, yy=pc.multiply(y, y), xy=pc.multiply(x, y))
        tt = pa.table({**{k: base.column(k) for k in key_cols}, **ext})
        g = tt.group_by(key_cols).aggregate(
            [("x", "count")] + [(c, "sum") for c in ext]
        )
        # name-based projection: pyarrow appends keys AFTER the
        # aggregate columns, so a positional rename would misalign
        names = {"x_count": "n", "x_sum": "sx", "xx_sum": "sxx",
                 "y_sum": "sy", "yy_sum": "syy", "xy_sum": "sxy"}
        out = {k: g.column(k) for k in key_cols}
        out.update({new: g.column(old) for old, new in names.items()
                    if old in g.column_names})
        return pa.table(out)

    aggs = {"n": ("n", "sum"), "sx": ("sx", "sum"),
            "sxx": ("sxx", "sum")}
    if pair:
        aggs.update(sy=("sy", "sum"), syy=("syy", "sum"),
                    sxy=("sxy", "sum"))
    merged = bucketed_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=262144),
        key_cols, aggs, num_buckets=num_buckets, combine=False,
    )

    def finalize(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("n"), pa.float64())
        mx = pc.divide(t.column("sx"), n)
        vx = pc.subtract(pc.divide(t.column("sxx"), n),
                         pc.multiply(mx, mx))
        vx = pc.max_element_wise(vx, pa.scalar(0.0))  # FP guard
        out = {**{k: t.column(k) for k in key_cols},
               "n": pc.cast(t.column("n"), pa.int64()),
               "mean_x": mx, "var_x": vx, "std_x": pc.sqrt(vx)}
        if pair:
            my = pc.divide(t.column("sy"), n)
            vy = pc.max_element_wise(
                pc.subtract(pc.divide(t.column("syy"), n),
                            pc.multiply(my, my)),
                pa.scalar(0.0))
            cov = pc.subtract(pc.divide(t.column("sxy"), n),
                              pc.multiply(mx, my))
            denom = pc.sqrt(pc.multiply(vx, vy))
            corr = pc.if_else(pc.greater(denom, 0.0),
                              pc.divide(cov, denom),
                              pa.scalar(None, pa.float64()))
            out.update(mean_y=my, var_y=vy, std_y=pc.sqrt(vy),
                       covar_xy=cov, corr_xy=corr)
        return pa.table(out)

    return merged.map_batches(finalize, batch_format="pyarrow")


def key_skew_stats(
    ds: rd.Dataset,
    key_cols: list[str],
    num_buckets: int | None = None,
) -> rd.Dataset:
    """One-row skew profile of a key distribution — the diagnostic
    behind the north rule's hot-key handling (per-block merge combiners,
    skew joins): total rows, distinct keys, the heaviest key's count
    and share, and the Shannon entropy of the key distribution
    (ln n_keys = uniform; → 0 = one key dominates).

    Shape: per-key counts via the bucketed combiner (one partial row
    per key per block through the exchange), then per-block moment
    partials (Σc, count, max c, Σ c·ln c) reduce to ONE row — the
    driver only ever sees scalars."""
    import pyarrow.compute as pc

    from .joins import bucketed_agg

    ones = ds.select_columns(key_cols).map_batches(
        lambda t: t.append_column(
            "__one", pa.array(np.ones(t.num_rows, dtype=np.int64))),
        batch_format="pyarrow",
    )
    counts = bucketed_agg(ones, key_cols, {"c": ("__one", "sum")},
                          num_buckets=num_buckets)

    def partial(t: pa.Table) -> pa.Table:
        c = t.column("c").to_numpy(zero_copy_only=False).astype(
            np.float64)
        return pa.table({
            "n_total": pa.array([float(c.sum())], pa.float64()),
            "n_keys": pa.array([len(c)], pa.int64()),
            "max_count": pa.array(
                [float(c.max()) if len(c) else 0.0], pa.float64()),
            "clnc": pa.array(
                [float((c * np.log(c)).sum())], pa.float64()),
        })

    parts = counts.map_batches(partial, batch_format="pyarrow")

    def finalize(t: pa.Table) -> pa.Table:
        tot = pc.sum(t.column("n_total")).as_py() or 0.0
        keys = pc.sum(t.column("n_keys")).as_py() or 0
        mx = pc.max(t.column("max_count")).as_py() or 0.0
        clnc = pc.sum(t.column("clnc")).as_py() or 0.0
        ent = (np.log(tot) - clnc / tot) if tot > 0 else 0.0
        return pa.table({
            "n_total": pa.array([int(tot)], pa.int64()),
            "n_keys": pa.array([int(keys)], pa.int64()),
            "max_count": pa.array([int(mx)], pa.int64()),
            "top1_share": pa.array(
                [mx / tot if tot else 0.0], pa.float64()),
            "entropy": pa.array([float(ent)], pa.float64()),
        })

    return parts.repartition(1).map_batches(
        finalize, batch_format="pyarrow")


def grouped_mode(
    ds: rd.Dataset,
    key_cols: list[str],
    value_col: str,
    num_buckets: int | None = None,
) -> rd.Dataset:
    """Per-group MODE with a deterministic tiebreak (count DESC, value
    ASC) — SQL's ``mode()`` leaves ties unspecified, so the contract
    here is the reproducible one (mirror with ROW_NUMBER OVER (ORDER
    BY c DESC, value)).  Output: keys + ``mode`` + ``mode_count``.

    Shape: (key, value) counts via the bucketed combiner (one partial
    row per distinct pair per batch through the exchange), then a
    coarse key-hash-bucketed vectorized argmax — segment firsts of a
    lexsort, no per-group Python."""
    import pyarrow.compute as pc

    from .joins import bucketed_agg

    ones = ds.select_columns(key_cols + [value_col]).map_batches(
        lambda t: t.append_column(
            "__one", pa.array(np.ones(t.num_rows, dtype=np.int64))),
        batch_format="pyarrow",
    )
    counts = bucketed_agg(ones, key_cols + [value_col],
                          {"c": ("__one", "sum")},
                          num_buckets=num_buckets)

    B = num_buckets or 64

    def add_kb(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, dtype=np.uint64)
        for kcol in key_cols:
            h ^= pd.util.hash_array(
                t.column(kcol).to_pandas().to_numpy(object))
        return t.append_column(
            "__kb", pa.array((h % np.uint64(B)).astype(np.int32)))

    def argmax_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(key_cols + ["c", value_col],
                          ascending=[True] * len(key_cols)
                          + [False, True], ignore_index=True)
        # segment firsts: a row starts a new key group when ANY key
        # column changed vs the previous row
        first = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            changed = np.zeros(len(g) - 1, dtype=bool)
            for kcol in key_cols:
                kv = g[kcol].to_numpy()
                changed |= kv[1:] != kv[:-1]
            first[1:] = changed
        out = g[first]
        return pd.DataFrame({
            **{k: out[k].to_numpy() for k in key_cols},
            "mode": out[value_col].to_numpy(),
            "mode_count": out["c"].to_numpy(np.int64),
        })

    return counts.map_batches(add_kb, batch_format="pyarrow").groupby(
        "__kb").map_groups(argmax_in_bucket, batch_format="pandas")


def profile_columns(
    ds: rd.Dataset,
    columns: list[str],
) -> rd.Dataset:
    """ANALYZE-style numeric profile: one output row per column —
    (col, n, nulls, min, max, mean) — from per-block vectorized
    partials (count/min/max/sum per column per block), reduced in one
    tiny final fold.  One pass over the data, no shuffle: the exchange
    carries len(columns) rows per block.  The statistics the optimizer
    surfaces (zone maps) per FILE, here per TABLE for humans."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        names, ns, nulls, mins, maxs, sums = [], [], [], [], [], []
        for c in columns:
            col = pc.cast(t.column(c), pa.float64())
            v = pc.count(col, mode="only_valid").as_py() or 0
            mm = pc.min_max(col).as_py()
            names.append(c)
            ns.append(v)
            nulls.append(t.num_rows - v)
            mins.append(mm["min"])
            maxs.append(mm["max"])
            sums.append(pc.sum(col).as_py() or 0.0)
        return pa.table({
            "col": pa.array(names, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "nulls": pa.array(nulls, pa.int64()),
            "vmin": pa.array(mins, pa.float64()),
            "vmax": pa.array(maxs, pa.float64()),
            "vsum": pa.array(sums, pa.float64()),
        })

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas().groupby("col", sort=True).agg(
            n=("n", "sum"), nulls=("nulls", "sum"),
            vmin=("vmin", "min"), vmax=("vmax", "max"),
            vsum=("vsum", "sum"),
        ).reset_index()
        return pa.table({
            "col": pa.array(df["col"], pa.string()),
            "n": pa.array(df["n"], pa.int64()),
            "nulls": pa.array(df["nulls"], pa.int64()),
            "min_v": pa.array(df["vmin"], pa.float64()),
            "max_v": pa.array(df["vmax"], pa.float64()),
            "sum_v": pa.array(df["vsum"], pa.float64()),
            "mean_v": pa.array(df["vsum"] / df["n"].where(df["n"] > 0),
                               pa.float64()),
        })

    return (
        ds.select_columns(columns)
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow")
    )


def grouped_outliers(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    threshold: float,
    keep_cols: list[str],
    num_buckets: int | None = None,
) -> rd.Dataset:
    """Per-group z-score outlier detection: emit rows where
    ``|value − mean(group)| > threshold · stddev_pop(group)`` along
    with the z-score — the anomaly gate over metric streams (SQL
    mirror: windowed avg/stddev_pop + QUALIFY).

    Scale shape: ONE bucketed shuffle co-locates each key; within a
    bucket both moments come from vectorized ``groupby().transform``
    and the filter is a numpy mask — no second pass over the data, no
    per-key Python.  NULL values take no part in the moments and are
    never outliers (NaN comparisons are False, matching SQL's
    NULL-fails-QUALIFY).  Constant and single-row groups yield 0/0 →
    NaN → excluded on both sides."""
    from .joins import bucketed_groupby

    cols = list(dict.fromkeys(keep_cols + [key_col, value_col]))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        gb = g.groupby(key_col, sort=False)[value_col]
        mean = gb.transform("mean")
        sd = gb.transform("std", ddof=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (g[value_col] - mean) / sd
        keep = np.abs(z.to_numpy(dtype=np.float64)) > threshold
        out = g.loc[keep, cols].copy()
        out["zscore"] = z.to_numpy(dtype=np.float64)[keep]
        return out

    return bucketed_groupby(ds.select_columns(cols), [key_col],
                            per_bucket, num_buckets)


def grouped_robust_outliers(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    threshold: float,
    keep_cols: list[str],
    num_buckets: int | None = None,
    round_digits: int = 6,
) -> rd.Dataset:
    """Per-group MEDIAN/MAD outlier detection — the robust complement
    of :func:`grouped_outliers`: a z-score gate moves its own goalposts
    (one huge spike inflates the stddev and hides itself); the median
    and the median-absolute-deviation don't.  Emits rows where
    ``|value − median(group)| > threshold · MAD(group)`` with the
    rounded per-group ``med``/``mad`` columns (SQL mirror: DuckDB
    ``median`` twice + a filter).

    Scale shape: ONE bucketed shuffle co-locates each key; within a
    bucket both medians come from vectorized ``groupby().transform``.
    ``med``/``mad`` are ROUNDED (``round_digits``, DuckDB half-away
    semantics) before the comparison on BOTH engine and oracle —
    pandas computes an even-count median as (a+b)/2 while SQL
    interpolates a+(b−a)/2, which differ in the last ulp; rounding
    makes the boundary decision identical.  NULL values take no part
    and are never outliers; a zero-MAD group (>50% identical values)
    flags every non-median value — SQL agrees by the same formula."""
    from ..functions.rounding import round_half_away
    from .joins import bucketed_groupby

    cols = list(dict.fromkeys(keep_cols + [key_col, value_col]))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        gb = g.groupby(key_col, sort=False)[value_col]
        med = round_half_away(
            gb.transform("median").to_numpy(dtype=np.float64),
            round_digits)
        dev = np.abs(g[value_col].to_numpy(dtype=np.float64) - med)
        mad = round_half_away(
            pd.Series(dev).groupby(
                g[key_col].to_numpy(), sort=False
            ).transform("median").to_numpy(dtype=np.float64),
            round_digits)
        with np.errstate(invalid="ignore"):
            keep = dev > threshold * mad
        out = g.loc[keep, cols].copy()
        out["med"] = med[keep]
        out["mad"] = mad[keep]
        return out

    return bucketed_groupby(ds.select_columns(cols), [key_col],
                            per_bucket, num_buckets)


def equi_width_histogram(
    ds: rd.Dataset,
    col: str,
    lo: float,
    hi: float,
    bins: int,
) -> rd.Dataset:
    """Equi-width histogram over a numeric column: ``bins`` buckets of
    width (hi−lo)/bins, half-open [edge, next) with the last bin
    closed at ``hi``; out-of-range and NULL values are counted in the
    report but no bin (disclosed, not silently dropped).  Output: one
    row per non-empty bin (bin, lo_edge, n) + a ``bin=-1`` overflow
    row when any value falls outside [lo, hi] or is NULL.

    Scale shape: pure per-block combiner (np.floor on the scaled
    column + bincount) → ≤bins+1 tiny rows per block → one
    vectorized bucketed sum.  The float→bin edge math is the same
    IEEE double multiply/floor on both engines, so bin assignment is
    exactly reproducible."""
    from .joins import bucketed_sum

    w = (float(hi) - float(lo)) / int(bins)

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        ok = ~np.isnan(v) & (v >= lo) & (v <= hi)
        b = np.floor((v[ok] - lo) / w).astype(np.int64)
        b[b == bins] = bins - 1          # hi itself closes the last bin
        cnt = np.bincount(b, minlength=bins)
        nz = np.nonzero(cnt)[0]
        out_bin = nz.astype(np.int64)
        out_n = cnt[nz].astype(np.int64)
        n_out = int(len(v) - ok.sum())
        if n_out:
            out_bin = np.concatenate([out_bin, [-1]])
            out_n = np.concatenate([out_n, [n_out]])
        return pa.table({
            "bin": pa.array(out_bin, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
        })

    summed = bucketed_sum(
        ds.select_columns([col]).map_batches(
            partial, batch_format="pyarrow"),
        ["bin"], ["n"], combine=False,
    )

    def edges(t: pa.Table) -> pa.Table:
        b = t.column("bin").to_numpy(zero_copy_only=False)
        e = np.where(b < 0, np.nan, lo + b * w)
        return pa.table({
            "bin": t.column("bin"),
            "lo_edge": pa.array(e, pa.float64()),
            "n": t.column("n"),
        })

    return summed.map_batches(edges, batch_format="pyarrow")


def population_stability(
    ds_a: rd.Dataset,
    ds_b: rd.Dataset,
    col: str,
    lo: float,
    hi: float,
    bins: int,
    laplace: float = 0.5,
    round_digits: int = 6,
) -> rd.Dataset:
    """Population Stability Index between two slices of a numeric
    column — the drift gate ML-ops pipelines run between corpus /
    feature versions (PSI < 0.1 stable, 0.1–0.25 drifting, > 0.25
    shifted).  Per equi-width bin (shared [lo, hi] edges, out-of-range
    and NULL into the disclosed ``bin=-1`` overflow):
    ``psi_bin = (p_a − p_b) · ln(p_a / p_b)`` with add-``laplace``
    smoothing so an empty bin on one side cannot produce ±inf; output
    is one row per bin (bin, n_a, n_b, p_a, p_b, psi_bin) with the
    rates and psi ROUNDED — the SQL mirror computes the identical
    closed form, and ``SUM(psi_bin)`` is the headline statistic.

    Scale shape: both sides stream through the same per-block bincount
    combiner as :func:`equi_width_histogram` (≤bins+1 tiny rows per
    block, side-tagged) → ONE vectorized bucketed sum → a single-task
    final fold over ≤2·(bins+1) rows."""
    from ..functions.rounding import round_half_away
    from .joins import bucketed_sum

    w = (float(hi) - float(lo)) / int(bins)

    def partial(side: int):
        def fn(t: pa.Table) -> pa.Table:
            v = t.column(col).to_numpy(zero_copy_only=False).astype(
                np.float64)
            ok = ~np.isnan(v) & (v >= lo) & (v <= hi)
            b = np.floor((v[ok] - lo) / w).astype(np.int64)
            b[b == bins] = bins - 1
            cnt = np.bincount(b, minlength=bins)
            nz = np.nonzero(cnt)[0]
            out_bin = nz.astype(np.int64)
            out_n = cnt[nz].astype(np.int64)
            n_out = int(len(v) - ok.sum())
            if n_out:
                out_bin = np.concatenate([out_bin, [-1]])
                out_n = np.concatenate([out_n, [n_out]])
            return pa.table({
                "bin": pa.array(out_bin, pa.int64()),
                "side": pa.array(np.full(len(out_bin), side, np.int64)),
                "n": pa.array(out_n, pa.int64()),
            })
        return fn

    both = ds_a.select_columns([col]).map_batches(
        partial(0), batch_format="pyarrow"
    ).union(ds_b.select_columns([col]).map_batches(
        partial(1), batch_format="pyarrow"))
    summed = bucketed_sum(both, ["bin", "side"], ["n"], combine=False)

    def fold(df: pd.DataFrame) -> pa.Table:
        na = df[df["side"] == 0].set_index("bin")["n"]
        nb = df[df["side"] == 1].set_index("bin")["n"]
        all_bins = sorted(set(na.index) | set(nb.index))
        a = na.reindex(all_bins).fillna(0).to_numpy(np.float64)
        b = nb.reindex(all_bins).fillna(0).to_numpy(np.float64)
        ta, tb = a.sum(), b.sum()
        k = len(all_bins)
        pa_ = (a + laplace) / (ta + laplace * k)
        pb_ = (b + laplace) / (tb + laplace * k)
        psi = (pa_ - pb_) * np.log(pa_ / pb_)
        return pa.table({
            "bin": pa.array(np.asarray(all_bins, np.int64)),
            "n_a": pa.array(a.astype(np.int64)),
            "n_b": pa.array(b.astype(np.int64)),
            "p_a": pa.array(round_half_away(pa_, round_digits)),
            "p_b": pa.array(round_half_away(pb_, round_digits)),
            "psi_bin": pa.array(round_half_away(psi, round_digits)),
        })

    # ≤ 2·(bins+1) rows — one final task
    return summed.repartition(1).map_batches(fold,
                                             batch_format="pandas")


def winsorize(
    ds: rd.Dataset,
    col: str,
    q_lo: float,
    q_hi: float,
    keep_cols: list[str],
    out_col: str | None = None,
) -> rd.Dataset:
    """Winsorization (quantile clipping): replace values below the
    exact ``q_lo`` quantile / above ``q_hi`` with the edge value — the
    outlier-robust feature-scaling step (companion of
    :func:`quantile_bucket_transform`, same edge machinery).  Edges
    are EXACT ``quantile_disc`` values (actual data values, so the
    clip comparison is bit-identical on any engine); NULLs pass
    through NULL.  One edge pass (rank-targeted block reads), then a
    broadcast-free vectorized clip per batch (the two edge scalars are
    closure-captured).  ``out_col=None`` overwrites ``col``."""
    import pyarrow.compute as pc

    edges = exact_quantiles(ds, col, [q_lo, q_hi])
    lo_v, hi_v = edges.column("value").to_pylist()
    out = out_col or col

    def clip(t: pa.Table) -> pa.Table:
        v = t.column(col)
        # skip_nulls=False: element-wise min/max otherwise treat null
        # as missing and return the edge — NULL must stay NULL
        c = pc.min_element_wise(
            pc.max_element_wise(v, lo_v, skip_nulls=False),
            hi_v, skip_nulls=False)
        if out in t.column_names:
            return t.set_column(t.schema.get_field_index(out), out, c)
        return t.append_column(out, c)

    cols = list(dict.fromkeys(keep_cols + [col]))
    return ds.select_columns(cols).map_batches(
        clip, batch_format="pyarrow")


def quantile_bucket_transform(
    ds: rd.Dataset,
    col: str,
    qs: list[float],
    keep_cols: list[str],
    out_col: str = "q_bucket",
) -> rd.Dataset:
    """Quantile-bucket feature transform: assign each row the bucket
    index ``#{edges e : value > e}`` over the EXACT ``quantile_disc``
    edges of ``col`` (e.g. qs=[0.25, 0.5, 0.75] → quartile labels
    0..3) — the rank-normalization / feature-binning step of a
    training pipeline, with boundary semantics exact on both engines
    (edges are actual data values, the comparison is bit-identical;
    no FP-derived edges).  NULL values get a NULL bucket.

    Scale shape: one ``exact_quantiles`` pass (global single-column
    sort, driver reads ≤len(qs) blocks), then the tiny edge vector
    broadcasts via ``ray.put`` and every batch buckets through one
    vectorized ``np.searchsorted`` — no second shuffle."""
    import ray

    from .joins import _cached_get

    eq = exact_quantiles(ds, col, list(qs))
    edges = np.sort(np.asarray(eq.column("value").to_pylist(),
                               dtype=np.float64))
    ref = ray.put(edges)
    cols = list(dict.fromkeys(keep_cols + [col]))

    def fn(t: pa.Table) -> pa.Table:
        e = _cached_get(ref)
        v = t.column(col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        b = np.searchsorted(e, v, side="left").astype(np.int64)
        out = t.select(cols)
        return out.append_column(
            out_col, pa.array(b, pa.int64(),
                              mask=np.isnan(v)))

    return ds.map_batches(fn, batch_format="pyarrow")
