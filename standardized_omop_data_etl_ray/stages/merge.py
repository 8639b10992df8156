"""Last-writer-wins keyed merge — the engine's crown-jewel operator.

Generalizes the reference's priority-ordered dedup-merge
(combine_subtables.py:42-172: first source in a fixed priority list wins
on key (person_id, concept_id); A1 in SURVEY.md §2.5) to CDC semantics:
per key (repo, path), the event with the greatest LSN wins; a winning
tombstone (op='D') removes the key; duplicate deliveries of the same LSN
are idempotent (identical payload).  A ``patch_ops`` table adds partial
updates (op='P'), folded column-wise onto their base.

One winner rule: ``resolve`` is the only code that picks the reduce
kernel for a spec and applies compaction's tombstone rule.  The apply
path's combiner and delta writer, merge-on-read, compaction, point
lookups, MERGE INTO's liveness probe, ``lww_merge`` and the per-epoch
change sets all call it, so the change feed can never report a version
the table state does not hold.

Distributed shape — a two-stage merge so hot keys never serialize:

  stage 1 (combiner, stateless ``map_batches``): ``resolve(final=False)``
      inside each delivery batch.  A key receiving 10^6 events across
      10^4 blocks reaches the shuffle as ≤10^4 rows (plus its patches) —
      the all-to-all exchange moves per-key partials, not raw events.
      Valid because the partial reduce is subset-safe: max-by-LSN is
      associative and commutative, so block boundaries are arbitrary.
  stage 2 (final): ``groupby(part).map_groups`` — one group per hash
      partition, ``resolve(final=True)`` per key inside the group via a
      vectorized window (DuckDB C++ over zero-copy Arrow).  A one-block
      epoch skips the exchange: the same task splits its block by
      ``part`` (``pipelines/cdc._write_partitions``).

Determinism: the winner depends only on (key, max lsn) — independent of
partition count, block boundaries and arrival order, which the tests
assert against the single-process oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..functions import hashing
from ..spec import TableSpec


def lww_reduce_table(t: pa.Table, key_cols=("repo", "path"), lsn_col="lsn") -> pa.Table:
    """Vectorized LWW within one in-memory table: keep, per key, the row
    with max lsn (ties only arise from duplicate deliveries, which carry
    identical payloads; `commit` is used as a stable tiebreak when the
    table has one).  DuckDB window over zero-copy Arrow."""
    if t.num_rows == 0:
        return t
    keys = ", ".join(key_cols)
    tiebreak = ", commit DESC" if "commit" in t.column_names else ""
    con = hashing._con()
    out = con.execute(
        f"""
        SELECT * EXCLUDE (__rn) FROM (
            SELECT *, ROW_NUMBER() OVER (
                PARTITION BY {keys} ORDER BY {lsn_col} DESC{tiebreak}
            ) AS __rn FROM t
        ) WHERE __rn = 1
        """
    ).fetch_arrow_table()
    return out.cast(t.schema)


def drop_tombstones(t: pa.Table, op_col: str = "op") -> pa.Table:
    import pyarrow.compute as pc

    return t.filter(pc.not_equal(t.column(op_col), "D"))


def patch_reduce_table(
    t: pa.Table,
    key_cols=("repo", "path"),
    lsn_col: str = "lsn",
    op_col: str = "op",
    fold: bool = False,
    wm: int | None = None,
) -> pa.Table:
    """Patch-aware LWW reduce: ``op='P'`` rows are PARTIAL updates —
    non-null payload columns overwrite the key's current value, null
    means untouched (setting a column TO null via patch is not
    expressible; send a full 'U' row for that).  A patch on a dead or
    absent key is a no-op; a later full row (I/U/D) supersedes every
    earlier patch.

    ``fold=False`` (subset-safe, used by the per-block combiner and the
    epoch's delta write): per key keep the max-lsn FULL row plus every
    patch above it (all patches when no full row) — patch rows survive
    AS ROWS because lsn boundaries must be preserved across blocks and
    epochs (pre-folding two patches could mask a full row whose lsn
    falls between theirs and lives in another block/epoch).  Running it
    on any subset, then again on the union of results, gives the same
    answer as one pass over everything.

    ``fold=True`` (terminal: merge-on-read, compaction, point lookup —
    every row for the key is present): patches collapse onto their base
    column-wise (latest non-null per column, lsn order), the resolved
    row carries the base op, max contributor lsn and the last
    contributor's commit; tombstone bases ignore later patches and
    survive as tombstones for the caller's usual handling; base-less
    patches drop (no-op) — unless ``wm`` is given (compaction) and the
    patch's lsn exceeds it, in which case the patch row is RETAINED
    as-is: post-reshard watermarks sit at min() over merged partitions,
    so a full row with an lsn in (wm, patch_lsn) could still be
    delivered and the patch must apply to it (the same rule that keeps
    above-watermark tombstones).

    ``content_sha`` stays consistent through the fold for free: a
    content-setting patch carries the sha of its own content, a
    non-setting patch carries null, so the last-non-null rule resolves
    value and sha in lockstep.
    """
    import pyarrow.compute as pc

    if t.num_rows == 0:
        return t
    keys = ", ".join(key_cols)
    tiebreak = ", commit" if "commit" in t.column_names else ""
    con = hashing._con()
    if not fold:
        out = con.execute(
            f"""
            WITH b AS (
                SELECT *, MAX(CASE WHEN {op_col} <> 'P' THEN {lsn_col} END)
                            OVER (PARTITION BY {keys}) AS __base
                FROM t
            ), r AS (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY {keys}, ({op_col} = 'P'),
                        CASE WHEN {op_col} = 'P' THEN {lsn_col} ELSE 0 END
                    ORDER BY {lsn_col} DESC{tiebreak and tiebreak + ' DESC'}
                ) AS __rn
                FROM b
                WHERE ({op_col} <> 'P' AND {lsn_col} = __base)
                   OR ({op_col} = 'P'
                       AND (__base IS NULL OR {lsn_col} > __base))
            )
            SELECT * EXCLUDE (__base, __rn) FROM r WHERE __rn = 1
            """
        ).fetch_arrow_table()
        return out.cast(t.schema)

    # the folded select list, joined so a table with no payload column
    # (a keys-only probe) still builds valid SQL
    folded_cols = ",\n".join(
        [f"MAX({lsn_col}) OVER w AS {lsn_col}"]
        + (["last_value(commit) OVER w AS commit"] if tiebreak else [])
        + [f"last_value({c} IGNORE NULLS) OVER w AS {c}"
           for c in t.column_names
           if c not in (*key_cols, lsn_col, op_col, "commit")]
    )
    out = con.execute(
        f"""
        WITH b AS (
            SELECT *,
                MAX(CASE WHEN {op_col} <> 'P' THEN {lsn_col} END)
                    OVER (PARTITION BY {keys}) AS __base,
                MAX(CASE WHEN {op_col} <> 'P' THEN {lsn_col} END)
                    OVER (PARTITION BY {keys})
                    IS NOT DISTINCT FROM {lsn_col} AND {op_col} <> 'P'
                    AS __is_base
            FROM t
        ), bo AS (
            SELECT *, MAX(CASE WHEN __is_base THEN {op_col} END)
                        OVER (PARTITION BY {keys}) AS __base_op
            FROM b
        ), rel AS (
            SELECT *, ROW_NUMBER() OVER (
                PARTITION BY {keys}, ({op_col} = 'P'),
                    CASE WHEN {op_col} = 'P' THEN {lsn_col} ELSE 0 END
                ORDER BY {lsn_col} DESC{tiebreak and tiebreak + ' DESC'}
            ) AS __rn
            FROM bo
            WHERE (__is_base)
               OR ({op_col} = 'P' AND __base IS NOT NULL
                   AND {lsn_col} > __base AND __base_op <> 'D')
        ), folded AS (
            SELECT {keys},
                last_value({op_col}) OVER
                    (PARTITION BY {keys} ORDER BY ({op_col} <> 'P') ASC
                     ROWS BETWEEN UNBOUNDED PRECEDING
                     AND UNBOUNDED FOLLOWING) AS {op_col},
                {folded_cols},
                COUNT(CASE WHEN {op_col} = 'P' THEN 1 END) OVER w
                    AS __n_patch,
                ROW_NUMBER() OVER (PARTITION BY {keys}
                                   ORDER BY {lsn_col} DESC) AS __rnf
            FROM (SELECT * FROM rel WHERE __rn = 1)
            WINDOW w AS (PARTITION BY {keys}
                         ORDER BY {lsn_col} ASC{tiebreak}
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND UNBOUNDED FOLLOWING)
        )
        SELECT * EXCLUDE (__rnf) FROM folded WHERE __rnf = 1
        """
    ).fetch_arrow_table()
    # content_sha needs no recompute: a content-setting patch carries
    # the sha OF ITS OWN CONTENT (computed at standardize), a
    # non-setting patch carries null — the same last-non-null fold that
    # resolves content resolves its sha in lockstep.
    out = out.drop_columns(["__n_patch"])
    out = out.select(t.column_names).cast(t.schema)
    if wm is not None:
        orphans = con.execute(
            f"""
            WITH b AS (
                SELECT *, MAX(CASE WHEN {op_col} <> 'P' THEN {lsn_col} END)
                            OVER (PARTITION BY {keys}) AS __base
                FROM t
            )
            SELECT * EXCLUDE (__base) FROM b
            WHERE {op_col} = 'P' AND __base IS NULL AND {lsn_col} > {int(wm)}
            QUALIFY ROW_NUMBER() OVER (
                PARTITION BY {keys}, {lsn_col}
                ORDER BY {lsn_col} DESC{tiebreak and tiebreak + ' DESC'}
            ) = 1
            """
        ).fetch_arrow_table()
        if orphans.num_rows:
            out = pa.concat_tables([out, orphans.cast(t.schema)])
    return out


def resolve(t: pa.Table, spec: TableSpec, *, final: bool,
            wm: int | None = None) -> pa.Table:
    """The engine's one winner rule: which version of each key wins,
    and which tombstones may go.  Every combiner, delta write, merge-on-
    read, compaction, point lookup, MERGE INTO probe and change set
    resolves through here, so they cannot disagree.

    ``final=False`` is the subset-safe partial reduce (the per-block
    combiner and the epoch's delta write); ``final=True`` is the
    terminal fold over every row of the key.  A ``patch_ops`` spec
    reduces with ``patch_reduce_table``, any other with
    ``lww_reduce_table``.  ``wm`` (compaction, with ``final``) drops
    only tombstones at or below it and keeps base-less patches above it
    — both may still guard a redelivery the stored watermark lets in.
    Winning tombstones stay in the result; live readers wrap it in
    ``drop_tombstones``."""
    import pyarrow.compute as pc

    if spec.patch_ops:
        out = patch_reduce_table(t, spec.key_cols, spec.lsn_col,
                                 spec.op_col, fold=final, wm=wm)
    else:
        out = lww_reduce_table(t, spec.key_cols, spec.lsn_col)
    if wm is None:
        return out
    droppable = pc.and_(pc.equal(out.column(spec.op_col), "D"),
                        pc.less_equal(out.column(spec.lsn_col), wm))
    return out.filter(pc.invert(droppable))


def priority_merge(
    sources: list[tuple[str, rd.Dataset]],
    key_cols: list[str],
    source_col: str = "__source",
    rank_col: str = "__rank",
    num_buckets: int | None = None,
) -> rd.Dataset:
    """The reference's A1 merge semantics exactly (combine_subtables.py:42-172):
    sources carry a fixed priority order; ALL rows of the highest-priority
    source holding a key win; rows of lower-priority sources whose key
    already exists are flagged redundant with source attribution
    (the reference's ``redundant/`` audit tables).

    Returns one Dataset with ``__redundant: bool`` — filter it for the
    winners and the audit log (priority-as-LSN makes this a special case
    of LWW, but within-source duplicate keys all survive here, matching
    the reference's key-set — not row-level — dedup).
    """
    import pandas as pd

    tagged = []
    for rank, (name, ds) in enumerate(sources):
        def tag(batch: pa.Table, rank=rank, name=name) -> pa.Table:
            n = batch.num_rows
            batch = batch.append_column(source_col, pa.array([name] * n))
            return batch.append_column(rank_col, pa.array([rank] * n, pa.int32()))

        tagged.append(ds.map_batches(tag, batch_format="pyarrow"))
    # unify schemas across sources (C1): heterogeneous sub-schemas are the
    # norm in the reference, and a bare union would leave the same logical
    # key with different dtypes per block — fatal for hash bucketing
    from .schema_ops import union_by_name

    u = union_by_name(tagged)

    from .joins import bucketed_groupby

    def resolve(bucket: pd.DataFrame) -> pd.DataFrame:
        # vectorized across ALL keys in the bucket: winner rank per key
        bucket = bucket.copy()
        min_rank = bucket.groupby(key_cols)[rank_col].transform("min")
        bucket["__redundant"] = bucket[rank_col] > min_rank
        return bucket

    return bucketed_groupby(u, key_cols, resolve, num_buckets).drop_columns(
        [rank_col]
    )


def priority_merge_by_rank(
    ds: rd.Dataset,
    key_cols: list[str],
    rank_col: str,
    num_buckets: int | None = None,
) -> rd.Dataset:
    """Single-pass variant of :func:`priority_merge` for when the
    priority is derivable from a COLUMN of one dataset (no per-source
    filter+union re-reads): per key, rows carrying the minimum
    ``rank_col`` win; others are flagged ``__redundant``.  Identical
    winner/loser semantics to the sources-based form (A1), one read and
    one shuffle."""
    import pandas as pd

    from .joins import bucketed_groupby

    def resolve(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.copy()
        min_rank = bucket.groupby(key_cols)[rank_col].transform("min")
        bucket["__redundant"] = bucket[rank_col] > min_rank
        return bucket

    # drop the rank column like priority_merge drops its __rank — the
    # two forms must be drop-in interchangeable for callers
    return bucketed_groupby(ds, key_cols, resolve, num_buckets).drop_columns(
        [rank_col]
    )


def lww_merge(
    events: rd.Dataset,
    spec: TableSpec | None = None,
    *,
    keep_tombstones: bool = False,
) -> rd.Dataset:
    """Full two-stage LWW merge over standardized events (a
    ``patch_ops`` spec folds its patches, like the lake's read path).

    ``events`` must already carry key_hash/part columns (see
    stages/standardize.py).  Returns one row per surviving key.
    ``keep_tombstones=True`` keeps winning deletes as rows (the lake's
    delta files need them); default drops them (final state view).
    """
    spec = spec or TableSpec(name="cdc")

    def winners(group: pa.Table) -> pa.Table:
        out = resolve(group, spec, final=True)
        return out if keep_tombstones else drop_tombstones(out, spec.op_col)

    ev = events.map_batches(lambda b: resolve(b, spec, final=False),
                            batch_format="pyarrow")
    # num_partitions routes the groupby through the hash-shuffle path —
    # measured ~1.6x faster than the sort shuffle for this string-heavy
    # payload and scaling cleanly 8→32 CPUs (see BENCH/BASELINE.md)
    return ev.groupby("part", num_partitions=spec.num_partitions).map_groups(
        winners, batch_format="pyarrow"
    )


def snapshot_diff(
    state_a: rd.Dataset,
    state_b: rd.Dataset,
    key_cols: list[str],
    ver_col: str,
    schema_a: pa.Schema | None = None,
    schema_b: pa.Schema | None = None,
    num_buckets: int = 32,
    carry_cols: list[str] | None = None,
) -> rd.Dataset:
    """Diff two table SNAPSHOTS (e.g. a lake state at two watermarks):
    emits one row per changed key — ``change`` ∈ {'added', 'deleted',
    'updated'} with the old/new ``ver_col`` values (null on the missing
    side).  Unchanged keys (same version) are dropped inside the
    per-bucket merge, so the output is proportional to the CHANGE SET,
    not the snapshots.  ``carry_cols`` additionally emits
    ``old_<c>``/``new_<c>`` payload columns for each changed key — the
    hook downstream incremental maintenance (vocabulary / multiplicity
    deltas) uses to see the retracted and inserted content.

    Scale shape: one full-outer partitioned hash join on the key
    (both snapshots stream; no driver materialization), then a
    vectorized classify.  This is the audit/reconciliation operator a
    CDC lake needs after replication or backfill."""
    import numpy as np
    import pyarrow.compute as pc

    from .joins import partitioned_hash_join

    j = partitioned_hash_join(
        state_a, state_b, key_cols, key_cols, how="outer",
        num_buckets=num_buckets,
        left_schema=schema_a, right_schema=schema_b,
    )
    k0, k0r = key_cols[0], key_cols[0] + "_r"
    va, vb = ver_col, ver_col + "_r"

    def classify(t: pa.Table) -> pa.Table:
        a_null = pc.is_null(t.column(k0)).to_numpy(zero_copy_only=False)
        b_null = pc.is_null(t.column(k0r)).to_numpy(zero_copy_only=False)
        differs = pc.fill_null(
            pc.not_equal(t.column(va), t.column(vb)), True
        ).to_numpy(zero_copy_only=False)
        keep = a_null | b_null | differs
        t = t.filter(pa.array(keep))
        a_null, b_null = a_null[keep], b_null[keep]
        change = np.where(a_null, "added", np.where(b_null, "deleted", "updated"))
        cols = {}
        for k in key_cols:
            cols[k] = pc.coalesce(t.column(k), t.column(k + "_r"))
        cols["change"] = pa.array(change, pa.string())
        cols["old_" + ver_col] = t.column(va)
        cols["new_" + ver_col] = t.column(vb)
        for cc in carry_cols or ():
            cols["old_" + cc] = t.column(cc)
            cols["new_" + cc] = t.column(cc + "_r")
        return pa.table(cols)

    return j.map_batches(classify, batch_format="pyarrow")


def net_change_sets(
    diffs: list[rd.Dataset],
    key_cols: list[str],
    ver_col: str,
    carry_cols: list[str] | None = None,
    num_buckets: int | None = None,
) -> rd.Dataset:
    """Collapse an ORDERED sequence of change sets (snapshot_diff /
    epoch_change_set rows) into the NET change set of the whole span:
    per key, the first appearance's old side + the last appearance's
    new side, reclassified — added→…→deleted nets to nothing,
    added→updated stays added, updated→deleted keeps the original old
    payload.  Everything that moves is change-set-sized; composing K
    epochs never re-reads state (the changefeed consumer's resume
    path — equals ``snapshot_diff`` of the two endpoint snapshots).

    Keys whose net old and new version are EQUAL (changed and changed
    back within the span) drop, matching what a snapshot diff of the
    endpoints would emit."""
    import numpy as np

    from .joins import bucketed_groupby

    carry = list(carry_cols or ())
    if not diffs:
        raise ValueError("net_change_sets needs at least one change set")
    import pyarrow as pa  # noqa: F811

    schema = None
    for d in diffs:
        try:
            s = d.schema(fetch_if_missing=True)
            schema = pa.schema(list(zip(s.names, s.types)))
            break
        except Exception:
            continue

    tagged = [
        d.map_batches(
            lambda t, i=i: t.append_column(
                "__seq", pa.array(np.full(t.num_rows, i, np.int64))
            ),
            batch_format="pyarrow",
        )
        for i, d in enumerate(diffs)
    ]
    u = tagged[0]
    for t in tagged[1:]:
        u = u.union(t)

    old_cols = [f"old_{ver_col}"] + [f"old_{c}" for c in carry]
    new_cols = [f"new_{ver_col}"] + [f"new_{c}" for c in carry]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(key_cols + ["__seq"], kind="mergesort")
        first = g.groupby(key_cols, sort=False).head(1)
        last = g.groupby(key_cols, sort=False).tail(1)
        m = first[key_cols + ["change"] + old_cols].merge(
            last[key_cols + ["change"] + new_cols],
            on=key_cols, suffixes=("_first", "_last"),
        )
        f_add = (m["change_first"] == "added").to_numpy()
        l_del = (m["change_last"] == "deleted").to_numpy()
        change = np.where(
            f_add & l_del, "drop",
            np.where(f_add, "added", np.where(l_del, "deleted", "updated")),
        )
        # changed-and-reverted keys: net old == net new version → drop
        same = (
            (change == "updated")
            & (m[f"old_{ver_col}"] == m[f"new_{ver_col}"]).to_numpy()
        )
        change = np.where(same, "drop", change)
        m["change"] = change
        m = m[m["change"] != "drop"]
        return m[key_cols + ["change"] + old_cols + new_cols]

    out = bucketed_groupby(u, key_cols, per_bucket, num_buckets)
    if schema is None:
        return out

    def pin(df: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(
            df[schema.names], preserve_index=False
        ).cast(schema)

    return out.map_batches(pin, batch_format="pandas")
