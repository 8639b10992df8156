"""Standardize stage: raw change events → target-schema rows.

The Ray-Data analog of the reference's per-table transform scripts
(read CSV → build records → guarantee output columns; e.g.
demographics--person.py:228-250, vital_signs--measurement.py:461-481):
one vectorized ``map_batches`` pass that

  * applies declarative column renames (schema-evolution field remapping,
    reference analog: person_id_map.py / transform_ids.py rekeys),
  * pads missing target columns with typed nulls (reference analog:
    add_missing_columns.py:26-53 pad-to-canonical),
  * computes the per-row invariant ``content_sha = sha256(content)``,
  * computes the stable ``key_hash`` and shuffle ``part`` columns.

Zero-copy Arrow in/out; the sha256 kernel is DuckDB's vectorized C++
implementation (see functions/hashing.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import key_hash_u64, partition_of, sha256_hex
from ..spec import TableSpec


def make_standardizer(spec: TableSpec):
    """Return a batch fn (pa.Table -> pa.Table) for ``spec``.

    Use as ``ds.map_batches(make_standardizer(spec), batch_format="pyarrow")``.
    """
    rename = dict(spec.rename)
    key_cols = list(spec.key_cols)
    content_col = spec.content_col
    num_parts = spec.num_partitions
    target = spec.schema

    def standardize(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import tune_worker_threads

        tune_worker_threads()
        if rename:
            batch = batch.rename_columns(
                [rename.get(c, c) for c in batch.column_names]
            )
        # pad missing target columns with typed nulls (schema evolution:
        # older events lack columns added later)
        n = batch.num_rows
        for f in target:
            if f.name not in batch.column_names:
                batch = batch.append_column(f.name, pa.nulls(n, f.type))
        # widen any column whose declared type is wider than delivered
        casts = {}
        for f in target:
            col = batch.column(f.name)
            if col.type != f.type:
                casts[f.name] = f.type
        if casts:
            new_schema = pa.schema(
                [
                    pa.field(name, casts.get(name, batch.schema.field(name).type))
                    for name in batch.column_names
                ]
            )
            batch = batch.cast(new_schema)
        kh = key_hash_u64(*[batch.column(c) for c in key_cols])
        batch = batch.append_column(
            "content_sha", sha256_hex(batch.column(content_col))
        )
        batch = batch.append_column("key_hash", kh)
        batch = batch.append_column("part", partition_of(kh, num_parts))
        return batch

    return standardize


def make_curation_gate(spec: TableSpec, predicate):
    """Streaming curation (ROADMAP #18): a batch fn that converts I/U
    events whose payload FAILS ``predicate`` into tombstones, applied
    INSIDE the lake's apply path (``CDCLake(gate=...)``) so newly
    ingested rows are scored on arrival and the merge-on-read state is
    always the CURATED latest state.

    Retraction semantics — why a failing update becomes a DELETE rather
    than being dropped: if the latest version of a key fails the gate,
    dropping the event would leave the previous (accepted) version live
    in the state; the quality verdict applies to the KEY's current
    content, so the correct streaming outcome is a retraction.  Real
    deletes pass through untouched; gated rows keep their key columns +
    lsn and null every payload column (tombstones carry no payload,
    matching delete events).

    ``predicate``: Callable[[pa.Table], bool ndarray] over the RAW
    event batch (pre-standardize) — compose it from the same vectorized
    kernels the batch curation pass uses (functions/text.py).

    AUDIT TRAIL (ROADMAP #19, the analog of the reference's per-script
    skip-warning logs, vital_signs--measurement.py:52,155-165): gated
    rows carry a ``__gated`` marker column through the apply path; the
    delta writer counts the WINNING gated tombstones per partition and
    drops the marker, so commit records / partition_metrics report
    ``rows_gated`` separately from organic deletes."""
    import numpy as np

    op_col = spec.op_col
    keep_cols = set(spec.key_cols) | {spec.lsn_col, op_col}

    def gate(batch: pa.Table) -> pa.Table:
        # vectorized Arrow kernel — this runs on every batch of every
        # epoch in the apply hot path, so no per-element Python
        is_del = pc.fill_null(
            pc.equal(batch.column(op_col), "D"), False
        ).to_numpy(zero_copy_only=False)
        ok = np.asarray(predicate(batch), dtype=bool)
        to_tomb = ~ok & ~is_del
        if not to_tomb.any():
            return batch.append_column(
                "__gated", pa.array(np.zeros(batch.num_rows, dtype=bool))
            )
        mask = pa.array(to_tomb)
        i_op = batch.column_names.index(op_col)
        batch = batch.set_column(
            i_op, op_col,
            pc.if_else(mask, pa.scalar("D", pa.string()),
                       pc.cast(batch.column(op_col), pa.string())),
        )
        for c in batch.column_names:
            if c in keep_cols:
                continue
            col = batch.column(c)
            batch = batch.set_column(
                batch.column_names.index(c), c,
                pc.if_else(mask, pa.scalar(None, col.type), col),
            )
        return batch.append_column("__gated", mask)

    return gate
