"""CDC replay pipeline: micro-batch tail → standardize → LWW merge →
copy-on-write Parquet lake with two-phase manifest commit.

This is the engine's flagship (SURVEY.md §7).  One ``CDCLake`` instance
is the single writer for one lake table:

    lake = CDCLake("/lake", spec)
    for batch in micro_batches(events, ...):          # binlog tailing
        lake.apply_events(ray.data.from_arrow(batch)) # one epoch each
    state = lake.read_state()                         # merge-on-read view

Guarantees (tested in tests/test_lake.py):
  * exactly-once: re-applying an already-committed window is a no-op
    (per-partition LSN watermarks); a crash between phase 1 (delta files
    + epoch markers written) and phase 2 (manifest swap) leaves invisible
    orphans that the retry overwrites deterministically;
  * determinism: final state is independent of parallelism, partition
    count, micro-batch sizing and salting;
  * schema evolution: later batches may add / widen columns
    (pa.unify_schemas-based, narrowing rejected), resolved at read.

Scale notes (100 TB design): every stage is a streaming ``map_batches``
over zero-copy Arrow; the only all-to-all exchange per epoch is the
``groupby(part)`` whose input was already reduced to ≤ one row per key
per block by the combiner stage; delta files are written inside the
per-partition merge tasks (no driver materialization — only the P-row
stats table returns to the driver).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..functions import hashing
from ..spec import TableSpec
from ..stages.merge import (drop_tombstones, lww_reduce_table,
                            patch_reduce_table)
from ..stages.standardize import make_standardizer
from ..state import bloom
from ..state import manifest as mf

def _merge_ddl_renames(user: dict, ddl: dict) -> dict:
    """Compose the user's ingest-time rename map (``TableSpec.rename``,
    src→canonical) with the manifest's DDL rename map (old→new from
    ``rename_column``): a source field that the user map lands on a
    since-renamed canonical name must chain through to the NEW name
    (src→dst, dst→new ⇒ src→new).  Identity entries are dropped."""
    merged = {k: ddl.get(v, v) for k, v in user.items()}
    for k, v in ddl.items():
        merged.setdefault(k, v)
    return {k: v for k, v in merged.items() if k != v}


_STATS_SCHEMA = pa.schema(
    [
        ("part", pa.int32()),
        ("epoch", pa.int64()),
        ("file", pa.string()),
        ("rows", pa.int64()),
        ("tombstones", pa.int64()),
        ("patches", pa.int64()),
        ("gated", pa.int64()),
        ("bytes", pa.int64()),
        ("watermark", pa.int64()),
        ("sha_rollup", pa.string()),
        ("events_seen", pa.int64()),
        # JSON {col: [min, max]} over lsn + key columns — zone-map
        # style file statistics for pruned reads (lookup / lsn_range)
        ("stats", pa.string()),
    ]
)


def _json_safe(v) -> bool:
    """True when a zone-map bound survives the manifest's JSON
    round-trip losslessly (int/float/str/bool).  Dates, timestamps,
    decimals and binary are NOT recorded — a lossy bound would make
    pruning unsound, so those columns simply never file-skip."""
    return isinstance(v, (int, float, str, bool))


def _cluster_reorder(delta: pa.Table, cols: list[str], order: str,
                     key_cols) -> pa.Table:
    """Physically re-order a (key-sorted) delta by VALUE columns so
    file slices become value-clustered.  ``order="lex"`` sorts by the
    columns (key tiebreak keeps file bytes deterministic across task
    retries); ``"zorder"`` interleaves per-column rank bits (16 bits
    per column) into a Z-curve key and sorts by that — multi-column
    clustering where EVERY listed column's per-file min/max tightens,
    not just the leading one (Delta/Iceberg OPTIMIZE ZORDER semantics,
    computed locally per partition — ranks come from this partition's
    own value distribution, which is exactly what its files need).
    Ranks are taken over the key-sorted input with method="first", so
    the permutation — and therefore the written bytes — is
    deterministic."""
    if order == "lex":
        return delta.sort_by(
            [(c, "ascending") for c in cols]
            + [(c, "ascending") for c in key_cols]
        )
    if order != "zorder":
        raise ValueError(f"unknown cluster_order {order!r}")
    n = delta.num_rows
    if n <= 1 or not cols:
        return delta
    denom = float(max(1, n - 1))
    k = len(cols)
    # the interleaved key must fit 64 bits: 16 bits/lane up to 4
    # columns, fewer beyond (a shift ≥64 is undefined in numpy)
    bits = min(16, 64 // k)
    top = float((1 << bits) - 1)
    lanes = []
    for c in cols:
        r = (
            delta.column(c).to_pandas()
            .rank(method="first", na_option="top")
            .to_numpy()
        )
        lanes.append(((r - 1.0) * top / denom).astype(np.uint64))
    z = np.zeros(n, dtype=np.uint64)
    one = np.uint64(1)
    for bit in range(bits):
        for j, lane in enumerate(lanes):
            z |= ((lane >> np.uint64(bit)) & one) << np.uint64(
                bit * k + j
            )
    return delta.take(pa.array(np.argsort(z, kind="stable")))


def _file_rewriter(root: str, table: str, epoch: int, prefix: str,
                   transform):
    """Batch fn for the rewriting DDL verbs (``rename_column``,
    ``add_column(default=...)``): rewrite each live file through
    ``transform`` (``pa.Table -> pa.Table``) — a pure per-file rewrite
    (rows, order, tombstones, patches all preserved; NO LWW resolve),
    writing under the DDL epoch's directory.  Output names are
    ``prefix`` + a content hash of the source path, so a task retry
    overwrites the same paths (idempotent, like the delta writer).  The
    key-hash bloom sidecar is copied verbatim — keys are neither
    renameable nor addable, so its bits still hold."""
    import hashlib

    troot = Path(root) / table

    def rewrite(batch: pa.Table) -> pa.Table:
        srcs, dsts = [], []
        for part, rel in zip(batch.column("part").to_pylist(),
                             batch.column("file").to_pylist()):
            t = transform(pq.read_table(troot / rel))
            pdir = (troot / f"part={int(part):05d}"
                    / f"epoch={epoch:06d}")
            pdir.mkdir(parents=True, exist_ok=True)
            tag = hashlib.sha1(rel.encode()).hexdigest()[:16]
            fname = f"{prefix}-{tag}.parquet"
            tmp = pdir / (fname + ".tmp")
            pq.write_table(t, tmp)
            tmp.replace(pdir / fname)
            bp = bloom.sidecar_path(troot / rel)
            if bp.exists():
                btmp = pdir / (fname + ".bloom.tmp")
                btmp.write_bytes(bp.read_bytes())
                btmp.replace(bloom.sidecar_path(pdir / fname))
            srcs.append(rel)
            dsts.append(str((pdir / fname).relative_to(troot)))
        return pa.table({"src": pa.array(srcs, pa.string()),
                         "dst": pa.array(dsts, pa.string())})

    return rewrite


def _delta_writer(root: str, table: str, epoch: int, spec: TableSpec,
                  cluster_files: int = 1,
                  cluster_by: list[str] | None = None,
                  cluster_order: str = "lex"):
    """Per-partition merge + phase-1 write, run inside map_groups tasks.

    Output file names are deterministic per (partition, epoch, slice):
    a task retry overwrites the same paths via atomic rename →
    idempotent.

    ``cluster_files > 1`` splits the partition's output into that many
    files, each with its own zone map.  Default slicing is KEY-RANGE
    (key-sorted output → a point lookup reads one slice instead of the
    whole partition).  ``cluster_by=[value cols]`` re-orders the output
    by VALUE columns instead (``cluster_order`` "lex" or "zorder") so
    the slices become value-clustered and those columns' per-file
    min/max zone maps turn selective — the layout that makes
    ``read_state(filters=...)`` file-skipping effective.  One stats
    row per file; the partition-level lineage checksum is the rollup
    over ALL the partition's KEY-ordered rows regardless of slicing or
    physical order."""
    key_cols, lsn_col = spec.key_cols, spec.lsn_col

    def write_group(group: pa.Table) -> pa.Table:
        hashing.tune_worker_threads()
        part = int(group.column("part")[0].as_py())
        events_seen = group.num_rows
        if spec.patch_ops:
            # subset-safe patch reduce: the epoch's delta keeps, per
            # key, the max-lsn full row PLUS every patch above it —
            # folding happens only at terminal reads (merge-on-read /
            # compaction), where all epochs are present
            delta = patch_reduce_table(group, key_cols, lsn_col,
                                       spec.op_col)
        else:
            delta = lww_reduce_table(group, key_cols, lsn_col)
        # gate audit (ROADMAP #19): count the WINNING gated tombstones,
        # then drop the marker so the delta schema stays canonical
        n_gated = 0
        if "__gated" in delta.column_names:
            n_gated = int(
                pc.sum(pc.fill_null(delta.column("__gated"), False)).as_py()
                or 0
            )
            delta = delta.drop_columns(["__gated"])
        # deterministic file bytes: stable row order
        delta = delta.sort_by([(c, "ascending") for c in key_cols])
        pdir = Path(root) / table / f"part={part:05d}" / f"epoch={epoch:06d}"
        pdir.mkdir(parents=True, exist_ok=True)
        # partition-level content checksum (lineage): sha over the
        # key-ordered row shas — slicing-invariant by construction
        roll = hashing.sha_rollup(delta.column("content_sha"))
        if cluster_by:
            delta = _cluster_reorder(delta, list(cluster_by),
                                     cluster_order, key_cols)
        n = delta.num_rows
        k = max(1, min(cluster_files, n)) if n else 1
        bounds = [round(i * n / k) for i in range(k + 1)]
        infos = []
        for i in range(k):
            chunk = delta.slice(bounds[i], bounds[i + 1] - bounds[i])
            fname = ("delta.parquet" if cluster_files == 1
                     else f"delta-{i:03d}.parquet")
            fpath = pdir / fname
            tmp = pdir / (fname + ".tmp")
            pq.write_table(chunk, tmp)
            tmp.replace(fpath)
            if chunk.num_rows:
                # key-hash bloom sidecar (state/bloom.py): lets point
                # lookups skip this file on a definite miss — the
                # pruning zone maps can't do for hash-scattered keys.
                # tmp+rename like the data file; crash between the two
                # renames just means "no sidecar" (no pruning), and a
                # task retry rewrites both deterministically.
                blob = bloom.build(
                    chunk.column("key_hash").to_numpy(
                        zero_copy_only=False
                    )
                )
                btmp = pdir / (fname + ".bloom.tmp")
                btmp.write_bytes(blob)
                btmp.replace(pdir / (fname + ".bloom"))
            fstats: dict[str, list] = {}
            if chunk.num_rows:
                # zone map: exact min/max of lsn + keys + any cluster
                # columns (full values, never truncated — a shortened
                # max would understate the bound and make pruning
                # unsound).  Cluster-column bounds are recorded only
                # when they survive the manifest's JSON round-trip
                # losslessly; others silently get no file-skip.
                for c in dict.fromkeys(
                    [lsn_col] + list(key_cols) + list(cluster_by or [])
                ):
                    if c not in chunk.column_names:
                        continue
                    mm = pc.min_max(chunk.column(c)).as_py()
                    if c in (lsn_col, *key_cols) or (
                        _json_safe(mm["min"]) and _json_safe(mm["max"])
                    ):
                        fstats[c] = [mm["min"], mm["max"]]
            infos.append({
                "part": part,
                "epoch": epoch,
                "file": str(fpath.relative_to(Path(root) / table)),
                "rows": chunk.num_rows,
                "tombstones": int(pc.sum(pc.equal(
                    chunk.column(spec.op_col), "D")).as_py() or 0),
                "patches": int(pc.sum(pc.equal(
                    chunk.column(spec.op_col), "P")).as_py() or 0),
                "gated": n_gated if i == 0 else 0,
                "bytes": fpath.stat().st_size,
                "watermark": int(pc.max(chunk.column(lsn_col)).as_py())
                if chunk.num_rows else -1,
                "sha_rollup": roll,
                "events_seen": events_seen if i == 0 else 0,
                "stats": json.dumps(fstats),
            })
        # ONE marker per (epoch, partition): aggregate across slices so
        # the durable audit record reflects the whole partition
        info = dict(infos[0])
        info.update(
            rows=sum(x["rows"] for x in infos),
            tombstones=sum(x["tombstones"] for x in infos),
            patches=sum(x["patches"] for x in infos),
            bytes=sum(x["bytes"] for x in infos),
            watermark=max(x["watermark"] for x in infos),
            files_all=[x["file"] for x in infos],
        )
        mf.write_marker(root, table, epoch, part, info)
        return pa.Table.from_pylist(infos, schema=_STATS_SCHEMA)

    return write_group


class ConcurrentCommitError(RuntimeError):
    """A commit lost its race to a newer concurrent epoch (or the
    partition layout changed underneath it).  The losing epoch's delta
    files are invisible orphans (gc reclaims them).  Recovery: the
    lost window's events are now BELOW the advanced watermark (the
    newer epoch raised it), so a plain re-apply would skip them —
    ``restore()`` to the snapshot the loser had read (watermarks
    revert with it, by design) and re-tail the log from that window
    onward; redelivery of already-applied windows is a no-op."""


_ENGINE_COLS = ("content_sha", "key_hash", "part")

# every table property a root manifest carries, with the value a table
# that never set it has; a commit carries each one its edit leaves alone
_TABLE_PROPS = {
    "num_partitions": None, "schema": None, "partitions": {},
    "compacted": False, "dropped_cols": [], "cluster_spec": None,
    "renamed_cols": {},
}


def _table_props(m: dict) -> dict:
    return {k: m.get(k, d) for k, d in _TABLE_PROPS.items()}


def _is_layout(r: dict) -> bool:
    """A reshard, restore or DDL lineage record."""
    return bool(r.get("reshard") or r.get("restore_of") is not None
                or r.get("ddl"))


def _refuse_conflict(conflict: str, cur: dict | None,
                     planned: dict | None, epoch: int,
                     num_partitions: int) -> None:
    """The commit point's conflict rule for one verb class, checked
    under the commit lock against the re-read manifest ``cur``:

    * ``"quiesced"`` (layout/DDL verbs, restore, clone): refuse if the
      manifest moved past the ``planned`` snapshot.
    * ``"data"``: refuse a newer committed data/layout/DDL/clone epoch
      — our snapshot number would regress under epoch-ordered
      consumers (cursors, change sets, time travel); regressing past
      pure compactions is state-preserving.
    * ``"maintenance"`` (compaction): newer data commits fold in as
      leftovers; only a newer layout/DDL/restore epoch refuses.

    Data and maintenance commits also refuse a changed partition
    count."""
    if conflict == "quiesced":
        if (cur or {}).get("epoch", 0) != (planned or {}).get("epoch", 0):
            raise ConcurrentCommitError(
                "layout/DDL verbs require quiesced writers: the "
                "manifest advanced during the operation; retry"
            )
        return
    if not cur:
        return
    if cur["epoch"] > epoch:
        newer = [r for r in cur.get("lineage", []) if r["epoch"] > epoch]
        if conflict == "data":
            blockers = [r["epoch"] for r in newer
                        if not r.get("compaction") or r.get("clone")
                        or _is_layout(r)]
            if blockers:
                raise ConcurrentCommitError(
                    f"epoch {epoch} lost the commit race to newer "
                    f"epoch(s) {blockers}: its delta files are invisible "
                    "orphans (gc reclaims); restore() to the pre-race "
                    "snapshot and re-tail from the lost window (see "
                    "ConcurrentCommitError)"
                )
        else:
            blockers = [r["epoch"] for r in newer if _is_layout(r)]
            if blockers:
                raise ConcurrentCommitError(
                    f"compaction epoch {epoch} raced layout/DDL "
                    f"epoch(s) {blockers}: retry compact()"
                )
    if cur["num_partitions"] != num_partitions:
        raise ConcurrentCommitError(
            f"partition layout changed under epoch {epoch} "
            f"({num_partitions} -> {cur['num_partitions']}): layout DDL "
            "requires quiesced writers; re-open the lake and retry"
        )


_VALID_OPS = ("I", "U", "D")


def _dead_letter_splitter(root: str, table: str, epoch: int,
                          spec: TableSpec,
                          constraints: list | None = None):
    """Batch fn: divert malformed events (null key column, null lsn,
    unknown op) to ``_dead_letter/epoch=N/`` parquet instead of failing
    the epoch — the poison-pill containment every production ingest
    needs.  Runs BEFORE the curation gate and standardize (whose key
    hash fails loudly on null keys by design).

    ``constraints``: declarative row contracts — ``(name, batch_fn)``
    pairs where ``batch_fn(pa.Table) -> bool ndarray`` marks the rows
    that SATISFY the contract; violators divert with reason
    ``constraint:<name>`` (Delta-style CHECK constraints, but
    non-fatal: the feed keeps flowing and the violations stay
    queryable).  Deletes are exempt — a tombstone has no payload to
    validate.

    Side-effect write from inside the map task, like the delta writer;
    the file name is a content hash of the diverted rows, so a task
    retry overwrites the same file (no duplicate dead letters).  A
    ``reason`` column records which rule each row tripped.  An entirely
    MISSING key column is a schema error and still raises — per-row
    diversion is for per-row faults."""
    rename = dict(spec.rename)
    inv = {v: k for k, v in rename.items()}

    def incoming(batch: pa.Table, canonical: str) -> str | None:
        if canonical in batch.column_names:
            return canonical
        src = inv.get(canonical)
        return src if src and src in batch.column_names else None

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        reasons = np.full(batch.num_rows, "", dtype=object)

        def mark(mask: np.ndarray, why: str):
            fresh = mask & (reasons == "")
            reasons[fresh] = why

        for k in spec.key_cols:
            col = incoming(batch, k)
            if col is None:
                raise ValueError(
                    f"key column {k!r} missing from the event batch "
                    "entirely — schema error, not a per-row fault"
                )
            mark(pc.is_null(batch.column(col)).to_numpy(
                zero_copy_only=False), f"null key {k}")
        lsn = incoming(batch, spec.lsn_col)
        if lsn is None:
            raise ValueError(f"lsn column {spec.lsn_col!r} missing")
        mark(pc.is_null(batch.column(lsn)).to_numpy(zero_copy_only=False),
             "null lsn")
        opc = incoming(batch, spec.op_col)
        valid_ops = (_VALID_OPS + ("P",)) if spec.patch_ops else _VALID_OPS
        if opc is not None:
            op = batch.column(opc)
            bad_op = pc.or_kleene(
                pc.is_null(op),
                pc.invert(pc.is_in(op, value_set=pa.array(valid_ops))),
            )
            mark(pc.fill_null(bad_op, True).to_numpy(zero_copy_only=False),
                 "invalid op")
        if constraints:
            # contracts are written against CANONICAL column names —
            # hand them a renamed view (the splitter runs pre-rename)
            canon = batch.rename_columns(
                [rename.get(c, c) for c in batch.column_names]
            ) if rename else batch
        for name, check in constraints or ():
            ok = np.asarray(check(canon), dtype=bool)
            if opc is not None:
                # tombstones carry no payload to check; patches carry a
                # PARTIAL payload (untouched columns are null), so a
                # full-row contract cannot be evaluated on them either
                exempt_ops = ["D", "P"] if spec.patch_ops else ["D"]
                is_d = pc.fill_null(
                    pc.is_in(batch.column(opc),
                             value_set=pa.array(exempt_ops)), False
                ).to_numpy(zero_copy_only=False)
                ok = ok | is_d
            mark(~ok, f"constraint:{name}")
        bad = reasons != ""
        if not bad.any():
            return batch
        bad_rows = batch.filter(pa.array(bad)).append_column(
            "__dlq_reason", pa.array(reasons[bad], pa.string())
        )
        ddir = Path(root) / table / "_dead_letter" / f"epoch={epoch:06d}"
        ddir.mkdir(parents=True, exist_ok=True)
        digest = hashing.sha256_hex_str(
            json.dumps(bad_rows.to_pydict(), default=str, sort_keys=True)
        )[:16]
        tmp = ddir / f"bad-{digest}.parquet.tmp"
        pq.write_table(bad_rows, tmp)
        tmp.replace(ddir / f"bad-{digest}.parquet")
        return batch.filter(pa.array(~bad))

    return fn


def _partition_resolver(schema: pa.Schema, spec: TableSpec,
                        honor_wm: bool = False,
                        read_columns: list[str] | None = None,
                        predicate=None):
    """Batch fn over a table of per-partition file lists: read the
    partition's delta files, LWW-resolve, drop tombstones.  Shared by
    the merge-on-read path and compaction so their semantics cannot
    drift.

    ``read_columns``: PROJECTION pushed into the parquet read — only
    these columns leave storage (must include the key/lsn/op columns
    the resolve itself needs; ``read_state`` computes that closure).
    ``predicate``: a pyarrow compute Expression evaluated on the
    RESOLVED winners inside the partition task — sound under LWW
    (judging superseded versions would pick wrong rows), and the
    filtered rows never leave the task.

    ``honor_wm``: the plan table carries each partition's stored
    watermark, and only tombstones AT OR BELOW it are dropped — the
    classic delete-marker GC rule.  A tombstone above the watermark is
    still load-bearing: dropping it would let a redelivered event in
    (wm, tombstone_lsn) resurrect the deleted key (post-reshard
    partitions hold wm = min over old partitions, below their own
    tombstones' lsns).  Merge-on-read readers drop ALL tombstones (a
    live view never shows them); only the COMPACTION rewrite, which
    destroys the history, needs the guard."""

    def resolve_partition(batch: pa.Table) -> pa.Table:
        import pyarrow.dataset as pds

        outs = []
        wms = batch.column("wm").to_pylist() if honor_wm else None
        for i, files in enumerate(batch.column("files").to_pylist()):
            merged = pds.dataset(files, schema=schema).to_table(
                columns=read_columns
            )
            if spec.patch_ops:
                # terminal fold; at compaction (honor_wm) base-less
                # patches above the stored watermark survive as rows —
                # the patch analog of the delete-marker GC rule
                resolved = patch_reduce_table(
                    merged, spec.key_cols, spec.lsn_col, spec.op_col,
                    fold=True, wm=wms[i] if honor_wm else None,
                )
            else:
                resolved = lww_reduce_table(merged, spec.key_cols,
                                            spec.lsn_col)
            if honor_wm:
                is_tomb = pc.equal(resolved.column(spec.op_col), "D")
                droppable = pc.and_(
                    is_tomb,
                    pc.less_equal(resolved.column(spec.lsn_col), wms[i]),
                )
                outs.append(resolved.filter(pc.invert(droppable)))
            else:
                live = drop_tombstones(resolved, spec.op_col)
                if predicate is not None:
                    live = live.filter(predicate)
                outs.append(live)
        return pa.concat_tables(outs, promote_options="permissive")

    return resolve_partition


def _predicate_fields(predicate, schema: pa.Schema) -> list[str]:
    """Columns a pyarrow compute Expression references, discovered by
    probing (pyarrow exposes no public field listing on Expression): a
    field is referenced iff dropping it from an empty table of the
    schema makes the filter fail to bind.  Driver-side, once per read,
    O(ncols) empty-table filters — lets ``read_state`` keep predicate
    columns in the projected read closure without making callers name
    them twice."""
    empty = schema.empty_table()
    try:
        empty.filter(predicate)
    except Exception:
        return []  # unbindable even with every column: real read raises
    out = []
    for name in schema.names:
        try:
            empty.drop_columns([name]).filter(predicate)
        except Exception:
            out.append(name)
    return out


def _normalize_dnf(filters) -> list[list[tuple]] | None:
    """pyarrow-parquet-style ``filters`` → DNF (OR of AND-conjunctions
    of ``(col, op, value)`` triples).  A flat list of triples is one
    conjunction; a list of lists is already DNF."""
    if not filters:
        return None
    first = filters[0]
    if (isinstance(first, (tuple, list)) and len(first) == 3
            and isinstance(first[0], str)):
        return [[tuple(t) for t in filters]]
    return [[tuple(t) for t in conj] for conj in filters]


_DISPROVE = {
    "=": lambda lo, hi, v: v < lo or v > hi,
    "==": lambda lo, hi, v: v < lo or v > hi,
    "<": lambda lo, hi, v: lo >= v,
    "<=": lambda lo, hi, v: lo > v,
    ">": lambda lo, hi, v: hi <= v,
    ">=": lambda lo, hi, v: hi < v,
}


def _stats_disprove(fstats: dict | None, dnf: list[list[tuple]]) -> bool:
    """True iff a file's zone-map bounds DISPROVE the whole DNF filter
    — every OR-branch has at least one triple no value in
    ``[min, max]`` can satisfy.  Conservative by construction: missing
    stats, unknown ops (``!=``, ``not in``, ``is null``…) and
    type-mismatched comparisons all answer False (read the file).
    Null rows never satisfy a comparison triple (SQL semantics, and
    ``min_max`` ignores nulls), so nulls in the column cannot make a
    skip unsound."""
    if not fstats:
        return False
    for conj in dnf:
        branch_dead = False
        for col, op, val in conj:
            mm = fstats.get(col)
            if not mm or mm[0] is None:
                continue
            lo, hi = mm
            try:
                if op == "in":
                    branch_dead = all(
                        _DISPROVE["="](lo, hi, v) for v in val
                    )
                else:
                    fn = _DISPROVE.get(op)
                    branch_dead = bool(fn and fn(lo, hi, val))
            except TypeError:
                branch_dead = False
            if branch_dead:
                break
        if not branch_dead:
            return False
    return True


def _file_epoch(rel_path: str) -> int:
    """Epoch number encoded in a delta file's relative path
    (``part=NNNNN/epoch=NNNNNN/delta.parquet``)."""
    for seg in Path(rel_path).parts:
        if seg.startswith("epoch="):
            return int(seg.split("=", 1)[1])
    return -1


def epoch_change_set(
    lake: "CDCLake",
    epoch: int,
    carry_cols: list[str] | None = None,
    stats_out: dict | None = None,
) -> rd.Dataset:
    """DELTA-SOURCED change set for one committed epoch (ROADMAP #21 /
    VERDICT r3 #5): same output contract as ``stages/merge.snapshot_diff``
    — one row per changed key, ``change`` ∈ {'added','deleted','updated'},
    ``old_``/``new_`` version and carry columns — but computed from the
    epoch's OWN delta files joined against the prior winners of only the
    TOUCHED partitions, never by diffing two full state snapshots.

    Scale shape: untouched partitions are never read (per-epoch cost is
    proportional to the change set across partitions); within a touched
    partition the prior winner comes from that partition's delta history,
    which commit-path auto-compaction keeps bounded.  One Ray task per
    touched partition; the driver handles file lists only.

    Reads the MANIFEST SNAPSHOT written by ``epoch``'s own commit
    (``read_manifest_at`` — the COW manifest log gives snapshot
    isolation), so later commits and even a compaction fired by the
    SAME commit cannot perturb the diff: in that snapshot the epoch's
    deltas are exactly the files tagged ``epoch``, and every OTHER file
    is prior state regardless of its epoch tag (a mid-stream compaction
    base may carry a higher number).  Valid until ``gc()`` reclaims the
    superseded data files — then the read raises FileNotFoundError
    rather than silently mis-diffing (review finding, round 4).
    ``stats_out`` (optional dict) receives rows-processed evidence:
    partitions touched/total and file counts read per side."""
    import pyarrow.dataset as pds

    spec = lake.spec
    m = mf.read_manifest_at(lake.root, spec.name, epoch)
    if m is None:
        # falling back to the CURRENT manifest here would silently diff
        # against FUTURE state (post-epoch files counted as prior
        # winners) — fail loudly instead (review finding, round 4b)
        raise ValueError(
            f"no manifest snapshot for epoch {epoch} — change sets need "
            "the COW manifest log (clones carry it; pre-log lakes don't)"
        )
    troot = Path(lake.root) / spec.name
    key_cols, lsn_col, op_col = (
        list(spec.key_cols), spec.lsn_col, spec.op_col,
    )
    carry = list(carry_cols or ())
    schema = mf.schema_from_b64(m["schema"]) if m else lake._state_schema()

    new_files, old_files = [], []
    for info in (m or {"partitions": {}})["partitions"].values():
        nf = [f for f in info["files"] if _file_epoch(f) == epoch]
        if not nf:
            continue
        of = [f for f in info["files"] if _file_epoch(f) != epoch]
        new_files.append([str(troot / f) for f in nf])
        old_files.append([str(troot / f) for f in of])

    if stats_out is not None:
        stats_out.update(
            partitions_touched=len(new_files),
            partitions_total=len((m or {"partitions": {}})["partitions"]),
            files_new=sum(map(len, new_files)),
            files_old=sum(map(len, old_files)),
        )

    diff_schema = pa.schema(
        [schema.field(k) for k in key_cols]
        + [pa.field("change", pa.string()),
           pa.field("old_" + lsn_col, schema.field(lsn_col).type),
           pa.field("new_" + lsn_col, schema.field(lsn_col).type)]
        + [f for c in carry
           for f in (pa.field("old_" + c, schema.field(c).type),
                     pa.field("new_" + c, schema.field(c).type))]
    )
    if not new_files:
        return rd.from_arrow(diff_schema.empty_table())

    keep_cols = key_cols + [lsn_col, op_col, "key_hash"] + carry

    def classify_partition(batch: pa.Table) -> pa.Table:
        out = []
        for nfs, ofs in zip(batch.column("new").to_pylist(),
                            batch.column("old").to_pylist()):
            new = pds.dataset(nfs, schema=schema).to_table().select(keep_cols)
            if spec.patch_ops:
                # a patch row is not the key's resolved value — fold the
                # TOUCHED PARTITION (old + new files, the same reads the
                # non-patch path already does) with the terminal kernel
                # so the 'new' side is the true post-epoch value; keys
                # whose only epoch rows are base-less patches fold away
                # (no-ops, no change-set row)
                khn = np.unique(
                    new.column("key_hash").to_numpy(zero_copy_only=False)
                )
                old_raw = (
                    pds.dataset(ofs, schema=schema).to_table()
                    .select(keep_cols) if ofs else new.schema.empty_table()
                )
                post = patch_reduce_table(
                    pa.concat_tables([old_raw, new]), key_cols, lsn_col,
                    op_col, fold=True,
                )
                kp = post.column("key_hash").to_numpy(zero_copy_only=False)
                new = post.filter(pa.array(np.isin(kp, khn)))
                old = drop_tombstones(
                    patch_reduce_table(old_raw, key_cols, lsn_col,
                                       op_col, fold=True),
                    op_col,
                )
                kho = old.column("key_hash").to_numpy(zero_copy_only=False)
                old = old.filter(pa.array(np.isin(kho, khn)))
            else:
                new = lww_reduce_table(new, key_cols, lsn_col)
                if ofs:
                    old = pds.dataset(ofs, schema=schema).to_table().select(
                        keep_cols
                    )
                    old = drop_tombstones(
                        lww_reduce_table(old, key_cols, lsn_col), op_col
                    )
                    # cheap prefilter: only keys touched this epoch (hash
                    # collisions are supersets — the key join below is
                    # exact)
                    khn = new.column("key_hash").to_numpy(
                        zero_copy_only=False)
                    kho = old.column("key_hash").to_numpy(
                        zero_copy_only=False)
                    old = old.filter(pa.array(np.isin(kho, khn)))
                else:
                    old = new.schema.empty_table()
            j = new.drop_columns(["key_hash"]).join(
                old.drop_columns(["key_hash", op_col]),
                keys=key_cols, join_type="left outer",
                right_suffix="_old",
            )
            is_del = pc.fill_null(
                pc.equal(j.column(op_col), "D"), False
            ).to_numpy(zero_copy_only=False)
            was_live = pc.is_valid(
                j.column(lsn_col + "_old")
            ).to_numpy(zero_copy_only=False)
            change = np.where(
                was_live, np.where(is_del, "deleted", "updated"),
                np.where(is_del, "drop", "added"),
            )
            keep = change != "drop"  # tombstone of a never-live key
            j = j.filter(pa.array(keep))
            change = change[keep]
            cols = {k: j.column(k) for k in key_cols}
            cols["change"] = pa.array(change, pa.string())
            cols["old_" + lsn_col] = j.column(lsn_col + "_old")
            cols["new_" + lsn_col] = j.column(lsn_col)
            for c in carry:
                cols["old_" + c] = j.column(c + "_old")
                # a delete's payload is null in the delta row itself
                cols["new_" + c] = j.column(c)
            out.append(pa.table(cols).cast(diff_schema))
        if not out:
            return diff_schema.empty_table()
        return pa.concat_tables(out)

    plan = pa.table({"new": pa.array(new_files), "old": pa.array(old_files)})
    return (
        rd.from_arrow(plan)
        .repartition(len(new_files))
        .map_batches(classify_partition, batch_format="pyarrow")
    )


def _watermark_filter(wm_array: np.ndarray, lsn_col: str = "lsn"):
    """Drop events at or below the committed watermark of their partition
    (idempotent re-apply on replay/resume).  ``part`` is engine-derived
    (standardize adds it); the LSN column follows the TableSpec."""

    def fn(batch: pa.Table) -> pa.Table:
        parts = batch.column("part").to_numpy()
        lsns = batch.column(lsn_col).to_numpy()
        return batch.filter(pa.array(lsns > wm_array[parts]))

    return fn


def _as_events(spec: TableSpec, rows: pa.Table, ops, lsn: int,
               payload: list[str] | None = None,
               prefix: str = "") -> pa.Table:
    """The one builder of SYNTHESIZED CDC events (DML, MERGE INTO,
    branch merge, replication, seeding): ``rows`` become events in the
    spec's column order and types.

    ``ops`` is one op code or a per-row string array; every row gets
    ``lsn``; key columns come from ``rows``, and each payload column
    ``c`` (default ``spec.payload_cols``) from ``rows[prefix + c]`` —
    null where ``rows`` lacks it.  A synthesized tombstone carries no
    payload: every ``D`` row's payload is null."""
    n = rows.num_rows
    payload = spec.payload_cols if payload is None else payload
    if isinstance(ops, str):
        ops = pa.repeat(pa.scalar(ops), n)
    elif not isinstance(ops, (pa.Array, pa.ChunkedArray)):
        ops = pa.array(ops, pa.string())
    tomb = pc.equal(ops, "D")
    cols = {
        spec.op_col: ops,
        spec.lsn_col: pa.array(np.full(n, lsn, np.int64)),
        **{k: rows.column(k) for k in spec.key_cols},
    }
    for c in payload:
        typ = spec.schema.field(c).type
        vals = (rows.column(prefix + c).cast(typ)
                if prefix + c in rows.column_names else pa.nulls(n, typ))
        # a null ARRAY, not a null scalar: pyarrow 16 builds invalid
        # offsets for if_else(mask, null scalar, sliced string array)
        cols[c] = pc.if_else(tomb, pa.nulls(n, typ), vals)
    fields = [f for f in spec.schema if f.name in cols]
    return pa.table([cols[f.name].cast(f.type) for f in fields],
                    schema=pa.schema(fields))


def _change_events(spec: TableSpec, lsn: int,
                   payload: list[str] | None = None, predicate=None):
    """Batch function: change rows (the ``changes_between`` /
    changefeed shape — keys, ``change``, ``old_*``/``new_*``) → CDC
    events at ``lsn``: ``added``/``updated`` → I with the new image,
    ``deleted`` → D.  With ``predicate`` (a mask over an UNPREFIXED key
    + payload image), classification is per ROW IMAGE, which makes
    scope TRANSITIONS correct: an update whose new image leaves scope
    becomes a delete (the consumer held the old version), one entering
    scope an insert, rows never in scope ship nothing, and deletes ship
    only when the old image was in scope."""
    payload = spec.payload_cols if payload is None else payload

    def to_events(batch: pa.Table) -> pa.Table:
        need = ["new_" + c for c in payload]
        if predicate is not None:
            need += ["old_" + c for c in payload]
        missing = [c for c in need if c not in batch.column_names]
        if missing:
            raise ValueError(
                f"change feed lacks payload columns {missing} — export "
                f"with carry_cols={payload}"
            )
        change = batch.column("change")
        deleted = pc.equal(change, "deleted")
        if predicate is None:
            ops = pc.if_else(deleted, pa.scalar("D"), pa.scalar("I"))
        else:
            def image(prefix: str) -> pa.Table:
                return pa.table(
                    {**{k: batch.column(k) for k in spec.key_cols},
                     **{c: batch.column(prefix + c) for c in payload}}
                )

            new_ok = np.asarray(predicate(image("new_")), bool)
            old_ok = np.asarray(predicate(image("old_")), bool)
            del_np = deleted.to_numpy(zero_copy_only=False)
            upd_np = pc.equal(change, "updated").to_numpy(
                zero_copy_only=False)
            emit_i = ~del_np & new_ok
            emit_d = (del_np | (upd_np & ~new_ok)) & old_ok
            batch = batch.filter(pa.array(emit_i | emit_d))
            ops = np.where(emit_d[emit_i | emit_d], "D", "I")
        return _as_events(spec, batch, ops, lsn, payload, prefix="new_")

    return to_events


class CDCLake:
    """Single-writer CDC lake table (copy-on-write Parquet + manifests)."""

    def __init__(self, root: str, spec: TableSpec | None = None,
                 gate=None, auto_compact_files: int | None = 16,
                 dead_letter: bool = False,
                 constraints: list | None = None):
        self.root = str(root)
        self.spec = spec or TableSpec(name="cdc")
        # poison-pill containment: divert malformed events (null key /
        # null lsn / unknown op) to _dead_letter/ parquet instead of
        # failing the epoch.  OFF by default — the fail-loud contract
        # (key_hash_u64 raising on null keys) is the right default for
        # trusted logs; turn on for untrusted upstream feeds.
        self.dead_letter = dead_letter
        # declarative row contracts, enforced on the DLQ path (see
        # _dead_letter_splitter); providing any implies dead_letter
        self.constraints = list(constraints or ())
        if self.constraints:
            self.dead_letter = True
        # streaming curation hook (stages/standardize.make_curation_gate):
        # a batch fn run on every incoming event batch in phase 1, on
        # BOTH the batch and stream apply paths — failing I/U events
        # arrive in the lake as tombstones (retraction semantics)
        if gate is not None and self.spec.patch_ops:
            raise ValueError(
                "curation gates score FULL payloads on arrival; a patch "
                "row carries a partial payload, so gate + patch_ops "
                "cannot compose — curate downstream of the lake instead"
            )
        self.gate = gate
        # size-tiered maintenance wired into the commit path: after a
        # commit, any partition holding more than this many delta files
        # is rewritten to one base file (merge-on-read cost is linear in
        # accumulated delta files, so without this a long-running tail
        # makes read_state drift slower every epoch).  None disables.
        self.auto_compact_files = auto_compact_files
        # finish any group commit that crashed between its commit point
        # and the pointer roll-forward (multi-table transactions)
        mf.recover_groups(self.root)
        # single-writer epoch allocator high-water mark: epochs must be
        # UNIQUE across data commits AND compactions — apply_stream
        # pre-assigns epochs for in-flight windows, so a compaction
        # fired mid-stream must allocate ABOVE every reservation, not
        # just above the committed manifest epoch (review finding,
        # round 4: the collision overwrote an in-flight window's delta)
        self._epoch_hwm = 0
        # the user's ingest-time rename map, BEFORE any DDL renames are
        # merged in — restore() recomputes the merge from the reverted
        # manifest against this base
        self._user_rename = dict(self.spec.rename)
        self.dropped_cols = set()
        m = mf.read_manifest(self.root, self.spec.name)
        if m is not None:
            self._load_spec(m)

    def _load_spec(self, m: dict) -> None:
        """Rebuild the in-memory spec from a committed manifest (open,
        restore, clone): schema, partitioning, the dropped set and the
        DDL rename map must not drift from the table.  The manifest
        stores the state schema = event schema + engine columns, which
        standardize re-derives — strip them here."""
        self.spec.schema = pa.schema(
            [f for f in mf.schema_from_b64(m["schema"])
             if f.name not in _ENGINE_COLS]
        )
        self.spec.num_partitions = m["num_partitions"]
        self.dropped_cols = set(m.get("dropped_cols", []))
        self.spec.rename = _merge_ddl_renames(
            self._user_rename, m.get("renamed_cols", {}))

    # -- write path -------------------------------------------------------

    def bootstrap_from_parquet(
        self, paths: str | list[str], seed_lsn: int = 0, op: str = "I"
    ) -> dict:
        """S7 reference-file passthrough: seed the lake table from
        pre-existing parquet files that are NOT CDC logs (the reference
        copies pre-built reference tables straight into the final output,
        pipeline_process_subtables_to_final.py:140-154).

        Rows become ``op='I'`` events at ``seed_lsn``, so any later real
        CDC window (lsn > seed_lsn) wins over the seed under LWW.  Files
        stream through the normal apply path — one bootstrap epoch with
        the same manifest/lineage guarantees, no special-cased copy."""
        ds = rd.read_parquet(paths)
        op_col, lsn_col = self.spec.op_col, self.spec.lsn_col

        def to_events(t: pa.Table) -> pa.Table:
            if op_col not in t.column_names:
                t = t.append_column(op_col, pa.array([op] * t.num_rows))
            if lsn_col not in t.column_names:
                t = t.append_column(
                    lsn_col, pa.array([seed_lsn] * t.num_rows, pa.int64())
                )
            return t

        return self.apply_events(
            ds.map_batches(to_events, batch_format="pyarrow")
        )

    def _alloc_epoch(self) -> int:
        """Next unique epoch number: above both the committed manifest
        epoch and every epoch this instance has already handed out
        (in-flight stream windows, prior compactions), then CLAIMED
        cross-process via an O_EXCL marker (``manifest.claim_epoch``) —
        two writer processes can never share an epoch, so their
        deterministic delta paths can never collide.  A crashed
        writer's claim just burns a number: its orphan delta files are
        invisible (uncommitted) and gc reclaims both.  Within one
        instance the in-process high-water mark keeps retries of an
        uncommitted epoch on fresh numbers, exactly as before."""
        # fencing hook: every write path allocates an epoch first, so a
        # leased writer re-validates here (no-op when leases are off)
        self._renew_writer()
        m = mf.read_manifest(self.root, self.spec.name)
        committed = max(m["epoch"], m.get("epoch_hwm", 0)) if m else 0
        nxt = mf.claim_epoch(self.root, self.spec.name,
                             max(committed, self._epoch_hwm) + 1)
        self._epoch_hwm = nxt
        return nxt

    def _watermarks(self, m: dict | None) -> np.ndarray:
        wm = np.full(self.spec.num_partitions, -1, dtype=np.int64)
        if m:
            for p, pinfo in m["partitions"].items():
                wm[int(p)] = pinfo["watermark"]
        return wm

    # -- writer fencing -----------------------------------------------------
    def acquire_writer(self, lease_s: float = 300.0) -> str:
        """Enforce the single-writer contract with a fenced LEASE: the
        engine is single-writer by design (epoch allocation, manifest
        pointer swaps), but nothing STOPPED a second process from
        opening the same root and corrupting the epoch sequence.  This
        writes ``_WRITER.json`` (token, pid, expiry) with the same
        tmp+rename discipline as the manifests; a live lease held by
        another token refuses loudly, an EXPIRED lease is stolen (the
        crash-recovery path — no manual unlock needed).  Every commit
        re-validates and renews the lease (fencing: a paused writer
        whose lease was stolen fails its next commit instead of
        clobbering the thief's).  Opt-in: lakes that never call this
        behave exactly as before."""
        import uuid

        now = time.time()
        p = Path(self.root) / self.spec.name / "_WRITER.json"
        p.parent.mkdir(parents=True, exist_ok=True)
        if p.exists():
            cur = json.loads(p.read_text())
            if cur["expires"] > now and cur["token"] != getattr(
                    self, "_writer_token", None):
                raise RuntimeError(
                    f"another writer (pid {cur['pid']}) holds the lease "
                    f"for {cur['expires'] - now:.0f}s more — the lake is "
                    "single-writer; wait for expiry or stop that process"
                )
        token = getattr(self, "_writer_token", None) or uuid.uuid4().hex
        self._writer_token = token
        self._writer_lease_s = float(lease_s)
        self._renew_writer()
        return token

    def _renew_writer(self) -> None:
        if getattr(self, "_writer_token", None) is None:
            return
        p = Path(self.root) / self.spec.name / "_WRITER.json"
        now = time.time()
        if p.exists():
            cur = json.loads(p.read_text())
            if cur["token"] != self._writer_token and cur["expires"] > now:
                # fencing: our lease expired and someone else took it —
                # this writer must stop, not overwrite the thief's work
                raise RuntimeError(
                    "writer lease lost (expired and re-acquired by pid "
                    f"{cur['pid']}) — this process must not commit"
                )
        tmp = p.with_suffix(".json.tmp")
        tmp.write_text(json.dumps({
            "token": self._writer_token, "pid": os.getpid(),
            "expires": now + self._writer_lease_s,
        }))
        with open(tmp, "rb") as fh:
            os.fsync(fh.fileno())
        tmp.replace(p)

    def release_writer(self) -> None:
        p = Path(self.root) / self.spec.name / "_WRITER.json"
        if getattr(self, "_writer_token", None) and p.exists():
            cur = json.loads(p.read_text())
            if cur["token"] == self._writer_token:
                p.unlink()
        self._writer_token = None

    def _strip_dropped(self, events: rd.Dataset) -> rd.Dataset:
        """A DDL-dropped column must not re-enter via schema evolution:
        strip it (and its pre-rename source name) from arriving events
        before any schema probe."""
        if not self.dropped_cols:
            return events
        from ..stages.joins import _as_arrow_schema

        rev = {v: k for k, v in self.spec.rename.items()}
        names = set(_as_arrow_schema(events.schema()).names)
        todrop = sorted({
            n for c in self.dropped_cols
            for n in (c, rev.get(c)) if n and n in names
        })
        return events.drop_columns(todrop) if todrop else events

    def _epoch_record(self, epoch: int, stats: list[dict], t0: float,
                      commit_wait: float = 0.0) -> dict:
        """The one lineage-record builder for a data epoch, shared by
        ``apply_events`` and ``apply_stream``.  ``commit_wait`` is the
        time the ordered committer blocked on the epoch's phase-1
        future (0 when phase 1 ran inline); the caller adds
        ``commit_sec`` and ``committed`` once phase 2 is done."""
        record = {
            "epoch": epoch,
            "partitions_touched": len(stats),
            "rows_upserted": int(sum(s["rows"] - s["tombstones"] for s in stats)),
            "tombstones": int(sum(s["tombstones"] for s in stats)),
            "rows_gated": int(sum(s.get("gated", 0) for s in stats)),
            "events_seen": int(sum(s["events_seen"] for s in stats)),
            "wall_sec": round(time.time() - t0, 3),
            "commit_wait_sec": round(commit_wait, 3),
        }
        if self.dead_letter:
            record["rows_dead_lettered"] = self._dlq_rows(epoch)
        return record

    def apply_events(
        self,
        events: rd.Dataset,
        *,
        salt_factor: int = 0,
        txn: "LakeTransaction | None" = None,
        _fail_before_commit: bool = False,
    ) -> dict:
        """Apply one micro-batch (one epoch).  Returns the commit record.

        ``txn`` defers the commit into a multi-table transaction: phase
        1 runs now (delta files + markers, invisible), the manifest is
        STAGED, and visibility arrives only at ``txn.commit()`` —
        atomically with every other table in the transaction."""
        t0 = time.time()
        m = mf.read_manifest(self.root, self.spec.name)
        epoch = self._alloc_epoch()

        # schema evolution: unify incoming event schema into the spec
        # (_as_arrow_schema: pandas-block datasets report numpy dtypes)
        from ..stages.joins import _as_arrow_schema

        events = self._strip_dropped(events)
        inc_schema = self.spec.apply_rename(_as_arrow_schema(events.schema()))
        self.spec.schema = self.spec.evolve(inc_schema)

        stats = self._phase1(events, epoch, self._watermarks(m), salt_factor)
        record = self._epoch_record(epoch, stats, t0)
        if _fail_before_commit:  # test hook: die between phase 1 and 2
            record["committed"] = False
            return record

        committed = self._commit(m, epoch, stats, record, txn=txn)
        if txn is not None:
            record["committed"] = False  # until txn.commit()
            txn._track(record)
            return record
        record["committed"] = True
        self._maybe_autocompact(committed)
        return record

    def apply_stream(
        self,
        windows,
        *,
        max_inflight: int = 2,
        salt_factor: int = 0,
    ) -> list[dict]:
        """Apply a stream of micro-batch windows with CROSS-EPOCH
        PIPELINING: up to ``max_inflight`` epochs run phase 1 (read →
        standardize → shuffle → delta writes) concurrently; phase-2
        manifest commits stay strictly ordered.

        Safe under the binlog-tailing contract (windows carry disjoint,
        increasing lsn ranges): epoch n+1's watermark filter uses the
        snapshot from before epoch n's commit, which can only UNDER-drop
        — any re-delivered row is removed by the per-key LWW merge and
        deterministic delta writes, exactly as in the crash-retry path.
        Epoch numbers are pre-assigned so delta file names stay
        deterministic; a failure mid-stream leaves later epochs
        uncommitted (invisible orphans, reclaimed by gc())."""
        from concurrent.futures import ThreadPoolExecutor

        m = mf.read_manifest(self.root, self.spec.name)
        wm = self._watermarks(m)
        records: list[dict] = []

        with ThreadPoolExecutor(max_workers=max_inflight) as ex:
            pending: list[tuple[int, object, float]] = []
            for i, w in enumerate(windows):
                from ..stages.joins import _as_arrow_schema

                w = self._strip_dropped(w)
                self.spec.schema = self.spec.evolve(
                    self.spec.apply_rename(_as_arrow_schema(w.schema()))
                )
                from dataclasses import replace as _dc_replace

                spec_snap = _dc_replace(self.spec)  # freeze per-window
                epoch = self._alloc_epoch()
                fut = ex.submit(
                    self._phase1, w, epoch, wm.copy(), salt_factor, spec_snap,
                )
                pending.append((epoch, fut, time.time(), spec_snap))
                while len(pending) >= max_inflight:
                    records.append(self._commit_next(pending, wm))
            while pending:
                records.append(self._commit_next(pending, wm))
        return records

    def _commit_next(self, pending, wm: np.ndarray) -> dict:
        epoch, fut, t0, spec_snap = pending.pop(0)
        t_wait = time.time()
        stats = fut.result()
        commit_wait = time.time() - t_wait
        # no manifest read here: the non-txn _commit re-reads it inside
        # the commit lock anyway (review finding — manifests carry
        # per-file zone maps and grow; a redundant parse per epoch is
        # real cost on the ordered-commit hot path)
        record = self._epoch_record(epoch, stats, t0, commit_wait)
        # commit with the epoch's OWN spec snapshot: the live spec may
        # already carry columns from still-uncommitted in-flight windows
        committed = self._commit(None, epoch, stats, record, spec_snap)
        # tighten the shared watermark snapshot so windows submitted
        # AFTER this commit filter against it (in-flight windows keep
        # their own copies — still safe, they can only under-drop, and
        # redeliveries die in the per-key LWW merge); without this a
        # long stream re-writes straddling rows into new delta files
        # every epoch
        for s in stats:
            wm[s["part"]] = max(wm[s["part"]], s["watermark"])
        record["committed"] = True
        self._maybe_autocompact(committed)
        return record

    def _phase1(
        self,
        events: rd.Dataset,
        epoch: int,
        wm: np.ndarray,
        salt_factor: int = 0,
        spec: TableSpec | None = None,
    ) -> list[dict]:
        """Phase 1 of one epoch: standardize → combine → shuffle →
        per-partition delta writes + markers.  No manifest access.
        Returns ``_STATS_SCHEMA`` rows (one per written file), the only
        input phase 2 (``_commit``) needs — a subclass may write the
        same rows by another route (``ActorLake``).

        ``spec`` is the PER-EPOCH spec snapshot: apply_stream evolves the
        shared spec on the driver thread while earlier windows are still
        in flight, so phase 1 must standardize against the schema frozen
        at its own submit time (else delta file schemas become
        timing-dependent)."""
        spec = spec or self.spec
        if self.dead_letter:
            events = events.map_batches(
                _dead_letter_splitter(self.root, spec.name, epoch, spec,
                                      self.constraints),
                batch_format="pyarrow",
            )
        if self.gate is not None:
            events = events.map_batches(self.gate, batch_format="pyarrow")
        P = spec.num_partitions
        writer = _delta_writer(self.root, spec.name, epoch, spec)
        std = events.map_batches(
            make_standardizer(spec), batch_format="pyarrow"
        ).map_batches(
            _watermark_filter(wm, spec.lsn_col), batch_format="pyarrow"
        )
        # per-block combiner: the shuffle moves per-key partials
        if spec.patch_ops:
            ev = std.map_batches(
                lambda b: patch_reduce_table(
                    b, spec.key_cols, spec.lsn_col, spec.op_col),
                batch_format="pyarrow",
            )
        else:
            ev = std.map_batches(
                lambda b: lww_reduce_table(b, spec.key_cols, spec.lsn_col),
                batch_format="pyarrow",
            )
        if salt_factor > 1:
            from ..stages.merge import add_salt, _group_final

            ev = ev.map_batches(
                lambda b: add_salt(b, salt_factor), batch_format="pyarrow"
            )
            ev = (
                ev.groupby(["part", "salt"], num_partitions=P)
                .map_groups(_group_final(spec, True), batch_format="pyarrow")
                .drop_columns(["salt"])
            )
        stats_ds = ev.groupby("part", num_partitions=P).map_groups(
            writer, batch_format="pyarrow"
        )
        return stats_ds.take_all()  # ≤ P tiny rows — phase 1 complete here

    def _commit_edit(self, planned: dict | None, epoch: int, record: dict,
                     edit, conflict: str,
                     txn: "LakeTransaction | None" = None) -> dict:
        """The one commit builder every verb (data epochs, compaction,
        layout, DDL, restore, clone) commits its manifest through.
        Without ``txn``: under the cross-process commit lock, re-read
        the current manifest ``cur`` and apply the verb's ``conflict``
        rule (``_refuse_conflict``).  With ``txn``: fold against
        ``planned`` and stage (single-writer-per-table contract; the
        writer lease enforces it).  ``edit(cur)`` returns only the
        table properties the verb changes (plus ``lineage`` when the
        record extends another history — restore, clone); the rest
        carry over from ``cur``.  The lease is re-validated right
        before the pointer swap, so a stale writer fences at commit.
        Returns the committed (or staged) manifest."""
        name = self.spec.name
        with (mf.commit_lock(self.root, name) if txn is None
              else contextlib.nullcontext()):
            if txn is None:
                cur = mf.read_manifest(self.root, name)
                _refuse_conflict(conflict, cur, planned, epoch,
                                 self.spec.num_partitions)
            else:
                cur = planned
            cur = cur or {}
            fields = edit(cur)
            history = fields.pop("lineage", cur.get("lineage", []))
            manifest = {
                **_table_props(cur),
                **fields,
                "table": name,
                "epoch": epoch,
                # persisted allocator high-water mark: a crash-resumed
                # instance must never re-issue an epoch already used by
                # a mid-stream compaction whose number exceeds this one
                "epoch_hwm": max(self._epoch_hwm, epoch,
                                 cur.get("epoch_hwm", 0)),
                "lineage": list(history) + [record],
            }
            self._renew_writer()
            if txn is not None:
                txn._stage(self.root, name, manifest)
            else:
                mf.commit_manifest(self.root, name, manifest)
        return manifest

    def _commit(self, prev: dict | None, epoch: int, stats: list[dict],
                record: dict, spec: TableSpec | None = None,
                txn: "LakeTransaction | None" = None) -> dict:
        """Phase 2 of a data epoch: fold its files into the manifest
        (the ``"data"`` edit).  Without ``txn`` the fold runs against
        the manifest re-read inside the commit lock, never the stale
        ``prev``, so a concurrent writer's committed files survive and
        LWW resolves both at read; losing to a newer data epoch raises
        ``ConcurrentCommitError`` (recovery: see there).  Sets
        ``record["commit_sec"]``: the DRIVER-SIDE constant per epoch
        (lock + manifest read + swap) — distinct from
        ``commit_wait_sec``, the wait on the epoch's distributed phase
        1, which scales with the cluster."""
        t_commit = time.time()
        spec = spec or self.spec

        def fold(cur: dict) -> dict:
            partitions = dict(cur.get("partitions", {}))
            for s in stats:
                p = str(s["part"])
                old = partitions.get(p, {"files": [], "watermark": -1,
                                         "rows": 0})
                partitions[p] = {
                    "files": old["files"] + [s["file"]],
                    "watermark": max(old["watermark"], s["watermark"]),
                    "rows": old["rows"] + s["rows"],
                    "sha_rollup": s["sha_rollup"],
                    # cumulative gate-audit counter (ROADMAP #19)
                    "gated": old.get("gated", 0) + int(s.get("gated", 0)),
                    # per-file zone maps for pruned reads
                    "file_stats": {
                        **old.get("file_stats", {}),
                        s["file"]: json.loads(s["stats"]),
                    },
                }
            dropped = set(cur.get("dropped_cols", [])) | self.dropped_cols
            state_schema = self._state_schema(spec)
            if cur:
                # rebase: a concurrent writer may have evolved columns
                # this epoch never saw — the committed schema is the
                # union, the same add/widen unification the read path
                # applies; a column CONCURRENTLY dropped must not be
                # resurrected by the union (our spec still carries it).
                # unify_schemas APPENDS new fields after the engine
                # columns — re-impose the canonical order (payload
                # first, engine cols last): lookup()/key_history() cast
                # to _state_schema(), and pa.Table.cast is
                # field-ORDER-sensitive (review finding).
                unified = pa.unify_schemas(
                    [mf.schema_from_b64(cur["schema"]), state_schema],
                    promote_options="permissive",
                )
                state_schema = pa.schema(
                    [f for f in unified
                     if f.name not in _ENGINE_COLS and f.name not in dropped]
                    + [unified.field(n) for n in _ENGINE_COLS
                       if n in unified.names]
                )
            return {
                "num_partitions": self.spec.num_partitions,
                "schema": mf.schema_to_b64(state_schema),
                "partitions": partitions,
                "compacted": False,
                "dropped_cols": sorted(dropped),
            }

        manifest = self._commit_edit(prev, epoch, record, fold, "data", txn)
        record["commit_sec"] = round(time.time() - t_commit, 3)
        return manifest

    def _state_schema(self, spec: TableSpec | None = None) -> pa.Schema:
        """Delta-file schema = evolved event schema + engine columns."""
        fields = list((spec or self.spec).schema)
        extra = [
            pa.field("content_sha", pa.string()),
            pa.field("key_hash", pa.uint64()),
            pa.field("part", pa.int32()),
        ]
        names = {f.name for f in fields}
        return pa.schema(fields + [f for f in extra if f.name not in names])

    # -- read path --------------------------------------------------------

    def epoch_at_ts(self, ts: float) -> int:
        """Timestamp time travel: the epoch of the newest snapshot
        committed at or before wall-clock ``ts`` (epoch seconds, as
        stamped by the commit point) — compose with any ``at_epoch``
        verb: ``lake.read_state(at_epoch=lake.epoch_at_ts(ts))``,
        ``changes_between(lake.epoch_at_ts(a), lake.epoch_at_ts(b))``,
        ``clone(dest, at_epoch=...)``.  Raises if no commit is that
        old (a ts before the table existed must fail loudly, not
        return an empty state that looks like data loss)."""
        e = mf.epoch_for_ts(self.root, self.spec.name, ts)
        if e is None:
            raise ValueError(
                f"no snapshot committed at or before ts={ts}; "
                f"earliest retained epochs: "
                f"{mf.list_manifest_epochs(self.root, self.spec.name)[:3]}"
            )
        return e

    def _manifest_for(self, at_epoch: int | None) -> dict | None:
        """Current manifest, or the COW snapshot committed at ``at_epoch``
        (time travel).  Snapshot reads verify their data files still
        exist — one driver-side stat per file, a metadata-only cost —
        because gc(retain_manifests=K) may have reclaimed superseded
        deltas; a loud SnapshotExpired beats a mid-pipeline
        FileNotFoundError from a worker task."""
        if at_epoch is None:
            return mf.read_manifest(self.root, self.spec.name)
        m = mf.read_manifest_at(self.root, self.spec.name, at_epoch)
        if m is None:
            avail = mf.list_manifest_epochs(self.root, self.spec.name)
            raise ValueError(
                f"no manifest snapshot for epoch {at_epoch}; "
                f"available epochs: {avail}"
            )
        troot = Path(self.root) / self.spec.name
        missing = [
            f for f in mf.live_files(self.root, self.spec.name, m)
            if not Path(f).exists()
        ] if troot.exists() else []
        if missing:
            raise ValueError(
                f"snapshot epoch {at_epoch} expired: {len(missing)} data "
                f"file(s) reclaimed by gc (first: {missing[0]}); re-run "
                "gc with retain_manifests covering this epoch to keep "
                "snapshots readable"
            )
        return m

    def _dlq_rows(self, epoch: int) -> int:
        ddir = (Path(self.root) / self.spec.name / "_dead_letter"
                / f"epoch={epoch:06d}")
        if not ddir.exists():
            return 0
        return sum(
            pq.read_metadata(f).num_rows for f in ddir.glob("*.parquet")
        )

    def read_dead_letters(self, epoch: int | None = None) -> rd.Dataset | None:
        """Diverted malformed events (original columns + ``__dlq_reason``),
        optionally for one epoch — the repair/inspection surface."""
        base = Path(self.root) / self.spec.name / "_dead_letter"
        if epoch is not None:
            base = base / f"epoch={epoch:06d}"
        files = sorted(str(p) for p in base.rglob("*.parquet")) \
            if base.exists() else []
        if not files:
            return None
        return rd.read_parquet(files)

    def snapshot_epochs(self) -> list[int]:
        """Valid ``at_epoch`` targets (retained manifest snapshots)."""
        return mf.list_manifest_epochs(self.root, self.spec.name)

    def read_deltas(
        self,
        at_epoch: int | None = None,
        lsn_range: tuple[int, int] | None = None,
    ) -> rd.Dataset | None:
        """Raw delta rows.  ``lsn_range=(lo, hi)`` (inclusive) prunes
        files whose manifest zone map can't overlap the range before
        the scan starts, then exact-filters rows — the incremental-
        consumer read (a change feed for one lsn window never touches
        cold files).  Files without stats (pre-upgrade lakes) are
        conservatively read.  NOT a state read: a key's winner may lie
        outside the range by design."""
        m = self._manifest_for(at_epoch)
        if not m or not m["partitions"]:
            return None
        if lsn_range is not None:
            lo, hi = lsn_range
            troot = Path(self.root) / self.spec.name
            lsn_col = self.spec.lsn_col
            files = []
            for info in m["partitions"].values():
                fstats = info.get("file_stats", {})
                for f in info["files"]:
                    st = fstats.get(f, {}).get(lsn_col)
                    if st is None or (st[1] >= lo and st[0] <= hi):
                        files.append(str(troot / f))
            if not files:
                return None
            schema = mf.schema_from_b64(m["schema"])
            # partitioning=None: don't hive-inject an epoch column
            # (the pruned path planned one, the full path didn't —
            # one verb, one output schema)
            return rd.read_parquet(
                files, schema=schema, partitioning=None
            ).filter(expr=f"{lsn_col} >= {lo} and {lsn_col} <= {hi}")
        files = mf.live_files(self.root, self.spec.name, m)
        if not files:
            return None
        schema = mf.schema_from_b64(m["schema"])
        return rd.read_parquet(files, schema=schema, partitioning=None)

    def read_state(self, drop_engine_cols: bool = False,
                   at_epoch: int | None = None,
                   columns: list[str] | None = None,
                   predicate=None,
                   filters=None,
                   stats_out: dict | None = None) -> rd.Dataset:
        """Merge-on-read current state: LWW-resolve live delta files,
        drop tombstones.  NO shuffle — delta files are already
        partition-segregated, so resolution is a map-only pass (one task
        per partition reading that partition's files).  After compact()
        this is a plain scan.

        ``at_epoch`` time-travels: the state as committed by that epoch
        (COW manifest snapshot — later commits and compactions never
        touch a snapshot's files until gc reclaims them; see
        ``gc(retain_manifests=K)`` for the retention contract).

        ``columns`` is PROJECTION PUSHDOWN: the parquet scans read only
        the key/lsn/op closure the resolve needs plus these columns —
        a 2-column view of a wide state table never ships the other
        columns off storage — and the output schema is exactly
        ``key_cols + columns`` (``drop_engine_cols`` is implied; engine
        columns appear only if named).  ``predicate`` is a pyarrow
        compute Expression over the RESOLVED winners (it may reference
        ANY state column, projected or not — referenced columns are
        discovered and kept in the read closure, then projected away):
        on an un-compacted lake it
        filters inside each partition's resolve task — evaluating it
        pre-resolve would be unsound under LWW, a superseded version
        must not answer for the winner — so non-matching rows never
        leave the task; on a fully-compacted lake (all-base manifest:
        only winners on disk) it pushes into the parquet scan itself
        and prunes row groups via parquet statistics.

        ``filters`` is the FILE-SKIPPING form of the same row
        predicate: pyarrow-parquet-style DNF triples
        (``[("lang", "=", "fr")]`` or OR-of-AND lists).  It filters
        rows exactly like ``predicate`` (the two AND together), and
        ADDITIONALLY skips whole files whose manifest zone maps
        disprove it — but only files that are CLEAN BASES (partition
        ``base`` flag: no leftover deltas, no live tombstones, no
        patches), because a delta file's superseded versions must
        reach the LWW resolve even when they don't match.  Pair with
        ``cluster(cols)``: value-clustered bases have tight per-file
        bounds, so a selective filter reads a fraction of the state.
        ``stats_out`` (optional dict) receives ``files_total`` /
        ``files_stats_skipped`` as skip evidence."""
        m = self._manifest_for(at_epoch)
        key_cols = list(self.spec.key_cols)
        dnf = _normalize_dnf(filters)
        if dnf is not None:
            fexpr = pq.filters_to_expression(filters)
            predicate = (fexpr if predicate is None
                         else predicate & fexpr)
        out_cols = need = None
        if columns is not None:
            want = [c for c in columns if c not in key_cols]
            out_cols = key_cols + want
            need = set(key_cols + [self.spec.lsn_col, self.spec.op_col]
                       + want)
        # per-partition live file lists, with manifest-stats file
        # skipping on clean-base partitions when a DNF filter is given
        n_total = n_skipped = 0
        part_rel: list[list[str]] = []
        for pinfo in (m["partitions"].values()
                      if m and m["partitions"] else ()):
            pfiles = pinfo["files"]
            if not pfiles:
                continue
            n_total += len(pfiles)
            if dnf is not None and pinfo.get("base"):
                fs = pinfo.get("file_stats", {})
                kept = [f for f in pfiles
                        if not _stats_disprove(fs.get(f), dnf)]
                n_skipped += len(pfiles) - len(kept)
            else:
                kept = list(pfiles)
            if kept:
                part_rel.append(kept)
        if stats_out is not None:
            stats_out["files_total"] = n_total
            stats_out["files_stats_skipped"] = n_skipped
        troot = Path(self.root) / self.spec.name
        files = [str(troot / f) for fl in part_rel for f in fl]
        if not files:
            # a fully-PRUNED evolved lake must still answer with the
            # manifest's (evolved) schema, not the spec's
            empty = (mf.schema_from_b64(m["schema"]) if m
                     else self._state_schema()).empty_table()
            if out_cols is not None:
                empty = empty.select(out_cols)
            elif drop_engine_cols:
                empty = empty.drop_columns(
                    ["content_sha", "key_hash", "part"])
            return rd.from_arrow(empty)
        schema = mf.schema_from_b64(m["schema"])
        if need is not None and predicate is not None:
            need |= set(_predicate_fields(predicate, schema))
        read_cols = ([f for f in schema.names if f in need]
                     if need is not None else None)
        if m.get("compacted"):
            kwargs: dict = {"schema": schema}
            if read_cols is not None:
                # Ray expects the schema hint to match the projection
                # (an explicit column list also keeps the part=/epoch=
                # hive names out — no partitioning override needed,
                # and Ray's inference errors on None + columns)
                kwargs["columns"] = read_cols
                kwargs["schema"] = pa.schema(
                    [schema.field(n) for n in read_cols])
            else:
                # partitioning=None: the part=/epoch= directory layout
                # must not hive-inject path columns into the state
                kwargs["partitioning"] = None
            if predicate is not None:
                kwargs["filter"] = predicate
            out = rd.read_parquet(files, **kwargs)
        else:
            part_files = [
                [str(troot / f) for f in fl] for fl in part_rel
            ]
            out = rd.from_arrow(
                pa.table({"files": pa.array(part_files)})
            ).repartition(len(part_files)).map_batches(
                _partition_resolver(schema, self.spec,
                                    read_columns=read_cols,
                                    predicate=predicate),
                batch_format="pyarrow",
            )
        if out_cols is not None:
            out = out.select_columns(out_cols)
        elif drop_engine_cols:
            out = out.drop_columns(["content_sha", "key_hash", "part"])
        return out

    def lookup(
        self,
        keys: list[dict],
        stats_out: dict | None = None,
        at_epoch: int | None = None,
        _resolve: bool = True,
    ) -> pa.Table:
        """Point lookup: the live state rows for a few keys WITHOUT a
        full scan.  Each key routes to its hash partition (same
        ``key_hash_u64 % P`` the write path uses), that partition's
        delta files are pruned by the manifest zone maps (a file whose
        [min, max] excludes every sought key on any key column cannot
        hold the key), zone-map survivors are tested against each
        file's KEY-HASH BLOOM SIDECAR (state/bloom.py — the pruning
        that works on hash-scattered, un-clustered deltas, where every
        file's key range spans the partition), and only files that
        might hold a sought key are read + LWW-resolved.  Both prunes
        are sound regardless of row order — deltas are additionally
        key-sorted at write, which tightens the zone ranges.

        Driver-side by design: a point lookup touches a handful of
        files; cost is O(files in touched partitions) metadata + the
        pruned reads, never O(state).  ``stats_out`` receives
        files_total / files_read / files_bloom_skipped evidence.
        Files without stats or sidecars (pre-upgrade lakes) are
        conservatively read."""
        import pyarrow.dataset as pds

        key_cols = list(self.spec.key_cols)
        m = self._manifest_for(at_epoch)
        empty = drop_tombstones(
            self._state_schema().empty_table(), self.spec.op_col
        )
        if not m or not m["partitions"] or not keys:
            if stats_out is not None:
                stats_out.update(files_total=0, files_read=0,
                                 files_bloom_skipped=0)
            return empty
        schema = mf.schema_from_b64(m["schema"])
        troot = Path(self.root) / self.spec.name
        arrs = [pa.array([k[c] for k in keys]) for c in key_cols]
        kh = hashing.key_hash_u64(*arrs)
        parts = hashing.partition_of(
            kh, self.spec.num_partitions
        ).to_pylist()
        by_part: dict[int, list[int]] = {}
        for i, p in enumerate(parts):
            by_part.setdefault(int(p), []).append(i)
        keys_tbl = pa.table(
            {c: a for c, a in zip(key_cols, arrs)}
        ).group_by(key_cols).aggregate([])  # distinct sought keys
        kh_np = np.asarray(kh.to_numpy(zero_copy_only=False),
                           dtype=np.uint64)
        total = read = bloom_skipped = 0
        tabs = []
        for p, idxs in by_part.items():
            info = m["partitions"].get(str(p))
            if not info or not info["files"]:
                continue
            fstats = info.get("file_stats", {})
            sought_kh = kh_np[idxs]
            cand = []
            for f in info["files"]:
                total += 1
                st = fstats.get(f)
                if st is not None:
                    hit = any(
                        all(
                            st.get(c) is None
                            or (st[c][0] <= keys[i][c] <= st[c][1])
                            for c in key_cols
                        )
                        for i in idxs
                    )
                    if not hit:
                        continue
                # key-hash bloom sidecar: definite miss → skip the file
                # (the prune that bites on hash-scattered deltas whose
                # zone ranges span the partition); missing sidecar →
                # conservative read
                bp = bloom.sidecar_path(troot / f)
                if bp.exists():
                    if not bloom.might_contain(
                        bp.read_bytes(), sought_kh
                    ).any():
                        bloom_skipped += 1
                        continue
                cand.append(f)
            read += len(cand)
            if not cand:
                continue
            t = pds.dataset(
                [str(troot / f) for f in cand], schema=schema
            ).to_table()
            t = t.join(keys_tbl, keys=key_cols, join_type="left semi")
            if t.num_rows:
                if not _resolve:  # key_history: keep every version
                    tabs.append(t)
                elif self.spec.patch_ops:
                    t = patch_reduce_table(
                        t, key_cols, self.spec.lsn_col, self.spec.op_col,
                        fold=True,
                    )
                    tabs.append(drop_tombstones(t, self.spec.op_col))
                else:
                    t = lww_reduce_table(t, key_cols, self.spec.lsn_col)
                    tabs.append(drop_tombstones(t, self.spec.op_col))
        if stats_out is not None:
            stats_out.update(files_total=total, files_read=read,
                             files_bloom_skipped=bloom_skipped)
        if not tabs:
            return empty
        out = pa.concat_tables([t.cast(empty.schema) for t in tabs])
        if not _resolve:
            out = out.sort_by(
                [(c, "ascending") for c in key_cols]
                + [(self.spec.lsn_col, "ascending")]
            )
        return out

    def key_history(
        self,
        keys: list[dict],
        stats_out: dict | None = None,
        at_epoch: int | None = None,
    ) -> pa.Table:
        """Row-level audit: EVERY retained version of the sought keys —
        inserts, updates, deletes, partial patches — ordered by key
        then lsn, served through the same zone-map + bloom-sidecar
        pruned point-read path as ``lookup`` (cost O(files that might
        hold a sought key), never O(state)).  The per-key complement
        of the table-wide SCD2 expansion (``stages/history.py``).

        Granularity/retention caveats (both tested): the write-path
        combiner keeps ONE winner per key per epoch, so the chain is
        epoch-granular — the same commit granularity the SCD2 view
        documents; and compaction collapses superseded versions into
        the winner, so history depth is whatever delta files the
        manifest still references — pass ``at_epoch`` (or a ts via
        ``epoch_at_ts``) to audit against an older retained snapshot
        for deeper history."""
        return self.lookup(keys, stats_out=stats_out, at_epoch=at_epoch,
                           _resolve=False)

    def changes_between(
        self,
        from_epoch: int,
        to_epoch: int | None = None,
        carry_cols: list[str] | None = None,
    ) -> rd.Dataset:
        """NET change set over an epoch span — the changefeed consumer's
        resume path: a reader that last saw ``from_epoch`` gets one row
        per key whose live value differs at ``to_epoch`` (default:
        current), with the old/new payloads.  Composed from the
        DELTA-SOURCED per-epoch change sets (``epoch_change_set``) and
        collapsed by ``stages/merge.net_change_sets`` — change-set-sized
        everywhere, state never re-read; equals ``snapshot_diff`` of the
        two time-travel snapshots.  Compaction epochs are skipped (they
        rewrite files, never state)."""
        from ..stages.merge import net_change_sets

        m = mf.read_manifest(self.root, self.spec.name)
        if not m:
            raise ValueError("empty lake")
        hi = m["epoch"] if to_epoch is None else to_epoch
        # a cursor must name an epoch THIS lineage has seen: after a
        # restore() the rolled-back epochs vanish from the lineage, and
        # silently returning an empty span would let a changefeed
        # consumer or incremental view keep serving rolled-back rows
        # forever (review finding, round 4d) — fail loudly instead;
        # consumers whose cursor crossed a restore must rebuild
        known = {r["epoch"] for r in m.get("lineage", [])} | {0}
        if from_epoch not in known:
            raise ValueError(
                f"cursor epoch {from_epoch} is not in this table's "
                f"lineage — it was rolled back by restore(); rebuild "
                f"the consumer from a current snapshot "
                f"(lineage epochs: {sorted(known)})"
            )
        if carry_cols:
            # per-epoch change sets carry each epoch's SNAPSHOT schema,
            # so a span crossing a rename_column DDL would mix the old
            # and new names for the same logical column — refuse with
            # guidance rather than concat-erroring downstream
            touched = {
                n for r in m.get("lineage", [])
                if r.get("ddl") == "rename_column"
                and from_epoch < r["epoch"] <= hi
                for n in (r["from"], r["to"])
            }
            bad = sorted(touched & set(carry_cols))
            if bad:
                raise ValueError(
                    f"changes_between span crosses a rename_column DDL "
                    f"touching carry column(s) {bad}: split the span at "
                    f"the rename epoch, or rebuild the consumer from a "
                    f"current snapshot"
                )
        apply_epochs = sorted(
            r["epoch"] for r in m.get("lineage", [])
            if not r.get("compaction") and from_epoch < r["epoch"] <= hi
        )
        if not apply_epochs:
            # empty span: no committed apply epochs inside it
            key_fields = [
                f for f in mf.schema_from_b64(m["schema"])
                if f.name in self.spec.key_cols
            ]
            lsn_t = mf.schema_from_b64(m["schema"]).field(
                self.spec.lsn_col).type
            sch = pa.schema(
                key_fields
                + [pa.field("change", pa.string()),
                   pa.field("old_" + self.spec.lsn_col, lsn_t),
                   pa.field("new_" + self.spec.lsn_col, lsn_t)]
                + [f2 for c in (carry_cols or ())
                   for f2 in (
                       pa.field("old_" + c,
                                mf.schema_from_b64(m["schema"]).field(c).type),
                       pa.field("new_" + c,
                                mf.schema_from_b64(m["schema"]).field(c).type),
                   )]
            )
            return rd.from_arrow(sch.empty_table())
        # materialized: each diff is change-set-sized, and the net fold
        # reads every diff twice (schema probe + union) — without this
        # the per-epoch classify pipelines execute twice over
        diffs = [
            epoch_change_set(self, e, carry_cols=carry_cols).materialize()
            for e in apply_epochs
        ]
        return net_change_sets(
            diffs, list(self.spec.key_cols), self.spec.lsn_col,
            carry_cols=carry_cols,
        )

    # -- maintenance ------------------------------------------------------

    def _maybe_autocompact(self, m: dict) -> dict | None:
        """Commit-path hook: size-tiered compaction when any partition
        of the just-committed manifest ``m`` holds more than
        ``auto_compact_files`` delta files (VERDICT r3 #3).  Called
        from the commit thread, so it cannot race an in-flight phase
        2."""
        k = self.auto_compact_files
        if not k or not any(
            len(info["files"]) > k for info in m["partitions"].values()
        ):
            return None
        try:
            return self.compact(max_files=k)
        except ConcurrentCommitError:
            # maintenance is best-effort: losing a race to concurrent
            # layout/DDL must not fail the APPLY that triggered it —
            # the next commit re-triggers once the dust settles
            return None

    def clone(self, dest_root: str, at_epoch: int | None = None) -> "CDCLake":
        """Zero-copy branch: a new independent lake at ``dest_root``
        whose state is this lake's (optionally as of ``at_epoch``).
        Data files are immutable after commit, so the clone HARDLINKS
        them (copy fallback for cross-device) — O(files) metadata, no
        data movement; a later gc on either side unlinks only its own
        directory entry, never the shared inode.  Both sides then
        evolve independently (dev branches, backfill experiments,
        point-in-time forks).  Lineage up to the fork point is carried;
        markers (the phase-1 audit trail) stay with the source.

        On an object store this becomes a server-side copy or a
        manifest-level shallow clone — the manifest only stores
        table-relative paths, which is what makes this operation
        possible."""
        import shutil as _sh

        m = self._manifest_for(at_epoch)
        if not m:
            raise ValueError("cannot clone an empty lake")
        src_troot = Path(self.root) / self.spec.name
        dst_troot = Path(dest_root) / self.spec.name
        if (dst_troot / "_manifests").exists():
            raise ValueError(f"destination {dst_troot} already has a lake")

        def link(src: Path, dst: Path) -> None:
            try:
                os.link(src, dst)
            except OSError:
                _sh.copy2(src, dst)

        for rel in [f for info in m["partitions"].values()
                    for f in info["files"]]:
            src, dst = src_troot / rel, dst_troot / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            link(src, dst)
            # carry the bloom sidecar (immutable like its data file)
            # so point lookups on the branch keep their file skipping
            if bloom.sidecar_path(src).exists():
                link(bloom.sidecar_path(src), bloom.sidecar_path(dst))
        # carry the COW manifest LOG (immutable json, metadata-sized):
        # time travel and epoch change sets on the branch keep working
        # for every epoch whose data files are shared with the fork
        # point (merge-on-read accumulates, so that is most of them);
        # epochs whose files were compacted away fail loudly, never
        # silently (same contract as gc-expired snapshots).  Only the
        # fork snapshot's own LINEAGE travels: later source snapshots
        # are not the branch's history (and a mid-stream compaction's
        # number may exceed the data epoch committed after it, so
        # membership, not ``<= epoch``, decides)
        (dst_troot / "_manifests").mkdir(parents=True, exist_ok=True)
        for e in {r["epoch"] for r in m.get("lineage", [])}:
            name = f"manifest-{e:06d}.json"
            if (src_troot / "_manifests" / name).exists():
                link(src_troot / "_manifests" / name,
                     dst_troot / "_manifests" / name)
        from dataclasses import replace as _dc_replace

        dest = CDCLake(dest_root, _dc_replace(self.spec),
                       gate=self.gate,
                       auto_compact_files=self.auto_compact_files,
                       dead_letter=self.dead_letter,
                       constraints=self.constraints)
        # the branch inherits the fork snapshot's allocator high-water
        # mark, and commits that snapshot (with its lineage) as its own
        dest._epoch_hwm = m.get("epoch_hwm", 0)
        record = {
            "epoch": m["epoch"], "cloned_from": str(src_troot),
            "at_epoch": at_epoch,
            # state-preserving, like a compaction: change-set readers
            # must not treat the fork record as an apply epoch
            "compaction": True, "clone": True,
        }
        committed = dest._commit_edit(
            None, m["epoch"], record,
            lambda cur: {**_table_props(m), "lineage": m.get("lineage", [])},
            "quiesced")
        dest._load_spec(committed)
        return dest

    def merge_branch(self, branch: "CDCLake", *,
                     on_conflict: str = "fail",
                     txn: "LakeTransaction | None" = None) -> dict:
        """Merge a diverged ``clone()`` branch back into this (parent)
        lake — the three-way merge that completes the branch story: a
        dev-branch backfill lands as ONE parent epoch without replaying
        the branch's event log.

        The fork point is the clone record in the BRANCH's lineage.
        The branch's NET change set since the fork (``changes_between``
        — change-set-sized, composed from delta files, state never
        re-read) is re-synthesized as ordinary CDC events at one LSN
        above every committed parent watermark and applied via
        ``apply_events`` — so the merge is exactly-once at the commit,
        time-travelable, and visible to changefeeds / incremental views
        like any other epoch.

        Conflicts = keys changed on BOTH sides since the fork, detected
        with a partitioned hash join of the two change sets (never a
        driver-side key set).  ``on_conflict``:

        * ``"fail"``   — refuse, reporting the conflict count + sample;
        * ``"ours"``   — parent wins: conflicting keys keep the
          parent's current value (those branch rows are dropped);
        * ``"theirs"`` — branch wins: its change set applies verbatim
          (conflict detection is skipped — nothing would use it).

        Caveats (documented contracts, not gaps): re-merging the same
        branch is NOT idempotent — each call synthesizes fresh LSNs;
        merge once, or gate on the returned record.  The change set is
        carried on the PARENT's current payload schema — if the branch
        added columns, evolve the parent first (``widen_column`` / an
        evolving apply), else the new columns do not travel.  A parent
        ``restore()`` that rolled back past the fork epoch fails loudly
        (the fork is no longer in this lineage).

        Reference analog: combine_subtables.py:89-124 folds a later
        source into the accumulated table with priority conflict
        resolution and a redundant-rows audit; here the policy is
        explicit per call and the audit is the returned conflict count.
        """
        if on_conflict not in ("fail", "ours", "theirs"):
            raise ValueError(f"on_conflict={on_conflict!r}")
        spec = self.spec
        bm = mf.read_manifest(branch.root, branch.spec.name)
        if not bm:
            raise ValueError("branch lake is empty")
        my_troot = str(Path(self.root) / spec.name)
        fork = None
        for r in bm.get("lineage", []):
            if r.get("clone") and r.get("cloned_from") == my_troot:
                fork = r  # the latest clone record names the fork
        if fork is None:
            raise ValueError(
                f"{branch.root} is not a clone of {my_troot} — "
                f"merge_branch only folds lakes forked via clone()"
            )
        fork_epoch = int(fork["epoch"])
        pm = mf.read_manifest(self.root, spec.name)
        known = {r["epoch"] for r in (pm or {}).get("lineage", [])} | {0}
        if fork_epoch not in known:
            raise ValueError(
                f"fork epoch {fork_epoch} is not in the parent's lineage "
                f"— a restore() rolled back past the fork; re-clone and "
                f"replay the branch instead of merging"
            )
        key_cols = list(spec.key_cols)
        from ..stages.joins import nonempty_arrow_blocks

        changes = branch.changes_between(
            fork_epoch, carry_cols=spec.payload_cols
        ).materialize()
        base = {
            "merged_from": str(Path(branch.root) / branch.spec.name),
            "fork_epoch": fork_epoch,
            "resolution": on_conflict,
        }
        if changes.count() == 0:
            return {**base, "rows_merged": 0, "conflicts": 0,
                    "committed": True}
        # Ray skips map UDFs on empty blocks: an empty block from the
        # change-set fold would launder to a schema-less pandas block
        # and null-type the apply path — drop empties up front
        changes = nonempty_arrow_blocks(changes)
        conflicts = 0
        if on_conflict != "theirs":
            from ..stages.joins import _as_arrow_schema, partitioned_hash_join

            mine = self.changes_between(fork_epoch)

            def mark_keys(t: pa.Table) -> pa.Table:
                return t.select(key_cols).append_column(
                    "__both", pa.array(np.ones(t.num_rows, dtype=bool))
                )

            mine_keys = mine.map_batches(mark_keys, batch_format="pyarrow")
            ch_schema = _as_arrow_schema(changes.schema())
            mark_schema = pa.schema(
                [(c, spec.schema.field(c).type) for c in key_cols]
                + [("__both", pa.bool_())]
            )
            joined = partitioned_hash_join(
                changes, mine_keys, key_cols, how="left",
                left_schema=ch_schema, right_schema=mark_schema,
            ).materialize()
            conflicts = joined.map_batches(
                lambda t: t.filter(
                    pc.fill_null(t.column("__both"), False)),
                batch_format="pyarrow",
            ).count()
            if conflicts and on_conflict == "fail":
                sample = joined.map_batches(
                    lambda t: t.filter(
                        pc.fill_null(t.column("__both"), False)
                    ).select(key_cols),
                    batch_format="pyarrow",
                ).take(5)
                raise ValueError(
                    f"merge_branch: {conflicts} key(s) changed on both "
                    f"sides since fork epoch {fork_epoch} (sample: "
                    f"{sample}) — resolve with on_conflict='ours' or "
                    f"'theirs'"
                )
            if conflicts:  # 'ours': drop the branch's conflicting rows
                keep_cols = list(ch_schema.names)
                changes = nonempty_arrow_blocks(joined.map_batches(
                    lambda t: t.filter(
                        pc.is_null(t.column("__both"))
                    ).select(keep_cols),
                    batch_format="pyarrow",
                ).materialize())
                if changes.count() == 0:
                    return {**base, "rows_merged": 0,
                            "conflicts": int(conflicts),
                            "committed": True}

        to_events = _change_events(spec, self._max_committed_lsn(pm) + 1)
        events = changes.map_batches(to_events, batch_format="pyarrow")
        rec = self.apply_events(events, txn=txn)
        rec.update(base)
        rec["conflicts"] = int(conflicts)
        return rec

    def reshard(self, new_num_partitions: int) -> dict:
        """Re-hash the lake to a new partition count — the cluster-resize
        admin operation (hash partitioning pins parallelism; a lake laid
        out for N nodes underuses 4N).  One pass: every live delta row
        re-keys to ``key_hash % new_P`` (key_hash is content-stable, so
        a key's FULL history lands in one new partition), and the shared
        delta writer LWW-resolves it there into one file per new
        partition.

        Exactly-once across the boundary: tombstones are RETAINED (not
        dropped as in compact) and every new partition's watermark is
        the MIN of the old partitions' watermarks — a re-delivered event
        at or below an old watermark passes the coarser filter but dies
        in per-key LWW against the retained winner or tombstone, the
        same idempotence argument as crash retry.  (Dropping tombstones
        here would let such a replay resurrect a deleted key; a later
        ``compact()`` drops only tombstones at or below the stored
        watermark — the delete-marker GC rule — so the guard holds
        until the watermark genuinely passes each tombstone.)
        Lineage records the rewrite as a
        compaction-class epoch: no state change, so change-set readers
        skip it."""
        from dataclasses import replace as _dc_replace

        m = mf.read_manifest(self.root, self.spec.name)
        old_p = self.spec.num_partitions
        if new_num_partitions == old_p:
            return {"reshard": True, "from": old_p, "to": old_p,
                    "partitions_touched": 0}
        if not m:
            # nothing committed yet: the layout is purely in-memory
            self.spec.num_partitions = new_num_partitions
            return {"reshard": True, "from": old_p,
                    "to": new_num_partitions, "partitions_touched": 0}
        # EVERY new partition carries the min of the old watermarks —
        # including those the rewrite leaves empty: committed
        # watermarks still guard redelivery of keys whose rows and
        # tombstones a compaction already dropped
        min_wm = min(
            (info["watermark"] for info in m["partitions"].values()),
            default=-1,
        )
        epoch = self._alloc_epoch()
        schema = mf.schema_from_b64(m["schema"])
        files = mf.live_files(self.root, self.spec.name, m)
        new_spec = _dc_replace(self.spec,
                               num_partitions=new_num_partitions)

        def rekey(t: pa.Table) -> pa.Table:
            # the hive-style part=/epoch= directories inject partition
            # columns on read — pin to the manifest schema first
            t = t.select(schema.names)
            part = hashing.partition_of(
                t.column("key_hash"), new_num_partitions
            )
            return t.set_column(
                t.schema.get_field_index("part"), "part",
                pc.cast(part, t.schema.field("part").type),
            )

        writer = _delta_writer(self.root, self.spec.name, epoch, new_spec)
        stats = (
            rd.read_parquet(files, schema=schema)
            .map_batches(rekey, batch_format="pyarrow")
            .groupby("part", num_partitions=new_num_partitions)
            .map_groups(writer, batch_format="pyarrow")
            .take_all()
        ) if files else []
        partitions = {
            str(p): {"files": [], "watermark": min_wm, "rows": 0,
                     "sha_rollup": None, "base": True, "gated": 0}
            for p in range(new_num_partitions)
        }
        for s in stats:
            partitions[str(s["part"])] = {
                "files": [s["file"]],
                "watermark": min_wm,
                "rows": s["rows"],
                "sha_rollup": s["sha_rollup"],
                "gated": 0,
                "file_stats": {s["file"]: json.loads(s["stats"])},
            }
        # cumulative gate audit survives as a table-level lineage figure
        record = {
            "epoch": epoch,
            "compaction": True,  # state-preserving file rewrite
            "reshard": True,
            "from": old_p,
            "to": new_num_partitions,
            "partitions_touched": len(stats),
            "rows": int(sum(s["rows"] for s in stats)),
            "gated_carried": int(sum(
                info.get("gated", 0) for info in m["partitions"].values()
            )),
        }
        # tombstones retained — resolver path; the rewrite itself is
        # key-ordered, and the carried cluster_spec makes the next
        # compaction re-cluster
        self._commit_edit(m, epoch, record, lambda cur: {
            "num_partitions": new_num_partitions,
            "partitions": partitions, "compacted": False,
        }, "quiesced")
        self.spec.num_partitions = new_num_partitions
        return record

    def _max_committed_lsn(self, m: dict | None) -> int:
        """The highest LSN of any COMMITTED row — the floor synthesized
        DML/MERGE events must clear to win LWW.  NOT max(watermarks):
        reshard() resets every new partition's watermark to the MIN of
        the old ones (redelivery safety), so after a reshard the
        watermark max can sit BELOW live rows' LSNs and a synthesized
        event at watermark+1 would silently lose to them (review
        finding, round 4d).  Zone maps give the row maximum per file;
        a stat-less file (pre-upgrade lake) falls back to its parquet
        footer metadata — still metadata-only, no data read."""
        if not m:
            return -1
        hi = int(self._watermarks(m).max())
        lsn_col = self.spec.lsn_col
        troot = Path(self.root) / self.spec.name
        for info in m["partitions"].values():
            fstats = info.get("file_stats", {})
            for f in info["files"]:
                st = fstats.get(f, {}).get(lsn_col)
                if st is not None:
                    hi = max(hi, int(st[1]))
                    continue
                md = pq.read_metadata(str(troot / f))
                idx = md.schema.to_arrow_schema().get_field_index(lsn_col)
                for rg in range(md.num_row_groups):
                    col = md.row_group(rg).column(idx)
                    if col.statistics and col.statistics.has_min_max:
                        hi = max(hi, int(col.statistics.max))
        return hi

    def _dml_events(self, predicate, make_rows, op: str) -> rd.Dataset:
        """Shared DML scaffolding: scan the live state map-only, select
        rows with ``predicate`` (batch → bool mask), and turn
        ``make_rows(selected)`` into ``op`` events with an LSN above
        EVERY committed watermark — so the synthesized events win LWW
        and a later redelivery of the historical log cannot resurrect
        or un-update the affected keys."""
        m = mf.read_manifest(self.root, self.spec.name)
        base_lsn = self._max_committed_lsn(m) + 1
        state = self.read_state(drop_engine_cols=True)
        spec = self.spec

        def synth(batch: pa.Table) -> pa.Table:
            mask = np.asarray(predicate(batch), dtype=bool)
            return _as_events(spec, make_rows(batch.filter(pa.array(mask))),
                              op, base_lsn)

        return state.map_batches(synth, batch_format="pyarrow")

    def delete_where(self, predicate, *, txn: "LakeTransaction | None" = None) -> dict:
        """Predicate DML: ``DELETE FROM <table> WHERE predicate`` — the
        GDPR-erasure path the raw event log cannot express (the keys to
        erase are defined by their CURRENT payload, not by upstream
        events).  One map-only state scan emits a tombstone (no
        payload) per matching key at an LSN above every committed
        watermark, applied as one ordinary epoch — exactly-once,
        time-travelable, visible to change feeds and incremental views
        like any other commit.
        ``predicate``: batch (Arrow, payload columns) → bool mask."""
        events = self._dml_events(predicate, lambda sel: sel, "D")
        return self.apply_events(events, txn=txn)

    def update_where(self, predicate, set_fn, *,
                     txn: "LakeTransaction | None" = None) -> dict:
        """Predicate DML: ``UPDATE <table> SET ... WHERE predicate``.
        ``set_fn`` receives the selected rows (Arrow table, payload
        columns) and returns them with payload columns rewritten (key
        columns must pass through unchanged); each becomes an op='U'
        event at an LSN above every committed watermark and applies as
        one ordinary epoch.  Composes with curation gates (an update
        whose new payload fails the gate is retracted — the DML analog
        of a failing arriving event) and with patch lakes (full-row
        updates win the column fold)."""
        payload = self.spec.payload_cols

        def updated(sel: pa.Table) -> pa.Table:
            out = set_fn(sel) if sel.num_rows else sel
            # the event builder nulls absent columns (MERGE INTO's
            # contract); here an absent column would erase live values
            missing = [c for c in payload if c not in out.column_names]
            if missing:
                raise ValueError(
                    f"update_where: set_fn dropped payload columns "
                    f"{missing}; return every payload column")
            return out

        events = self._dml_events(predicate, updated, "U")
        return self.apply_events(events, txn=txn)

    def merge_into(self, source: rd.Dataset, *,
                   when_matched: str = "update",
                   when_not_matched: str = "insert",
                   txn: "LakeTransaction | None" = None) -> dict:
        """``MERGE INTO <table> USING source ON key`` — the lakehouse
        upsert verb.  ``source`` rows carry key + payload columns (no
        op/lsn; both are synthesized, the LSN above every committed
        watermark) and must be KEY-UNIQUE (the standard MERGE contract
        — duplicate source keys would tie on the synthesized LSN).

        ``when_matched``: 'update' | 'delete' | 'ignore';
        ``when_not_matched``: 'insert' | 'ignore'.  'delete' makes
        this the referential-cascade verb (erase child keys present in
        a parent's delete set).

        Scale shape: source rows hash-route to their partitions (ONE
        shuffle, the same exchange the apply path uses); each
        partition task probes liveness against its OWN winner keys
        read KEYS-ONLY (column-pruned — payloads never move), so
        untouched partitions are never opened; the synthesized events
        then apply as one ordinary epoch (exactly-once,
        time-travelable, change-feed- and view-visible)."""
        if when_matched not in ("update", "delete", "ignore"):
            raise ValueError(f"when_matched={when_matched!r}")
        if when_not_matched not in ("insert", "ignore"):
            raise ValueError(f"when_not_matched={when_not_matched!r}")
        from ..functions.hashing import key_hash_u64, partition_of

        spec = self.spec
        m = mf.read_manifest(self.root, spec.name)
        base_lsn = self._max_committed_lsn(m) + 1
        key_cols = list(spec.key_cols)
        lsn_col, op_col = spec.lsn_col, spec.op_col
        troot = Path(self.root) / spec.name
        part_files = {
            int(p): [str(troot / f) for f in info["files"]]
            for p, info in (m or {"partitions": {}})["partitions"].items()
        }
        state_schema = (mf.schema_from_b64(m["schema"]) if m
                        else self._state_schema())
        num_parts = spec.num_partitions

        def route(batch: pa.Table) -> pa.Table:
            kh = key_hash_u64(*[batch.column(c) for c in key_cols])
            return batch.append_column(
                "part", partition_of(kh, num_parts))

        def classify(group: pa.Table) -> pa.Table:
            import pyarrow.dataset as pds

            part = group.column("part")[0].as_py()
            group = group.drop_columns(["part"])
            files = part_files.get(part, [])
            if files:
                keys = pds.dataset(files, schema=state_schema).to_table(
                    columns=key_cols + [lsn_col, op_col]
                )
                if spec.patch_ops:
                    # liveness is decided by non-patch rows only (a
                    # patch never creates or deletes a key)
                    keys = keys.filter(
                        pc.not_equal(keys.column(op_col), "P"))
                live = drop_tombstones(
                    lww_reduce_table(keys, key_cols, lsn_col), op_col
                ).select(key_cols)
                live = live.append_column(
                    "__live",
                    pa.array(np.ones(live.num_rows, dtype=bool)))
                j = group.join(live, keys=key_cols, join_type="left outer")
            else:
                j = group.append_column(
                    "__live",
                    pa.array(np.zeros(group.num_rows, dtype=bool)))
            matched = pc.fill_null(j.column("__live"), False).to_numpy(
                zero_copy_only=False)
            j = j.drop_columns(["__live"])
            keep = np.ones(len(matched), dtype=bool)
            if when_matched == "ignore":
                keep &= ~matched
            if when_not_matched == "ignore":
                keep &= matched
            j = j.filter(pa.array(keep))
            op = np.where(matched[keep],
                          "D" if when_matched == "delete" else "U", "I")
            return _as_events(spec, j, op, base_lsn)

        events = (
            source.map_batches(route, batch_format="pyarrow")
            .groupby("part")
            .map_groups(classify, batch_format="pyarrow")
        )
        return self.apply_events(events, txn=txn)

    def restore(self, epoch: int) -> dict:
        """ROLLBACK the table to snapshot ``epoch`` (Delta-style
        RESTORE): re-commit that snapshot's manifest as a NEW epoch —
        one pointer swap, no data rewritten.  Later epochs' files
        become unreferenced (gc reclaims them); watermarks revert with
        the snapshot, so re-tailing the upstream log from the restore
        point replays cleanly and converges exactly-once, and the
        bad epochs stay readable as snapshots until gc for audit.

        Requires the target snapshot's manifest (retained by gc as the
        audit trail) and its DATA files (reclaimed once superseded —
        restore inside the gc retention window).  The restore itself
        is a lineage record, so time travel can also cross BACK over
        it.  Downstream CURSORS (changefeed consumers, materialized
        views) whose last-seen epoch was rolled back must rebuild:
        ``changes_between`` and view refreshes fail loudly on a cursor
        the post-restore lineage never saw, rather than silently
        serving rolled-back rows."""
        spec = self.spec
        m = mf.read_manifest(self.root, spec.name)
        if m is None:
            raise ValueError("empty lake: nothing to restore")
        target = mf.read_manifest_at(self.root, spec.name, epoch)
        if target is None:
            raise ValueError(
                f"no manifest snapshot for epoch {epoch} — expired from "
                f"the retention window (retained: "
                f"{mf.list_manifest_epochs(self.root, spec.name)})"
            )
        # fail loudly NOW if the snapshot's data files are gone, not at
        # first read after the pointer swap
        missing = [
            f for f in mf.live_files(self.root, spec.name, target)
            if not Path(f).exists()
        ]
        if missing:
            raise FileNotFoundError(
                f"restore target epoch {epoch} references "
                f"{len(missing)} gc-reclaimed data file(s)"
            )
        new_epoch = self._alloc_epoch()
        record = {"epoch": new_epoch, "compaction": True,
                  "restore_of": epoch}
        # every table property AND the lineage revert with the snapshot
        committed = self._commit_edit(m, new_epoch, record, lambda cur: {
            **_table_props(target), "lineage": target.get("lineage", []),
        }, "quiesced")
        # the spec reverts with the snapshot (schema, partitioning,
        # dropped set, renames)
        self._load_spec(committed)
        return record

    def drop_column(self, col: str) -> dict:
        """DDL: drop a payload column — LOGICAL and instant (one
        manifest commit, no data rewritten).  Completes the schema-
        evolution triangle (add and widen arrive with events; drop is
        a decision, so it is a verb).

        Semantics: every read path resolves against the committed
        manifest schema, so the column vanishes immediately from
        ``read_state`` / ``read_deltas`` / ``lookup`` / change sets
        (pyarrow dataset + Ray read_parquet project a narrower schema
        away from wider files — no rewrite needed); the next
        ``compact()`` removes the bytes physically.  TIME TRAVEL keeps
        the column: snapshots before the DDL carry the old schema, so
        ``read_state(at_epoch=...)`` resurrects it — drop is an event
        in the lineage, not a rewrite of history.  Arriving events
        that still carry the column (or its pre-rename source name)
        have it stripped at apply time — schema evolution must not
        re-add a dropped column.  The lineage records the DDL with
        ``compaction: True`` (state-preserving), so change feeds and
        incremental views skip the epoch."""
        spec = self.spec
        protected = (*spec.key_cols, spec.lsn_col, spec.op_col,
                     spec.content_col)
        if col in protected:
            raise ValueError(
                f"{col!r} is a key/order/op/content column — dropping it "
                "would break LWW resolution or the content invariant"
            )
        if col not in spec.schema.names:
            raise ValueError(f"no such column: {col!r}")

        def props(cur: dict) -> dict:
            # dropping a clustering column narrows (or clears) the
            # persisted clustering property — later compactions must
            # not try to order by a column that no longer exists
            cspec = cur.get("cluster_spec")
            if cspec and col in cspec.get("cols", []):
                left = [c for c in cspec["cols"] if c != col]
                cspec = {**cspec, "cols": left} if left else None
            return {"dropped_cols": sorted(
                        set(cur.get("dropped_cols", [])) | {col}),
                    "cluster_spec": cspec}

        record = self._commit_ddl(
            mf.read_manifest(self.root, spec.name),
            {"ddl": "drop_column", "col": col},
            lambda s: pa.schema([f for f in s if f.name != col]), props)
        self.dropped_cols = self.dropped_cols | {col}
        return record

    def rename_column(self, old: str, new: str) -> dict:
        """DDL: rename a payload column — the post-hoc, live-lake
        complement of ``TableSpec.rename`` (which remaps at ingest;
        reference analog: the OMOP field remapping the standardize
        scripts hard-code per table, e.g. demographics--person.py's
        source→CDM column maps).

        Unlike ``drop_column`` a rename cannot be logical-only here:
        every read path resolves files against the manifest schema BY
        NAME (pyarrow dataset semantics), so an un-rewritten file would
        answer nulls for the new name.  The verb therefore REWRITES
        every live file with the column renamed — a pure per-file byte
        rewrite, one Ray task per file batch: no LWW resolve, no
        shuffle, and tombstones, patches, superseded versions,
        watermarks, base flags, zone maps and key-hash bloom sidecars
        all carry over unchanged — then swaps the manifest once,
        quiesced (refused if a concurrent writer advanced it).

        Semantics:
          * arriving events still using the OLD name keep landing: the
            rename joins the spec's schema-evolution map
            (``spec.rename``, applied by standardize before evolve),
            persists in the manifest (``renamed_cols``) and is restored
            on reopen and by ``restore()``; chained renames compose
            (a→b then b→c: events named a or b both land on c).
          * TIME TRAVEL keeps the old name: pre-DDL snapshots reference
            the un-rewritten files (COW), so ``read_state(at_epoch=...)``
            answers with the old schema until gc reclaims them.
          * change feeds: ``changes_between`` spans crossing the rename
            refuse ``carry_cols`` naming either side of it (per-epoch
            change sets are snapshot-schema'd, so the span would mix
            names); key/lsn-only cursors cross freely.
          * key / lsn / op / content columns are structural (hashing,
            LWW order, the sha invariant) and cannot be renamed.
        """
        spec = self.spec
        if old == new:
            raise ValueError("rename_column: old and new are the same")
        protected = (*spec.key_cols, spec.lsn_col, spec.op_col,
                     spec.content_col)
        if old in protected or old in _ENGINE_COLS:
            raise ValueError(
                f"{old!r} is a key/order/op/content/engine column — "
                "renaming it would break LWW resolution, partitioning "
                "or the content invariant"
            )
        if old not in spec.schema.names:
            raise ValueError(f"no such column: {old!r}")
        if not new or new in spec.schema.names or new in _ENGINE_COLS:
            raise ValueError(
                f"target name {new!r} is empty, already a column, or "
                "reserved for an engine column"
            )

        def _ren_schema(s: pa.Schema) -> pa.Schema:
            return pa.schema(
                [pa.field(new, f.type, f.nullable, f.metadata)
                 if f.name == old else f for f in s]
            )

        def _ren_file(t: pa.Table) -> pa.Table:
            if old not in t.column_names:
                return t
            return t.rename_columns(
                [new if c == old else c for c in t.column_names])

        def _ren_stats(st: dict) -> dict:
            return {(new if c == old else c): v for c, v in st.items()}

        def props(cur: dict) -> dict:
            cspec = cur.get("cluster_spec")
            if cspec and old in cspec.get("cols", []):
                cspec = {**cspec, "cols": [new if c == old else c
                                           for c in cspec["cols"]]}
            return {
                "dropped_cols": sorted(
                    set(cur.get("dropped_cols", [])) - {new}),
                "cluster_spec": cspec,
                "renamed_cols": _merge_ddl_renames(
                    cur.get("renamed_cols", {}), {old: new}),
            }

        record = self._commit_ddl(
            mf.read_manifest(self.root, spec.name),
            {"ddl": "rename_column", "from": old, "to": new},
            _ren_schema, props, ("ren", _ren_file, _ren_stats))
        # a previously-dropped column whose name is being reused is
        # live again — stop stripping it from arriving events
        self.dropped_cols = self.dropped_cols - {new}
        spec.rename = _merge_ddl_renames(spec.rename, {old: new})
        return record

    def _commit_ddl(self, m: dict | None, record: dict, reshape,
                    props=None, rewrite=None) -> dict:
        """Commit one DDL verb as a quiesced edit of the planned
        manifest ``m``: ``reshape`` maps the schema, ``props(cur)``
        returns the other properties the verb changes, and
        ``rewrite=(prefix, transform, restat)`` first rewrites every
        live file.  The spec schema is reshaped only after the commit
        succeeded (a refused commit leaves the instance untouched and
        the rewrite outputs to gc) — or at once, if nothing is
        committed yet."""
        record = {"epoch": 0, "compaction": True, **record}
        if m is not None:
            epoch = record["epoch"] = self._alloc_epoch()
            fields = {}
            if rewrite is not None:
                fields["partitions"], record["files_rewritten"] = \
                    self._rewrite_live_files(m, epoch, *rewrite)
            self._commit_edit(m, epoch, record, lambda cur: {
                **fields,
                "schema": mf.schema_to_b64(
                    reshape(mf.schema_from_b64(cur["schema"]))),
                **(props(cur) if props else {}),
            }, "quiesced")
        self.spec.schema = reshape(self.spec.schema)
        return record

    def _rewrite_live_files(self, m: dict, epoch: int, prefix: str,
                            transform, restat) -> tuple[dict, int]:
        """Rewrite every live file of ``m`` through ``transform``
        (``_file_rewriter``: one Ray task per file batch, no shuffle)
        and remap ``files`` + ``file_stats`` (via ``restat``) to the
        rewritten paths.  Returns (partitions, files rewritten)."""
        all_files = [(int(p), f) for p, info in m["partitions"].items()
                     for f in info["files"]]
        remap: dict[str, str] = {}
        if all_files:
            rows = pa.table({
                "part": pa.array([p for p, _ in all_files], pa.int32()),
                "file": pa.array([f for _, f in all_files], pa.string()),
            })
            out = (
                rd.from_arrow(rows)
                .repartition(min(len(all_files), 64))
                .map_batches(_file_rewriter(self.root, self.spec.name,
                                            epoch, prefix, transform),
                             batch_format="pyarrow")
                .take_all()
            )
            remap = {r["src"]: r["dst"] for r in out}
        partitions = {
            p: {
                **info,
                "files": [remap[f] for f in info["files"]],
                "file_stats": {
                    remap[f]: None if st is None else restat(st)
                    for f, st in info.get("file_stats", {}).items()
                    if f in remap
                },
            }
            for p, info in m["partitions"].items()
        }
        return partitions, len(remap)

    def add_column(self, col: str, typ: pa.DataType,
                   default=None) -> dict:
        """DDL: add a payload column — the declarative complement of
        arrival-driven column add (``TableSpec.evolve`` widens the
        schema when a batch carrying the column ARRIVES; this verb
        declares it first, so consumers see a stable schema before any
        data does).  Completes the verb family with drop / rename /
        widen.

        * ``default=None`` (nullable add): LOGICAL and instant — one
          manifest commit, no data rewritten.  Every read path scans
          files against the manifest schema (``pyarrow.dataset(...,
          schema=...)`` fills absent columns with nulls), so the new
          column is immediately readable everywhere.
        * ``default=<value>`` (backfill add): existing LIVE rows must
          answer the default, so every live file is REWRITTEN with the
          constant appended — the same pure per-file, no-shuffle,
          retry-idempotent rewrite as ``rename_column`` (tombstones,
          patches, watermarks, blooms carried over), then one quiesced
          manifest swap.  Arriving events WITHOUT the column land as
          NULL (explicit writes win; the default backfills history,
          it is not a write-time trigger) — Delta-style existing-rows
          backfill, documented rather than implicit.

        TIME TRAVEL keeps the old schema: pre-DDL snapshots reference
        the un-rewritten files (COW).  A previously-dropped name is
        live again (events stop being stripped) — and since drop is
        logical, its stale bytes may survive in live files, so a
        re-add always takes the rewrite path, which replaces the old
        column physically instead of resurrecting it.  Zone maps gain
        min=max=default for rewritten files."""
        spec = self.spec
        if not col or col in _ENGINE_COLS:
            raise ValueError(
                f"column name {col!r} is empty or reserved for an "
                "engine column")
        if col in spec.schema.names:
            raise ValueError(f"column {col!r} already exists")
        if col in self._user_rename:
            # the USER's ingest-time rename map would silently reroute
            # every arriving event named `col` onto its target — the
            # new column would never receive data.  That map is spec
            # intent, not engine state; refuse rather than override.
            raise ValueError(
                f"column {col!r} is a source in TableSpec.rename "
                f"({col!r} -> {self._user_rename[col]!r}); remove that "
                "mapping before re-adding the name")
        if default is not None:
            # validate eagerly — a bad default must fail BEFORE any
            # rewrite work is scheduled
            pa.array([default], typ)

        def _add_file(t: pa.Table) -> pa.Table:
            if col in t.column_names:
                # stale bytes from a dropped-then-readded name — the
                # add must not resurrect them
                t = t.drop_columns([col])
            fill = pa.nulls(t.num_rows, typ) if default is None \
                else pa.array([default] * t.num_rows, typ)
            return t.append_column(pa.field(col, typ), fill)

        def _add_stats(st: dict) -> dict:
            # a dropped-then-readded name may carry a STALE pre-drop
            # [min,max] for `col`; the rewritten data is all
            # default/NULL, so always strip the old entry first or
            # _stats_disprove could wrongly prune files whose rows all
            # equal the new default (ADVICE r4)
            st = {k: v for k, v in st.items() if k != col}
            if isinstance(default, (int, float, str, bool)):
                st[col] = [default, default]
            return st

        def props(cur: dict) -> dict:
            return {
                "dropped_cols": sorted(
                    set(cur.get("dropped_cols", [])) - {col}),
                "renamed_cols": {
                    k: v for k, v in cur.get("renamed_cols", {}).items()
                    if k != col
                },
            }

        m = mf.read_manifest(self.root, spec.name)
        # a dropped name being re-added may still have stale bytes in
        # live files (drop is logical) — force the rewrite, which
        # replaces the old column physically instead of resurrecting it
        rewrite = (("add", _add_file, _add_stats)
                   if default is not None
                   or col in (m or {}).get("dropped_cols", []) else None)
        record = self._commit_ddl(
            m, {"ddl": "add_column", "col": col, "type": str(typ),
                "default": None if default is None else str(default)},
            lambda s: pa.schema(list(s) + [pa.field(col, typ)]),
            props, rewrite)
        self.dropped_cols = self.dropped_cols - {col}
        # a rename_column SOURCE being re-added is a real column again —
        # clear the DDL rename entry or arriving events named `col`
        # would keep landing on the rename target (mirrors how
        # dropped_cols is cleared above)
        if col in spec.rename:
            spec.rename = {k: v for k, v in spec.rename.items()
                           if k != col}
        return record

    def widen_column(self, col: str, new_type: pa.DataType) -> dict:
        """DDL: widen a payload column's type (int8→…→int64→float64) —
        LOGICAL and instant, like ``drop_column``: one manifest commit,
        no data rewritten.  Every read path resolves files against the
        manifest schema (``pyarrow.dataset(…, schema=…)`` casts
        narrower file columns up on scan), so the widened type is
        visible immediately; the next ``compact()`` materializes it
        physically.  The proactive complement of arrival-driven
        widening (``TableSpec.evolve`` widens when a wider batch
        ARRIVES): declare the type before the wide data exists, so
        downstream consumers see a stable schema.  Narrowing and
        incompatible changes are rejected (same ``_is_widening`` rule
        as evolve).  Zone maps stay valid — min/max bounds compare
        numerically across the widening.  Time travel keeps the old
        type (pre-DDL snapshots carry their own schema)."""
        from ..spec import _is_widening

        spec = self.spec
        protected = (*spec.key_cols, spec.lsn_col, spec.op_col,
                     spec.content_col)
        if col in protected:
            raise ValueError(
                f"{col!r} is a key/order/op/content column — its type "
                "is structural (hashing / LWW order / sha invariant)"
            )
        if col not in spec.schema.names:
            raise ValueError(f"no such column: {col!r}")
        old_type = spec.schema.field(col).type
        if old_type == new_type:
            raise ValueError(f"{col!r} is already {new_type}")
        if not _is_widening(old_type, new_type):
            raise ValueError(
                f"not a widening: {col!r} {old_type} -> {new_type}"
            )

        def _widen(s: pa.Schema) -> pa.Schema:
            return pa.schema(
                [pa.field(col, new_type, f.nullable, f.metadata)
                 if f.name == col else f for f in s]
            )

        return self._commit_ddl(
            mf.read_manifest(self.root, spec.name),
            {"ddl": "widen_column", "col": col,
             "from": str(old_type), "to": str(new_type)}, _widen)

    def cluster(self, cols: list[str], files_per_partition: int = 8,
                order: str = "zorder") -> dict:
        """OPTIMIZE ZORDER BY / ORDER BY: full clustered compaction of
        every partition with data — the resolved state is re-written
        as ``files_per_partition`` files per partition, physically
        ordered by ``cols`` (``order="zorder"`` interleaves rank bits
        so every listed column's per-file range tightens; ``"lex"``
        sorts lexicographically — best when one column dominates
        filters), and each file's manifest zone map gains exact
        min/max bounds for ``cols``.  After this,
        ``read_state(filters=...)`` skips whole files whose bounds
        disprove the predicate — see ``stats_out`` there for the skip
        evidence.  COW like compact(): snapshots retained, concurrent
        appends folded as leftovers, gc reclaims the old files."""
        return self.compact(max_files=None,
                            cluster_files=files_per_partition,
                            cluster_by=cols, cluster_order=order)

    def compact(self, max_files: int | None = None,
                cluster_files: int = 1,
                cluster_by: list[str] | None = None,
                cluster_order: str = "lex") -> dict:
        """Rewrite partitions' deltas into base file(s) (new epoch),
        then swap the manifest.  ``max_files=None`` compacts everything;
        with a threshold only partitions holding more than ``max_files``
        delta files are rewritten (size-tiered maintenance — call after
        apply with e.g. ``max_files=8``).  Old files stay until gc() —
        snapshots are retained (COW); readers of the old manifest are
        unaffected.  Tombstones at or below the stored watermark are
        dropped (delete-marker GC rule); watermarks survive.

        ``cluster_files=N`` is CLUSTERED compaction: each partition's
        key-sorted output splits into N key-range files, each with its
        own zone map — point lookups then read one slice of a
        partition instead of all of it (the layout that makes
        ``lookup``'s pruning effective: accumulated delta files each
        span the whole key range, clustered bases don't).

        ``cluster_by=[value cols]`` switches the physical order of the
        rewritten files from key-range to VALUE clustering
        (``cluster_order`` "lex"/"zorder" — see ``cluster()``), making
        ``read_state(filters=...)`` file-skipping effective on those
        columns.  Point lookups keep working either way (the bloom
        sidecars prune by key hash regardless of physical order; only
        the key zone maps go wide).  ``cluster_by=None`` (the default)
        ADOPTS the table's persisted ``cluster_spec`` if one was set
        by ``cluster()`` — maintenance never reverts a clustered
        layout silently; pass ``cluster_by=[]`` to explicitly CLEAR
        the property and return to key order."""
        m = mf.read_manifest(self.root, self.spec.name)
        if not m:
            return {"epoch": 0, "partitions_touched": 0}
        # cluster_by=None → adopt the persisted property; a non-empty
        # list sets/refreshes it; an EXPLICIT empty list clears it and
        # reverts the layout to key order
        clear_spec = cluster_by is not None and not cluster_by
        if clear_spec:
            cluster_by = None
        elif cluster_by is None and m.get("cluster_spec"):
            # table property set by cluster(): maintenance compactions
            # (incl. commit-path auto-compaction) keep the layout
            # instead of silently reverting it to key order
            cs = m["cluster_spec"]
            cluster_by = list(cs["cols"])
            cluster_order = cs["order"]
            if cluster_files == 1:
                cluster_files = int(cs["files"])
        if cluster_by:
            known = mf.schema_from_b64(m["schema"]).names
            missing = [c for c in cluster_by if c not in known]
            if missing:
                raise ValueError(
                    f"cluster_by column(s) {missing} not in the table "
                    f"schema {sorted(known)}"
                )
        targets = {
            p: info for p, info in m["partitions"].items()
            if info["files"]
            and (max_files is None or len(info["files"]) > max_files)
        }
        if not targets:
            return {"epoch": m["epoch"], "compaction": True,
                    "partitions_touched": 0, "rows": 0}
        # allocated ABOVE any in-flight stream reservation, so a
        # mid-stream compaction can never share an epoch (and thus a
        # delta file path or manifest snapshot name) with a window
        epoch = self._alloc_epoch()
        troot = Path(self.root) / self.spec.name
        schema = mf.schema_from_b64(m["schema"])
        part_files = [
            [str(troot / f) for f in info["files"]] for info in targets.values()
        ]
        part_wms = [info["watermark"] for info in targets.values()]
        writer = _delta_writer(self.root, self.spec.name, epoch, self.spec,
                               cluster_files=cluster_files,
                               cluster_by=cluster_by,
                               cluster_order=cluster_order)
        stats = (
            rd.from_arrow(pa.table({"files": pa.array(part_files),
                                    "wm": pa.array(part_wms, pa.int64())}))
            .repartition(len(part_files))
            # honor_wm: drop only tombstones AT OR BELOW the stored
            # watermark — a tombstone above it (post-reshard partitions
            # carry wm = min over old partitions) still guards
            # redelivery and survives the rewrite
            .map_batches(_partition_resolver(schema, self.spec,
                                             honor_wm=True),
                         batch_format="pyarrow")
            .groupby("part", num_partitions=min(len(part_files),
                                                self.spec.num_partitions))
            .map_groups(writer, batch_format="pyarrow")
            .take_all()
        )
        by_part: dict[str, list[dict]] = {}
        for s in stats:
            by_part.setdefault(str(s["part"]), []).append(s)
        record = {
            "epoch": epoch,
            "compaction": True,
            "partitions_touched": 0,
            "rows": int(sum(s["rows"] for s in stats)),
        }

        def fold(cur: dict) -> dict:
            # folded against the manifest re-read under the commit
            # lock: delta files appended by a concurrent writer AFTER
            # this compaction planned are kept (they were not consumed
            # by the rewrite), and a partition whose consumed inputs
            # vanished meanwhile (a racing compaction won) is skipped —
            # its rewrite output becomes an invisible orphan for gc
            partitions = dict(cur["partitions"])
            for p, plan_info in targets.items():
                cur_info = partitions.get(p, {"files": [],
                                              "watermark": -1, "rows": 0})
                consumed = set(plan_info["files"])
                if not consumed <= set(cur_info["files"]):
                    continue  # lost a racing rewrite of this partition
                rows_ = by_part.get(p, [])
                # all-deleted folds don't count as touched
                record["partitions_touched"] += bool(rows_)
                leftover = [f for f in cur_info["files"]
                            if f not in consumed]
                fstats = {f: st for f, st in
                          cur_info.get("file_stats", {}).items()
                          if f not in consumed}
                fstats.update({s["file"]: json.loads(s["stats"])
                               for s in rows_})
                partitions[p] = {
                    # rewrite output first, concurrent leftovers after
                    "files": [s["file"] for s in rows_] + leftover,
                    "watermark": max(
                        [cur_info["watermark"]]
                        + [s["watermark"] for s in rows_]),
                    "rows": (cur_info["rows"] - plan_info["rows"]
                             + sum(s["rows"] for s in rows_)),
                    "sha_rollup": (rows_[0]["sha_rollup"]
                                   if rows_ else None),
                    # a retained above-watermark tombstone OR base-less
                    # patch row means the file is NOT a clean base —
                    # and neither is a partition with concurrent
                    # leftover deltas: merge-on-read keeps resolving
                    "base": not leftover and sum(
                        s["tombstones"] + s["patches"] for s in rows_
                    ) == 0,
                    # the gate-audit counter is lineage-cumulative:
                    # carry it through the rewrite
                    "gated": cur_info.get("gated", 0),
                    "file_stats": fstats,
                }
            fields = {
                "partitions": partitions,
                "compacted": all(info.get("base") or not info["files"]
                                 for info in partitions.values()),
            }
            # persist (or refresh) the clustering table property: an
            # explicit/adopted cluster_by records itself so the NEXT
            # maintenance compaction re-applies the layout;
            # compact(cluster_by=[]) clears it
            if cluster_by:
                fields["cluster_spec"] = {
                    "cols": list(cluster_by), "order": cluster_order,
                    "files": int(cluster_files)}
            elif clear_spec:
                fields["cluster_spec"] = None
            return fields

        self._commit_edit(m, epoch, record, fold, "maintenance")
        return record

    def gc(self, retain_manifests: int = 1) -> list[str]:
        """Reclaim unreferenced data files; ``retain_manifests=K`` keeps
        the newest K snapshots time-travel-readable (VACUUM retention)."""
        return mf.gc(self.root, self.spec.name,
                     retain_manifests=retain_manifests)

    def export_changefeed(self, out_root: str,
                          carry_cols: list[str] | None = None) -> dict:
        """Changefeed OUTBOX: materialize the NET change set since the
        last export as parquet under ``out_root/span=A-B/`` and advance
        a durable cursor — the push-side complement of
        ``changes_between`` for consumers that cannot read the lake
        (external warehouses, message buses).

        Exactly-once at the consumer for free: the span directory name
        is deterministic, a crashed export rewrites the SAME directory
        (content-identical: the fold is a pure function of committed
        state), and the cursor only advances after the files land.
        Consumers process ``span=`` directories in order; re-reading a
        span is idempotent because the rows carry key + old/new
        payloads, not increments."""
        out = Path(out_root)
        out.mkdir(parents=True, exist_ok=True)
        last = _read_cursor(_export_cursor(out))
        m = mf.read_manifest(self.root, self.spec.name)
        cur = m["epoch"] if m else 0
        if cur <= last:
            return {"from_epoch": last, "to_epoch": cur, "rows": 0,
                    "exported": False}
        diff = self.changes_between(last, cur, carry_cols=carry_cols)
        d = out / f"span={last:06d}-{cur:06d}"
        d.mkdir(exist_ok=True)
        # a crashed attempt may have left MORE block files than this
        # attempt will write (block splits are not deterministic) —
        # stale extras would double-count at the consumer
        for stale in d.glob("changes-*.parquet*"):
            stale.unlink()
        n = 0
        import ray as _ray

        for i, ref in enumerate(diff.to_arrow_refs()):
            t = _ray.get(ref)
            if not isinstance(t, pa.Table):
                import pandas as _pd

                t = pa.Table.from_pandas(t, preserve_index=False)
            if t.num_rows == 0:
                continue
            tmp = d / f"changes-{i:05d}.parquet.tmp"
            pq.write_table(t, tmp)
            tmp.replace(d / f"changes-{i:05d}.parquet")
            n += t.num_rows
        _write_cursor(_export_cursor(out), cur)
        return {"from_epoch": last, "to_epoch": cur, "rows": n,
                "exported": True}

    def lineage(self) -> list[dict]:
        m = mf.read_manifest(self.root, self.spec.name)
        return m.get("lineage", []) if m else []

    def partition_metrics(self) -> pa.Table:
        """Per-partition observability view from the committed manifest:
        (part, n_files, rows, watermark, sha_rollup) — the reference's
        log-file spot-checking (SURVEY.md §5.3) upgraded to a queryable
        table."""
        m = mf.read_manifest(self.root, self.spec.name)
        parts = sorted(
            ((int(p), v) for p, v in (m or {"partitions": {}})["partitions"].items())
        )
        return pa.table(
            {
                "part": pa.array([p for p, _ in parts], pa.int32()),
                "n_files": pa.array(
                    [len(v["files"]) for _, v in parts], pa.int32()
                ),
                "rows": pa.array([v["rows"] for _, v in parts], pa.int64()),
                "watermark": pa.array(
                    [v["watermark"] for _, v in parts], pa.int64()
                ),
                "sha_rollup": pa.array(
                    [v.get("sha_rollup") for _, v in parts], pa.string()
                ),
                "gated": pa.array(
                    [v.get("gated", 0) for _, v in parts], pa.int64()
                ),
                # zone-map coverage: files with recorded stats (pruning
                # candidates) vs total — pre-upgrade files read unpruned
                "files_with_stats": pa.array(
                    [sum(1 for f in v["files"]
                         if f in v.get("file_stats", {})) for _, v in parts],
                    pa.int32(),
                ),
            }
        )


class LakeTransaction:
    """Atomic multi-table commit scope (redo-log group commit over the
    manifest layer, ``state/manifest.commit_group``): every
    ``lake.apply_events(events, txn=txn)`` runs its phase 1 now and
    STAGES its manifest; ``txn.commit()`` makes all participating
    tables' epochs durable at one fsynced rename, then rolls pointers
    forward (crash-recovered at lake open via ``recover_groups``).

    An abandoned transaction (never committed) leaves only invisible
    orphans — staged .staged manifests no reader resolves, and phase-1
    delta files the retry overwrites deterministically, exactly like a
    crash between phases.  All participating lakes must share one
    ``root`` (the group record lives at ``root/_txn``).

    The multi-table shape the composed OMOP pipeline needs: person +
    nine fact tables appear to downstream readers at one instant, never
    half-written."""

    def __init__(self, root: str):
        self.root = str(root)
        self._manifests: dict[str, dict] = {}
        self._records: list[dict] = []
        self.committed = False

    def _stage(self, root: str, table: str, manifest: dict) -> None:
        if str(root) != self.root:
            raise ValueError(
                f"lake root {root!r} differs from transaction root "
                f"{self.root!r} — a group commit spans one lake root"
            )
        if table in self._manifests:
            raise ValueError(
                f"table {table!r} already staged in this transaction "
                "(one epoch per table per transaction)"
            )
        self._manifests[table] = manifest

    def _track(self, record: dict) -> None:
        self._records.append(record)

    def commit(self) -> str | None:
        """The all-or-nothing commit point for every staged table."""
        if self.committed:
            raise ValueError("transaction already committed")
        if not self._manifests:
            return None
        # the records live BY REFERENCE inside the staged manifests'
        # lineage — flip them before serialization so the durable
        # manifest says committed: true (roll back on failure)
        for r in self._records:
            r["committed"] = True
        try:
            gid = mf.commit_group(self.root, self._manifests)
        except BaseException:
            for r in self._records:
                r["committed"] = False
            raise
        self.committed = True
        return gid


# -- changefeed replication -------------------------------------------
# The feed's on-disk format, read and written only through the helpers
# below: ``span=<lo>-<hi>/changes-*.parquet`` directories (six-digit
# epochs), the exporter cursor in the feed root and each consumer's
# cursor in its replica table directory, both ``{"epoch": e}``.


def _export_cursor(feed) -> Path:
    return Path(feed) / "_CURSOR.json"


def _replica_cursor(dest: "CDCLake") -> Path:
    return Path(dest.root) / dest.spec.name / "_replica_cursor.json"


def _read_cursor(path: Path) -> int:
    """A cursor's epoch; 0 when it was never written."""
    return int(json.loads(path.read_text())["epoch"]) if path.exists() else 0


def _write_cursor(path: Path, epoch: int) -> None:
    """Durably move a cursor: temp write, fsync, atomic replace."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps({"epoch": epoch}))
    with open(tmp, "rb") as fh:
        os.fsync(fh.fileno())
    tmp.replace(path)


def _feed_spans(feed: Path) -> list[tuple[int, int, Path]]:
    """The feed's span directories as a sorted ``(lo, hi, dir)`` list."""
    spans = []
    for d in feed.glob("span=*"):
        lo, _, hi = d.name[len("span="):].partition("-")
        spans.append((int(lo), int(hi), d))
    return sorted(spans)


def _consumable_spans(feed: Path, cursor: int):
    """Yield, in order, the spans a consumer at ``cursor`` applies next:
    those above it up to the EXPORTER's durable cursor (a crashed
    export's half-written span above that cursor stays invisible until
    it advances).  A span that does not start where the consumer
    stands — the feed was pruned or rebuilt — fails loudly instead of
    silently skipping changes."""
    exp_epoch = _read_cursor(_export_cursor(feed))
    for lo, hi, d in _feed_spans(feed):
        if hi <= cursor:
            continue  # already consumed
        if hi > exp_epoch:
            return
        if lo != cursor:
            raise ValueError(
                f"changefeed gap in {str(feed)!r}: replica cursor is at "
                f"source epoch {cursor} but the next span is {d.name} — "
                f"the feed was pruned or rebuilt; re-seed the replica "
                f"from a full snapshot"
            )
        yield lo, hi, d
        cursor = hi


def _span_events(d: Path, spec: TableSpec, payload_cols: list[str] | None,
                 span_lsn: int, predicate) -> "rd.Dataset | None":
    """One span's replica CDC events at ``lsn = span_lsn`` (the shared
    core of ``replicate_changefeed`` and ``replicate_group``; see
    ``_change_events``).  Returns None for a span with no change
    files."""
    files = sorted(str(p) for p in d.glob("changes-*.parquet"))
    if not files:
        return None
    return rd.read_parquet(files).map_batches(
        _change_events(spec, span_lsn, payload_cols, predicate),
        batch_format="pyarrow",
    )


def replicate_changefeed(
    feed_root: str,
    dest: "CDCLake",
    payload_cols: list[str] | None = None,
    predicate=None,
) -> dict:
    """Changefeed CONSUMER: fold exported ``span=`` directories into an
    independent replica lake — the pull side of ``export_changefeed``
    and the lake→lake replication verb (Debezium-sink shape: the
    replica never sees the source log, only the net change feed).

    Each span becomes ONE replica epoch: its change rows are
    re-synthesized as CDC events (``added``/``updated`` → I with the
    ``new_*`` payload, ``deleted`` → D with no payload) with ``lsn =
    span end epoch`` — net spans carry at most one row per key, and
    span end epochs are strictly increasing, so per-key LWW order is
    exact.  Exactly-once end to end, with no coordination between the
    two lakes:

      * only spans at or below the EXPORTER's durable cursor are
        consumed — a crashed export's half-written span directory is
        invisible until its cursor advances (and is then re-read in
        its rewritten, content-identical form);
      * the replica's own durable cursor (in the replica table
        directory) advances only AFTER the span's epoch commits; a
        crash before that re-applies the span, whose events die at the
        replica's watermark filter (lsn <= committed watermark),
        exactly like a redelivered source window;
      * span chain gaps (a cursor that does not meet the next span's
        start — e.g. the feed was gc'd or rebuilt after a restore())
        fail LOUDLY instead of silently skipping changes.

    ``payload_cols`` defaults to the replica spec's ``payload_cols``;
    the feed must have been exported with ``carry_cols`` covering them
    (missing payload columns raise).

    ``predicate`` makes this a ROW-FILTERED subscription (Postgres
    logical-replication row filters / Debezium SMT shape): a callable
    over a pa.Table of UNPREFIXED key + payload columns returning a
    boolean mask.  Classification is per ROW IMAGE, which is what makes
    scope TRANSITIONS correct — an update whose new image leaves the
    predicate becomes a replica DELETE (the replica held the old
    version), an update entering it becomes an insert, rows never in
    scope ship nothing.  Deletes replicate only when the old image was
    in scope.  Invariant (tested): replica state == predicate-filtered
    source state, regardless of span boundaries.
    """
    rep_cursor = _replica_cursor(dest)
    cursor = _read_cursor(rep_cursor)
    applied = 0
    rows = 0
    for _lo, hi, d in _consumable_spans(Path(feed_root), cursor):
        events = _span_events(d, dest.spec, payload_cols, hi, predicate)
        if events is not None:
            rec = dest.apply_events(events)
            rows += int(rec.get("rows_upserted", 0) + rec.get("tombstones", 0))
        _write_cursor(rep_cursor, hi)
        cursor = hi
        applied += 1
    return {"spans_applied": applied, "rows": rows, "cursor": cursor}


def prune_changefeed(feed_root: str, before_epoch: int) -> dict:
    """Outbox RETENTION sweep: remove every span whose end epoch is at
    or below ``before_epoch``.  Spans are contiguous, so this always
    removes a prefix of the chain — consumers already past the cutoff
    are unaffected; consumers behind it hit ``replicate_changefeed``'s
    loud gap error and must re-seed (``seed_replica``).  The exporter
    cursor is untouched: future exports continue from it."""
    import shutil

    feed = Path(feed_root)
    exp_epoch = _read_cursor(_export_cursor(feed))
    if before_epoch > exp_epoch:
        raise ValueError(
            f"cannot prune past the exporter cursor ({exp_epoch}) — "
            f"a span may still be mid-write above it"
        )
    removed = 0
    for _lo, hi, d in _feed_spans(feed):
        if hi <= before_epoch:
            shutil.rmtree(d)
            removed += 1
    return {"spans_removed": removed, "before_epoch": before_epoch}


def seed_replica(
    src: "CDCLake",
    dest: "CDCLake",
    at_epoch: int | None = None,
    payload_cols: list[str] | None = None,
    predicate=None,
    feed_root: str | None = None,
) -> dict:
    """Full-snapshot SEED for a changefeed consumer that cannot start
    from epoch 0 (the feed's early spans were pruned, or the lake
    predates the feed): time-travel the source to ``at_epoch``, apply
    its live rows as ONE replica epoch (op='I', lsn = at_epoch), and
    set the replica cursor so ``replicate_changefeed`` resumes from
    exactly that point.

    ``at_epoch`` must be a SPAN BOUNDARY — an epoch some export's
    cursor landed on — because net spans cannot be split mid-span.
    Pass ``feed_root`` to default it to the EXPORTER's cursor (always
    a boundary, and the right choice when exports lag the source —
    seeding at the source's manifest epoch would gap out against the
    next span); with neither given, the source manifest epoch is used,
    which is a boundary only when exports are current.
    The seed is exactly-once like a span apply: a
    crash between the apply and the cursor write re-applies into the
    replica's watermark filter.  Seeding requires an EMPTY replica —
    a stale replica may hold keys the snapshot no longer has, and a
    seed carries no tombstones to kill them.

    ``predicate`` seeds a row-filtered subscription: only in-scope
    rows ship (pass the SAME predicate to ``replicate_changefeed``)."""
    m = mf.read_manifest(src.root, src.spec.name)
    if not m:
        raise ValueError("cannot seed from an empty source lake")
    if at_epoch is not None:
        epoch = int(at_epoch)
    elif feed_root is not None:
        if not _export_cursor(feed_root).exists():
            raise ValueError(
                f"feed {feed_root!r} has no exporter cursor — nothing "
                f"was ever exported; seed at an explicit at_epoch"
            )
        epoch = _read_cursor(_export_cursor(feed_root))
    else:
        epoch = m["epoch"]
    spec = dest.spec
    rep_cursor = _replica_cursor(dest)
    rep_cursor.parent.mkdir(parents=True, exist_ok=True)
    pend_p = rep_cursor.parent / "_seed_pending.json"
    if mf.read_manifest(dest.root, spec.name):
        # non-empty replica: only a CRASHED seed of this same epoch may
        # resume (its re-apply dies at the watermark); anything else is
        # a stale replica the snapshot cannot tombstone
        pend = (json.loads(pend_p.read_text())
                if pend_p.exists() else None)
        if rep_cursor.exists() or not pend or pend["epoch"] != epoch:
            raise ValueError(
                "seed_replica requires an empty replica — a stale "
                "replica may hold keys the snapshot cannot tombstone; "
                "start from a fresh root"
            )
    pend_p.write_text(json.dumps({"epoch": epoch}))
    if payload_cols is None:
        payload_cols = spec.payload_cols

    def to_events(batch: pa.Table) -> pa.Table:
        # the batch IS the key + payload image the predicate expects
        if predicate is not None:
            batch = batch.filter(
                pa.array(np.asarray(predicate(batch), bool)))
        return _as_events(spec, batch, "I", epoch, payload_cols)

    state = src.read_state(at_epoch=epoch).select_columns(
        list(spec.key_cols) + payload_cols
    )
    rec = dest.apply_events(state.map_batches(
        to_events, batch_format="pyarrow"
    ))
    _write_cursor(rep_cursor, epoch)
    pend_p.unlink(missing_ok=True)
    return {"seed_epoch": epoch,
            "rows": int(rec.get("rows_upserted", 0))}


def changefeed_lag(feed_root: str, dest: "CDCLake") -> dict:
    """Consumer observability: how far the replica trails the feed.
    ``epochs_behind`` counts source epochs between the replica cursor
    and the exporter cursor; ``spans_pending`` counts consumable span
    directories (at or below the exporter cursor) above the replica
    cursor."""
    feed = Path(feed_root)
    exp_epoch = _read_cursor(_export_cursor(feed))
    cursor = _read_cursor(_replica_cursor(dest))
    pending = sum(1 for lo, hi, _d in _feed_spans(feed)
                  if lo >= cursor and hi <= exp_epoch)
    return {"exporter_epoch": exp_epoch, "replica_cursor": cursor,
            "epochs_behind": max(0, exp_epoch - cursor),
            "spans_pending": pending}


def state_checksum(
    lake: "CDCLake",
    cols: list[str] | None = None,
    at_epoch: int | None = None,
    predicate=None,
) -> dict:
    """Order- and partitioning-insensitive CONTENT checksum of the live
    state (the pt-table-checksum shape): per row,
    ``u64 = ('0x' || substr(sha256(col1 || \\x00 || col2 ...), 1, 16))``
    with nulls filled as ``\\x01NULL``; the checksum is the wrapping
    uint64 SUM of row hashes — commutative, so any parallelism,
    partition count or block order yields the same value, and it is
    reproducible in SQL (sha256 + the same fold) for oracle checks.
    Only (sum, count) per block moves to the driver.

    ``cols`` defaults to key + payload columns (op/lsn excluded — a
    replica's lsn is synthetic by design).  ``predicate`` restricts the
    checksum to in-scope rows (same callable shape as the row-filtered
    subscription predicates)."""
    spec = lake.spec
    cols = list(spec.key_cols) + spec.payload_cols if cols is None \
        else list(cols)

    def part(batch: pa.Table) -> pa.Table:
        if predicate is not None:
            batch = batch.filter(
                pa.array(np.asarray(predicate(batch), bool))
            )
        if batch.num_rows == 0:
            return pa.table({"s": pa.array([0], pa.uint64()),
                             "n": pa.array([0], pa.int64())})
        arrs = []
        for c in cols:
            a = batch.column(c)
            if not pa.types.is_string(a.type):
                a = pc.cast(a, pa.string())
            arrs.append(pc.fill_null(a, "\x01NULL"))
        h = hashing.key_hash_u64(*arrs).to_numpy(zero_copy_only=False)
        s = np.add.reduce(h.astype(np.uint64))  # wrapping uint64 sum
        return pa.table({"s": pa.array([int(s)], pa.uint64()),
                         "n": pa.array([batch.num_rows], pa.int64())})

    partials = lake.read_state(at_epoch=at_epoch).select_columns(
        cols
    ).map_batches(part, batch_format="pyarrow").take_all()
    total = sum(r["s"] for r in partials) % (1 << 64)
    return {"checksum": str(total),
            "rows": int(sum(r["n"] for r in partials))}


def verify_replica(
    src: "CDCLake",
    dest: "CDCLake",
    at_epoch: int | None = None,
    predicate=None,
    payload_cols: list[str] | None = None,
) -> dict:
    """Replication DRIFT CHECK: compare content checksums of the source
    (optionally time-traveled to ``at_epoch`` — pass the replica's
    cursor epoch to compare a lagging replica against the state it
    should mirror) and the replica, over the REPLICA's key + payload
    columns (a subscription may be narrower than its source; both
    lakes must share key/payload column names).  ``predicate`` scopes
    the source side for row-filtered subscriptions.  No row data
    leaves the workers — each side folds to one (sum, count) pair."""
    spec = dest.spec
    if payload_cols is None:
        payload_cols = spec.payload_cols
    cols = list(spec.key_cols) + list(payload_cols)
    a = state_checksum(src, cols=cols, at_epoch=at_epoch,
                       predicate=predicate)
    b = state_checksum(dest, cols=cols)
    return {"equal": a == b, "src": a, "replica": b}


def replicate_group(
    pairs: list,
    predicate=None,
) -> dict:
    """MULTI-TABLE atomic replication: consume several tables' feeds in
    lockstep, committing each round's replica epochs through ONE
    ``LakeTransaction`` — downstream readers of the replica set see all
    tables advance at one instant, never half (the cross-table shape
    the composed OMOP pipeline needs: person + fact tables).

    ``pairs`` is ``[(feed_root, dest_lake), ...]``; all destination
    lakes must share one root (the transaction-group contract).  Each
    round takes AT MOST one consumable span per pair (same
    exporter-cursor / gap rules as ``replicate_changefeed``) and loops
    until every feed is drained — tables with more pending spans finish
    in later rounds.  Cursors advance only after the group commit; a
    crash before that re-applies every span in the round into the
    replicas' watermark filters (and an abandoned transaction leaves
    only invisible orphans), so the group is exactly-once end to end.
    ``predicate`` row-filters every table's subscription."""
    roots = {str(p[1].root) for p in pairs}
    if len(roots) != 1:
        raise ValueError(
            f"replicate_group needs all replica lakes under ONE root "
            f"(the transaction-group contract), got {sorted(roots)}"
        )
    rounds = 0
    spans_applied = 0
    while True:
        work = []
        for feed_root, dest in pairs:
            rep_cursor = _replica_cursor(dest)
            span = next(_consumable_spans(Path(feed_root),
                                          _read_cursor(rep_cursor)), None)
            if span is not None:
                work.append((dest, span[1], span[2], rep_cursor))
        if not work:
            break
        txn = LakeTransaction(next(iter(roots)))
        staged = False
        for dest, hi, d, _p in work:
            events = _span_events(d, dest.spec, None, hi, predicate)
            if events is not None:
                dest.apply_events(events, txn=txn)
                staged = True
        if staged:
            txn.commit()
        for _dest, hi, _d, rep_cursor in work:
            _write_cursor(rep_cursor, hi)
        rounds += 1
        spans_applied += len(work)
    return {"rounds": rounds, "spans_applied": spans_applied}
