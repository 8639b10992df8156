"""Stateful actor-pool CDC apply: per-partition appliers with a live
key index + watermark (the north star's "actor pools holding
per-partition state").

This is the INCREMENTAL phase-1 strategy of ``CDCLake`` (whose batch
phase 1 re-resolves LWW per epoch inside a shuffle): ``ActorLake``
overrides only phase 1, so schema evolution, the commit record and the
two-phase manifest commit are the batch path's.  Each
``PartitionApplier`` actor owns a set of hash partitions and keeps
their key→(lsn, dead) index hot across micro-batches, so per-epoch work
is proportional to the epoch's events, not to epoch count × state size
— and a KEY-level stale event is rejected even when the partition
watermark would admit it.

Raw actors are justified here (SURVEY.md §7.4): the index is shared
mutable state across micro-batches, which `Dataset.map_batches` cannot
route by key.  Everything around it stays Ray Data: standardize +
per-block combine run as a streaming `map_batches` pipeline; only the
final per-partition routing uses `ray.remote` calls.

Data movement: routed partition slices NEVER enter the driver process —
``_route_block`` runs next to each block and returns ``{part:
ObjectRef}``; the driver forwards the (tiny) ref maps and appliers
``ray.get`` the slices worker-to-actor through the object store.

Exactly-once: the index supports epoch transactions
(state/keyindex.begin_epoch) — an in-process retry of a failed phase-2
commit re-runs the SAME epoch, which rolls the uncommitted index
mutations back so the events are re-accepted and the (deterministic)
delta files are rewritten.  Without that, the retry would reject the
whole epoch as duplicate and commit it empty (silent data loss).

Writes: an applier keeps the actor-specific work (key index, watermark
filter, LWW reduce, ``accept_mask``) and hands the accepted rows to the
batch path's ``_delta_writer``, so actor-written files carry the same
bloom sidecars, zone maps, markers and partition checksum.

Fault story: actors are stateless-recoverable — `__init__` rebuilds the
index from the last committed manifest's delta files; an actor lost
mid-epoch is rebuilt and the epoch re-sent (idempotent at key level).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..spec import TableSpec
from ..stages.merge import _partial, lww_reduce_table
from ..stages.standardize import make_standardizer
from ..state import manifest as mf
from ..state.keyindex import KeyIndex
from .cdc import CDCLake, _delta_writer


@ray.remote
class PartitionApplier:
    """Owns hash partitions {p : p % pool_size == pool_idx}."""

    def __init__(self, root: str, spec: TableSpec,
                 pool_idx: int, pool_size: int,
                 spill_threshold: int | None = None):
        from ..functions.hashing import tune_worker_threads
        from ..state.keyindex import SpillableKeyIndex

        tune_worker_threads()
        self.root, self.table = root, spec.name
        self.my_parts = [
            p for p in range(spec.num_partitions) if p % pool_size == pool_idx
        ]
        if spill_threshold:
            self.index: dict[int, KeyIndex] = {
                p: SpillableKeyIndex(
                    Path(root) / self.table / "_spill" / f"part={p:05d}",
                    spill_threshold=spill_threshold,
                )
                for p in self.my_parts
            }
        else:
            self.index = {p: KeyIndex() for p in self.my_parts}
        # recover: rebuild each owned partition's index from the last
        # COMMITTED manifest (orphans from crashed epochs are invisible)
        m = mf.read_manifest(root, self.table)
        if m:
            troot = Path(root) / self.table
            for p in self.my_parts:
                pinfo = m["partitions"].get(str(p))
                if not pinfo:
                    continue
                for f in pinfo["files"]:
                    t = pq.read_table(
                        troot / f, columns=["op", "lsn", "key_hash"]
                    )
                    self.index[p].bulk_load(t)
                self.index[p].watermark = max(
                    self.index[p].watermark, pinfo["watermark"]
                )

    def apply(self, part: int, batches: list, epoch: int,
              spec: TableSpec) -> list[dict]:
        """Apply one epoch's (combined) events for one partition: accept
        key-level winners and hand them to the shared delta writer.
        Returns its ``_STATS_SCHEMA`` rows (none when nothing was
        accepted), so phase 2 is the batch path's ``_commit``.

        ``batches`` may hold ObjectRefs (the routed path) or pa.Tables.
        """
        tables = [
            ray.get(b) if isinstance(b, ray.ObjectRef) else b for b in batches
        ]
        idx = self.index[part]
        idx.begin_epoch(epoch)  # rolls back an uncommitted retry
        table = (
            pa.concat_tables(tables, promote_options="permissive")
            if len(tables) > 1 else tables[0]
        )
        # Partition-watermark filter (the batch path's _watermark_filter
        # analog).  The per-key accept_mask alone cannot reject a
        # re-delivered PRE-delete event once compaction has dropped the
        # key's tombstone from the recovered file set — the rebuilt index
        # forgets the delete LSN and would resurrect the key.  After
        # begin_epoch, idx.watermark is exactly the committed watermark
        # relative to this epoch (an uncommitted retry was just rolled
        # back), so anything at or below it is a redelivery.
        if idx.watermark >= 0:
            lsns = table.column(spec.lsn_col)
            table = table.filter(pc.greater(lsns, idx.watermark))
        table = lww_reduce_table(table, spec.key_cols, spec.lsn_col)
        delta = table.filter(pa.array(idx.accept_mask(table)))
        if not delta.num_rows:
            return []
        write_group = _delta_writer(self.root, spec.name, epoch, spec)
        return write_group(delta).to_pylist()

    def live_key_count(self) -> int:
        return sum(len(ix) for ix in self.index.values())


@ray.remote
def _route_block(block: pa.Table, num_partitions: int) -> list:
    """Split one combined block by partition near the data.  Invoked
    with ``num_returns=num_partitions + 1``: return[0] is the (tiny)
    list of populated partitions, return[1 + p] the slice for partition
    p — each slice becomes a TASK RETURN (owned by the driver and
    reconstructible via lineage if a worker dies), not a worker-owned
    ``ray.put`` that would be lost with its routing worker.  Only the
    ref handles pass through the driver; the slice bytes flow
    worker→actor via the object store."""
    parts = block.column("part").to_numpy(zero_copy_only=False)
    out: list = [None] * num_partitions
    present: list[int] = []
    for p in np.unique(parts):
        out[int(p)] = block.filter(pa.array(parts == p))
        present.append(int(p))
    return [present] + out


class ActorLake(CDCLake):
    """Incremental CDC lake whose phase 1 runs on a stateful applier
    pool; schema evolution, the record and phase 2 are ``CDCLake``'s.

    Compaction stays manual (``auto_compact_files=None``).  The pool
    reloads from the committed manifest whenever that manifest has
    moved past the epoch the pool last loaded or committed — after a
    compaction (which drops tombstones the live index still holds),
    any DDL/layout verb, or a commit by another writer on the root."""

    def __init__(self, root: str, spec: TableSpec | None = None,
                 pool_size: int = 4, spill_threshold: int | None = None):
        super().__init__(root, spec, auto_compact_files=None)
        self.pool_size = pool_size
        self.spill_threshold = spill_threshold
        # epoch of phase-1 index mutations not yet committed: an
        # in-process retry reuses its number (see _alloc_epoch)
        self._pending_epoch: int | None = None
        self.pool: list = []
        self.rebuild_pool()

    def kill_pool(self) -> None:
        """Failure injection: lose all actor state."""
        for a in self.pool:
            ray.kill(a)
        self.pool = []

    def rebuild_pool(self) -> None:
        """Recovery: fresh actors rebuild indexes from the manifest."""
        self.kill_pool()
        m = mf.read_manifest(self.root, self.spec.name)
        self._pool_epoch = m["epoch"] if m else 0
        self.pool = [
            PartitionApplier.remote(
                self.root, self.spec, i, self.pool_size, self.spill_threshold,
            )
            for i in range(self.pool_size)
        ]

    def _alloc_epoch(self) -> int:
        """Epoch numbering must satisfy BOTH contracts: the appliers'
        exactly-once-under-retry rollback keys on epoch-number REUSE
        (``KeyIndex.begin_epoch``), while cross-process safety demands
        CLAIMED numbers.  So the still-unused number of an uncommitted
        apply is handed out again (the claim is already ours); once any
        commit has used it, a fresh number is claimed — that commit
        moved the manifest past the pool, so the pool reloads."""
        pending = self._pending_epoch
        if pending is not None:
            m = mf.read_manifest(self.root, self.spec.name)
            if pending > (max(m["epoch"], m.get("epoch_hwm", 0)) if m else 0):
                self._renew_writer()
                return pending
        return super()._alloc_epoch()

    def apply_events(self, events: rd.Dataset, *, txn=None,
                     _fail_before_commit: bool = False) -> dict:
        if self.spec.patch_ops:
            raise NotImplementedError(
                "op='P' partial updates are supported on the CDCLake "
                "apply path only — the actor key-index path reduces to "
                "one winner per key and would drop patch rows"
            )
        if txn is not None:
            raise NotImplementedError(
                "LakeTransaction commits run on the CDCLake batch apply "
                "path only — the actor key index cannot roll back a "
                "staged epoch that the transaction later abandons"
            )
        record = super().apply_events(
            events, _fail_before_commit=_fail_before_commit)
        if record["committed"]:
            self._pending_epoch = None
            self._pool_epoch = record["epoch"]
        return record

    def apply_stream(self, windows, **kw) -> list[dict]:
        raise NotImplementedError(
            "ActorLake applies one epoch at a time (apply_events); "
            "pipelined streams run on CDCLake.apply_stream"
        )

    def _epoch_record(self, epoch: int, stats: list[dict], t0: float,
                      commit_wait: float = 0.0) -> dict:
        record = super()._epoch_record(epoch, stats, t0, commit_wait)
        record["live_keys"] = int(sum(
            ray.get([a.live_key_count.remote() for a in self.pool])
        ))
        return record

    def _phase1(self, events: rd.Dataset, epoch: int, wm: np.ndarray,
                salt_factor: int = 0,
                spec: TableSpec | None = None) -> list[dict]:
        """Standardize + per-block combine as a streaming Ray Data
        pipeline, then route each block's partition slices to their
        owning applier.  The partition watermark filter runs in the
        applier against its index (``wm`` is not needed)."""
        spec = spec or self.spec
        m = mf.read_manifest(self.root, spec.name)
        if (m["epoch"] if m else 0) != self._pool_epoch:
            self.rebuild_pool()
        self._pending_epoch = epoch

        std = events.map_batches(
            make_standardizer(spec), batch_format="pyarrow"
        ).map_batches(_partial(spec), batch_format="pyarrow")

        # route blocks to partition owners; only ref handles reach the
        # driver — the partition slices stay in the object store.  Ref
        # bundles are consumed AS THE PIPELINE STREAMS, so routing tasks
        # overlap the standardize/combine stages instead of waiting for
        # full materialization.
        P = spec.num_partitions
        routed = []
        for bundle in std.iter_internal_ref_bundles():
            for ref in bundle.block_refs:
                routed.append(
                    _route_block.options(num_returns=P + 1).remote(ref, P)
                )
        by_part: dict[int, list] = {}
        for refs in routed:
            for p in ray.get(refs[0]):  # tiny presence list only
                by_part.setdefault(p, []).append(refs[1 + p])

        futs = [
            self.pool[p % self.pool_size].apply.remote(p, refs, epoch, spec)
            for p, refs in by_part.items()
        ]
        return [row for rows in ray.get(futs) for row in rows]
