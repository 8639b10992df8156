"""CLI replay entry point — the ``ray job submit`` deployment surface.

    ray job submit -- python -m standardized_omop_data_etl_ray.replay \\
        --segments /data/binlog --lake /data/lake --table repos \\
        --num-partitions 256 --segments-per-window 32

Tails new binlog segments past the lake's committed watermark, applies
each window as one exactly-once epoch, prints one JSON line per epoch
and a final summary.  Safe to re-run after any crash: resumes from the
last committed manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--segments", default=None, help="binlog segment dir "
                    "(required unless --replicate-from is given)")
    ap.add_argument("--lake", required=True, help="lake root dir")
    ap.add_argument("--table", default="cdc")
    ap.add_argument("--num-partitions", type=int, default=64)
    ap.add_argument("--segments-per-window", type=int, default=16)
    ap.add_argument("--compact", action="store_true",
                    help="compact + gc after the tail drains")
    ap.add_argument("--cluster-files", type=int, default=1,
                    help="clustered compaction: split each partition's "
                         "base into N key-range files (zone-map-prunable "
                         "point lookups)")
    ap.add_argument("--retain-manifests", type=int, default=1,
                    help="gc retention window: keep the newest K manifest "
                         "snapshots time-travel-readable (VACUUM semantics)")
    ap.add_argument("--reshard", type=int, default=None,
                    help="re-hash the lake to this partition count before "
                         "tailing (cluster-resize drill; exactly-once "
                         "preserved across the boundary)")
    ap.add_argument("--rename-column", nargs=2, default=None,
                    metavar=("OLD", "NEW"),
                    help="DDL before tailing: rename a payload column "
                         "(quiesced per-file rewrite; old-named events "
                         "keep landing via the spec rename map)")
    ap.add_argument("--widen-column", nargs=2, default=None,
                    metavar=("COL", "TYPE"),
                    help="DDL before tailing: widen a payload column's "
                         "type (int8..int64/float32/float64; logical — "
                         "one manifest commit, reads cast up on scan)")
    ap.add_argument("--add-column", nargs="+", default=None,
                    metavar="COL TYPE [DEFAULT]",
                    help="DDL before tailing: add a payload column "
                         "(no DEFAULT: logical, reads fill NULL; with "
                         "DEFAULT: live files rewritten with the "
                         "backfill constant)")
    ap.add_argument("--export-feed", default=None, metavar="DIR",
                    help="after the tail drains, export the net change "
                         "span since the last export to this changefeed "
                         "outbox (payload columns carried automatically)")
    ap.add_argument("--replicate-from", default=None, metavar="DIR",
                    help="consume a changefeed outbox into THIS lake "
                         "instead of tailing segments (--segments is "
                         "ignored); exactly-once via the replica cursor")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="only for standalone runs; under `ray job submit` "
                         "the cluster is already up")
    args = ap.parse_args(argv)
    if not args.segments and not args.replicate_from:
        ap.error("--segments is required unless --replicate-from is given")

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local" if args.num_cpus else "auto",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .pipelines.cdc import CDCLake
    from .sources.binlog import BinlogTail
    from .spec import TableSpec
    from .state import manifest as mf

    spec = TableSpec(name=args.table, num_partitions=args.num_partitions)
    lake = CDCLake(args.lake, spec)
    m = mf.read_manifest(args.lake, args.table)
    start_after = max(
        (p["watermark"] for p in m["partitions"].values()), default=-1
    ) if m else -1

    if args.reshard:
        print(json.dumps(lake.reshard(args.reshard)))

    if args.rename_column:
        print(json.dumps(lake.rename_column(*args.rename_column)))
    if args.widen_column:
        import pyarrow as pa

        col, tname = args.widen_column
        print(json.dumps(lake.widen_column(
            col, pa.type_for_alias(tname))))
    if args.add_column:
        import pyarrow as pa

        if len(args.add_column) not in (2, 3):
            ap.error("--add-column takes COL TYPE [DEFAULT]")
        col, tname = args.add_column[:2]
        typ = pa.type_for_alias(tname)
        default = None
        if len(args.add_column) == 3:
            raw = args.add_column[2]
            default = (float(raw) if pa.types.is_floating(typ)
                       else int(raw) if pa.types.is_integer(typ)
                       else raw)
        print(json.dumps(lake.add_column(col, typ, default=default)))

    if args.replicate_from:
        # consumer mode: fold the outbox into this lake, no tailing
        from .pipelines.cdc import replicate_changefeed

        rec = replicate_changefeed(args.replicate_from, lake)
        print(json.dumps({"replicated": True, **rec}))
        if args.compact:
            print(json.dumps(lake.compact(cluster_files=args.cluster_files)))
            lake.gc(retain_manifests=args.retain_manifests)
        return 0

    tail = BinlogTail(args.segments)
    total_events, t0 = 0, time.time()
    for window in tail.windows(start_after, args.segments_per_window):
        rec = lake.apply_events(window)
        total_events += rec["events_seen"]
        print(json.dumps(rec))
    if args.compact:
        print(json.dumps(lake.compact(cluster_files=args.cluster_files)))
        lake.gc(retain_manifests=args.retain_manifests)
    if args.export_feed:
        reserved = {lake.spec.lsn_col, lake.spec.op_col} | set(
            lake.spec.key_cols)
        carry = [f.name for f in lake.spec.schema
                 if f.name not in reserved]
        print(json.dumps(
            lake.export_changefeed(args.export_feed, carry_cols=carry)))
    wall = time.time() - t0
    print(
        json.dumps(
            {
                "summary": True,
                "events_applied": total_events,
                "wall_sec": round(wall, 2),
                "events_per_sec": round(total_events / max(wall, 1e-9), 1),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
