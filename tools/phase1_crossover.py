#!/usr/bin/env python3
"""Phase-1 route crossover: per-segment blocks + the ``part`` exchange
against one coalesced block + the map-only write.

For each segments-per-epoch count (default 1, 2, 4, 8, 16; 2,000-event
segments with ~400 B contents, P=4) two fresh lakes apply the same
epochs, alternating which route goes first:

* ``exchange``: the window is read as one block per segment and
  ``CDCLake._phase1`` is forced onto the ``groupby(part)`` exchange (the
  route pick, ``pipelines.cdc._planned_blocks``, is patched in this
  process to answer "unknown" for this lake only), which is how every epoch ran
  before map-only phase 1;
* ``map-only``: the window is read as ONE block, so ``_phase1`` splits
  the combined block by ``part`` in the same task.

Each lake's final state is checked against ``oracle.oracle_apply``.
One untimed warm-up epoch runs first.  Prints a markdown table: the
median ``apply_events`` wall per route, and their ratio.

Usage: python tools/phase1_crossover.py [--cpus 1] [--epochs 3]
           [--segments 1,2,4,8,16] [--partitions 4] [--work DIR]
"""
import argparse
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

SEG_EVENTS = 2_000
WINDOW = 500  # make_change_events' shuffle window; segments are multiples


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cpus", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--segments", default="1,2,4,8,16")
    ap.add_argument("--partitions", type=int, default=4)
    ap.add_argument("--work", default=None)
    args = ap.parse_args()

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from standardized_omop_data_etl_ray.datagen import (
        make_change_events,
        micro_batches,
    )
    from standardized_omop_data_etl_ray.oracle import (
        assert_states_equal,
        oracle_apply,
    )
    from standardized_omop_data_etl_ray.pipelines import cdc
    from standardized_omop_data_etl_ray.spec import TableSpec

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    work = Path(args.work or tempfile.mkdtemp(prefix="phase1_crossover-"))
    shutil.rmtree(work, ignore_errors=True)
    planned = cdc._planned_blocks

    def segments(k: int, epochs: int, seed: int) -> tuple[pa.Table, list]:
        """Write ``epochs`` windows of ``k`` segments; returns the log
        and each epoch's segment paths."""
        n = SEG_EVENTS * k * epochs
        log = make_change_events(n_keys=max(2_000, n // 4), n_events=n,
                                 seed=seed, window=WINDOW,
                                 content_len_median=400)
        d = work / f"segs-{k}-{seed}"
        d.mkdir(parents=True)
        paths = []
        # cut on lsn, not row count: re-delivered duplicates ride inside
        # their window, and a segment must not split one
        for i, seg in enumerate(micro_batches(log, SEG_EVENTS // WINDOW,
                                              WINDOW)):
            p = d / f"seg-{i:06d}.parquet"
            pq.write_table(seg, p)
            paths.append(str(p))
        return log, [paths[e * k:(e + 1) * k] for e in range(epochs)]

    def apply(lake, files: list[str], route: str) -> float:
        blocks = len(files) if route == "exchange" else 1
        ds = rd.read_parquet(files, override_num_blocks=blocks)
        cdc._planned_blocks = ((lambda _ds: None) if route == "exchange"
                               else planned)
        try:
            t = time.perf_counter()
            lake.apply_events(ds)
            return time.perf_counter() - t
        finally:
            cdc._planned_blocks = planned

    def state(lake) -> pa.Table:
        tabs = [t for t in ray.get(lake.read_state().to_arrow_refs())
                if t.num_rows]
        return pa.concat_tables(tabs)

    # untimed warm-up: Ray start, worker imports, page cache
    _, warm = segments(1, 1, seed=1)
    for route in ("exchange", "map-only"):
        apply(cdc.CDCLake(work / f"warm-{route}",
                          TableSpec(name="cdc",
                                    num_partitions=args.partitions)),
              warm[0], route)

    print(f"P={args.partitions}, {SEG_EVENTS:,}-event segments, "
          f"{args.epochs} epochs per route, {args.cpus} cpu(s)\n")
    print("| segments per epoch | events per epoch | per-segment blocks "
          "+ exchange | one block, map-only | map-only / exchange |")
    print("|---|---|---|---|---|")
    for k in [int(x) for x in args.segments.split(",")]:
        log, epochs = segments(k, args.epochs, seed=100 + k)
        lakes = {r: cdc.CDCLake(work / f"lake-{k}-{r}",
                                TableSpec(name="cdc",
                                          num_partitions=args.partitions),
                                auto_compact_files=None)
                 for r in ("exchange", "map-only")}
        walls: dict[str, list[float]] = {r: [] for r in lakes}
        for e, files in enumerate(epochs):
            order = list(lakes) if e % 2 == 0 else list(lakes)[::-1]
            for r in order:
                walls[r].append(apply(lakes[r], files, r))
        oracle = oracle_apply(log)
        for lake in lakes.values():
            assert_states_equal(state(lake), oracle)
        med = {r: statistics.median(w) for r, w in walls.items()}
        print(f"| {k} | {SEG_EVENTS * k:,} | {med['exchange']:.3f} s "
              f"| {med['map-only']:.3f} s "
              f"| {med['map-only'] / med['exchange']:.2f} |", flush=True)
    print("\nevery lake matches oracle_apply")
    ray.shutdown()
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
