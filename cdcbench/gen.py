"""Input generator for the CDC-lake benchmark, run as a child process.

    python3 cdcbench/gen.py --workload tail --seed 7 --seconds 15 \
        --scale full --out .cdcbench_work/inputs/tail-7-15-full

Writes, atomically (build in ``<out>.tmp``, then rename):

* ``segs/seg-<first_lsn>.parquet`` - the binlog, cut into lsn-range
  segments whose boundaries fall on the generator's shuffle windows, so
  out-of-order delivery and duplicates stay inside one segment (the
  tailing contract ``sources.binlog`` documents);
* ``warm/seg-<first_lsn>.parquet`` - one segment of an unrelated log for
  the untimed warm-up epoch;
* ``lookups.parquet`` - the point-lookup schedule (``kind`` hit/miss,
  ``repo``, ``path``): hits are keys of uniformly drawn log events, so
  they follow the generator's hot-key skew; misses are paths no event
  ever writes, under real repos, so zone maps cannot rule them out and
  the bloom sidecars have to;
* ``meta.json`` - sizes and per-segment event counts.

Everything is a pure function of the arguments: the same seed gives the
same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# The shuffle window of make_change_events; segment sizes are multiples.
WINDOW = 500

# Per-workload sizes.  ``seg_events`` is the segment (read block) size.
SIZES = {
    "full": {
        # backfill: 100k events in 5 apply_stream windows of 2 segments
        "backfill": dict(n_keys=40_000, n_events=100_000, seg_events=10_000,
                         segs_per_window=2, partitions=8, lookups=240),
        # tail: one 2,000-event segment lands every 0.7 s (open loop)
        "tail": dict(n_keys=20_000, seg_events=2_000, period_s=0.7,
                     partitions=4, lookups=240),
        # serve: 30 aging epochs, then a 1,000-event write every 16 lookups
        "serve": dict(n_keys=20_000, seg_events=1_000, age_epochs=30,
                      write_every=16, partitions=4, lookups=4_000),
    },
    "tiny": {
        "backfill": dict(n_keys=1_000, n_events=4_000, seg_events=1_000,
                         segs_per_window=2, partitions=2, lookups=40),
        "tail": dict(n_keys=1_000, seg_events=500, period_s=0.5,
                     partitions=2, lookups=40),
        "serve": dict(n_keys=1_000, seg_events=500, age_epochs=3,
                      write_every=8, partitions=2, lookups=400),
    },
}
CONTENT_LEN_MEDIAN = 400  # bytes; the ~400 B payloads of the brief
MISS_SHARE = 0.25


def plan(workload: str, scale: str, seconds: int) -> dict:
    """Sizes for one run, including the segment count the window needs."""
    p = dict(SIZES[scale][workload])
    if workload == "backfill":
        p["n_segments"] = p["n_events"] // p["seg_events"]
    elif workload == "tail":
        # segment i is due at i * period; every segment due inside the
        # measured window is generated
        p["n_segments"] = int(np.ceil(seconds / p["period_s"]))
    else:
        # aging segments, then more write segments than any window uses
        # (a write cycle cannot take less than 0.25 s on this engine)
        p["n_writes"] = int(np.ceil(seconds / 0.25)) + 2
        p["n_segments"] = p["age_epochs"] + p["n_writes"]
    return p


def _write_segments(ev: pa.Table, seg_events: int, out: Path) -> list[dict]:
    out.mkdir(parents=True)
    lsn = ev.column("lsn").to_numpy()
    seg = lsn // seg_events
    segs = []
    for i in range(int(seg.max()) + 1):
        t = ev.filter(pa.array(seg == i))
        if not t.num_rows:
            continue
        name = f"seg-{i * seg_events:012d}.parquet"
        pq.write_table(t, out / name)
        segs.append({"name": name, "events": t.num_rows,
                     "max_lsn": int(pc.max(t.column("lsn")).as_py())})
    return segs


def _lookups(ev: pa.Table, n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed + 1)
    hit = rng.permutation(np.arange(n) >= int(n * MISS_SHARE))
    pick = rng.integers(0, ev.num_rows, n)
    repo = ev.column("repo").take(pa.array(pick)).to_pylist()
    path = ev.column("path").take(pa.array(pick)).to_pylist()
    for i in np.flatnonzero(~hit):
        d = path[i].split("/")[1]
        path[i] = f"src/{d}/absent{i}.py"
    return pa.table({
        "kind": pa.array(np.where(hit, "hit", "miss")),
        "repo": pa.array(repo, pa.string()),
        "path": pa.array(path, pa.string()),
    })


def generate(workload: str, seed: int, seconds: int, scale: str,
             out: Path) -> None:
    from standardized_omop_data_etl_ray.datagen import make_change_events

    p = plan(workload, scale, seconds)
    n_events = p.get("n_events", p["n_segments"] * p["seg_events"])
    tmp = Path(str(out) + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ev = make_change_events(
        n_keys=p["n_keys"], n_events=n_events, seed=seed, window=WINDOW,
        content_len_median=CONTENT_LEN_MEDIAN,
    )
    segs = _write_segments(ev, p["seg_events"], tmp / "segs")
    warm = make_change_events(
        n_keys=500, n_events=p["seg_events"], seed=seed + 7919,
        window=WINDOW, content_len_median=CONTENT_LEN_MEDIAN,
    )
    _write_segments(warm, p["seg_events"], tmp / "warm")
    # serve draws its hits from the aging prefix, the state every lookup
    # sees; the others probe the whole log after the window
    pool = ev
    if workload == "serve":
        pool = ev.filter(pc.less(ev.column("lsn"),
                                 p["age_epochs"] * p["seg_events"]))
    pq.write_table(_lookups(pool, p["lookups"], seed), tmp / "lookups.parquet")
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "scale": scale, "plan": p, "events": ev.num_rows,
            "segments": segs}
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1))
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["backfill", "tail", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(SIZES))
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    generate(a.workload, a.seed, a.seconds, a.scale, Path(a.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
