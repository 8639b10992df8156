"""Binlog-segment tailing source.

Models the CDC ingest contract the engine is built around: the upstream
log is a directory of immutable, lsn-range-named parquet segment files
(``seg-<first_lsn>.parquet`` or any sortable naming); a tailer polls for
segments beyond the last committed watermark and yields each new window
as a ``ray.data.Dataset`` (one micro-batch = one or more whole segments,
so every lsn in batch *n+1* exceeds every lsn committed in batch *n* —
bounded disorder INSIDE a segment is fine, the merge handles it).

This is the productionized form of what bench.py's headline loop does
inline, and the "tail" half of ``ray job submit``-style deployment:

    tail = BinlogTail(segments_dir)
    lake = CDCLake(lake_root, spec)
    for window in tail.windows(start_after=lake_watermark,
                               segments_per_window=16):
        lake.apply_events(window)
"""

from __future__ import annotations

import re
from pathlib import Path

import pyarrow.parquet as pq

import ray.data as rd
from ray.data import DataContext

_NUM = re.compile(r"(\d+)")


def _segment_sort_key(p: Path):
    nums = _NUM.findall(p.name)
    return (int(nums[0]) if nums else 0, p.name)


class BinlogTail:
    def __init__(self, segments_dir: str):
        self.dir = Path(segments_dir)

    def segments(self) -> list[Path]:
        return sorted(self.dir.glob("*.parquet"), key=_segment_sort_key)

    def segment_max_lsn(self, path: Path) -> int | None:
        """Max lsn from parquet row-group statistics (no data read).

        Returns ``None`` when the writer disabled column statistics —
        callers must treat that as UNKNOWN (include the segment), never
        as "already applied".  Raises if the segment has no lsn column
        at all (a malformed segment must fail loudly, not vanish)."""
        md = pq.read_metadata(path)
        lsn_idx = next(
            (
                i for i in range(md.num_columns)
                if md.schema.column(i).name == "lsn"
            ),
            None,
        )
        if lsn_idx is None:
            raise ValueError(
                f"binlog segment {path} has no 'lsn' column "
                f"(columns: {[md.schema.column(i).name for i in range(md.num_columns)]})"
            )
        mx = None
        for rg in range(md.num_row_groups):
            col = md.row_group(rg).column(lsn_idx)
            if col.statistics and col.statistics.has_min_max:
                mx = col.statistics.max if mx is None else max(mx, col.statistics.max)
            else:
                return None  # any stats-less row group → unknown
        return mx

    def new_segments(self, after_lsn: int = -1) -> list[Path]:
        """Segments whose max lsn exceeds the committed watermark.
        Already-applied segments are skipped by METADATA only; a segment
        with missing statistics is INCLUDED (unknown ≠ applied — the
        lake's watermark filter drops already-applied rows), and one
        straddling the watermark is re-read in full (idempotent)."""
        out = []
        for p in self.segments():
            mx = self.segment_max_lsn(p)
            if mx is None or mx > after_lsn:
                out.append(p)
        return out

    def windows(
        self, start_after: int = -1, segments_per_window: int = 16
    ):
        """Yield Datasets of whole new segments, ``segments_per_window``
        at a time (one yield = one micro-batch = one lake epoch).

        A window is read as ``min(segments, ceil(bytes on disk /
        DataContext.target_max_block_size))`` blocks (one when Ray sets
        no target): blocks are sized by bytes, not one per segment.  A
        window that fits one block — a tailing catch-up poll, a small
        backfill window — is one block, which ``CDCLake`` applies
        map-only, with no exchange."""
        target = DataContext.get_current().target_max_block_size
        segs = self.new_segments(start_after)
        for i in range(0, len(segs), segments_per_window):
            chunk = segs[i : i + segments_per_window]
            size = sum(p.stat().st_size for p in chunk)
            blocks = (max(1, min(len(chunk), -(-size // target)))
                      if target else 1)
            yield rd.read_parquet(
                [str(p) for p in chunk], override_num_blocks=blocks
            )
