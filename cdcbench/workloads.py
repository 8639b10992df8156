"""The benchmark's three workloads over ``pipelines.cdc.CDCLake``.

* ``backfill`` - closed loop, one driver: the whole log through
  ``apply_stream`` in a few large windows onto a fresh lake, repeated on
  fresh lakes until the window is spent.  Per-row kernels, the ``part``
  exchange and partition writes do the work.
* ``tail`` - open loop: segments land in the tail directory on a fixed
  schedule that does not slow when the engine does; each poll applies
  everything landed as one ``apply_events`` epoch, auto-compaction on.
  Fixed per-epoch cost, per-segment block cost, commits and compaction
  stalls do the work.
* ``serve`` - closed loop, one client: single-key ``lookup`` calls on a
  lake aged in set-up, with a small write epoch every few lookups.
  Manifest parsing, zone-map and bloom pruning and driver-side file reads
  do the work.

Every workload checks the lake's state against ``oracle.oracle_apply``
and every lookup answer against the oracle state as of the last write
committed before it.  Load is generated from the driver process itself,
with no threads of the benchmark's own.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from standardized_omop_data_etl_ray.functions.hashing import sha256_hex
from standardized_omop_data_etl_ray.oracle import canonical_state, oracle_apply
from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
from standardized_omop_data_etl_ray.sources.binlog import BinlogTail
from standardized_omop_data_etl_ray.spec import TableSpec
from standardized_omop_data_etl_ray.stages.merge import lww_reduce_table
from standardized_omop_data_etl_ray.stages.standardize import make_standardizer
from standardized_omop_data_etl_ray.state import manifest as mf

from tracing import Tracer

TABLE = "repos"
ALL_SEGMENTS = 1 << 30  # one poll applies everything landed
KERNEL_ROWS = 40_000  # rows of the run's own segments the kernels are timed on
STATE_COLS = ["repo", "path", "commit", "lang", "content_sha"]
LAYERS = ["load", "binlog", "cdc", "manifest", "standardize", "hashing",
          "merge", "oracle"]


def _p50(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _mean(xs) -> float:
    return float(sum(xs) / len(xs)) if xs else 0.0


def _key(repo, path) -> str:
    return f"{repo}\x00{path}"


class Run:
    """State of one benchmark run: inputs, lakes, counters, samples."""

    def __init__(self, inputs: Path, work: Path, session, trace: bool,
                 plant: str | None):
        self.inputs = inputs
        self.work = work
        self.session = session
        self.trace = trace
        # spans are recorded in traced runs, from the end of set-up on
        self.tr = Tracer(False)
        self.plant = plant
        self.meta = json.loads((inputs / "meta.json").read_text())
        self.p = self.meta["plan"]
        self.segs = self.meta["segments"]
        self.lookups = pq.read_table(inputs / "lookups.parquet").to_pylist()
        self.lakes = work / "lakes"
        shutil.rmtree(self.lakes, ignore_errors=True)
        self.lakes.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # samples
        self.fresh_ms: list[float] = []
        self.hit_ms: list[float] = []
        self.miss_ms: list[float] = []
        self.hit_files_read: list[int] = []
        self.miss_bloom = [0, 0]  # files skipped, files reaching the bloom test
        self.answers: list[tuple] = []  # (lookup index, cutoff lsn, answer)
        self.apply_s: list[float] = []  # per apply call
        self.apply_events: list[int] = []  # events fed per apply call
        self.epochs = 0
        self.poll_scanned: list[int] = []
        self.late_ms: list[float] = []
        self.wait_s = 0.0
        self.commit_ms: list[float] = []
        self.commit_wait_s = 0.0
        self.read_state_s = 0.0
        self.oracle_eps = 0.0
        self.rep_windows: list[int] = []  # backfill: windows per apply_stream

    # -- plumbing ---------------------------------------------------------

    def spec(self) -> TableSpec:
        return TableSpec(name=TABLE, num_partitions=self.p["partitions"])

    def new_lake(self, name: str) -> CDCLake:
        root = self.lakes / name
        shutil.rmtree(root, ignore_errors=True)
        return CDCLake(str(root), self.spec())

    def op(self, fn, *args, **kw):
        """One attempted operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kw)
        except Exception:  # the run goes on; the state check will show it
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None

    def seg_path(self, i: int) -> Path:
        return self.inputs / "segs" / self.segs[i]["name"]

    def land(self, i: int, tail_dir: Path) -> float:
        """Make segment ``i`` appear in the tail directory; returns when."""
        with self.tr.span("load.land"):
            os.link(self.seg_path(i), tail_dir / self.segs[i]["name"])
        return time.perf_counter()

    def poll(self, tail: BinlogTail, after_lsn: int, scanned: int):
        """One binlog poll: the window of every segment past ``after_lsn``."""
        with self.tr.span("binlog.poll"):
            ds = next(tail.windows(start_after=after_lsn,
                                   segments_per_window=ALL_SEGMENTS), None)
        self.poll_scanned.append(scanned)
        return ds

    def apply(self, lake: CDCLake, ds, events: int) -> float:
        t = time.perf_counter()
        with self.tr.span("cdc.apply_events"):
            self.op(lake.apply_events, ds)
        done = time.perf_counter()
        self.apply_s.append(done - t)
        self.apply_events.append(events)
        self.epochs += 1
        return done

    def warm_up(self) -> None:
        """One untimed epoch, lookups and state read on a throwaway lake."""
        lake = self.new_lake("warm")
        ds = next(BinlogTail(str(self.inputs / "warm")).windows(
            start_after=-1, segments_per_window=ALL_SEGMENTS))
        lake.apply_events(ds)
        t = pq.read_table(next((self.inputs / "warm").glob("*.parquet")))
        for r, p in list(zip(t["repo"].to_pylist(), t["path"].to_pylist()))[:8]:
            lake.lookup([{"repo": r, "path": p}], stats_out={})
        self._materialize(lake.read_state())
        shutil.rmtree(self.lakes / "warm", ignore_errors=True)

    # -- lookups ----------------------------------------------------------

    def lookup(self, lake: CDCLake, i: int, cutoff_lsn: int) -> None:
        q = self.lookups[i % len(self.lookups)]
        stats: dict = {}
        t = time.perf_counter()
        with self.tr.span("cdc.lookup"):
            out = self.op(lake.lookup, [{"repo": q["repo"], "path": q["path"]}],
                          stats_out=stats)
        ms = (time.perf_counter() - t) * 1000.0
        if out is None:
            return
        if q["kind"] == "hit":
            self.hit_ms.append(ms)
            self.hit_files_read.append(stats.get("files_read", 0))
        else:
            self.miss_ms.append(ms)
            skipped = stats.get("files_bloom_skipped", 0)
            self.miss_bloom[0] += skipped
            self.miss_bloom[1] += skipped + stats.get("files_read", 0)
        answer = sorted(zip(out["commit"].to_pylist(),
                            out["content_sha"].to_pylist()))
        self.answers.append((i, cutoff_lsn, answer))

    def probe(self, lake: CDCLake, cutoff_lsn: int) -> float:
        """Closed-loop lookups after the window; returns lookups/s."""
        t = time.perf_counter()
        for i in range(self.p["lookups"]):
            self.lookup(lake, i, cutoff_lsn)
        return self.p["lookups"] / (time.perf_counter() - t)

    def check_answers(self, log: pa.Table) -> None:
        """Each answer against the oracle state as of its cutoff lsn."""
        if not self.answers:
            return
        wanted = {_key(self.lookups[i % len(self.lookups)]["repo"],
                       self.lookups[i % len(self.lookups)]["path"])
                  for i, _, _ in self.answers}
        k = pc.binary_join_element_wise(log["repo"], log["path"], "\x00")
        sub = log.filter(pc.is_in(k, value_set=pa.array(sorted(wanted))))
        by_cutoff: dict[int, list] = {}
        for a in self.answers:
            by_cutoff.setdefault(a[1], []).append(a)
        bad = 0
        first = True
        for cutoff, group in sorted(by_cutoff.items()):
            st = oracle_apply(sub.filter(pc.less_equal(sub["lsn"], cutoff)))
            want = {_key(r, p): [(c, s)] for r, p, c, s in zip(
                st["repo"].to_pylist(), st["path"].to_pylist(),
                st["commit"].to_pylist(), st["content_sha"].to_pylist())}
            for i, _, got in group:
                q = self.lookups[i % len(self.lookups)]
                exp = want.get(_key(q["repo"], q["path"]), [])
                if first and self.plant == "answer":
                    exp = [("planted", "0" * 64)]
                first = False
                if got != exp:
                    bad += 1
        if bad:
            self.failed += bad
            self.errors.append(f"{bad} of {len(self.answers)} lookup answers "
                               "differ from the oracle")

    # -- state ------------------------------------------------------------

    @staticmethod
    def _materialize(ds) -> pa.Table:
        import ray

        tabs = []
        for b in ray.get(ds.to_arrow_refs()):
            tabs.append(b if isinstance(b, pa.Table) else pa.Table.from_pandas(b))
        return pa.concat_tables(tabs, promote_options="permissive")

    def read_log(self, n_segments: int) -> pa.Table:
        return pa.concat_tables(
            [pq.read_table(self.seg_path(i)) for i in range(n_segments)])

    def check_state(self, lake: CDCLake, log: pa.Table) -> pa.Table:
        """The lake's full state against the oracle over ``log``; returns
        the oracle state."""
        t = time.perf_counter()
        with self.tr.span("cdc.read_state"):
            got = canonical_state(self._materialize(lake.read_state()))
        self.read_state_s = time.perf_counter() - t
        t = time.perf_counter()
        with self.tr.span("oracle.oracle_apply"):
            want = oracle_apply(log)
        self.oracle_eps = log.num_rows / (time.perf_counter() - t)
        if self.plant == "state" and got.num_rows:
            sha = got["content_sha"].to_pylist()
            sha[0] = "0" * 64
            got = got.set_column(got.schema.get_field_index("content_sha"),
                                 "content_sha", pa.array(sha, pa.string()))
        if got.num_rows != want.num_rows:
            self.errors.append(f"state rows {got.num_rows} != oracle {want.num_rows}")
            return want
        for c in STATE_COLS:
            a = pc.cast(got[c].combine_chunks(), pa.string())
            b = pc.cast(want[c].combine_chunks(), pa.string())
            if not a.equals(b):
                self.errors.append(f"state column {c} differs from the oracle")
        return want

    # -- per-layer records ------------------------------------------------

    def layer_metrics(self, lake: CDCLake, oracle_state: pa.Table,
                      seg_ids: list[int], wall_s: float) -> dict:
        """Per-layer numbers from the run's spans and the program's public
        records; the kernel timings run here, after the measured window."""
        m = {}
        tr = self.tr
        polls = tr.self_times("binlog.poll")
        m["binlog.poll_ms"] = _p50(polls) * 1000.0
        m["binlog.segments_scanned"] = _mean(self.poll_scanned)
        m["binlog.wait_share"] = self.wait_s / wall_s
        m["load.late_ms"] = _p50(self.late_ms)
        applies = (tr.self_times("cdc.apply_events")
                   or [s / max(1, n) for s, n in zip(
                       tr.self_times("cdc.apply_stream"), self.rep_windows)])
        m["cdc.apply_ms"] = _p50(applies) * 1000.0
        m["cdc.events_per_epoch"] = sum(self.apply_events) / max(1, self.epochs)
        m["cdc.compactions"] = sum(1 for r in lake.lineage() if r.get("compaction"))
        m["cdc.commit_ms"] = _p50(self.commit_ms)
        m["cdc.commit_wait_ms"] = self.commit_wait_s * 1000.0
        m["cdc.lookup_files_read"] = _mean(self.hit_files_read)
        m["bloom.skip_ratio"] = self.miss_bloom[0] / max(1, self.miss_bloom[1])
        m["cdc.read_state_s"] = self.read_state_s

        man = mf.read_manifest(lake.root, TABLE)
        troot = mf.table_root(lake.root, TABLE)
        m["cdc.files_live"] = sum(len(v["files"]) for v in man["partitions"].values())
        m["cdc.files_on_disk"] = sum(1 for _ in troot.rglob("*.parquet"))
        disk = sum(f.stat().st_size for f in Path(lake.root).rglob("*") if f.is_file())
        user = sum(pc.sum(pc.binary_length(oracle_state[c])).as_py() or 0
                   for c in ["repo", "path", "commit", "lang", "content"])
        m["cdc.bytes_per_user_byte"] = disk / max(1, user)
        rows = lake.partition_metrics()["rows"].to_pylist()
        m["cdc.part_rows_max_over_mean"] = max(rows) / max(1e-9, _mean(rows))
        mdir = troot / "_manifests"
        m["manifest.bytes"] = float((mdir / mf.pointer_path(lake.root, TABLE)
                                     .read_text().strip()).stat().st_size)
        m["manifest.retained_mb"] = sum(
            f.stat().st_size for f in mdir.glob("manifest-*.json")) / 2**20
        for _ in range(20):
            with tr.span("manifest.read_manifest"):
                mf.read_manifest(lake.root, TABLE)
        m["manifest.read_ms"] = _p50(tr.self_times("manifest.read_manifest")) * 1000.0

        # the public kernels on the run's own segments
        spec = self.spec()
        std = make_standardizer(spec)
        n_in = n_out = 0
        for i in seg_ids:
            if n_in >= KERNEL_ROWS:
                break
            t = pq.read_table(self.seg_path(i))
            with tr.span("standardize.make_standardizer"):
                s = std(t)
            with tr.span("hashing.sha256_hex"):
                sha256_hex(t["content"])
            with tr.span("merge.lww_reduce_table"):
                r = lww_reduce_table(s, spec.key_cols, spec.lsn_col)
            n_in += t.num_rows
            n_out += r.num_rows
        per_row = {k: sum(tr.self_times(k)) / max(1, n_in) * 1e6 for k in (
            "standardize.make_standardizer", "hashing.sha256_hex",
            "merge.lww_reduce_table")}
        m["standardize.us_per_row"] = per_row["standardize.make_standardizer"]
        m["hashing.sha256_us_per_row"] = per_row["hashing.sha256_hex"]
        m["merge.lww_us_per_row"] = per_row["merge.lww_reduce_table"]
        m["merge.combine_ratio"] = n_out / max(1, n_in)
        # standardize's time already includes its sha256 call
        kernel_s = (per_row["standardize.make_standardizer"]
                    + per_row["merge.lww_reduce_table"]) * sum(self.apply_events) / 1e6
        m["cdc.unattributed_share"] = 1.0 - kernel_s / max(1e-9, sum(self.apply_s))
        m["oracle.events_per_s"] = self.oracle_eps
        m["trace.overhead_pct"] = 100.0 * tr.bookkeeping_s / wall_s
        selfs = tr.layer_self_s()
        for layer in LAYERS:
            m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        return m

    def result(self, e2e: dict, lake: CDCLake, oracle_state: pa.Table,
               seg_ids: list[int], wall_s: float) -> dict:
        e2e = {**e2e,
               "freshness_p50_ms": _p50(self.fresh_ms),
               "hit_p50_ms": _p50(self.hit_ms),
               "miss_p50_ms": _p50(self.miss_ms),
               "peak_rss_mb": self.session.peak_rss_mb()}
        layers = (self.layer_metrics(lake, oracle_state, seg_ids, wall_s)
                  if self.trace else {})
        for e in self.errors:
            print(f"check failed: {e}", file=sys.stderr)
        return {
            "correct": not self.errors and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "e2e": e2e,
            "layers": layers,
            "samples": {k: (len(v), [round(q, 2) for q in statistics.quantiles(v, n=4)])
                        for k, v in (("freshness", self.fresh_ms), ("hit", self.hit_ms),
                                     ("miss", self.miss_ms)) if len(v) > 1},
        }


def backfill(run: Run, seconds: float) -> dict:
    t0 = time.perf_counter()
    run.session.start()
    run.warm_up()
    setup_s = time.perf_counter() - t0
    run.tr.enabled = run.trace
    n = len(run.segs)
    spw = run.p["segs_per_window"]
    tail = BinlogTail(str(run.inputs / "segs"))
    log = run.read_log(n)

    def windows():
        it = tail.windows(start_after=-1, segments_per_window=spw)
        scanned = n  # only the first poll of a stream reads the footers
        while True:
            with run.tr.span("binlog.poll"):
                ds = next(it, None)
            run.poll_scanned.append(scanned)
            scanned = 0
            if ds is None:
                return
            yield ds

    measured = 0.0
    events = 0
    ref_metrics = oracle_state = lake = None
    rep = 0
    while measured < seconds:
        if lake is not None:
            shutil.rmtree(lake.root, ignore_errors=True)
        lake = run.new_lake(f"rep{rep}")
        t = time.perf_counter()
        with run.tr.span("cdc.apply_stream"):
            recs = run.op(lake.apply_stream, windows(), max_inflight=2) or []
        dt = time.perf_counter() - t
        measured += dt
        run.attempted += max(0, len(recs) - 1)  # one per window; op() counted one
        run.apply_s.append(dt)
        run.apply_events.append(run.meta["events"])
        run.epochs += len(recs)
        run.rep_windows.append(max(1, len(recs)))
        events += run.meta["events"] if recs else 0
        for r in recs:
            run.fresh_ms.append(r["wall_sec"] * 1000.0)
            run.commit_ms.append(r["commit_sec"] * 1000.0)
            run.commit_wait_s += r["commit_wait_sec"]
        # outside the measured window: the first lake against the oracle,
        # every later one against the first (the same log, deterministically
        # replayed, must commit the same partitions)
        pm = lake.partition_metrics().select(["part", "rows", "watermark", "sha_rollup"])
        if ref_metrics is None:
            oracle_state = run.check_state(lake, log)
            ref_metrics = pm
        elif not pm.equals(ref_metrics):
            run.errors.append(f"backfill repeat {rep} committed different partitions")
        rep += 1
    lookups_per_s = run.probe(lake, int(pc.max(log["lsn"]).as_py()))
    run.check_answers(log)
    return run.result({"setup_s": setup_s, "events_per_s": events / measured,
                       "lookups_per_s": lookups_per_s},
                      lake, oracle_state, list(range(n)), measured)


def _tail_dir(run: Run) -> tuple[Path, BinlogTail]:
    d = run.work / "tail"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d, BinlogTail(str(d))


def tail(run: Run, seconds: float) -> dict:
    t0 = time.perf_counter()
    run.session.start()
    run.warm_up()
    lake = run.new_lake("tail")
    tail_dir, bt = _tail_dir(run)
    setup_s = time.perf_counter() - t0
    run.tr.enabled = run.trace
    n = len(run.segs)
    period = run.p["period_s"]
    start = time.perf_counter()
    due = [start + i * period for i in range(n)]
    landed = applied = 0
    wm = -1
    while applied < n:
        now = time.perf_counter()
        while landed < n and due[landed] <= now:
            run.late_ms.append((run.land(landed, tail_dir) - due[landed]) * 1000.0)
            landed += 1
        if landed == applied:
            pause = due[landed] - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
                run.wait_s += pause
            continue
        ds = run.poll(bt, wm, landed)
        done = run.apply(lake, ds, sum(s["events"] for s in run.segs[applied:landed]))
        run.fresh_ms.extend((done - due[i]) * 1000.0 for i in range(applied, landed))
        wm = run.segs[landed - 1]["max_lsn"]
        applied = landed
    wall = time.perf_counter() - start
    events = sum(s["events"] for s in run.segs)
    log = run.read_log(n)
    oracle_state = run.check_state(lake, log)
    lookups_per_s = run.probe(lake, wm)
    run.check_answers(log)
    return run.result({"setup_s": setup_s, "events_per_s": events / wall,
                       "lookups_per_s": lookups_per_s},
                      lake, oracle_state, list(range(n)), wall)


def serve(run: Run, seconds: float) -> dict:
    t0 = time.perf_counter()
    run.session.start()
    run.warm_up()
    lake = run.new_lake("serve")
    tail_dir, bt = _tail_dir(run)
    age = run.p["age_epochs"]
    wm = -1
    for i in range(age):
        run.land(i, tail_dir)
        lake.apply_events(run.poll(bt, wm, i + 1))
        wm = run.segs[i]["max_lsn"]
    run.poll_scanned.clear()
    for i in range(len(run.lookups) - 16, len(run.lookups)):
        lake.lookup([{k: run.lookups[i][k] for k in ("repo", "path")}])
    setup_s = time.perf_counter() - t0
    run.tr.enabled = run.trace

    every = run.p["write_every"]
    n_lookups = writes = 0
    write_events = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and age + writes < len(run.segs):
        for _ in range(every):
            run.lookup(lake, n_lookups, wm)
            n_lookups += 1
        seg = age + writes
        landed_at = run.land(seg, tail_dir)
        ds = run.poll(bt, wm, seg + 1)
        done = run.apply(lake, ds, run.segs[seg]["events"])
        run.fresh_ms.append((done - landed_at) * 1000.0)
        write_events += run.segs[seg]["events"]
        wm = run.segs[seg]["max_lsn"]
        writes += 1
    wall = time.perf_counter() - start
    log = run.read_log(age + writes)
    oracle_state = run.check_state(lake, log)
    run.check_answers(log)
    return run.result({"setup_s": setup_s, "events_per_s": write_events / wall,
                       "lookups_per_s": n_lookups / wall},
                      lake, oracle_state, list(range(age + writes)), wall)


WORKLOADS = {"backfill": backfill, "tail": tail, "serve": serve}
