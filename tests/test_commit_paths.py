"""Table properties survive every commit path.

A lake with drop / rename / cluster history commits one epoch through
each data path — ``apply_events``, ``apply_stream``, ``apply_events``
inside a ``LakeTransaction``, and ``ActorLake.apply_events`` — and after
each commit the manifest must still carry ``dropped_cols``,
``renamed_cols``, ``cluster_spec`` and ``epoch_hwm``, a zone map for
every live file, and a schema without the dropped or renamed-away
column.
"""

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from standardized_omop_data_etl_ray.datagen import make_change_events, micro_batches
from standardized_omop_data_etl_ray.oracle import oracle_apply
from standardized_omop_data_etl_ray.pipelines.actor_apply import ActorLake
from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake, LakeTransaction
from standardized_omop_data_etl_ray.spec import TableSpec
from standardized_omop_data_etl_ray.state import manifest as mf

WINDOW = 200
EVENTS = make_change_events(n_keys=120, n_events=1200, seed=17, window=WINDOW)
BATCHES = list(micro_batches(EVENTS, batch_windows=1, window=WINDOW))


def _spec():
    return TableSpec(name="cdc", num_partitions=4)


def _assert_properties(root: str, cluster_spec: dict) -> dict:
    m = mf.read_manifest(root, "cdc")
    assert m["dropped_cols"] == ["lang"]
    assert m["renamed_cols"] == {"commit": "commit_id"}
    assert m["cluster_spec"] == cluster_spec
    assert m["epoch_hwm"] >= m["epoch"]
    names = mf.schema_from_b64(m["schema"]).names
    assert "lang" not in names and "commit" not in names
    assert "commit_id" in names
    for p, info in m["partitions"].items():
        missing = set(info["files"]) - set(info.get("file_stats", {}))
        assert not missing, (p, missing)
    return m


def test_every_commit_path_keeps_table_properties(tmp_path):
    root = str(tmp_path)
    lake = CDCLake(root, _spec())
    lake.apply_events(rd.from_arrow(BATCHES[0]))
    lake.drop_column("lang")
    lake.rename_column("commit", "commit_id")
    lake.cluster(["commit_id"], files_per_partition=2, order="lex")
    cspec = mf.read_manifest(root, "cdc")["cluster_spec"]
    assert cspec and cspec["cols"] == ["commit_id"]
    _assert_properties(root, cspec)

    lake.apply_events(rd.from_arrow(BATCHES[1]))
    _assert_properties(root, cspec)

    lake.apply_stream([rd.from_arrow(BATCHES[2])])
    _assert_properties(root, cspec)

    txn = LakeTransaction(root)
    lake.apply_events(rd.from_arrow(BATCHES[3]), txn=txn)
    txn.commit()
    _assert_properties(root, cspec)

    actor = ActorLake(root, _spec(), pool_size=2)
    try:
        rec = actor.apply_events(rd.from_arrow(BATCHES[4]))
        assert rec["committed"] and rec["rows_upserted"] > 0
        m = _assert_properties(root, cspec)
        assert m["epoch"] == rec["epoch"]
        # one record builder: the actor record is the batch record
        # plus the pool's live key count
        ref = lake.apply_events(rd.from_arrow(BATCHES[5]))
        assert set(rec) == set(ref) | {"live_keys"}
        _assert_properties(root, cspec)
        # the pipelined stream is a batch-path capability only
        with pytest.raises(NotImplementedError):
            actor.apply_stream([rd.from_arrow(BATCHES[5])])
    finally:
        actor.kill_pool()

    # the state every path built is the oracle's, under the new name
    tabs = [t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows]
    got = pa.concat_tables(tabs).select(["repo", "path", "commit_id", "content_sha"])
    want = oracle_apply(pa.concat_tables(BATCHES[:6])).select(
        ["repo", "path", "commit", "content_sha"]).rename_columns(
        ["repo", "path", "commit_id", "content_sha"])
    order = [("repo", "ascending"), ("path", "ascending")]
    assert got.sort_by(order).equals(want.sort_by(order))
