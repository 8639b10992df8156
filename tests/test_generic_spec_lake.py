"""The lake on a NON-default TableSpec: OMOP-shaped key
(person_id, condition_concept_id) — the reference's A2 patch semantics
(add_condition_occurrences.py:6-23,52-119: hardcoded inserts for listed
persons + targeted deletes for healthy controls) expressed as CDC
insert/delete events through the same merge path, plus hot-key skew
through the two-stage merge."""

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from standardized_omop_data_etl_ray.datagen import make_change_events
from standardized_omop_data_etl_ray.oracle import assert_states_equal, oracle_apply
from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
from standardized_omop_data_etl_ray.spec import TableSpec
from standardized_omop_data_etl_ray.stages.merge import lww_merge
from standardized_omop_data_etl_ray.stages.standardize import make_standardizer


def _omop_events(rows):
    """rows: (op, lsn, person_id, concept_id, value)"""
    return pa.table(
        {
            "op": pa.array([r[0] for r in rows]),
            "lsn": pa.array([r[1] for r in rows], pa.int64()),
            "person_id": pa.array([r[2] for r in rows]),
            "concept_id": pa.array([r[3] for r in rows], pa.int64()),
            "condition_source_value": pa.array([r[4] for r in rows]),
        }
    )


def _spec(p=4):
    return TableSpec(
        name="condition_occurrence",
        key_cols=("person_id", "concept_id"),
        content_col="condition_source_value",
        schema=pa.schema(
            [
                ("op", pa.string()),
                ("lsn", pa.int64()),
                ("person_id", pa.string()),
                ("concept_id", pa.int64()),
                ("condition_source_value", pa.string()),
            ]
        ),
        num_partitions=p,
    )


def test_patch_insert_then_targeted_delete(tmp_path):
    """A2: baseline conditions, then patch-in inserts for listed persons
    and targeted deletes of (person, concept in {373182, 2000000397})
    for healthy controls — order-sensitive, applied via LSN."""
    base = _omop_events(
        [
            ("I", 1, "CASE1", 373182, "als dx"),
            ("I", 2, "CTRL1", 373182, "als dx (wrong)"),
            ("I", 3, "CTRL1", 2000000397, "group flag"),
            ("I", 4, "CTRL1", 99999, "unrelated"),
        ]
    )
    patch = _omop_events(
        [
            ("I", 10, "CASE2", 373182, "patched in"),
            ("D", 11, "CTRL1", 373182, None),
            ("D", 12, "CTRL1", 2000000397, None),
        ]
    )
    spec = _spec()
    lake = CDCLake(tmp_path, spec)
    lake.apply_events(rd.from_arrow(base))
    lake.apply_events(rd.from_arrow(patch))
    df = lake.read_state().to_pandas()
    got = set(zip(df["person_id"], df["concept_id"]))
    assert got == {("CASE1", 373182), ("CASE2", 373182), ("CTRL1", 99999)}
    # delete-then-reinsert on the SAME key is order-sensitive (lsn wins)
    reinsert = _omop_events([("I", 20, "CTRL1", 373182, "re-added")])
    lake.apply_events(rd.from_arrow(reinsert))
    df = lake.read_state().to_pandas()
    assert ("CTRL1", 373182) in set(zip(df["person_id"], df["concept_id"]))


def test_heavy_skew_matches_oracle():
    """60% of events on one hot repo: the merge equals the oracle."""
    events = make_change_events(
        n_keys=300, n_events=6000, seed=77, hot_share=0.6, window=500
    )
    spec = TableSpec(name="cdc", num_partitions=6)
    std = rd.from_arrow(events).map_batches(
        make_standardizer(spec), batch_format="pyarrow"
    )
    merged = lww_merge(std, spec)
    tabs = [t for t in ray.get(merged.to_arrow_refs()) if t.num_rows]
    assert_states_equal(pa.concat_tables(tabs), oracle_apply(events))


def test_pack_years_kernel():
    from standardized_omop_data_etl_ray.functions.parsing import pack_years

    out = pack_years(pa.array([10.0, 0.0]), pa.array([1.5, 2.0])).to_pylist()
    assert out == [5475.0, 0.0]  # years × packs/day × 365 (M14)


def test_lake_with_custom_lsn_column(tmp_path):
    """TableSpec with a non-default LSN column name: the watermark
    filter / winners path must follow spec.lsn_col, not 'lsn'."""
    spec = TableSpec(
        name="seqlake",
        lsn_col="seq",
        schema=pa.schema(
            [
                ("op", pa.string()),
                ("seq", pa.int64()),
                ("repo", pa.string()),
                ("path", pa.string()),
                ("commit", pa.string()),
                ("lang", pa.string()),
                ("content", pa.string()),
            ]
        ),
        num_partitions=4,
    )
    ev = pa.table(
        {
            "op": ["I", "U", "I"],
            "seq": pa.array([1, 5, 2], pa.int64()),
            "repo": ["r", "r", "r"],
            "path": ["a", "a", "b"],
            "commit": ["c1", "c5", "c2"],
            "lang": ["py", "py", "py"],
            "content": ["v1", "v5", "b2"],
        }
    )
    lake = CDCLake(tmp_path, spec)
    lake.apply_events(rd.from_arrow(ev))
    # replay (idempotence must also consult the custom column)
    rec = lake.apply_events(rd.from_arrow(ev))
    assert rec["events_seen"] == 0
    df = lake.read_state().to_pandas().sort_values("path")
    assert list(df["content"]) == ["v5", "b2"]
