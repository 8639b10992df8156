"""Core CDC correctness: engine final state == single-process oracle.

Covers the north-rule adversarial cases: out-of-order delivery within
windows, exact duplicate events, delete-then-reinsert, hot-key skew —
and independence of the result from parallelism / partition count /
block count.
"""

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from standardized_omop_data_etl_ray.datagen import make_change_events
from standardized_omop_data_etl_ray.oracle import (
    assert_states_equal,
    canonical_state,
    oracle_apply,
)
from standardized_omop_data_etl_ray.spec import TableSpec
from standardized_omop_data_etl_ray.stages.merge import lww_merge, lww_reduce_table
from standardized_omop_data_etl_ray.stages.standardize import make_standardizer


def _collect(ds) -> pa.Table:
    tables = ray.get(ds.to_arrow_refs())
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables) if tables else tables


def _run_engine(events: pa.Table, num_partitions=8, n_blocks=4):
    spec = TableSpec(name="cdc", num_partitions=num_partitions)
    ds = rd.from_arrow(events).repartition(n_blocks)
    std = ds.map_batches(make_standardizer(spec), batch_format="pyarrow")
    return _collect(lww_merge(std, spec))


EVENTS = make_change_events(n_keys=400, n_events=4000, seed=7, window=500)
ORACLE = oracle_apply(EVENTS)


def test_engine_matches_oracle():
    assert_states_equal(_run_engine(EVENTS), ORACLE)


def test_independent_of_partition_count_and_blocks():
    a = canonical_state(_run_engine(EVENTS, num_partitions=3, n_blocks=2))
    b = canonical_state(_run_engine(EVENTS, num_partitions=16, n_blocks=9))
    assert a.equals(b)


def test_duplicate_events_are_idempotent():
    # duplicate the whole log (every lsn delivered twice) → same state
    doubled = pa.concat_tables([EVENTS, EVENTS])
    assert_states_equal(_run_engine(doubled), ORACLE)


def test_delete_then_reinsert_and_ordering():
    """Hand-built adversarial sequence: stale update arrives after a
    delete; tombstone must beat the stale update but lose to the later
    reinsert (SURVEY.md §7.5)."""
    rows = [
        # key k1: I(0), U(1), D(5), stale U(3) delivered late, reinsert I(7)
        ("I", 0, "r", "k1", "c0", "py", "v0"),
        ("U", 1, "r", "k1", "c1", "py", "v1"),
        ("D", 5, "r", "k1", "c1", None, None),
        ("U", 3, "r", "k1", "c3", "py", "v3"),   # stale, loses to D
        ("I", 7, "r", "k1", "c7", "py", "v7"),   # reinsert, wins
        # key k2: I then D → gone
        ("I", 2, "r", "k2", "c2", "go", "x"),
        ("D", 4, "r", "k2", "c2", None, None),
    ]
    t = pa.table(
        {
            "op": pa.array([r[0] for r in rows]),
            "lsn": pa.array([r[1] for r in rows], pa.int64()),
            "repo": pa.array([r[2] for r in rows]),
            "path": pa.array([r[3] for r in rows]),
            "commit": pa.array([r[4] for r in rows]),
            "lang": pa.array([r[5] for r in rows]),
            "content": pa.array([r[6] for r in rows]),
        }
    )
    out = canonical_state(_run_engine(t, num_partitions=4))
    assert out.num_rows == 1
    assert out.column("path").to_pylist() == ["k1"]
    assert out.column("content").to_pylist() == ["v7"]
    assert_states_equal(out, oracle_apply(t))


def test_lww_reduce_table_unit():
    t = pa.table(
        {
            "op": ["I", "U", "U"],
            "lsn": pa.array([1, 3, 2], pa.int64()),
            "repo": ["r", "r", "r"],
            "path": ["p", "p", "p"],
            "commit": ["a", "b", "c"],
            "lang": ["py", "py", "py"],
            "content": ["1", "3", "2"],
        }
    )
    out = lww_reduce_table(t)
    assert out.num_rows == 1
    assert out.column("content").to_pylist() == ["3"]


def test_empty_input():
    empty = EVENTS.slice(0, 0)
    spec = TableSpec(name="cdc", num_partitions=4)
    std = rd.from_arrow(empty).map_batches(
        make_standardizer(spec), batch_format="pyarrow"
    )
    assert lww_merge(std, spec).count() == 0


def test_snapshot_diff_classification():
    """added / deleted / updated keys emitted with old/new versions;
    unchanged keys dropped inside the bucket merge."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from standardized_omop_data_etl_ray.stages.merge import snapshot_diff

    a = pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([10, 20, 30, 40], pa.int64()),
    })
    b = pa.table({
        "k": pa.array([2, 3, 4, 5], pa.int64()),
        "v": pa.array([20, 31, 40, 50], pa.int64()),
    })
    out = snapshot_diff(
        rd.from_arrow(a).repartition(2), rd.from_arrow(b).repartition(2),
        ["k"], "v", schema_a=a.schema, schema_b=b.schema, num_buckets=4,
    ).to_pandas().set_index("k").sort_index()
    assert out.loc[1, "change"] == "deleted" and pd.isna(out.loc[1, "new_v"])
    assert out.loc[3, "change"] == "updated"
    assert (out.loc[3, ["old_v", "new_v"]] == [30, 31]).all()
    assert out.loc[5, "change"] == "added" and pd.isna(out.loc[5, "old_v"])
    assert set(out.index) == {1, 3, 5}  # 2 and 4 unchanged → dropped


def test_snapshot_diff_carry_cols():
    """carry_cols emits old_/new_ payload columns for changed keys —
    the hook incremental vocabulary maintenance reads content from."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from standardized_omop_data_etl_ray.stages.merge import snapshot_diff

    a = pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "v": pa.array([10, 20, 30], pa.int64()),
        "txt": ["one", "two", "three"],
    })
    b = pa.table({
        "k": pa.array([2, 3, 4], pa.int64()),
        "v": pa.array([20, 31, 40], pa.int64()),
        "txt": ["two", "THREE", "four"],
    })
    out = snapshot_diff(
        rd.from_arrow(a), rd.from_arrow(b), ["k"], "v",
        schema_a=a.schema, schema_b=b.schema, num_buckets=2,
        carry_cols=["txt"],
    ).to_pandas().set_index("k").sort_index()
    assert out.loc[1, "old_txt"] == "one" and pd.isna(out.loc[1, "new_txt"])
    assert (out.loc[3, ["old_txt", "new_txt"]] == ["three", "THREE"]).all()
    assert pd.isna(out.loc[4, "old_txt"]) and out.loc[4, "new_txt"] == "four"


def test_only_merge_module_calls_reduce_kernels():
    """The winner rule lives in ``stages/merge.resolve``: no other
    package module calls the reduce kernels directly, so the apply,
    read, compaction, lookup and change-set paths cannot drift apart."""
    import ast
    from pathlib import Path

    import standardized_omop_data_etl_ray as pkg

    kernels = {"lww_reduce_table", "patch_reduce_table"}
    root = Path(pkg.__file__).parent
    found = []
    for src in sorted(root.rglob("*.py")) + [root.parent / "__ray_entry__.py"]:
        if src == root / "stages" / "merge.py":
            continue
        for node in ast.walk(ast.parse(src.read_text(), filename=str(src))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name in kernels:
                    found.append(f"{src.name}:{node.lineno} {name}")
    assert not found, found
