"""Property-based testing: for ANY generated event log (hypothesis picks
sizes, rates, seeds, window widths), the distributed merge equals the
single-process oracle and is invariant to partitioning choices."""

import pyarrow as pa
import ray
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from standardized_omop_data_etl_ray.datagen import make_change_events
from standardized_omop_data_etl_ray.oracle import assert_states_equal, oracle_apply
from standardized_omop_data_etl_ray.spec import TableSpec
from standardized_omop_data_etl_ray.stages.merge import lww_merge
from standardized_omop_data_etl_ray.stages.standardize import make_standardizer


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    n_keys=st.integers(5, 120),
    n_events=st.integers(20, 800),
    delete_rate=st.floats(0.0, 0.4),
    dup_rate=st.floats(0.0, 0.2),
    window=st.integers(10, 400),
    num_partitions=st.integers(1, 13),
)
def test_merge_equals_oracle_for_any_log(
    seed, n_keys, n_events, delete_rate, dup_rate, window, num_partitions
):
    events = make_change_events(
        n_keys=n_keys, n_events=n_events, seed=seed,
        delete_rate=delete_rate, dup_rate=dup_rate, window=window,
        content_len_median=60,
    )
    spec = TableSpec(name="cdc", num_partitions=num_partitions)
    std = rd.from_arrow(events).map_batches(
        make_standardizer(spec), batch_format="pyarrow"
    )
    merged = lww_merge(std, spec)
    tabs = [t for t in ray.get(merged.to_arrow_refs()) if t.num_rows]
    engine = pa.concat_tables(tabs) if tabs else events.slice(0, 0)
    oracle = oracle_apply(events)
    if oracle.num_rows == 0:
        assert sum(t.num_rows for t in tabs) == 0
        return
    assert_states_equal(engine, oracle)


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    n_keys=st.integers(5, 80),
    n_events=st.integers(40, 600),
    delete_rate=st.floats(0.0, 0.4),
    num_partitions=st.integers(1, 9),
    auto_k=st.sampled_from([None, 1, 2]),
)
def test_epoch_change_set_equals_snapshot_diff_any_log(
    tmp_path_factory, seed, n_keys, n_events, delete_rate,
    num_partitions, auto_k,
):
    """For ANY event log, epoch sizing, partitioning and auto-compaction
    threshold: the delta-sourced epoch_change_set equals the full-state
    snapshot_diff between consecutive states, at every epoch."""
    import pandas as pd

    from standardized_omop_data_etl_ray.datagen import micro_batches
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        epoch_change_set,
    )
    from standardized_omop_data_etl_ray.stages.merge import snapshot_diff

    events = make_change_events(
        n_keys=n_keys, n_events=n_events, seed=seed,
        delete_rate=delete_rate, window=100, content_len_median=30,
    )
    lake = CDCLake(
        tmp_path_factory.mktemp("ecs"),
        TableSpec(name="cdc", num_partitions=num_partitions),
        auto_compact_files=auto_k,
    )
    prev = None

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["repo", "path", "change", "old_content", "new_content"]
        return (
            df[cols].fillna("~").sort_values(cols).reset_index(drop=True)
        )

    for batch in micro_batches(events, batch_windows=2, window=100):
        rec = lake.apply_events(rd.from_arrow(batch))
        state = lake.read_state(drop_engine_cols=True).materialize()
        got = epoch_change_set(
            lake, rec["epoch"], carry_cols=["content"]
        ).to_pandas()
        if prev is None:
            # first epoch: everything is an add of the current state
            assert set(got["change"]) <= {"added"}
            assert len(got) == state.count()
        else:
            want = snapshot_diff(
                prev, state, ["repo", "path"], "lsn",
                carry_cols=["content"],
            ).to_pandas()
            pd.testing.assert_frame_equal(norm(got), norm(want))
        prev = state


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    n_keys=st.integers(5, 60),
    n_events=st.integers(60, 500),
    delete_rate=st.floats(0.05, 0.45),
    num_partitions=st.integers(1, 7),
    from_idx=st.integers(0, 2),
)
def test_changes_between_equals_endpoint_diff_any_log(
    tmp_path_factory, seed, n_keys, n_events, delete_rate,
    num_partitions, from_idx,
):
    """For ANY log and any resume point: the composed net change set
    (changes_between) equals snapshot_diff of the two endpoint
    time-travel snapshots — add→delete nets out, delete→re-add becomes
    an update, changed-and-reverted drops."""
    import pandas as pd

    from standardized_omop_data_etl_ray.datagen import micro_batches
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.stages.merge import snapshot_diff

    events = make_change_events(
        n_keys=n_keys, n_events=n_events, seed=seed,
        delete_rate=delete_rate, window=80, content_len_median=30,
    )
    lake = CDCLake(
        tmp_path_factory.mktemp("cb"),
        TableSpec(name="cdc", num_partitions=num_partitions),
        auto_compact_files=None,
    )
    epochs = []
    for batch in micro_batches(events, batch_windows=2, window=80):
        epochs.append(lake.apply_events(rd.from_arrow(batch))["epoch"])
    if len(epochs) < 2:
        return
    start = epochs[min(from_idx, len(epochs) - 2)]

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["repo", "path", "change", "old_content", "new_content"]
        return (
            df[cols].fillna("~").sort_values(cols).reset_index(drop=True)
        )

    got = lake.changes_between(start, carry_cols=["content"]).to_pandas()
    want = snapshot_diff(
        lake.read_state(drop_engine_cols=True, at_epoch=start),
        lake.read_state(drop_engine_cols=True),
        ["repo", "path"], "lsn", carry_cols=["content"],
    ).to_pandas()
    pd.testing.assert_frame_equal(norm(got), norm(want))
