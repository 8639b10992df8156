"""Single-process oracle: apply a CDC event log in true LSN order.

This is the correctness reference for the distributed engine
(SURVEY.md §5): last-writer-wins by lsn per key (repo, path), tombstones
win-then-vanish, duplicate lsns are idempotent.  The engine's final state
must equal this on row count, key set and per-row sha256(content) —
independent of parallelism, partition count and block boundaries.
"""

from __future__ import annotations

import pyarrow as pa

import duckdb


def oracle_apply(events: pa.Table) -> pa.Table:
    """Final state after replaying ``events`` in true LSN order.

    Returns (repo, path, commit, lang, content, content_sha) sorted by
    (repo, path).  Duplicate deliveries of the same lsn carry identical
    payloads, so keeping any one of them is correct.
    """
    con = duckdb.connect()
    out = con.execute(
        """
        SELECT repo, path, commit, lang, content,
               sha256(content) AS content_sha
        FROM (
            SELECT *, ROW_NUMBER() OVER (
                PARTITION BY repo, path
                ORDER BY lsn DESC, commit DESC
            ) AS rn
            FROM events
        )
        WHERE rn = 1 AND op <> 'D'
        ORDER BY repo, path
        """
    ).fetch_arrow_table()
    con.close()
    return out


def canonical_state(state: pa.Table) -> pa.Table:
    """Project engine output to the oracle's comparable shape + order."""
    cols = ["repo", "path", "commit", "lang", "content", "content_sha"]
    t = state.select(cols)
    return t.sort_by([("repo", "ascending"), ("path", "ascending")])


def assert_states_equal(engine_state: pa.Table, oracle_state: pa.Table) -> None:
    """Row-count + key-set + per-row content-sha equality (the gate)."""
    e, o = canonical_state(engine_state), oracle_state
    assert e.num_rows == o.num_rows, f"row count {e.num_rows} != {o.num_rows}"
    for col in ("repo", "path"):
        assert e.column(col).equals(o.column(col)), f"key mismatch in {col}"
    es = e.column("content_sha").to_pylist()
    os_ = o.column("content_sha").to_pylist()
    bad = [i for i, (a, b) in enumerate(zip(es, os_)) if a != b]
    assert not bad, (
        f"content sha mismatch on {len(bad)} rows, first at index {bad[0]}: "
        f"{e.column('repo')[bad[0]]}/{e.column('path')[bad[0]]}"
    )
    for col in ("commit", "lang"):
        assert e.column(col).equals(o.column(col)), f"value mismatch in {col}"
