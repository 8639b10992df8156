"""Partial-column patch events (op='P'): the patch-aware reduce kernel
against a brute-force row-at-a-time oracle, subset-safety of the
unfolded form (block/epoch boundaries must not change the answer), and
the lake integration (apply → merge-on-read → compaction → lookup →
change sets) against an independent DuckDB fold."""

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from standardized_omop_data_etl_ray.stages.merge import (
    drop_tombstones,
    patch_reduce_table,
)

KEYS = ("repo", "path")
PAYLOAD = ["lang", "content"]


def _table(rows) -> pa.Table:
    """rows: (op, lsn, repo, path, lang, content)"""
    return pa.table({
        "op": pa.array([r[0] for r in rows], pa.string()),
        "lsn": pa.array([r[1] for r in rows], pa.int64()),
        "repo": pa.array([r[2] for r in rows], pa.string()),
        "path": pa.array([r[3] for r in rows], pa.string()),
        "lang": pa.array([r[4] for r in rows], pa.string()),
        "content": pa.array([r[5] for r in rows], pa.string()),
    })


def _oracle_fold(rows) -> dict:
    """Row-at-a-time reference semantics: apply in lsn order; I/U
    replace, D kills, P overwrites non-null columns of a LIVE key and
    is a no-op otherwise."""
    state: dict = {}
    for op, lsn, repo, path, lang, content in sorted(rows, key=lambda r: r[1]):
        k = (repo, path)
        if op in ("I", "U"):
            state[k] = {"op": op, "lsn": lsn, "lang": lang,
                        "content": content}
        elif op == "D":
            state[k] = {"op": "D", "lsn": lsn, "lang": None,
                        "content": None}
        elif op == "P":
            cur = state.get(k)
            if cur is None or cur["op"] == "D":
                continue
            cur["lsn"] = lsn
            if lang is not None:
                cur["lang"] = lang
            if content is not None:
                cur["content"] = content
    return {k: v for k, v in state.items() if v["op"] != "D"}


def _folded_to_dict(t: pa.Table) -> dict:
    t = drop_tombstones(t)
    out = {}
    for r in t.to_pylist():
        out[(r["repo"], r["path"])] = {
            "op": r["op"], "lsn": r["lsn"], "lang": r["lang"],
            "content": r["content"],
        }
    return out


def _rand_rows(seed: int, n_keys: int = 12, n_events: int = 120):
    rng = np.random.default_rng(seed)
    rows = []
    for lsn in range(n_events):
        k = int(rng.integers(n_keys))
        op = rng.choice(["I", "U", "D", "P", "P"])  # patch-heavy
        lang = None if rng.random() < 0.5 else f"l{lsn}"
        content = None if rng.random() < 0.5 else f"c{lsn}"
        if op in ("I", "U"):
            lang = lang or f"L{lsn}"
            content = content or f"C{lsn}"
        if op == "D":
            lang = content = None
        rows.append((str(op), lsn, "r", f"k{k}", lang, content))
    return rows


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fold_matches_bruteforce_oracle(seed):
    rows = _rand_rows(seed)
    got = _folded_to_dict(
        patch_reduce_table(_table(rows), KEYS, fold=True)
    )
    assert got == _oracle_fold(rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unfolded_is_subset_safe(seed):
    """Reducing arbitrary row subsets first, then folding the union of
    the partials, must equal one fold over everything — the property
    that makes the per-block combiner and the per-epoch delta files
    sound."""
    rows = _rand_rows(seed, n_keys=6, n_events=60)
    whole = _folded_to_dict(patch_reduce_table(_table(rows), KEYS, fold=True))
    rng = np.random.default_rng(seed + 100)
    for _ in range(4):
        cuts = sorted(rng.choice(len(rows), 3, replace=False))
        parts = np.split(np.array(rows, dtype=object),
                         [int(c) for c in cuts])
        reduced = [
            patch_reduce_table(_table([tuple(r) for r in p]), KEYS)
            for p in parts if len(p)
        ]
        merged = pa.concat_tables(reduced)
        # a second unfolded pass over the union (what the delta writer
        # does over combiner outputs) then the terminal fold
        merged = patch_reduce_table(merged, KEYS)
        got = _folded_to_dict(patch_reduce_table(merged, KEYS, fold=True))
        assert got == whole


def test_patch_cases_explicit():
    rows = [
        ("I", 0, "r", "a", "en", "hello"),
        ("P", 1, "r", "a", None, "patched"),   # content only
        ("P", 2, "r", "a", "de", None),        # lang only
        ("I", 0, "r", "b", "fr", "x"),
        ("D", 1, "r", "b", None, None),
        ("P", 2, "r", "b", "xx", "yy"),        # patch after delete: no-op
        ("P", 0, "r", "c", "zz", None),        # patch, never inserted
        ("I", 0, "r", "d", "ja", "v0"),
        ("P", 1, "r", "d", None, "v1"),
        ("U", 2, "r", "d", "ko", "v2"),        # full row supersedes patch
    ]
    got = _folded_to_dict(patch_reduce_table(_table(rows), KEYS, fold=True))
    assert got == {
        ("r", "a"): {"op": "I", "lsn": 2, "lang": "de",
                     "content": "patched"},
        ("r", "d"): {"op": "U", "lsn": 2, "lang": "ko", "content": "v2"},
    }


def test_duplicate_delivery_idempotent():
    rows = [
        ("I", 0, "r", "a", "en", "hello"),
        ("P", 1, "r", "a", None, "patched"),
    ]
    dup = rows + rows + rows
    got = _folded_to_dict(patch_reduce_table(_table(dup), KEYS, fold=True))
    assert got == _oracle_fold(rows)


def test_fold_wm_retains_above_watermark_orphan_patches():
    rows = [
        ("I", 0, "r", "a", "en", "x"),
        ("P", 5, "r", "q", "zz", None),   # no base anywhere
        ("P", 9, "r", "q", None, "late"),
    ]
    t = _table(rows)
    # reader fold: orphans drop
    assert ("r", "q") not in _folded_to_dict(
        patch_reduce_table(t, KEYS, fold=True)
    )
    # compaction fold with wm=6: the lsn-9 orphan survives AS A PATCH
    # ROW (a base in (6, 9) could still be delivered), lsn-5 drops
    kept = patch_reduce_table(t, KEYS, fold=True, wm=6)
    ops = {(r["repo"], r["path"], r["lsn"]): r["op"]
           for r in kept.to_pylist()}
    assert ops == {("r", "a", 0): "I", ("r", "q", 9): "P"}


# ==========================================================================
# Lake integration
# ==========================================================================

import ray.data as rd

from standardized_omop_data_etl_ray.pipelines.cdc import (
    CDCLake,
    epoch_change_set,
)
from standardized_omop_data_etl_ray.spec import TableSpec


def _events_table(rows) -> pa.Table:
    return pa.table({
        "op": pa.array([r[0] for r in rows], pa.string()),
        "lsn": pa.array([r[1] for r in rows], pa.int64()),
        "repo": pa.array([r[2] for r in rows], pa.string()),
        "path": pa.array([r[3] for r in rows], pa.string()),
        "commit": pa.array([f"c{r[1]}" for r in rows], pa.string()),
        "lang": pa.array([r[4] for r in rows], pa.string()),
        "content": pa.array([r[5] for r in rows], pa.string()),
    })


def _spec(p=4, **kw):
    return TableSpec(name="patched", num_partitions=p, patch_ops=True, **kw)


def _state_dict(lake) -> dict:
    df = lake.read_state(drop_engine_cols=True).to_pandas()
    out = {}
    for _, r in df.iterrows():
        out[(r["repo"], r["path"])] = {
            "op": r["op"], "lsn": int(r["lsn"]),
            "lang": None if pd.isna(r["lang"]) else r["lang"],
            "content": None if pd.isna(r["content"]) else r["content"],
        }
    return out


def test_lake_patch_replay_matches_oracle(tmp_path):
    rows = _rand_rows(7, n_keys=40, n_events=300)
    epochs = [rows[:100], rows[100:200], rows[200:]]
    lake = CDCLake(str(tmp_path / "lk"), _spec())
    for ev in epochs:
        lake.apply_events(rd.from_arrow(_events_table(ev)))
    want = _oracle_fold(rows)
    assert _state_dict(lake) == want

    # redelivery of the full log is a watermark no-op
    lake.apply_events(rd.from_arrow(_events_table(rows)))
    assert _state_dict(lake) == want

    # time travel to the end of epoch 1 equals the prefix oracle
    at1 = {
        (r["repo"], r["path"]): r["lsn"] for r in
        lake.read_state(drop_engine_cols=True, at_epoch=1)
        .select_columns(["repo", "path", "lsn"]).to_pandas()
        .to_dict("records")
    }
    want1 = {k: v["lsn"] for k, v in _oracle_fold(rows[:100]).items()}
    assert at1 == want1

    # compaction folds patches into base rows; state unchanged
    rec = lake.compact()
    assert rec["partitions_touched"] > 0
    assert _state_dict(lake) == want
    # post-compaction the files ARE clean bases (no orphan patches in
    # this workload: every patch's key has a full row somewhere)
    m = __import__(
        "standardized_omop_data_etl_ray.state.manifest",
        fromlist=["read_manifest"],
    ).read_manifest(lake.root, lake.spec.name)
    assert all(i["base"] for i in m["partitions"].values() if i["files"])

    # point lookup agrees with the folded state
    some = list(want)[:5]
    got = lake.lookup([{"repo": r, "path": p} for r, p in some])
    for rr in got.to_pylist():
        k = (rr["repo"], rr["path"])
        assert rr["content"] == want[k]["content"]
        assert rr["lang"] == want[k]["lang"]
    assert got.num_rows == len([k for k in some if k in want])


def test_lake_patch_change_sets(tmp_path):
    rows = _rand_rows(11, n_keys=25, n_events=200)
    epochs = [rows[:70], rows[70:140], rows[140:]]
    lake = CDCLake(str(tmp_path / "lk"), _spec())
    prev: dict = {}
    seen_rows = []
    for ev in epochs:
        rec = lake.apply_events(rd.from_arrow(_events_table(ev)))
        seen_rows += ev
        cur = _oracle_fold(seen_rows)
        cs = epoch_change_set(
            lake, rec["epoch"], carry_cols=["lang", "content"]
        ).to_pandas()
        got = {}
        for _, r in cs.iterrows():
            got[(r["repo"], r["path"])] = (
                r["change"],
                None if pd.isna(r["new_content"]) else r["new_content"],
            )
        want = {}
        for k in set(prev) | set(cur):
            if k in cur and k not in prev:
                want[k] = ("added", cur[k]["content"])
            elif k in prev and k not in cur:
                want[k] = ("deleted", None)
            elif cur[k] != prev[k]:
                want[k] = ("updated", cur[k]["content"])
        # the engine may emit no-op 'updated' rows for keys re-asserted
        # with identical payloads (duplicate-free here by construction:
        # lsn strictly increases) — exact match expected
        assert got == want
        prev = cur


def test_patch_guards(tmp_path):
    from standardized_omop_data_etl_ray.stages.standardize import (
        make_curation_gate,
    )

    spec = _spec()
    with pytest.raises(ValueError, match="gate"):
        CDCLake(str(tmp_path / "g"), spec,
                gate=make_curation_gate(spec, lambda t: pa.array(
                    [True] * t.num_rows)))


def test_lww_merge_folds_patch_spec(tmp_path):
    """``lww_merge`` on a patch spec folds the P row onto its base, the
    same as the lake's merge-on-read: lang stays 'py', content is 'b'."""
    from standardized_omop_data_etl_ray.stages.merge import lww_merge
    from standardized_omop_data_etl_ray.stages.standardize import (
        make_standardizer,
    )

    spec = _spec(p=2)
    ev = _events_table([
        ("I", 1, "r", "p", "py", "a"),
        ("P", 2, "r", "p", None, "b"),
    ])
    merged = lww_merge(
        rd.from_arrow(ev).map_batches(make_standardizer(spec),
                                      batch_format="pyarrow"),
        spec,
    ).take_all()
    assert [(r["lang"], r["content"]) for r in merged] == [("py", "b")]
    lake = CDCLake(str(tmp_path / "lk"), _spec(p=2))
    lake.apply_events(rd.from_arrow(ev))
    assert _state_dict(lake)[("r", "p")]["lang"] == "py"
    assert _state_dict(lake)[("r", "p")]["content"] == "b"


def test_patch_lake_key_only_projection(tmp_path):
    """A keys-only read of a patch lake folds with no payload column."""
    lake = CDCLake(str(tmp_path / "lk"), _spec(p=2))
    lake.apply_events(rd.from_arrow(_events_table([
        ("I", 1, "r", "a", "py", "a0"),
        ("P", 2, "r", "a", None, "a1"),
        ("I", 3, "r", "b", "go", "b0"),
        ("D", 4, "r", "b", None, None),
        ("P", 5, "r", "c", None, "c0"),  # base-less: a no-op
    ])))
    for cols in (["repo", "path"], []):
        got = lake.read_state(columns=cols).to_pandas()
        assert list(got.columns) == ["repo", "path"]
        assert sorted(got["path"]) == ["a"]


def test_patch_op_dlq_validity(tmp_path):
    ev = _events_table([
        ("I", 0, "r", "a", "en", "x"),
        ("P", 1, "r", "a", None, "patched"),
    ])
    # patch_ops on: P is a valid op, nothing diverts
    lake = CDCLake(str(tmp_path / "on"), _spec(), dead_letter=True)
    lake.apply_events(rd.from_arrow(ev))
    assert lake.read_dead_letters() is None or \
        lake.read_dead_letters().count() == 0
    assert _state_dict(lake)[("r", "a")]["content"] == "patched"
    # patch_ops off: P is an unknown op and diverts to the DLQ
    off = CDCLake(
        str(tmp_path / "off"),
        TableSpec(name="plain", num_partitions=4),
        dead_letter=True,
    )
    off.apply_events(rd.from_arrow(ev))
    dl = off.read_dead_letters()
    assert dl is not None and dl.count() == 1
    assert _state_dict(off)[("r", "a")]["content"] == "x"


def test_stream_apply_with_patches(tmp_path):
    """apply_stream shares phase 1 with the batch path — patch rows must
    survive the pipelined windows identically."""
    rows = _rand_rows(13, n_keys=30, n_events=240)
    batch = CDCLake(str(tmp_path / "b"), _spec())
    for ev in (rows[:80], rows[80:160], rows[160:]):
        batch.apply_events(rd.from_arrow(_events_table(ev)))
    stream = CDCLake(str(tmp_path / "s"), _spec())
    stream.apply_stream(
        [rd.from_arrow(_events_table(w))
         for w in (rows[:80], rows[80:160], rows[160:])],
        max_inflight=2,
    )
    assert _state_dict(stream) == _oracle_fold(rows)
    assert _state_dict(stream) == _state_dict(batch)


def test_export_changefeed_outbox(tmp_path):
    rows = _rand_rows(17, n_keys=20, n_events=150)
    lake = CDCLake(str(tmp_path / "lk"), _spec())
    out = tmp_path / "feed"
    lake.apply_events(rd.from_arrow(_events_table(rows[:50])))
    rec1 = lake.export_changefeed(str(out), carry_cols=["lang", "content"])
    assert rec1["exported"] and rec1["from_epoch"] == 0

    # two epochs, one export span; cursor advances
    lake.apply_events(rd.from_arrow(_events_table(rows[50:100])))
    lake.apply_events(rd.from_arrow(_events_table(rows[100:])))
    rec2 = lake.export_changefeed(str(out), carry_cols=["lang", "content"])
    assert rec2["exported"] and rec2["from_epoch"] == rec1["to_epoch"]
    # idempotent when current
    assert lake.export_changefeed(str(out))["exported"] is False

    # replaying ALL spans in order onto a dict reproduces the state
    import pyarrow.dataset as pds

    state: dict = {}
    for span in sorted(out.glob("span=*")):
        t = pds.dataset(str(span)).to_table().to_pylist()
        for r in t:
            k = (r["repo"], r["path"])
            if r["change"] == "deleted":
                state.pop(k, None)
            else:
                state[k] = r["new_content"]
    want = {k: v["content"] for k, v in _oracle_fold(rows).items()}
    assert state == want


def test_dml_and_merge_on_patch_lake(tmp_path):
    """merge_into's liveness probe (non-patch rows only) and the DML
    verbs compose with op='P' lakes: patched-but-live keys are
    'matched', dead keys are not, and synthesized full-row updates win
    the column fold."""
    import pyarrow.compute as pc
    import ray.data as rd

    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.spec import TableSpec

    spec = TableSpec(name="t", num_partitions=4, patch_ops=True,
                     schema=pa.schema([
                         ("op", pa.string()), ("lsn", pa.int64()),
                         ("repo", pa.string()), ("path", pa.string()),
                         ("commit", pa.string()), ("lang", pa.string()),
                         ("content", pa.string()),
                     ]))
    lake = CDCLake(str(tmp_path), spec)

    def ev(rows):
        return rd.from_arrow(pa.table({
            "op": pa.array([r[0] for r in rows], pa.string()),
            "lsn": pa.array([r[1] for r in rows], pa.int64()),
            "repo": pa.array(["r"] * len(rows), pa.string()),
            "path": pa.array([r[2] for r in rows], pa.string()),
            "commit": pa.array([f"c{r[1]}" for r in rows], pa.string()),
            "lang": pa.array([r[3] for r in rows], pa.string()),
            "content": pa.array([r[4] for r in rows], pa.string()),
        }))

    lake.apply_events(ev([("I", i, f"k{i}", "en", f"c{i}")
                          for i in range(6)]))
    # patch k0's lang; delete k5; base-less patch on never-live k9
    lake.apply_events(ev([("P", 10, "k0", "de", None),
                          ("D", 11, "k5", None, None),
                          ("P", 12, "k9", "xx", None)]))

    # merge: update-only — patched k0 and plain k1 are matched, dead
    # k5 and never-live k9 are not
    src = rd.from_arrow(pa.table({
        "repo": pa.array(["r"] * 4, pa.string()),
        "path": pa.array(["k0", "k1", "k5", "k9"], pa.string()),
        "commit": pa.array(["m"] * 4, pa.string()),
        "lang": pa.array(["fr"] * 4, pa.string()),
        "content": pa.array(["merged"] * 4, pa.string()),
    }))
    lake.merge_into(src, when_not_matched="ignore")
    st = lake.read_state(drop_engine_cols=True).to_pandas().set_index("path")
    assert st.loc["k0", "lang"] == "fr" and st.loc["k0", "content"] == "merged"
    assert st.loc["k1", "content"] == "merged"
    assert "k5" not in st.index and "k9" not in st.index

    # delete_where over the folded state
    lake.delete_where(lambda t: pc.equal(t.column("lang"), "fr")
                      .to_numpy(zero_copy_only=False))
    st2 = lake.read_state(drop_engine_cols=True).to_pandas()
    assert set(st2["path"]) == {"k2", "k3", "k4"}


def test_patch_lake_projected_predicate_read(tmp_path):
    """read_state(columns=, predicate=) on a PATCH lake: the per-column
    terminal fold is column-independent, so a projected read (which
    strips some payload columns from the parquet scan) must fold the
    remaining columns identically — including keys whose winning value
    arrived via a patch on a column that is NOT projected."""
    import pyarrow.compute as pc

    rows = _rand_rows(11, n_keys=40, n_events=300)
    lake = CDCLake(str(tmp_path / "lk"), _spec())
    for ev in (rows[:100], rows[100:200], rows[200:]):
        lake.apply_events(rd.from_arrow(_events_table(ev)))
    full = lake.read_state(drop_engine_cols=True).to_pandas()
    full = full.sort_values(["repo", "path"], ignore_index=True)

    for _layout in ("deltas", "compacted"):
        proj = (
            lake.read_state(columns=["content"]).to_pandas()
            .sort_values(["repo", "path"], ignore_index=True)
        )
        assert list(proj.columns) == ["repo", "path", "content"]
        pd.testing.assert_frame_equal(
            proj, full[["repo", "path", "content"]])

        # predicate on the UN-projected lang column (closure discovery)
        langs = full["lang"].dropna()
        assert len(langs), "vacuous fixture"
        pick = langs.iloc[0]
        filt = (
            lake.read_state(columns=["content"],
                            predicate=pc.field("lang") == pick)
            .to_pandas().sort_values(["repo", "path"], ignore_index=True)
        )
        pd.testing.assert_frame_equal(
            filt,
            full[full["lang"] == pick]
            .reset_index(drop=True)[["repo", "path", "content"]],
        )
        lake.compact()
