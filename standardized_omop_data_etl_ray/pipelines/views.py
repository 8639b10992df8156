"""Durable materialized views over CDC lakes.

The incremental-view machinery (``stages/incremental.py``) maintains a
view as an in-memory Dataset; this module gives a view a LIFECYCLE:
its rows (and, for left joins, the match-count side state) persist as
copy-on-write parquet under a view root with an atomically-committed
manifest, and ``refresh()`` advances it to the source lakes' current
epoch by folding the NET change set of the whole gap
(``CDCLake.changes_between`` — one fold per refresh no matter how many
epochs behind, because the signed algebra only needs *a* split
A_new = A_old + dA, not per-epoch splits).

Crash safety: data files are written first, then the view manifest is
replaced; every one of those writes goes through the lake's
``manifest.durable_write`` (temp + fsync + rename + directory fsync),
so a committed manifest never names a file a power loss can take
back.  A crash between the two leaves the old view readable and the next
``refresh()`` simply re-folds the gap (idempotent: the fold is a pure
function of the committed view + the lakes' committed change sets).
A fresh process re-opens the view from its manifest; epochs already
folded are recorded there and never re-applied.

Reference parity: the reference recomputes every report per run
(pipeline_process_subtables_to_final.py end-stage aggregates); this is
the durable incremental replacement.
"""

from __future__ import annotations

import json
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..pipelines.cdc import CDCLake, _arrow_blocks
from ..stages.incremental import (
    IncAggSpec,
    IncJoinSpec,
    apply_change_set,
    apply_join_change_sets,
    apply_left_join_change_sets,
    build_agg_view,
    build_join_view,
    build_left_join_view,
    build_on_counts,
)
from ..state import manifest as mf


def _write_rows(root: Path, name: str, gen: int, ds: rd.Dataset) -> list[str]:
    """Write a Dataset's rows as one generation of COW parquet files."""
    d = root / f"{name}-g{gen:06d}"
    files = []
    for i, t in enumerate(_arrow_blocks(ds)):
        f = d / f"rows-{i:05d}.parquet"
        mf.durable_write(f, lambda tmp: pq.write_table(t, tmp))
        files.append(str(f.relative_to(root)))
    return files


def _read_rows(root: Path, files: list[str], schema: pa.Schema) -> rd.Dataset:
    if not files:
        return rd.from_arrow(schema.empty_table())
    return rd.read_parquet([str(root / f) for f in files], schema=schema)


class _ViewBase:
    """Shared manifest/IO plumbing: subclasses define how to build from
    scratch and how to fold a net change set."""

    kind = "view"

    def __init__(self, root: str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- manifest -----------------------------------------------------------
    def _manifest(self) -> dict | None:
        p = self.root / "_VIEW_MANIFEST.json"
        if not p.exists():
            return None
        return json.loads(p.read_text())

    def _commit(self, m: dict) -> None:
        text = json.dumps(m, indent=1)
        mf.durable_write(self.root / "_VIEW_MANIFEST.json",
                         lambda tmp: tmp.write_text(text))

    def gc(self) -> list[str]:
        """Drop data files no committed manifest references (orphans
        from crashed refreshes and superseded generations) and stale
        write temps (``mf.sweep_temps``)."""
        m = self._manifest()
        live = set()
        if m:
            for fl in m.get("files", {}).values():
                # agg/join views store LISTS of files per slot; the
                # bucketed views store one path STRING per bucket
                live.update([fl] if isinstance(fl, str) else fl)
        gone = [str(Path(t).relative_to(self.root))
                for t in mf.sweep_temps(self.root)]
        for f in self.root.rglob("*.parquet"):
            rel = str(f.relative_to(self.root))
            if rel not in live:
                f.unlink()
                gone.append(rel)
        return gone


class MaterializedAggView(_ViewBase):
    """Durable GROUP-BY view (COUNT/SUM/AVG/MIN/MAX) over one lake.

    ``prep_cs(df)`` / ``prep_state(ds)`` derive the spec's source
    columns when they are computed (e.g. ``chars`` from ``content``) —
    plain functions re-supplied at construction, never serialized.
    """

    kind = "agg"

    def __init__(self, root: str, spec: IncAggSpec, lake: CDCLake,
                 prep_cs=None, prep_state=None,
                 num_buckets: int | None = None):
        super().__init__(root)
        self.spec = spec
        self.lake = lake
        self.prep_cs = prep_cs
        self.prep_state = prep_state
        self.num_buckets = num_buckets

    def _carry_cols(self) -> list[str]:
        # carry what the prep needs: default = the spec's source columns
        return self.spec.src_cols() + list(self.spec.group_cols)

    def _state(self) -> rd.Dataset:
        st = self.lake.read_state(drop_engine_cols=True)
        return self.prep_state(st) if self.prep_state else st

    def refresh(self, carry_cols: list[str] | None = None) -> dict:
        m = self._manifest()
        lake_m = mf.read_manifest(self.lake.root, self.lake.spec.name)
        cur = lake_m["epoch"] if lake_m else 0
        last = m["epochs"]["source"] if m else None
        if m and last == cur:
            return {"from_epoch": last, "to_epoch": cur, "changed": False}
        if m is None:
            view = build_agg_view(self._state(), self.spec,
                                  num_buckets=self.num_buckets)
            frm = 0
        else:
            schema = mf.schema_from_b64(m["schema"])
            view = _read_rows(self.root, m["files"]["view"], schema)
            cs = self.lake.changes_between(
                last, cur, carry_cols=carry_cols or self._carry_cols()
            )
            if self.prep_cs:
                cs = cs.map_batches(self.prep_cs, batch_format="pandas")
            view = apply_change_set(
                view, cs, self.spec,
                state=self._state()
                if (self.spec.mins or self.spec.maxs) else None,
                num_buckets=self.num_buckets,
            )
            frm = last
        view = view.materialize()
        gen = (m["gen"] + 1) if m else 1
        files = _write_rows(self.root, "view", gen, view)
        schema_b64 = mf.schema_to_b64(_ds_schema(view))
        self._commit({
            "kind": self.kind, "gen": gen,
            "epochs": {"source": cur},
            "schema": schema_b64,
            "files": {"view": files},
        })
        return {"from_epoch": frm, "to_epoch": cur, "changed": True}

    def read(self) -> rd.Dataset:
        """The INTERNAL view layout; project with
        ``stages.incremental.view_result`` for the user-facing frame."""
        m = self._manifest()
        if m is None:
            raise ValueError("view never refreshed")
        return _read_rows(self.root, m["files"]["view"],
                          mf.schema_from_b64(m["schema"]))


def _ds_schema(ds: rd.Dataset) -> pa.Schema:
    from ..stages.incremental import _arrow_types

    return pa.schema(
        [pa.field(n, t) for n, t in _arrow_types(ds).items()]
    )


class MaterializedHistoryView(_ViewBase):
    """Durable SCD Type 2 history of one lake, at COMMIT granularity,
    stored as KEY-HASH BUCKETS with bucket-level COW: history only
    grows, so a full-view rewrite per refresh would cost O(history);
    instead each refresh rewrites only the buckets holding touched
    keys (change-set-sized + those buckets' rows) and untouched bucket
    files carry forward by path.

    Each refresh folds the per-epoch DELTA-SOURCED change sets
    (``pipelines/cdc.epoch_change_set``) for every apply epoch in the
    gap — per-epoch, NOT net-collapsed: ``changes_between`` would erase
    the interior versions a history table exists to keep, so a history
    refresh is the one view kind whose cost is per-epoch by semantics.
    Granularity caveat: the lake's delta files hold each epoch's LWW
    WINNER per key, so versions that never won an epoch (superseded
    within one micro-batch) do not exist anywhere and cannot appear
    here — this is history of the COMMITTED states, the same contract a
    lakehouse table's commit log gives.

    Requires the manifest snapshots for the gap epochs to still be
    retained (``gc(retain_manifests=K)``); an expired gap raises
    loudly via ``epoch_change_set`` rather than silently skipping
    versions."""

    kind = "history"

    def __init__(self, root: str, lake: CDCLake,
                 payload_cols: list[str] | None = None,
                 num_buckets: int | None = None):
        super().__init__(root)
        self.lake = lake
        if payload_cols is None:
            payload_cols = lake.spec.payload_cols
        self.payload_cols = payload_cols
        self.num_buckets = num_buckets

    def refresh(self) -> dict:
        """Fold the gap's per-epoch change sets into the bucketed
        history: ONE bucketed exchange of the change-set stream, each
        touched bucket folded AND rewritten inside its own task
        (read old bucket → close open versions of its touched keys →
        append chained new versions → write the new generation);
        untouched buckets carry forward by path.  Per-refresh cost is
        change-set-sized plus the touched buckets' rows — never the
        whole (ever-growing) history."""
        import pandas as pd

        from ..stages.history import fold_history_frame, history_view_schema
        from .cdc import epoch_change_set

        m = self._manifest()
        lake_m = mf.read_manifest(self.lake.root, self.lake.spec.name)
        cur = lake_m["epoch"] if lake_m else 0
        last = m["epochs"]["source"] if m else 0
        if m and last == cur:
            return {"from_epoch": last, "to_epoch": cur, "changed": False,
                    "buckets_rewritten": 0}
        keys = list(self.lake.spec.key_cols)
        payload = list(self.payload_cols)
        lsn_col = self.lake.spec.lsn_col
        vschema = history_view_schema(
            self.lake._state_schema(), keys, payload, lsn_col,
        )
        # same cursor contract as changes_between: a `last` the lineage
        # never saw means a restore() rolled it back — folding an
        # empty span would leave this view serving rolled-back versions
        known = {r["epoch"]
                 for r in (lake_m or {}).get("lineage", [])} | {0}
        if last not in known:
            raise ValueError(
                f"view cursor epoch {last} was rolled back by "
                f"restore(); rebuild the history view from scratch"
            )
        apply_epochs = sorted(
            r["epoch"] for r in (lake_m or {}).get("lineage", [])
            if not r.get("compaction") and last < r["epoch"] <= cur
        )
        gen = (m["gen"] + 1) if m else 1
        files = dict(m["files"]) if m else {}
        rewritten = 0
        if apply_epochs:
            diffs = [
                epoch_change_set(
                    self.lake, e, carry_cols=payload
                ).materialize()
                for e in apply_epochs
            ]
            cs = diffs[0]
            for d in diffs[1:]:
                cs = cs.union(d)
            # bucket count is pinned at first commit: old buckets must
            # align with new hashes on every later refresh
            nb = (m or {}).get("num_buckets") or self.num_buckets or 16
            root = str(self.root)
            prev = dict(files)

            def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
                import numpy as np

                h = pd.util.hash_pandas_object(
                    df[keys], index=False).to_numpy()
                df = df.copy()
                df["__b"] = (h % np.uint64(nb)).astype("int32")
                return df

            def fold_bucket(g: pd.DataFrame) -> pa.Table:
                b = int(g["__b"].iloc[0])
                g = g.drop(columns="__b")
                old_rel = prev.get(str(b))
                old = (pq.read_table(str(Path(root) / old_rel)).to_pandas()
                       if old_rel else
                       vschema.empty_table().to_pandas())
                folded = fold_history_frame(
                    old, g, keys, payload, vschema, lsn_col)
                rel = _write_bucket_file(root, b, gen, folded, "rows")
                return pa.table({
                    "b": pa.array([b], pa.int32()),
                    "path": pa.array([rel], pa.string()),
                })

            stats = (
                cs.map_batches(add_bucket, batch_format="pandas")
                .groupby("__b")
                .map_groups(fold_bucket, batch_format="pandas")
                .to_pandas()
            )
            for r in stats.itertuples():
                files[str(int(r.b))] = r.path
            rewritten = len(stats)

        self._commit({
            "kind": self.kind, "gen": gen,
            "num_buckets": (m or {}).get("num_buckets")
            or self.num_buckets or 16,
            "epochs": {"source": cur},
            "schema": mf.schema_to_b64(vschema),
            "files": files,
        })
        return {"from_epoch": last, "to_epoch": cur, "changed": True,
                "buckets_rewritten": rewritten}

    def prune(self, before_valid_to: int | None = None,
              keys: "pa.Table | None" = None) -> dict:
        """History retention / GDPR erasure.  ``delete_where`` on the
        LAKE erases a key's live row, but this view still holds its
        old payloads — erasure must reach history too.

        ``keys`` (a table of key columns): remove EVERY version of
        those keys — only their buckets rewrite.  ``before_valid_to``:
        remove CLOSED versions with ``valid_to <= cutoff`` (retention
        window; open versions always survive) — a full bucket sweep,
        since any bucket may hold old rows.  Both are generation
        rewrites under the same manifest commit; gc() reclaims the
        superseded files."""
        import numpy as np
        import pandas as pd
        import pyarrow.compute as pc
        import ray

        m = self._manifest()
        if m is None:
            raise ValueError("view never refreshed")
        kc = list(self.lake.spec.key_cols)
        nb = m.get("num_buckets") or self.num_buckets or 16
        root = str(self.root)
        schema = mf.schema_from_b64(m["schema"])
        gen = m["gen"] + 1
        files = dict(m["files"])
        if keys is not None and before_valid_to is not None:
            raise ValueError(
                "pass exactly ONE of keys / before_valid_to: combining "
                "them would apply the retention cutoff only to the "
                "keys' buckets (silent under-delete) — call prune() "
                "twice instead"
            )
        if keys is not None:
            kdf = (keys.to_pandas() if isinstance(keys, pa.Table)
                   else pd.DataFrame(keys))[kc]
            h = pd.util.hash_pandas_object(kdf, index=False).to_numpy()
            kdf = kdf.assign(__b=(h % np.uint64(nb)).astype("int32"))
            targets = {
                int(b): pa.Table.from_pandas(
                    g.drop(columns="__b"), preserve_index=False)
                for b, g in kdf.groupby("__b")
                if str(int(b)) in files
            }
        else:
            if before_valid_to is None:
                raise ValueError("pass keys and/or before_valid_to")
            targets = {int(b): None for b in files}

        @ray.remote
        def rewrite(b: int, rel: str, erase: pa.Table | None) -> tuple:
            t = pq.read_table(str(Path(root) / rel))
            if erase is not None:
                marked = erase.append_column(
                    "__x", pa.array(np.ones(erase.num_rows, dtype=bool)))
                j = t.join(marked, keys=kc, join_type="left outer")
                t = j.filter(pc.is_null(j.column("__x"))).drop_columns(
                    ["__x"]).select(t.column_names)
            if before_valid_to is not None:
                # fill_null, NOT pc.and_(is_valid, ...): and_ is the
                # non-Kleene kernel (False AND null = null) and a null
                # filter mask DROPS the row — open versions (null
                # valid_to) must survive the retention sweep
                drop = pc.fill_null(
                    pc.less_equal(t.column("valid_to"), before_valid_to),
                    False,
                )
                t = t.filter(pc.invert(drop))
            return (b, _write_bucket_file(root, b, gen, t.cast(schema),
                                          "rows"), t.num_rows)

        out = ray.get([
            rewrite.remote(b, files[str(b)], erase)
            for b, erase in targets.items()
        ])
        for b, rel, _ in out:
            files[str(b)] = rel
        self._commit({**m, "gen": gen, "files": files})
        return {"buckets_rewritten": len(out),
                "rows_remaining": int(sum(n for _, _, n in out))}

    def read(self) -> rd.Dataset:
        m = self._manifest()
        if m is None:
            raise ValueError("view never refreshed")
        schema = mf.schema_from_b64(m["schema"])
        files = [str(self.root / f) for f in m["files"].values()]
        if not files:
            return rd.from_arrow(schema.empty_table())
        return rd.read_parquet(files, schema=schema)


class MaterializedIndexView(_ViewBase):
    """Durable SECONDARY INDEX on one payload column: the posting set
    ``(value, *key_cols)`` of the live state, hash-partitioned by VALUE
    into ``num_buckets`` parquet buckets with bucket-level COW — a
    refresh rewrites ONLY buckets holding a touched value (the net
    change set names them; value-unchanged updates touch nothing), and
    ``lookup(value)`` reads exactly one bucket file.  The value-side
    analog of the lake's own key ``lookup()`` — ``WHERE col = v``
    without a state scan.

    Unlike the history view, postings only need the NET old→new value
    per key, so the whole epoch gap folds from ONE
    ``changes_between`` call.

    Contract: ``index_col`` must be NON-NULL on live rows (the bucket
    hash fails loudly on nulls — the same contract as the lake's key
    columns)."""

    kind = "index"

    def __init__(self, root: str, lake: CDCLake, index_col: str,
                 num_buckets: int = 16):
        super().__init__(root)
        self.lake = lake
        self.index_col = index_col
        self.num_buckets = num_buckets

    def _nb(self, m: dict | None = None) -> int:
        """Effective bucket count: PINNED by the committed manifest —
        old buckets must align with new hashes on reopen regardless of
        the constructor argument (review finding, round 4d)."""
        if m is None:
            m = self._manifest()
        return (m or {}).get("num_buckets") or self.num_buckets

    def _bucket_of(self, values: pa.Array, nb: int | None = None) -> "pa.Array":
        from ..functions.hashing import key_hash_u64, partition_of

        return partition_of(key_hash_u64(values), nb or self._nb())

    def _schema(self) -> pa.Schema:
        ls = self.lake._state_schema()
        return pa.schema(
            [ls.field(self.index_col)]
            + [ls.field(k) for k in self.lake.spec.key_cols]
        )

    def refresh(self) -> dict:
        import ray
        import pyarrow.compute as pc

        m = self._manifest()
        lake_m = mf.read_manifest(self.lake.root, self.lake.spec.name)
        cur = lake_m["epoch"] if lake_m else 0
        last = m["epochs"]["source"] if m else 0
        if m and last == cur:
            return {"from_epoch": last, "to_epoch": cur, "changed": False,
                    "buckets_rewritten": 0}
        col, keys = self.index_col, list(self.lake.spec.key_cols)
        schema = self._schema()
        root = str(self.root)
        gen = (m["gen"] + 1) if m else 1
        nb = self._nb(m)

        def bucket_of(values: pa.Array) -> pa.Array:
            # free closure (not the bound method) so Ray tasks don't
            # pickle the view + lake objects
            from ..functions.hashing import key_hash_u64, partition_of

            return partition_of(key_hash_u64(values), nb)

        if m is None:
            # initial build: bucket the (value, key) projection in one
            # exchange and write each bucket IN ITS TASK — the driver
            # sees only (bucket, path) rows, never the postings
            postings = self.lake.read_state(
                drop_engine_cols=True
            ).select_columns([col] + keys)

            def split(t: pa.Table) -> pa.Table:
                return t.append_column("__b", bucket_of(t.column(col)))

            def write_group(g: pa.Table) -> pa.Table:
                b = g.column("__b")[0].as_py()
                rel = _write_bucket_file(
                    root, b, gen, g.drop_columns(["__b"]).cast(schema))
                return pa.table({"b": pa.array([b], pa.int32()),
                                 "path": pa.array([rel], pa.string())})

            stats = (
                postings.map_batches(split, batch_format="pyarrow")
                .groupby("__b")
                .map_groups(write_group, batch_format="pyarrow")
                .to_pandas()
            )
            files = {str(int(r.b)): r.path for r in stats.itertuples()}
            rewritten = len(files)
        else:
            # incremental: ONE net change set names the touched
            # buckets; untouched bucket files carry forward unread
            tabs = list(_arrow_blocks(
                self.lake.changes_between(last, cur, carry_cols=[col])))
            files = dict(m["files"])
            if not tabs:
                self._commit({**m, "gen": gen, "epochs": {"source": cur}})
                return {"from_epoch": last, "to_epoch": cur,
                        "changed": True, "buckets_rewritten": 0}
            cst = pa.concat_tables(tabs, promote_options="permissive")
            # value-unchanged updates touch no posting — drop them
            # before bucketing so their buckets never rewrite
            same = pc.and_(
                pc.equal(cst.column("change"), "updated"),
                pc.fill_null(
                    pc.equal(cst.column("old_" + col),
                             cst.column("new_" + col)), False),
            )
            cst = cst.filter(pc.invert(same))
            olds = cst.filter(pc.is_in(
                cst.column("change"),
                value_set=pa.array(["deleted", "updated"])))
            news = cst.filter(pc.is_in(
                cst.column("change"),
                value_set=pa.array(["added", "updated"])))
            drops = pa.table(
                {col: olds.column("old_" + col),
                 **{k: olds.column(k) for k in keys}}).cast(schema)
            adds = pa.table(
                {col: news.column("new_" + col),
                 **{k: news.column(k) for k in keys}}).cast(schema)
            db, ab = bucket_of(drops.column(col)), bucket_of(adds.column(col))
            touched = sorted(set(db.to_pylist()) | set(ab.to_pylist()))

            @ray.remote
            def rewrite(b: int, prev_rel: str | None,
                        add_t: pa.Table, drop_t: pa.Table) -> tuple:
                old = (pq.read_table(str(Path(root) / prev_rel))
                       if prev_rel else schema.empty_table())
                newt = _apply_postings(old, add_t, drop_t, col, keys)
                return b, _write_bucket_file(root, b, gen, newt)

            out = ray.get([
                rewrite.remote(
                    b, files.get(str(b)),
                    adds.filter(pc.equal(ab, b)),
                    drops.filter(pc.equal(db, b)),
                ) for b in touched
            ])
            for b, rel in out:
                files[str(b)] = rel
            rewritten = len(touched)

        self._commit({
            "kind": self.kind, "gen": gen, "col": col,
            "num_buckets": nb,
            "epochs": {"source": cur},
            "schema": mf.schema_to_b64(schema),
            "files": files,
        })
        return {"from_epoch": last, "to_epoch": cur, "changed": True,
                "buckets_rewritten": rewritten}

    def lookup(self, value) -> dict:
        """All live keys whose ``index_col`` equals ``value`` — reads
        exactly ONE bucket file.  Returns {rows, files_read}."""
        import pyarrow.compute as pc

        m = self._manifest()
        if m is None:
            raise ValueError("index never refreshed")
        b = self._bucket_of(pa.array([value]))[0].as_py()
        rel = m["files"].get(str(b))
        if rel is None:
            return {"rows": mf.schema_from_b64(m["schema"]).empty_table(),
                    "files_read": 0}
        t = pq.read_table(str(self.root / rel))
        return {
            "rows": t.filter(pc.equal(t.column(self.index_col), value)),
            "files_read": 1,
        }

    def read(self) -> rd.Dataset:
        m = self._manifest()
        if m is None:
            raise ValueError("index never refreshed")
        schema = mf.schema_from_b64(m["schema"])
        files = [str(self.root / f) for f in m["files"].values()]
        if not files:
            return rd.from_arrow(schema.empty_table())
        return rd.read_parquet(files, schema=schema)


def _write_bucket_file(root: str, b: int, gen: int, t: pa.Table,
                       stem: str = "postings") -> str:
    """Durably write one generation of bucket ``b`` (``<stem>.parquet``
    under ``bucket-<b>-g<gen>/``); returns its root-relative path."""
    f = Path(root) / f"bucket-{b:05d}-g{gen:06d}" / f"{stem}.parquet"
    mf.durable_write(f, lambda tmp: pq.write_table(t, tmp))
    return str(f.relative_to(root))


def _apply_postings(old: pa.Table, adds: pa.Table, drops: pa.Table,
                    col: str, keys: list[str]) -> pa.Table:
    """One bucket's COW rewrite: drop retracted postings (exact
    (value, key) match), then append the additions."""
    import pyarrow.compute as pc

    out = old
    if drops is not None and drops.num_rows and out.num_rows:
        # anti-join on the full posting tuple
        marked = drops.append_column(
            "__drop", pa.array([True] * drops.num_rows))
        j = out.join(marked, keys=[col] + keys, join_type="left outer")
        out = j.filter(
            pc.is_null(j.column("__drop"))).drop_columns(["__drop"])
        out = out.select([col] + keys)
    if adds is not None and adds.num_rows:
        out = pa.concat_tables([out.cast(adds.schema), adds])
    return out


class MaterializedJoinView(_ViewBase):
    """Durable equi-join view over two lakes (``how='inner'|'left'``).

    Left views persist the match-count side state alongside the rows.
    """

    kind = "join"

    def __init__(self, root: str, spec: IncJoinSpec,
                 left: CDCLake, right: CDCLake, how: str = "inner",
                 num_buckets: int | None = None):
        super().__init__(root)
        if how not in ("inner", "left"):
            raise ValueError(f"how={how!r}: inner or left")
        self.spec = spec
        self.left = left
        self.right = right
        self.how = how
        self.num_buckets = num_buckets

    def _carries(self, side_cols: list[str], key_cols) -> list[str]:
        return [c for c in side_cols if c not in key_cols]

    def refresh(self) -> dict:
        m = self._manifest()
        lm = mf.read_manifest(self.left.root, self.left.spec.name)
        rm = mf.read_manifest(self.right.root, self.right.spec.name)
        cur = {"left": lm["epoch"] if lm else 0,
               "right": rm["epoch"] if rm else 0}
        state_l = self.left.read_state(drop_engine_cols=True).materialize()
        state_r = self.right.read_state(drop_engine_cols=True).materialize()
        if m and m["epochs"] == cur:
            return {"epochs": cur, "changed": False}
        cnt = cnt_prev = None
        if m is None:
            build = (build_join_view if self.how == "inner"
                     else build_left_join_view)
            view = build(state_l, state_r, self.spec,
                         num_buckets=self.num_buckets)
            if self.how == "left":
                cnt = build_on_counts(state_r, self.spec,
                                      num_buckets=self.num_buckets)
        else:
            schema = mf.schema_from_b64(m["schema"])
            view = _read_rows(self.root, m["files"]["view"], schema)
            d_l = (self.left.changes_between(
                m["epochs"]["left"], cur["left"],
                carry_cols=self._carries(self.spec.left_side_cols(),
                                         self.left.spec.key_cols))
                if cur["left"] > m["epochs"]["left"] else None)
            d_r = (self.right.changes_between(
                m["epochs"]["right"], cur["right"],
                carry_cols=self._carries(self.spec.right_side_cols(),
                                         self.right.spec.key_cols))
                if cur["right"] > m["epochs"]["right"] else None)
            if self.how == "inner":
                view = apply_join_change_sets(
                    view, self.spec, d_l, d_r, state_l, state_r,
                    num_buckets=self.num_buckets,
                )
            else:
                csch = mf.schema_from_b64(m["schema_cnt"])
                cnt_prev = _read_rows(self.root, m["files"]["cnt"], csch)
                view, cnt = apply_left_join_change_sets(
                    view, self.spec, d_l, d_r, state_l, state_r,
                    cnt_prev, num_buckets=self.num_buckets,
                )
        view = view.materialize()
        gen = (m["gen"] + 1) if m else 1
        files = {"view": _write_rows(self.root, "view", gen, view)}
        man = {
            "kind": self.kind, "how": self.how, "gen": gen,
            "epochs": cur,
            "schema": mf.schema_to_b64(_ds_schema(view)),
            "files": files,
        }
        if self.how == "left":
            if cnt is cnt_prev and m is not None:
                # left-delta-only refresh: counts unchanged, keep files
                man["schema_cnt"] = m["schema_cnt"]
                files["cnt"] = m["files"]["cnt"]
            else:
                cnt = cnt.materialize()
                files["cnt"] = _write_rows(self.root, "cnt", gen, cnt)
                man["schema_cnt"] = mf.schema_to_b64(_ds_schema(cnt))
        self._commit(man)
        return {"epochs": cur, "changed": True}

    def read(self) -> rd.Dataset:
        m = self._manifest()
        if m is None:
            raise ValueError("view never refreshed")
        return _read_rows(self.root, m["files"]["view"],
                          mf.schema_from_b64(m["schema"]))
