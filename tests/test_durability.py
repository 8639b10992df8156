"""Durability of the lake's writes.

Every temp-file + rename in the package goes through one helper,
``state/manifest.durable_write`` (or ``durable_rename`` for an
already-durable file), which fsyncs the file, its directory and the
parent of every directory it creates.  These tests check that:

* no code outside the helper renames over a file or calls ``fsync``
  (an ``ast`` scan of the package source);
* each worker-side writer leaves every file and new directory it makes
  fsynced (the writers are called in this process, with ``os.fsync``
  wrapped to record what it was handed);
* a crash at any driver-side durable step of a mixed verb script is
  recovered by reopening the lake and redelivering the log;
* ``gc`` reclaims stale write temps everywhere, including the
  dead-letter queue and view roots.
"""

import ast
import os
import re
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

import standardized_omop_data_etl_ray as pkg
from standardized_omop_data_etl_ray.datagen import (
    make_change_events,
    micro_batches,
)
from standardized_omop_data_etl_ray.functions import hashing
from standardized_omop_data_etl_ray.oracle import (
    assert_states_equal,
    oracle_apply,
)
from standardized_omop_data_etl_ray.pipelines import cdc, views
from standardized_omop_data_etl_ray.pipelines.cdc import (
    CDCLake,
    LakeTransaction,
    replicate_changefeed,
    state_checksum,
)
from standardized_omop_data_etl_ray.spec import TableSpec
from standardized_omop_data_etl_ray.stages.standardize import (
    make_standardizer,
)
from standardized_omop_data_etl_ray.state import manifest as mf

PKG = Path(pkg.__file__).parent

# ---------------------------------------------------------------------------
# guard: renames and fsyncs live only in the helper

# (module, enclosing function, call) triples allowed to rename or fsync;
# commit_lock's rename retires a stale lock file, it persists nothing
ALLOWED = {
    ("state/manifest.py", "_fsync", "os.fsync"),
    ("state/manifest.py", "durable_write", "os.replace"),
    ("state/manifest.py", "durable_rename", "os.replace"),
    ("state/manifest.py", "commit_lock", "os.rename"),
}


def _rename_calls(tree: ast.AST):
    """Yield ``(enclosing function, call)`` for every ``os.replace`` /
    ``os.rename`` / ``os.fsync`` call and every one-argument
    ``x.replace(p)`` / ``x.rename(p)`` method call (the ``Path`` form;
    ``str.replace`` takes two arguments, and pandas' ``rename`` takes
    keywords or a literal label)."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            if isinstance(child, ast.Call) and isinstance(
                    child.func, ast.Attribute):
                attr, owner = child.func.attr, child.func.value
                if isinstance(owner, ast.Name) and owner.id == "os":
                    if attr in ("replace", "rename", "fsync"):
                        yield func, f"os.{attr}"
                elif (attr in ("replace", "rename")
                      and len(child.args) == 1 and not child.keywords
                      and not isinstance(child.args[0], ast.Constant)):
                    yield func, f"Path.{attr}"
            yield from walk(child, inner)

    yield from walk(tree, "<module>")


def test_only_the_helper_renames_or_fsyncs():
    found = set()
    sources = sorted(PKG.rglob("*.py")) + [PKG.parent / "__ray_entry__.py"]
    for src in sources:
        rel = (src.relative_to(PKG).as_posix()
               if PKG in src.parents else src.name)
        tree = ast.parse(src.read_text(), filename=str(src))
        found |= {(rel, f, c) for f, c in _rename_calls(tree)}
    assert found == ALLOWED, sorted(found ^ ALLOWED)


# ---------------------------------------------------------------------------
# worker-side writers, called in this process

# a durable_write temp is `<final name>.<pid>-<hex>.tmp`
_TEMP = re.compile(r"(\.\d+-[0-9a-f]+)?\.tmp\d*$")


@pytest.fixture
def fsynced(monkeypatch):
    """The set of paths ``os.fsync`` was handed (a temp counts as its
    final name); writers' thread tuning is left alone."""
    seen: set[str] = set()
    real = os.fsync

    def record(fd):
        seen.add(_TEMP.sub("", os.readlink(f"/proc/self/fd/{fd}")))
        real(fd)

    monkeypatch.setattr(os, "fsync", record)
    monkeypatch.setattr(hashing, "_TUNED", True)
    return seen


def _assert_durable(root: Path, write, fsynced: set) -> None:
    """Run ``write()``; every file and directory it created under
    ``root`` must be fsynced, as must the parent of each new directory."""
    before = set(root.rglob("*"))
    fsynced.clear()
    write()
    new = set(root.rglob("*")) - before
    assert any(p.is_file() for p in new)
    missing = sorted({
        str(p.relative_to(root.parent)) for q in new for p in (q, q.parent)
        if str(p) not in fsynced
    })
    assert not missing, "not fsynced: " + ", ".join(missing)


def _events(n: int = 40, null_key_at: int | None = None) -> pa.Table:
    paths = [f"f{i}.py" for i in range(n)]
    if null_key_at is not None:
        paths[null_key_at] = None
    return pa.table({
        "op": pa.array(["I"] * n, pa.string()),
        "lsn": pa.array(range(1, n + 1), pa.int64()),
        "repo": pa.array(["r"] * n, pa.string()),
        "path": pa.array(paths, pa.string()),
        "commit": pa.array(["c"] * n, pa.string()),
        "lang": pa.array(["py"] * n, pa.string()),
        "content": pa.array([f"x{i}" for i in range(n)], pa.string()),
    })


def test_worker_side_writers_fsync_every_file_and_dir(tmp_path, fsynced):
    root = tmp_path.resolve()
    spec = TableSpec(name="cdc", num_partitions=1)
    troot = root / "cdc"

    group = make_standardizer(spec)(_events())
    _assert_durable(root, lambda: cdc._delta_writer(
        str(root), "cdc", 1, spec)(group), fsynced)

    src = next(troot.glob("part=*/epoch=*/delta.parquet"))
    assert Path(str(src) + ".bloom").exists()
    _assert_durable(root, lambda: cdc._file_rewriter(
        str(root), "cdc", 2, "ddl", lambda t: t)(pa.table({
            "part": [0], "file": [str(src.relative_to(troot))]})),
        fsynced)

    _assert_durable(root, lambda: cdc._dead_letter_splitter(
        str(root), "cdc", 3, spec)(_events(null_key_at=3)), fsynced)
    assert list(troot.glob("_dead_letter/epoch=000003/bad-*.parquet"))

    vroot = root / "view"
    vroot.mkdir()
    t = pa.table({"k": ["a", "b"]})
    _assert_durable(vroot, lambda: views._write_bucket_file(
        str(vroot), 0, 1, t, "rows"), fsynced)
    _assert_durable(vroot, lambda: views._write_bucket_file(
        str(vroot), 1, 1, t), fsynced)


# ---------------------------------------------------------------------------
# stale-temp sweep


def _plant(path: Path, age_s: float = 0.0) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"partial")
    if age_s:
        old = time.time() - age_s
        os.utime(path, (old, old))
    return path


def test_gc_reclaims_stale_temps_everywhere(tmp_path):
    spec = TableSpec(name="cdc", num_partitions=2)
    lake = CDCLake(tmp_path, spec)
    lake.apply_events(rd.from_arrow(_events()))
    troot = tmp_path / "cdc"
    day = 86400.0
    stale = [
        _plant(troot / "part=00000/epoch=000009/delta.parquet.7-ab12.tmp",
               day),
        _plant(troot / "_manifests/manifest-000009.json.7-ab12.tmp", day),
        # the marker temp name older versions wrote
        _plant(troot / "_markers/epoch-000009.part-00000.json.tmp4242",
               day),
        _plant(troot / "_dead_letter/epoch=000009/bad-0f.parquet.7-ab.tmp",
               day),
    ]
    bad = troot / "_dead_letter/epoch=000009/bad-0f.parquet"
    pq.write_table(_events(2), bad)
    fresh = _plant(troot / "part=00001/epoch=000009/delta.parquet.8-cd.tmp")
    removed = lake.gc()
    for p in stale:
        assert str(p) in removed and not p.exists()
    assert fresh.exists() and bad.exists()

    vroot = tmp_path / "view"
    vstale = _plant(vroot / "agg-g000001/rows-00000.parquet.7-ab.tmp", day)
    vfresh = _plant(vroot / "agg-g000001/rows-00001.parquet.7-cd.tmp")
    gone = views._ViewBase(str(vroot)).gc()
    assert str(vstale.relative_to(vroot)) in gone and not vstale.exists()
    assert vfresh.exists()


# ---------------------------------------------------------------------------
# crash harness over the driver-side durable steps

EVENTS = make_change_events(n_keys=60, n_events=600, seed=5, window=100)
BATCHES = list(micro_batches(EVENTS, batch_windows=2, window=100))
SIDE = make_change_events(n_keys=20, n_events=100, seed=6, window=100)
CARRY = ["commit", "lang", "content"]


class _Crash(Exception):
    pass


def _script(root: Path) -> tuple[CDCLake, CDCLake, CDCLake]:
    """Open the lakes (recovering any interrupted group commit), then
    apply ×2, compact, a two-table transaction, export and replicate."""
    a = CDCLake(root / "lake", TableSpec(name="cdc", num_partitions=2))
    b = CDCLake(root / "lake", TableSpec(name="side", num_partitions=2))
    rep = CDCLake(root / "replica",
                  TableSpec(name="replica", num_partitions=2))
    a.apply_events(rd.from_arrow(BATCHES[0]))
    a.apply_events(rd.from_arrow(BATCHES[1]))
    a.compact()
    txn = LakeTransaction(str(root / "lake"))
    a.apply_events(rd.from_arrow(BATCHES[2]), txn=txn)
    b.apply_events(rd.from_arrow(SIDE), txn=txn)
    txn.commit()
    a.export_changefeed(str(root / "feed"), carry_cols=CARRY)
    replicate_changefeed(str(root / "feed"), rep)
    return a, b, rep


def _state(lake: CDCLake) -> pa.Table:
    return pa.concat_tables(
        t for t in ray.get(lake.read_state().to_arrow_refs()) if t.num_rows)


def _crash_at(monkeypatch, k: int | None) -> list[int]:
    """Count driver-side durable steps; raise at the k-th."""
    count = [0]
    for name in ("durable_write", "durable_rename"):
        real = getattr(mf, name)

        def step(*args, _real=real):
            count[0] += 1
            if count[0] == k:
                raise _Crash(f"crash at durable step {k}")
            _real(*args)

        monkeypatch.setattr(mf, name, step)
    return count


def _assert_recovered(root: Path) -> None:
    a, b, rep = _script(root)  # redelivery: no verb may raise
    assert_states_equal(_state(a), oracle_apply(pa.concat_tables(BATCHES)))
    assert_states_equal(_state(b), oracle_apply(SIDE))
    assert state_checksum(rep) == state_checksum(a)
    for lake in (a, b, rep):
        lake.gc()
        troot = Path(lake.root) / lake.spec.name
        live = set(mf.live_files(lake.root, lake.spec.name,
                                 mf.read_manifest(lake.root,
                                                  lake.spec.name)))
        on_disk = {str(p) for p in troot.rglob("*.parquet")
                   if "_dead_letter" not in p.parts}
        assert on_disk <= live, sorted(on_disk - live)


def test_crash_at_every_driver_durable_step(tmp_path, monkeypatch):
    assert len(BATCHES) == 3
    count = _crash_at(monkeypatch, None)
    _script(tmp_path / "clean")
    steps = count[0]
    monkeypatch.undo()
    assert steps >= 15, steps
    _assert_recovered(tmp_path / "clean")
    for k in range(1, steps + 1):
        root = tmp_path / f"k{k:02d}"
        _crash_at(monkeypatch, k)
        with pytest.raises(_Crash):
            _script(root)
        monkeypatch.undo()
        _assert_recovered(root)
