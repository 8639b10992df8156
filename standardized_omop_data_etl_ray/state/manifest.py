"""Two-phase manifest commit for the copy-on-write Parquet lake, and
the one durable-write path every lake file goes through.

The reference's persistence model is "staging directories as stage
boundaries" with destructive restart (cleanup_folders at
pipeline_process_subtables_to_final.py:11-54,156-158).  Ours upgrades that
to an idempotent two-phase commit (SURVEY.md §7.3 step 4):

  phase 1  each partition's merge task writes its epoch delta file under a
           DETERMINISTIC name (`part=<p>/epoch=<e>/delta.parquet`) plus a
           per-partition epoch marker JSON
           (`_markers/epoch-<e>.part-<p>.json`: file list, watermark LSN,
           row/tombstone/byte counts, content-sha rollup = lineage);
  phase 2  the driver writes a new root manifest
           (`_manifests/manifest-<e>.json`) referencing exactly the files
           named by the markers, then atomically swaps the `MANIFEST`
           pointer file via rename.

Every one of those files — and the lake's cursors, dead-letter files,
changefeed spans and view files — lands through ``durable_write``: a
uniquely named ``.tmp`` sibling is filled, fsynced, renamed over the
final name, and the directory is fsynced; each directory it creates has
its parent fsynced.  So a file is durable before any later write (a
marker, a manifest, a cursor) can name it, and a power loss after a
commit returns cannot leave the commit naming an empty or missing file.
Leftover temps from crashed writers are reclaimed by ``sweep_temps``.

Readers resolve `MANIFEST` → root manifest → file list; any file not in
the current manifest (e.g. written by a crashed epoch between phase 1 and
phase 2) is invisible and is removed by `gc()`.  Resume = read the last
committed manifest and re-apply the open window; events with
lsn ≤ the partition watermark are skipped (idempotent, exactly-once
effect).  Single-writer: one driver commits epochs serially.
"""

from __future__ import annotations

import base64
import json
import os
import re
import time
from pathlib import Path

import pyarrow as pa


def schema_to_b64(schema: pa.Schema) -> str:
    return base64.b64encode(schema.serialize().to_pybytes()).decode()


def schema_from_b64(s: str) -> pa.Schema:
    return pa.ipc.read_schema(pa.BufferReader(base64.b64decode(s)))


def table_root(root: str | Path, table: str) -> Path:
    return Path(root) / table


def pointer_path(root: str | Path, table: str) -> Path:
    return table_root(root, table) / "MANIFEST"


def read_manifest(root: str | Path, table: str) -> dict | None:
    """Follow the MANIFEST pointer to the current root manifest (or None)."""
    ptr = pointer_path(root, table)
    if not ptr.exists():
        return None
    name = ptr.read_text().strip()
    with open(table_root(root, table) / "_manifests" / name) as f:
        return json.load(f)


def list_manifest_epochs(root: str | Path, table: str) -> list[int]:
    """Epoch numbers of every retained root-manifest snapshot, ascending.
    Each is a valid time-travel target for ``read_manifest_at`` (its DATA
    files may have been gc-reclaimed — readers check, see CDCLake)."""
    mdir = table_root(root, table) / "_manifests"
    if not mdir.exists():
        return []
    return sorted(
        int(p.stem.split("-")[1]) for p in mdir.glob("manifest-*.json")
    )


from contextlib import contextmanager


@contextmanager
def commit_lock(root: str | Path, table: str,
                timeout_s: float = 30.0, stale_s: float = 60.0):
    """Cross-process mutual exclusion for the manifest
    read-fold-swap critical section (commit rebase, compaction fold).
    O_EXCL lockfile carrying an OWNERSHIP TOKEN; a stale lock (crashed
    holder) is stolen after ``stale_s``.  Steal and release are both
    token-guarded (review finding): stealing goes through an atomic
    ``rename`` so exactly ONE of N waiters retires a stale lock (a
    naive stat-then-unlink lets two waiters both "steal" and both
    enter), and release unlinks only if the file still carries OUR
    token (a slow holder whose lock was stolen must not delete the
    thief's fresh lock).  This is the local-fs analog of the lock
    provider Delta needs on S3 (conditional puts / DynamoDB) — on an
    object store, swap for the store's conditional-write primitive."""
    lock = table_root(root, table) / "_COMMIT_LOCK"
    lock.parent.mkdir(parents=True, exist_ok=True)
    token = f"{os.getpid()}-{time.time_ns()}-{os.urandom(4).hex()}"
    deadline = time.time() + timeout_s
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, token.encode())
            os.close(fd)
            break
        except FileExistsError:
            try:
                if time.time() - lock.stat().st_mtime > stale_s:
                    # atomic steal: exactly one waiter wins the rename;
                    # everyone then re-races the O_EXCL create above
                    grave = lock.with_name(f"_COMMIT_LOCK.stale-{token}")
                    try:
                        os.rename(lock, grave)
                        grave.unlink()
                    except OSError:
                        pass
                    continue
            except FileNotFoundError:
                continue
            if time.time() > deadline:
                raise TimeoutError(
                    f"commit lock {lock} held for >{timeout_s}s"
                )
            time.sleep(0.01)
    try:
        yield
    finally:
        try:
            if lock.read_text() == token:
                lock.unlink()
        except (FileNotFoundError, OSError):
            pass


def claim_epoch(root: str | Path, table: str, start: int) -> int:
    """Atomically claim the next free epoch number ≥ ``start`` via
    O_EXCL marker files under ``_epochs/`` — two writer PROCESSES can
    never share an epoch (shared epoch = colliding deterministic delta
    paths = silent corruption).  Claims are tiny; gc reclaims those at
    or below the committed epoch."""
    edir = table_root(root, table) / "_epochs"
    edir.mkdir(parents=True, exist_ok=True)
    n = start
    while True:
        try:
            fd = os.open(edir / f"{n:06d}.claim",
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            return n
        except FileExistsError:
            n += 1


def release_epoch(root: str | Path, table: str, n: int) -> None:
    """Hand back claim ``n`` (``claim_epoch``) of an epoch that wrote
    nothing, so a later claim can take the number again."""
    (table_root(root, table) / "_epochs" / f"{n:06d}.claim").unlink(
        missing_ok=True)


def epoch_for_ts(root: str | Path, table: str, ts: float) -> int | None:
    """Timestamp time travel (Delta's TIMESTAMP AS OF): the epoch of
    the LATEST-COMMITTED retained snapshot whose ``committed_at`` is at
    or before ``ts``, or None if no commit is that old.  The whole log
    is scanned (metadata-sized, driver-side) — committed_at is NOT
    assumed monotone in epoch number, because maintenance epochs may
    legitimately commit after a numerically higher data epoch
    (mid-stream autocompaction; the concurrent-compaction fold).  Ties
    break to the higher epoch.  Pre-upgrade manifests without the
    stamp are treated as arbitrarily old (they always qualify)."""
    mdir = table_root(root, table) / "_manifests"
    if not mdir.exists():
        return None
    best: tuple[float, int] | None = None
    for p in sorted(mdir.glob("manifest-*.json")):
        with open(p) as f:
            m = json.load(f)
        at = m.get("committed_at", float("-inf"))
        if at <= ts and (best is None or (at, m["epoch"]) > best):
            best = (at, m["epoch"])
    return best[1] if best else None


def read_manifest_at(root: str | Path, table: str, epoch: int) -> dict | None:
    """Snapshot isolation via the COW manifest log: the root manifest as
    of ``epoch``'s commit (``_manifests/manifest-{epoch:06d}.json``),
    independent of later commits/compactions.  Old manifests are kept by
    gc() as the audit trail; the DATA files a snapshot references may be
    reclaimed by gc once superseded — readers get a loud
    FileNotFoundError then, never silent wrong answers."""
    p = table_root(root, table) / "_manifests" / f"manifest-{epoch:06d}.json"
    if not p.exists():
        return None
    with open(p) as f:
        return json.load(f)


def _fsync(path: Path) -> None:
    """fsync a file or a directory by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def make_dirs(d: str | Path) -> None:
    """``mkdir -p`` that makes every directory it creates durable: the
    parent of each new directory is fsynced, so a durable file inside
    it cannot vanish with an unrecorded directory entry."""
    d = Path(d)
    if d.is_dir():
        return
    make_dirs(d.parent)
    d.mkdir(exist_ok=True)
    _fsync(d.parent)


def durable_write(path: str | Path, write) -> None:
    """Durably and atomically (re)write ``path``: ``write(tmp)`` fills
    a sibling temp whose name is unique to this call and ends in
    ``.tmp`` (concurrent retries never share one, and ``sweep_temps``
    finds every leftover); the temp is fsynced, renamed over ``path``
    and the directory fsynced.  Missing parents are made by
    ``make_dirs``.  Readers see the old file or the new one, and once
    this returns the new one survives a power loss."""
    path = Path(path)
    make_dirs(path.parent)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        write(tmp)
        _fsync(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync(path.parent)


def durable_rename(src: str | Path, dst: str | Path) -> None:
    """Atomically rename an already-durable file within its directory
    and make the rename durable."""
    os.replace(src, dst)
    _fsync(Path(dst).parent)


# durable_write temps, plus the `<name>.tmp<pid>` marker temps that
# older versions of this module left behind
_TEMP_NAME = re.compile(r"\.tmp\d*$")


def sweep_temps(root: str | Path) -> list[str]:
    """Remove leftover write temps under ``root`` (a crash between a
    temp's write and its rename leaks it forever).  Only temps older
    than an hour go, so an in-flight writer's live temp is never
    yanked from under it.  Returns the removed paths."""
    removed: list[str] = []
    now = time.time()
    for t in Path(root).rglob("*.tmp*"):
        if not _TEMP_NAME.search(t.name):
            continue
        try:
            if now - t.stat().st_mtime > 3600:
                t.unlink()
                removed.append(str(t))
        except FileNotFoundError:
            pass
    return removed


def _swap_pointer(troot: Path, name: str) -> None:
    """The commit point: durably point ``MANIFEST`` at ``name``."""
    durable_write(troot / "MANIFEST", lambda t: t.write_text(name))


def _write_json(path: Path, obj, **kw) -> None:
    durable_write(path, lambda t: t.write_text(
        json.dumps(obj, sort_keys=True, **kw)))


def commit_manifest(root: str | Path, table: str, manifest: dict) -> None:
    """Phase 2: durably write the root manifest, then the atomic pointer
    swap — the COMMIT POINT, durable before this returns."""
    # stamped UNCONDITIONALLY: every call is a new commit, and manifests
    # built by spreading an older one (restore, drop_column) must not
    # inherit its stamp — committed_at records the true commit instant
    # (epoch_for_ts orders by it, not by epoch number)
    manifest["committed_at"] = time.time()
    troot = table_root(root, table)
    name = f"manifest-{manifest['epoch']:06d}.json"
    _write_json(troot / "_manifests" / name, manifest, indent=1)
    _swap_pointer(troot, name)


def write_marker(root: str | Path, table: str, epoch: int, part: int, info: dict) -> None:
    """Phase 1 (called from the partition merge task): durable per-partition
    epoch marker — the lineage record for this (epoch, partition)."""
    _write_json(table_root(root, table) / "_markers"
                / f"epoch-{epoch:06d}.part-{part:05d}.json", info)


def live_files(root: str | Path, table: str, manifest: dict) -> list[str]:
    troot = table_root(root, table)
    files: list[str] = []
    for pinfo in manifest["partitions"].values():
        files.extend(str(troot / f) for f in pinfo["files"])
    return files


def gc(root: str | Path, table: str, retain_manifests: int = 1) -> list[str]:
    """Delete data files not referenced by a RETAINED manifest (orphans
    from crashed epochs, superseded pre-compaction deltas).  Markers and
    old manifests are kept as the audit/lineage trail.

    ``retain_manifests`` is the time-travel retention window (Delta-Lake
    VACUUM semantics): files referenced by any of the newest K manifest
    snapshots survive, so ``read_state(at_epoch=e)`` keeps working for
    those epochs.  K=1 (default) retains only the current state.  Crashed
    -epoch orphans are in NO manifest, so they are reclaimed at any K."""
    m = read_manifest(root, table)
    troot = table_root(root, table)
    keep = set(live_files(root, table, m)) if m else set()
    if m and retain_manifests > 1:
        for e in list_manifest_epochs(root, table)[-retain_manifests:]:
            snap = read_manifest_at(root, table, e)
            if snap:
                keep.update(live_files(root, table, snap))
    removed = sweep_temps(troot)
    for p in troot.rglob("*.parquet"):
        # the dead-letter queue is a side table outside the manifest's
        # file accounting — gc must never reclaim the repair surface
        if "_dead_letter" in p.parts:
            continue
        if str(p) not in keep:
            p.unlink()
            removed.append(str(p))
    # epoch claim markers (claim_epoch) at or below the committed
    # epoch can never be re-claimed — drop them; claims ABOVE it may
    # belong to in-flight writers and must survive
    if m:
        committed = max(m["epoch"], m.get("epoch_hwm", 0))
        for c in (troot / "_epochs").glob("*.claim"):
            try:
                if int(c.stem) <= committed:
                    c.unlink()
                    removed.append(str(c))
            except ValueError:
                pass
    # bloom sidecars (state/bloom.py) ride with their data file: one
    # whose `<file>.parquet` partner is not retained (reclaimed above,
    # or orphaned by a crash between the two phase-1 renames) goes too
    for b in troot.rglob("*.parquet.bloom"):
        if "_dead_letter" in b.parts:
            continue
        partner = str(b)[: -len(".bloom")]
        if partner not in keep:
            b.unlink()
            removed.append(str(b))
    # drop now-empty epoch dirs
    for d in sorted(troot.rglob("epoch=*"), reverse=True):
        if d.is_dir() and not any(d.iterdir()):
            d.rmdir()
    return removed


# ---------------------------------------------------------------------------
# Multi-table atomic commit (redo-log group commit): N tables' new
# manifests become durable together at ONE fsynced rename (the group
# record); per-table pointer swaps ROLL FORWARD after it and are
# crash-recovered by recover_groups().  Before the group record lands,
# staged manifests live under a .staged suffix that every reader
# (pointer resolution, list_manifest_epochs time travel, gc retention)
# ignores — an aborted transaction leaves only invisible orphans.

def _txn_dir(root: str | Path) -> Path:
    return Path(root) / "_txn"


def stage_manifest(root: str | Path, table: str, manifest: dict) -> str:
    """Durably write a table's manifest under .staged (invisible).
    ``committed_at`` is stamped at staging time — for a group commit
    the stage-to-commit-point gap is one fsynced rename, so the stamp
    is the commit instant for time-travel purposes (unconditional, like
    ``commit_manifest`` — see the monotonicity note there)."""
    manifest["committed_at"] = time.time()
    name = f"manifest-{manifest['epoch']:06d}.json"
    _write_json(table_root(root, table) / "_manifests" / (name + ".staged"),
                manifest, indent=1)
    return name


def _manifest_name_epoch(name: str) -> int:
    return int(name.split("-")[1].split(".")[0])


def _roll_forward(root: str | Path, group: dict) -> None:
    """Idempotent: promote each staged manifest and swap its pointer.
    A pointer already AT or BEYOND the group's epoch is left alone —
    recovery running after later commits must never rewind a table."""
    for table, name in group["tables"].items():
        troot = table_root(root, table)
        staged = troot / "_manifests" / (name + ".staged")
        if staged.exists():
            durable_rename(staged, staged.with_name(name))
        ptr = troot / "MANIFEST"
        if ptr.exists():
            cur = ptr.read_text().strip()
            if cur and _manifest_name_epoch(cur) >= _manifest_name_epoch(name):
                continue
        _swap_pointer(troot, name)


def commit_group(root: str | Path,
                 entries: dict[str, dict]) -> str:
    """Atomically commit ``{table: manifest}`` across tables.

    1. stage every manifest (durable, invisible);
    2. durably write ONE group record — the commit point;
    3. roll every pointer forward and mark the record done.
    A crash after (2) is completed by ``recover_groups`` at next open;
    a crash before (2) aborts cleanly (only .staged orphans remain)."""
    names = {t: stage_manifest(root, t, m) for t, m in entries.items()}
    gid = "-".join(
        f"{t}:{m['epoch']}" for t, m in sorted(entries.items())
    )
    group = {"tables": names, "id": gid}
    record = _txn_dir(root) / f"group-{gid}.json"
    _write_json(record, group)  # COMMIT POINT
    _roll_forward(root, group)
    durable_rename(record, record.with_suffix(".done"))
    return gid


def recover_groups(root: str | Path) -> list[str]:
    """Finish any group commit that crashed between its commit point
    and the pointer roll-forward.  Idempotent; call at lake open."""
    gdir = _txn_dir(root)
    if not gdir.exists():
        return []
    done = []
    for p in sorted(gdir.glob("group-*.json")):
        group = json.loads(p.read_text())
        _roll_forward(root, group)
        durable_rename(p, p.with_suffix(".done"))
        done.append(group["id"])
    return done
