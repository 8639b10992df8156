"""Deterministic synthetic data: source-repo table + CDC change-event log.

Implements FIXTURES.md §A (the authoritative input shape from
BASELINE.json's ``input_hint``): a Parquet table of source-code
repositories ``(repo, path, commit, lang, content)`` keyed by
``(repo, path)``, and a derived change-event log
``(op, lsn, repo, path, commit, lang, content)`` with the adversarial
cases the north rule requires baked in:

  * out-of-order delivery — LSNs shuffled within bounded windows
    (cross-window order preserved: this is the binlog-tailing contract,
    micro-batch *n+1* only carries LSNs greater than every LSN in batch *n*);
  * exact duplicate events (same lsn re-delivered within its window);
  * delete-then-reinsert lifecycles per key;
  * hot keys — one repo receives ~``hot_share`` of all events;
  * optional schema-evolution epoch: events past ``evolve_after_frac``
    gain a ``size_bytes: int64`` column.

Everything is seeded and pure — same args → byte-identical tables.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .functions.hashing import sha256_hex_str

_LANG_BY_EXT = {
    "py": "py", "js": "js", "go": "go", "rs": "rs",
    "java": "java", "md": "md", "txt": "txt",
}
_EXTS = np.array(["py", "js", "go", "rs", "java", "md", "txt"])
_EXT_W = np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1])

# deterministic pseudo-code line vocabulary (content body building blocks)
_VOCAB = [
    f"def fn_{i}(x):\n    return x * {i} + {i * 7 % 13}\n" for i in range(16)
] + [
    f"let v{i} = arr.map(a => a + {i});\n" for i in range(16)
] + [
    f"for i := 0; i < {i}; i++ {{ sum += data[i] }}\n" for i in range(16)
] + [
    f"SELECT col_{i} FROM t WHERE k = {i};\n" for i in range(16)
]


def _key_catalog(n_keys: int, seed: int, hot_share: float) -> pd.DataFrame:
    """Key universe: (repo, path, lang).  The first ~5% of keys belong to a
    single hot repo; event sampling later steers ``hot_share`` of all events
    at them (hot-key skew for the salted merge)."""
    i = np.arange(n_keys)
    n_hot = max(1, int(n_keys * 0.05))
    repo = np.where(
        i < n_hot,
        "org0/hot-repo",
        pd.Series(i % 7).astype(str).radd("org").str.cat(
            pd.Series(i % 53).astype(str).radd("/repo")
        ),
    )
    rng = np.random.default_rng(seed)
    ext = rng.choice(_EXTS, size=n_keys, p=_EXT_W)
    # path unique within repo: per-repo ordinal
    df = pd.DataFrame({"repo": repo, "ext": ext})
    j = df.groupby("repo").cumcount().to_numpy()
    df["path"] = (
        "src/d" + pd.Series(j % 11).astype(str) + "/f" + pd.Series(j).astype(str)
        + "." + df["ext"]
    )
    df["lang"] = df["ext"].map(_LANG_BY_EXT)
    df["n_hot"] = n_hot
    return df[["repo", "path", "lang", "n_hot"]]


def _content_for(repo: str, path: str, seq: int, length: int) -> str:
    h = sha256_hex_str(f"{repo}\x00{path}\x00{seq}")
    hdr = f"// {repo}/{path}@v{seq} {h[:12]}\n"
    line = _VOCAB[int(h[:8], 16) % len(_VOCAB)]
    reps = max(1, (length - len(hdr)) // max(1, len(line)))
    return hdr + line * reps


def _commits_and_contents(
    repo: np.ndarray, path: np.ndarray, seq: np.ndarray,
    length: np.ndarray, is_del: np.ndarray,
    commit_seq: np.ndarray | None = None,
) -> tuple[pd.Series, pd.Series]:
    """Vectorized (DuckDB C++) equivalent of per-row
    sha-commit + ``_content_for`` — byte-identical output, ~10× faster at
    millions of rows (generation is driver-side but runs every round).

    ``commit_seq`` defaults to ``seq``; deletes pass the previous seq so
    the commit is the last-known one while content stays NULL."""
    import duckdb

    con = duckdb.connect()
    con.execute("SET enable_progress_bar = false")
    vocab = pd.DataFrame({"idx": range(len(_VOCAB)), "line": _VOCAB})
    df = pd.DataFrame(
        {
            "rid": np.arange(len(repo)), "repo": repo, "path": path,
            "seq": seq, "length": length, "is_del": is_del,
            "cseq": seq if commit_seq is None else commit_seq,
        }
    )
    con.register("vocab", vocab)
    con.register("df", df)
    out = con.execute(
        """
        WITH base AS (
          SELECT *,
            sha256(repo || chr(0) || path || chr(0) || seq::VARCHAR) AS h,
            sha256(repo || ':' || path || ':' || cseq::VARCHAR)[1:40] AS commit
          FROM df
        ), built AS (
          SELECT base.*,
            '// ' || repo || '/' || path || '@v' || seq || ' ' || h[1:12]
              || chr(10) AS hdr,
            v.line AS line
          FROM base JOIN vocab v ON v.idx = ('0x' || h[1:8])::UBIGINT % 64
        )
        SELECT commit,
          CASE WHEN is_del THEN NULL
               ELSE hdr || repeat(line, greatest(1,
                    (length - length(hdr)) // length(line))::INT)
          END AS content
        FROM built ORDER BY rid
        """
    ).df()
    con.close()
    return out["commit"], out["content"]


def make_source_repos(
    n_rows: int,
    seed: int = 42,
    content_len_median: int = 200,
    content_len_sigma: float = 0.8,
    hot_share: float = 0.3,
) -> pa.Table:
    """FIXTURES.md §A1 base table (repo, path, commit, lang, content)."""
    cat = _key_catalog(n_rows, seed, hot_share)
    rng = np.random.default_rng(seed + 1)
    lengths = np.clip(
        rng.lognormal(np.log(content_len_median), content_len_sigma, n_rows),
        50, 20_000,
    ).astype(np.int64)
    repo, path = cat["repo"].to_numpy(), cat["path"].to_numpy()
    zeros = np.zeros(n_rows, dtype=np.int64)
    commit, content = _commits_and_contents(
        repo, path, zeros, lengths, np.zeros(n_rows, dtype=bool)
    )
    return pa.table(
        {
            "repo": pa.array(repo, pa.string()),
            "path": pa.array(path, pa.string()),
            "commit": pa.array(commit, pa.string()),
            "lang": pa.array(cat["lang"], pa.string()),
            "content": pa.array(content, pa.string()),
        }
    )


def make_change_events(
    n_keys: int,
    n_events: int,
    seed: int = 42,
    delete_rate: float = 0.05,
    dup_rate: float = 0.02,
    lang_change_rate: float = 0.01,
    window: int = 1_000,
    hot_share: float = 0.3,
    content_len_median: int = 200,
    content_len_sigma: float = 0.8,
    evolve_after_frac: float | None = None,
) -> pa.Table:
    """FIXTURES.md §A2 change-event log, returned in DELIVERY order.

    ``lsn`` is the true order; rows are shuffled within windows of
    ``window`` events and ``dup_rate`` of rows are re-delivered (same lsn)
    later inside their window.  When ``evolve_after_frac`` is set, a
    ``size_bytes:int64`` column appears, null for lsn below the threshold
    (callers slice micro-batches at the threshold and drop the column from
    early batches to exercise true schema evolution).
    """
    rng = np.random.default_rng(seed)
    cat = _key_catalog(n_keys, seed, hot_share)
    n_hot = int(cat["n_hot"].iloc[0])

    # --- event → key assignment with hot-repo skew -----------------------
    is_hot = rng.random(n_events) < hot_share
    key_idx = np.where(
        is_hot,
        rng.integers(0, n_hot, n_events),
        rng.integers(0, n_keys, n_events),
    )

    df = pd.DataFrame({"key": key_idx})
    df["lsn"] = np.arange(n_events, dtype=np.int64)  # true order
    g = df.groupby("key")
    df["seq"] = g.cumcount()

    # --- lifecycle ops: I first, D with no consecutive-D, I after D ------
    mark = (rng.random(n_events) < delete_rate) & (df["seq"].to_numpy() > 0)
    df["mark"] = mark
    prev_mark = g["mark"].shift(1, fill_value=False).to_numpy()
    mark = mark & ~prev_mark          # never two D in a row per key
    df["mark"] = mark
    prev_mark = df.groupby("key")["mark"].shift(1, fill_value=False).to_numpy()
    seq = df["seq"].to_numpy()
    op = np.where(seq == 0, "I", np.where(mark, "D", np.where(prev_mark, "I", "U")))
    df["op"] = op

    # --- payload ---------------------------------------------------------
    df["repo"] = cat["repo"].to_numpy()[key_idx]
    df["path"] = cat["path"].to_numpy()[key_idx]
    base_lang = cat["lang"].to_numpy()[key_idx]
    lang_shift = (rng.random(n_events) < lang_change_rate) & (op == "U")
    lang = np.where(lang_shift, "txt", base_lang)
    is_del = op == "D"
    commit_seq = np.where(is_del, np.maximum(seq - 1, 0), seq)
    lengths = np.clip(
        rng.lognormal(np.log(content_len_median), content_len_sigma, n_events),
        50, 20_000,
    ).astype(np.int64)

    repo_a, path_a = df["repo"].to_numpy(), df["path"].to_numpy()
    commit, content = _commits_and_contents(
        repo_a, path_a, seq, lengths, is_del, commit_seq=commit_seq
    )
    df["commit"] = commit.to_numpy()
    df["lang"] = np.where(is_del, None, lang)
    df["content"] = content.to_numpy()

    # --- delivery order: shuffle within windows --------------------------
    win = df["lsn"].to_numpy() // window
    jitter = rng.random(n_events)
    order = np.lexsort((jitter, win))
    df = df.iloc[order].reset_index(drop=True)

    # --- duplicates: re-deliver rows later within the same window --------
    if dup_rate > 0 and n_events > 10:
        n_dup = int(n_events * dup_rate)
        dup_pos = rng.choice(n_events, size=n_dup, replace=False)
        dups = df.iloc[dup_pos].copy()
        rank = np.concatenate(
            [np.arange(n_events, dtype=np.float64),
             dup_pos + rng.uniform(0.1, float(window), n_dup)]
        )
        winid = np.concatenate([win[order], win[order][dup_pos]])
        df = pd.concat([df, dups], ignore_index=True)
        df = df.iloc[np.lexsort((rank, winid))].reset_index(drop=True)

    cols = {
        "op": pa.array(df["op"], pa.string()),
        "lsn": pa.array(df["lsn"], pa.int64()),
        "repo": pa.array(df["repo"], pa.string()),
        "path": pa.array(df["path"], pa.string()),
        "commit": pa.array(df["commit"], pa.string()),
        "lang": pa.array(df["lang"], pa.string()),
        "content": pa.array(df["content"], pa.string()),
    }
    if evolve_after_frac is not None:
        thr = int(n_events * evolve_after_frac)
        sizes = df["content"].str.len().astype("Int64")
        sizes[df["lsn"] < thr] = pd.NA
        cols["size_bytes"] = pa.array(sizes, pa.int64())
    return pa.table(cols)


def micro_batches(events: pa.Table, batch_windows: int, window: int = 1_000):
    """Split a delivery-ordered event table into micro-batches of
    ``batch_windows`` windows each.  Guarantees the tailing contract:
    every lsn in batch n+1 exceeds every lsn in batch n (duplicates of
    already-shipped lsns aside, which the watermark filter absorbs)."""
    lsn = events.column("lsn").to_numpy()
    batch_id = lsn // (window * batch_windows)
    # delivery order is already window-sorted, so batch boundaries are splits
    cuts = np.flatnonzero(np.diff(batch_id)) + 1
    start = 0
    for c in list(cuts) + [len(lsn)]:
        if c > start:
            yield events.slice(start, c - start)
            start = c
