"""Ray-Data-native CDC / incremental-ingest engine.

A brand-new engine (NOT a port) re-expressing the standardize-into-target-
schema ETL semantics of the reference repo
``Answer-ALS-Data/standardized-omop-data-etl`` as a binlog-style CDC replay:

    change events (insert/update/delete keyed by (repo, path), ordered by
    commit LSN) are tailed in micro-batches as ``ray.data.Dataset``,
    hash-partitioned by key, and applied via last-writer-wins merge-on-read
    upsert into copy-on-write Parquet lake tables, committed through an
    idempotent two-phase manifest (per-partition epoch markers + lineage log).

Layout:
    functions/  pure vectorized batch kernels (hashing, dates, parsing, text)
    stages/     Dataset-level transforms (standardize, merge, unpivot, dedup)
    state/      manifest, markers and bloom sidecars for the lake sink
    pipelines/  end-to-end pipelines (CDC replay, compaction, reference ETL)

Everything here derives from public knowledge only: the Ray Data and
pyarrow public APIs and the reference repo's observable semantics
(cited as ``file:line`` into /root/reference in docstrings).

IMPORTANT: no module in this package calls ``ray.init()`` — the driver,
``bench.py`` and the pytest session fixture own the Ray session.
"""

__version__ = "0.1.0"

from .spec import TableSpec, CDC_EVENT_SCHEMA, CDC_STATE_SCHEMA  # noqa: F401
