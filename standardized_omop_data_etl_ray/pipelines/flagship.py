"""Flagship pipeline for the driver contract: derive a deterministic CDC
event log from the ``documents`` table, replay it through the full engine
(standardize → two-stage LWW merge → COW lake, micro-batched), return the
final state.

Derivation rule (pure, vectorized, reproducible in SQL for the oracle):
each document yields ``versions`` events keyed by (source, doc path):
  v=0: I with the original text
  v>0: U with text + version suffix
  docs with doc_id % 13 == 0: v=1 is a D (delete), v=2 re-inserts
lsn = doc_id * versions + v  (interleaved across docs).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..spec import TableSpec


def events_from_documents(docs: rd.Dataset, versions: int = 3) -> rd.Dataset:
    """documents(doc_id, text, lang, source, n_chars) → CDC events."""

    def fanout(batch: pa.Table) -> pa.Table:
        import numpy as np

        outs = []
        doc_id = batch.column("doc_id")
        d = doc_id.to_numpy()
        del13 = d % 13 == 0
        for v in range(versions):
            if v == 0:
                op_np = np.full(len(d), "I")
            elif v == 1:
                op_np = np.where(del13, "D", "U")
            elif v == 2:
                op_np = np.where(del13, "I", "U")
            else:
                op_np = np.full(len(d), "U")
            op = pa.array(op_np, pa.string())
            is_del = pc.equal(op, "D")
            content = pc.if_else(
                is_del,
                pa.scalar(None, pa.string()),
                pc.binary_join_element_wise(
                    batch.column("text"), pa.scalar(f" v{v}"), ""
                )
                if v
                else batch.column("text"),
            )
            path = pc.binary_join_element_wise(
                pa.scalar("doc_"), pc.cast(doc_id, pa.string()),
                pa.scalar(".txt"), "",
            )
            commit = pc.binary_join_element_wise(
                pc.cast(doc_id, pa.string()), pa.scalar(str(v)), ":"
            )
            outs.append(
                pa.table(
                    {
                        "op": op,
                        "lsn": pc.add(
                            pc.multiply(pc.cast(doc_id, pa.int64()), versions), v
                        ),
                        "repo": batch.column("source"),
                        "path": path,
                        "commit": commit,
                        "lang": pc.if_else(
                            is_del, pa.scalar(None, pa.string()), batch.column("lang")
                        ),
                        "content": content,
                    }
                )
            )
        return pa.concat_tables(outs)

    return docs.map_batches(fanout, batch_format="pyarrow")


def run_flagship(
    sf_dir: str, lake_root: str, epochs: int = 3, num_partitions: int = 16,
    gate=None, return_lake: bool = False,
) -> rd.Dataset:
    """Full replay: documents → events → micro-batched lake apply →
    merge-on-read state.  ``gate`` (stages/standardize.make_curation_gate)
    curates events ON ARRIVAL inside the apply path.  ``return_lake``
    hands back the CDCLake instead of the state, for callers that need
    the manifest log (time travel, change sets)."""
    from .cdc import CDCLake

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    n_docs = docs.count()
    versions = 3
    total = n_docs * versions
    lake = CDCLake(lake_root, TableSpec(name="docs_cdc", num_partitions=num_partitions),
                   gate=gate)
    events = events_from_documents(docs, versions)
    step = (total + epochs - 1) // epochs
    for e in range(epochs):
        lo, hi = e * step, min((e + 1) * step, total)
        window = events.filter(
            expr=f"lsn >= {lo} and lsn < {hi}"
        )
        lake.apply_events(window)
    if return_lake:
        return lake
    return lake.read_state(drop_engine_cols=True)


def patch_events_from_documents(docs: rd.Dataset) -> rd.Dataset:
    """documents → CDC events exercising op='P' partial updates
    (closed form, SQL-reproducible for the oracle):

      lsn 3d+0: I  (text, lang)
      doc_id %13 == 0:  3d+1: D, then 3d+2: P content — a patch on a
          dead key, which must stay a NO-OP (the doc is absent from the
          final state)
      else:             3d+1: P lang := upper(lang)   (content untouched)
                        3d+2: P content := text || ' patched'
    """

    def fanout(batch: pa.Table) -> pa.Table:
        import numpy as np

        doc_id = batch.column("doc_id")
        d = doc_id.to_numpy()
        del13 = d % 13 == 0
        path = pc.binary_join_element_wise(
            pa.scalar("doc_"), pc.cast(doc_id, pa.string()),
            pa.scalar(".txt"), "",
        )
        upper_lang = pc.utf8_upper(batch.column("lang"))
        patched = pc.binary_join_element_wise(
            batch.column("text"), pa.scalar(" patched"), ""
        )
        nulls = pa.nulls(len(d), pa.string())
        outs = []
        for v in range(3):
            if v == 0:
                op = pa.array(np.full(len(d), "I"), pa.string())
                lang, content = batch.column("lang"), batch.column("text")
            elif v == 1:
                op = pa.array(np.where(del13, "D", "P"), pa.string())
                lang = pc.if_else(pa.array(del13), nulls, upper_lang)
                content = nulls
            else:
                op = pa.array(np.full(len(d), "P"), pa.string())
                lang = nulls
                content = patched
            lsn = pc.add(pc.multiply(pc.cast(doc_id, pa.int64()), 3), v)
            outs.append(pa.table({
                "op": op,
                "lsn": lsn,
                "repo": batch.column("source"),
                "path": path,
                "commit": pc.cast(lsn, pa.string()),
                "lang": lang,
                "content": content,
            }))
        return pa.concat_tables(outs)

    return docs.map_batches(fanout, batch_format="pyarrow")
