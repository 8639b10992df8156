"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship CDC replay on sf0.001; ``queries()`` maps
operator names (SURVEY.md §2 + training-data ops) to callables over an
``sf_dir``; ``oracle_sql()`` gives the DuckDB-equivalent SQL per query
(omitted for non-SQL-expressible ops → rows-only check).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

Column-name discipline: every computed/aggregate column is named
identically in the Ray pipeline and the SQL (the driver hashes values
after sorting columns by name).  Float aggregates are rounded to the
same digits on BOTH sides.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable
from datetime import datetime
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from standardized_omop_data_etl_ray.functions.ids import nine_digit_id, visit_occurrence_id
from standardized_omop_data_etl_ray.spec import TableSpec
from standardized_omop_data_etl_ray.stages.merge import lww_merge
from standardized_omop_data_etl_ray.stages.standardize import make_standardizer


def _pq(
    sf_dir: str,
    name: str,
    columns: list[str] | None = None,
    rows_hint: int | None = None,
    rows_per_block: int = 4096,
) -> rd.Dataset:
    """Read one table.  ``rows_hint`` (footer row count) clamps the block
    count DOWN for small inputs only: Ray's default read splits even a
    4k-row file into ~2×cpus blocks and every downstream stage then pays
    per-block task overhead.  Large inputs keep Ray's own splitting, so
    behavior at scale is unchanged."""
    kw = {}
    if rows_hint is not None:
        try:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        want = rows_hint // rows_per_block + 1
        if want < 2 * cpus:
            kw["override_num_blocks"] = want
    return rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns, **kw)


def _nrows(sf_dir: str, name: str) -> int:
    """Row count from parquet footer metadata — no data read."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/{name}.parquet").metadata.num_rows


def _pq_schema(sf_dir: str, name: str, cols: list[str]) -> pa.Schema:
    """Column schema from the parquet footer — lets joins skip the
    Dataset.schema() probe (which executes part of the pipeline when
    the input is filtered/mapped)."""
    import pyarrow.parquet as pq

    sch = pq.ParquetFile(f"{sf_dir}/{name}.parquet").schema_arrow
    return pa.schema([sch.field(c) for c in cols])


def _ts_us(cols: list[str]):
    """Pin timestamp columns to us resolution: Ray's hash Aggregate can
    re-materialize a grouping key at timestamp[s], while DuckDB
    date_trunc/CAST emit timestamp[us] — the driver's value hash is
    unit-sensitive even when the instants are identical."""

    def fn(batch: pa.Table) -> pa.Table:
        for c in cols:
            if c in batch.column_names:
                i = batch.schema.get_field_index(c)
                batch = batch.set_column(
                    i, c, pc.cast(batch.column(c), pa.timestamp("us"))
                )
        return batch

    return fn


def _round_cols(digits: dict[str, int]):
    """SQL-compatible rounding (bit-identical to DuckDB ROUND — see
    functions/rounding.py; pc.round diverges on scaled-.5 boundaries)."""
    from standardized_omop_data_etl_ray.functions.rounding import round_table_cols

    def fn(batch: pa.Table) -> pa.Table:
        return round_table_cols(batch, digits)

    return fn


# --------------------------------------------------------------------------
# relational core (TPC-H-shaped over the driver tables)
# --------------------------------------------------------------------------

def q1_pricing_summary(sf_dir: str):
    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
              "l_discount", "l_tax", "l_shipdate"])

    cutoff = pa.scalar(datetime(1998, 9, 2))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t.column("l_shipdate"), cutoff))
        disc = pc.multiply(t.column("l_extendedprice"),
                           pc.subtract(1.0, t.column("l_discount")))
        charge = pc.multiply(disc, pc.add(1.0, t.column("l_tax")))
        return t.append_column("disc_price", disc).append_column("charge", charge)

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Sum("charge", alias_name="sum_charge"),
            Mean("l_quantity", alias_name="avg_qty"),
            Mean("l_extendedprice", alias_name="avg_price"),
            Mean("l_discount", alias_name="avg_disc"),
            Count(alias_name="count_order"),
        )
    )
    return agg.map_batches(
        _round_cols({"sum_qty": 2, "sum_base_price": 2, "sum_disc_price": 2,
                     "sum_charge": 2, "avg_qty": 4, "avg_price": 4,
                     "avg_disc": 4}),
        batch_format="pyarrow",
    )


_Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2)                                    AS sum_qty,
       ROUND(SUM(l_extendedprice), 2)                               AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)            AS sum_disc_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2) AS sum_charge,
       ROUND(AVG(l_quantity), 4)                                    AS avg_qty,
       ROUND(AVG(l_extendedprice), 4)                               AS avg_price,
       ROUND(AVG(l_discount), 4)                                    AS avg_disc,
       COUNT(*)                                                     AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""


def q3_top_orders(sf_dir: str, _broadcast_limit: int = 2_000_000):
    """Shuffle hash join (Dataset.join) + broadcast semi-join + top-k."""
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    bld = cust.filter(expr="c_mktsegment == 'BUILDING'").to_pandas()
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cutoff = pa.scalar(datetime(1995, 3, 15))

    from standardized_omop_data_etl_ray.stages.joins import broadcast_join

    o = orders.map_batches(
        lambda t: t.filter(pc.less(t.column("o_orderdate"), cutoff)),
        batch_format="pyarrow",
    )
    o = broadcast_join(
        o, bld.rename(columns={"c_custkey": "o_custkey"})[["o_custkey"]],
        on="o_custkey", how="semi",
    )
    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])
    li = li.map_batches(
        lambda t: t.filter(pc.greater(t.column("l_shipdate"), cutoff)),
        batch_format="pyarrow",
    )
    # GUARDED broadcast (VERDICT r2 #9): the small side is orders
    # pre-filtered to one market segment AND a date cutoff (~1/20 of
    # orders at TPC-H stats — megabytes at sf≤10), but the assumption
    # is now MEASURED: above _broadcast_limit rows the join falls back
    # to the partitioned hash join exactly as q5/q10.
    o_mat = o.materialize()
    if o_mat.count() <= _broadcast_limit:
        joined = broadcast_join(
            li,
            o_mat.to_pandas().rename(columns={"o_orderkey": "l_orderkey"}),
            on="l_orderkey", how="inner",
        )
    else:
        from standardized_omop_data_etl_ray.stages.joins import (
            partitioned_hash_join,
        )

        from standardized_omop_data_etl_ray.stages.joins import (
            nonempty_arrow_blocks,
        )

        oschema = _pq_schema(
            sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
        )
        # normalize the semi-join's pandas blocks to Arrow and drop the
        # schema-less empties Ray skips UDFs on — either would poison
        # the join shuffle's block unification (int keys → float64)
        o_arrow = nonempty_arrow_blocks(o_mat)
        joined = partitioned_hash_join(
            li, o_arrow,
            left_on=["l_orderkey"], right_on=["o_orderkey"],
            how="inner",
            left_schema=_pq_schema(
                sf_dir, "lineitem",
                ["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
            ),
            right_schema=oschema,
        )

    def rev(t: pa.Table) -> pa.Table:
        r = pc.multiply(t.column("l_extendedprice"),
                        pc.subtract(1.0, t.column("l_discount")))
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "o_orderdate": t.column("o_orderdate"),
                         "rev": r})

    # NB: measured FASTER through Ray's aggregate than bucketed_agg
    # here — ~30k groups keeps the per-group reduce cost small while
    # the input is large (the bucketed path pays pandas conversion on
    # every pre-agg row); see joins.bucketed_agg for the inverse case
    agg = (
        joined.map_batches(rev, batch_format="pyarrow")
        .groupby(["l_orderkey", "o_orderdate"])
        .aggregate(Sum("rev", alias_name="revenue"))
        .map_batches(_round_cols({"revenue": 2}), batch_format="pyarrow")
    )
    top = agg.sort(["revenue", "l_orderkey"], descending=[True, False]).limit(10)
    return top.map_batches(_ts_us(["o_orderdate"]), batch_format="pyarrow")


_Q3_SQL = """
SELECT l_orderkey, o_orderdate, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
              JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1995-03-15 00:00:00'
  AND l_shipdate  > TIMESTAMP '1995-03-15 00:00:00'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


def q5_nation_revenue(sf_dir: str):
    """Multi-join, TPC-H Q5 shape.  Fact×fact joins (lineitem⋈orders,
    orders⋈customer) go through ``auto_hash_join`` — the build side's
    footer row count picks broadcast (zero shuffles, probe streams)
    below the 2M-row threshold and the two-sided partitioned hash join
    above it, so the same query plan scales to fact×fact without a
    rewrite; true dims (nation: fixed 25 rows; supplier: SF×100) are
    always broadcast."""
    from standardized_omop_data_etl_ray.stages.joins import (
        auto_hash_join,
        broadcast_join,
        default_buckets,
    )

    nation = _pq(sf_dir, "nation").to_pandas()
    supplier = _pq(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    customer = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    o = auto_hash_join(
        orders, customer, ["o_custkey"], ["c_custkey"],
        right_rows=_nrows(sf_dir, "customer"),
        num_buckets=default_buckets(_nrows(sf_dir, "orders")),
        left_schema=_pq_schema(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        right_schema=_pq_schema(sf_dir, "customer",
                                ["c_custkey", "c_nationkey"]),
    )
    # project before the bigger join: only (o_orderkey, c_nationkey)
    # enter the lineitem join (schema passed explicitly — a probe on
    # o's lineage would execute it)
    o_schema = pa.schema(
        [
            ("o_orderkey", _pq_schema(sf_dir, "orders", ["o_orderkey"])[0].type),
            ("c_nationkey", _pq_schema(sf_dir, "customer", ["c_nationkey"])[0].type),
        ]
    )
    o = o.select_columns(["o_orderkey", "c_nationkey"])
    # build-side bound: |orders ⋈ customer| ≤ |orders| (inner equi-join
    # on customer's unique key) — known from the footer, lineage unrun
    j = auto_hash_join(
        li, o, ["l_orderkey"], ["o_orderkey"],
        right_rows=_nrows(sf_dir, "orders"),
        num_buckets=default_buckets(_nrows(sf_dir, "lineitem")),
        left_schema=_pq_schema(
            sf_dir, "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        ),
        right_schema=o_schema,
    )
    j = broadcast_join(j, supplier.rename(columns={"s_suppkey": "l_suppkey"}),
                       on="l_suppkey", how="inner")

    def same_nation(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("c_nationkey"), t.column("s_nationkey")))
        r = pc.multiply(t.column("l_extendedprice"),
                        pc.subtract(1.0, t.column("l_discount")))
        return pa.table({"n_nationkey": pc.cast(t.column("c_nationkey"), pa.int32()),
                         "rev": r})

    agg = (
        j.map_batches(same_nation, batch_format="pyarrow")
        .groupby("n_nationkey")
        .aggregate(Sum("rev", alias_name="revenue"))
    )
    out = broadcast_join(agg, nation[["n_nationkey", "n_name"]],
                         on="n_nationkey", how="inner")
    return out.select_columns(["n_name", "revenue"]).map_batches(
        _round_cols({"revenue": 2}), batch_format="pyarrow"
    )


_Q5_SQL = """
SELECT n_name, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem JOIN orders   ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
              JOIN supplier ON l_suppkey = s_suppkey
              JOIN nation   ON c_nationkey = n_nationkey
WHERE c_nationkey = s_nationkey
GROUP BY n_name
"""


def q6_revenue_forecast(sf_dir: str):
    ds = _pq(sf_dir, "lineitem",
             ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"])
    lo, hi = pa.scalar(datetime(1994, 1, 1)), pa.scalar(datetime(1995, 1, 1))

    def f(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.greater_equal(t.column("l_shipdate"), lo),
                    pc.less(t.column("l_shipdate"), hi)),
            pc.and_(
                pc.and_(pc.greater_equal(t.column("l_discount"), 0.05),
                        pc.less_equal(t.column("l_discount"), 0.07)),
                pc.less(t.column("l_quantity"), 24.0),
            ),
        )
        t = t.filter(m)
        return pa.table(
            {"r": pc.multiply(t.column("l_extendedprice"), t.column("l_discount"))}
        )

    agg = ds.map_batches(f, batch_format="pyarrow").aggregate(
        Sum("r", alias_name="revenue")
    )
    from standardized_omop_data_etl_ray.functions.rounding import round_half_away

    rev = agg["revenue"]
    return pa.table(
        {"revenue": pa.array(
            [None if rev is None else float(round_half_away([rev], 2)[0])],
            pa.float64())}
    )


_Q6_SQL = """
SELECT ROUND(SUM(l_extendedprice * l_discount), 2) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1994-01-01' AND l_shipdate < TIMESTAMP '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


def q10_returned_customers(sf_dir: str):
    """Fact×fact lineitem⋈orders via ``auto_hash_join`` (broadcast
    below the threshold, partitioned hash join above — orders scales
    with the fact data, so a 100 TB run takes the shuffle path
    automatically); only the post-agg per-customer rows meet the
    customer names via a broadcast of the small projected dim columns."""
    from standardized_omop_data_etl_ray.stages.joins import (
        auto_hash_join,
        broadcast_join,
        default_buckets,
    )

    li_cols = ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"]
    li = _pq(sf_dir, "lineitem", li_cols).filter(expr="l_returnflag == 'R'")
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j = auto_hash_join(
        li, orders, ["l_orderkey"], ["o_orderkey"],
        right_rows=_nrows(sf_dir, "orders"),
        num_buckets=default_buckets(_nrows(sf_dir, "lineitem")),
        left_schema=_pq_schema(sf_dir, "lineitem", li_cols),
        right_schema=_pq_schema(sf_dir, "orders",
                                ["o_orderkey", "o_custkey"]),
    )

    def rev(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": pc.cast(t.column("o_custkey"), pa.int64()),
            "rev": pc.multiply(t.column("l_extendedprice"),
                               pc.subtract(1.0, t.column("l_discount"))),
        })

    agg = (
        j.map_batches(rev, batch_format="pyarrow")
        .groupby("c_custkey").aggregate(Sum("rev", alias_name="revenue"))
        .map_batches(_round_cols({"revenue": 2}), batch_format="pyarrow")
    )
    # top-k pushdown: resolve the 20 winners FIRST (per-customer agg is
    # already small), then meet the customer names by broadcasting just
    # those 20 rows into the streaming dim scan — no dim-table shuffle
    top = agg.sort(["revenue", "c_custkey"], descending=[True, False]).limit(20)
    top_df = top.to_pandas()  # 20 rows
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_name"])
    out = broadcast_join(cust, top_df, on="c_custkey", how="inner")
    return out.sort(["revenue", "c_custkey"], descending=[True, False])


_Q10_SQL = """
SELECT c_custkey, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue, c_name
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
WHERE l_returnflag = 'R'
GROUP BY c_custkey, c_name
ORDER BY revenue DESC, c_custkey
LIMIT 20
"""


def orders_by_priority(sf_dir: str):
    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    return (
        ds.groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_orders"),
                   Sum("o_totalprice", alias_name="sum_total"))
        .map_batches(_round_cols({"sum_total": 2}), batch_format="pyarrow")
        .map_batches(_ts_us(["month"]), batch_format="pyarrow")
    )


_ORDERS_PRIO_SQL = """
SELECT o_orderpriority, COUNT(*) AS n_orders, ROUND(SUM(o_totalprice), 2) AS sum_total
FROM orders GROUP BY o_orderpriority
"""


def filter_highvalue_orders(sf_dir: str):
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderstatus"])

    def f(t: pa.Table) -> pa.Table:
        from standardized_omop_data_etl_ray.functions.rounding import round_half_away

        t = t.filter(pc.greater(t.column("o_totalprice"), 300_000.0))
        taxed = round_half_away(pc.multiply(t.column("o_totalprice"), 1.1), 2)
        return t.append_column("taxed_price", pa.array(taxed, pa.float64()))

    return ds.map_batches(f, batch_format="pyarrow").sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    ).limit(50)


_HIGHVALUE_SQL = """
SELECT o_orderkey, o_totalprice, o_orderstatus, ROUND(o_totalprice * 1.1, 2) AS taxed_price
FROM orders WHERE o_totalprice > 300000
ORDER BY o_totalprice DESC, o_orderkey LIMIT 50
"""


def distinct_segments(sf_dir: str):
    ds = _pq(sf_dir, "customer", ["c_mktsegment"])
    vals = sorted(ds.unique("c_mktsegment"))
    return pa.table({"c_mktsegment": pa.array(vals, pa.string())})


_DISTINCT_SQL = "SELECT DISTINCT c_mktsegment FROM customer"


def topk_parts(sf_dir: str):
    return _pq(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"]).sort(
        ["p_retailprice", "p_partkey"], descending=[True, False]
    ).limit(20)


_TOPK_PARTS_SQL = """
SELECT p_partkey, p_name, p_retailprice FROM part
ORDER BY p_retailprice DESC, p_partkey LIMIT 20
"""


def region_customer_counts(sf_dir: str):
    from standardized_omop_data_etl_ray.stages.joins import broadcast_join

    nation = _pq(sf_dir, "nation").to_pandas()
    region = _pq(sf_dir, "region").to_pandas()
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j = broadcast_join(cust, nation.rename(columns={"n_nationkey": "c_nationkey"}),
                       on="c_nationkey", how="inner")
    j = broadcast_join(j, region.rename(columns={"r_regionkey": "n_regionkey"}),
                       on="n_regionkey", how="inner")
    return j.groupby("r_name").aggregate(Count(alias_name="n_customers"))


_REGION_COUNTS_SQL = """
SELECT r_name, COUNT(*) AS n_customers
FROM customer JOIN nation ON c_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


# --------------------------------------------------------------------------
# reference-parity operator shapes (SURVEY.md §2)
# --------------------------------------------------------------------------

def unpivot_lineitem_metrics(sf_dir: str):
    """M7 wide→long unpivot, aggregated per metric."""
    from standardized_omop_data_etl_ray.stages.unpivot import (
        UnpivotItem,
        make_unpivoter,
    )

    items = [
        UnpivotItem("l_quantity", 1, "quantity"),
        UnpivotItem("l_extendedprice", 2, "extendedprice"),
        UnpivotItem("l_discount", 3, "discount"),
        UnpivotItem("l_tax", 4, "tax"),
    ]
    fn = make_unpivoter(items, ["l_orderkey"], value_col="value",
                        concept_col="metric_id", name_col="metric",
                        source_col_name=None)
    ds = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax"])
    long = ds.map_batches(fn, batch_format="pyarrow")
    return (
        long.groupby("metric")
        .aggregate(Count(alias_name="n_values"),
                   Sum("value", alias_name="sum_value"))
        .map_batches(_round_cols({"sum_value": 2}), batch_format="pyarrow")
    )


_UNPIVOT_SQL = """
SELECT metric, COUNT(*) AS n_values, ROUND(SUM(value), 2) AS sum_value
FROM (
    SELECT l_orderkey, 'quantity' AS metric, l_quantity AS value FROM lineitem
    UNION ALL SELECT l_orderkey, 'extendedprice', l_extendedprice FROM lineitem
    UNION ALL SELECT l_orderkey, 'discount', l_discount FROM lineitem
    UNION ALL SELECT l_orderkey, 'tax', l_tax FROM lineitem
)
GROUP BY metric
"""


def sequential_ids_orders(sf_dir: str):
    """A5 global sequential ids (orderkey order)."""
    from standardized_omop_data_etl_ray.stages.aggregates import sequential_ids

    ds = _pq(sf_dir, "orders", ["o_orderkey"])
    return sequential_ids(ds, "rid", sort_col="o_orderkey")


_SEQ_IDS_SQL = """
SELECT o_orderkey, ROW_NUMBER() OVER (ORDER BY o_orderkey) AS rid FROM orders
"""


def priority_merge_orders(sf_dir: str):
    """A1 priority-ordered keyed merge: per customer, all orders of the
    highest-priority status present (F > O > P); losers diverted.  Uses
    the single-pass rank-column form (the sources-based priority_merge
    — the reference's exact shape — is exercised by the OMOP pipeline
    tests); semantics are identical, but orders is read ONCE instead of
    three filtered scans unioned."""
    from standardized_omop_data_etl_ray.stages.joins import default_buckets
    from standardized_omop_data_etl_ray.stages.merge import priority_merge_by_rank

    ds = _pq(sf_dir, "orders",
             ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"])

    def rank(t: pa.Table) -> pa.Table:
        st = t.column("o_orderstatus").to_numpy(zero_copy_only=False)
        r = np.select([st == "F", st == "O"], [0, 1], default=2)
        return t.append_column("__rank", pa.array(r.astype(np.int32)))

    merged = priority_merge_by_rank(
        ds.map_batches(rank, batch_format="pyarrow"),
        ["o_custkey"], "__rank",
        num_buckets=default_buckets(_nrows(sf_dir, "orders")),
    )
    winners = merged.filter(expr="__redundant == False")
    return winners.select_columns(
        ["o_custkey", "o_orderkey", "o_orderstatus", "o_totalprice"]
    )


_PRIORITY_MERGE_SQL = """
WITH ranked AS (
    SELECT o_custkey, o_orderkey, o_orderstatus, o_totalprice,
           CASE o_orderstatus WHEN 'F' THEN 0 WHEN 'O' THEN 1 ELSE 2 END AS pr
    FROM orders
), best AS (SELECT o_custkey, MIN(pr) AS mpr FROM ranked GROUP BY o_custkey)
SELECT r.o_custkey, r.o_orderkey, r.o_orderstatus, r.o_totalprice
FROM ranked r JOIN best b ON r.o_custkey = b.o_custkey AND r.pr = b.mpr
"""


def user_activity_spans(sf_dir: str):
    """A4 per-key min/max span over the events stream."""
    ds = _pq(sf_dir, "events", ["user_id", "ts"])
    return ds.groupby("user_id").aggregate(
        Min("ts", alias_name="first_ts"),
        Max("ts", alias_name="last_ts"),
        Count(alias_name="n_events"),
    )


_SPANS_SQL = """
SELECT user_id, MIN(ts) AS first_ts, MAX(ts) AS last_ts, COUNT(*) AS n_events
FROM events GROUP BY user_id
"""


def visit_id_synthesis(sf_dir: str):
    """M3 key synthesis: {person}_{date} with _0 for missing."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts"])

    def fn(t: pa.Table) -> pa.Table:
        d = pc.strftime(t.column("ts"), format="%Y-%m-%d")
        vid = visit_occurrence_id(t.column("user_id"), d)
        return pa.table({"event_id": t.column("event_id"), "visit_id": vid})

    return ds.map_batches(fn, batch_format="pyarrow")


_VISIT_ID_SQL = """
SELECT event_id, CAST(user_id AS VARCHAR) || '_' || strftime(ts, '%Y-%m-%d') AS visit_id
FROM events
"""


def nine_digit_ids_orders(sf_dir: str):
    """M18 id-space transform."""
    ds = _pq(sf_dir, "orders", ["o_orderkey"])

    def fn(t: pa.Table) -> pa.Table:
        return t.append_column("id9", nine_digit_id(t.column("o_orderkey")))

    return ds.map_batches(fn, batch_format="pyarrow")


_NINE_DIGIT_SQL = """
SELECT o_orderkey,
       '11' || lpad(right(CAST(o_orderkey AS VARCHAR), 7), 7, '0') AS id9
FROM orders
"""


def hourly_event_windows(sf_dir: str):
    """Tumbling-window aggregate (streaming-shaped).

    avg derives from the ROUNDED sum (both sides divide the identical
    rounded double by the identical count) — a raw Mean vs SQL AVG can
    land one ulp apart from summation order and flip the 4th rounded
    digit at a .00005 boundary."""
    from standardized_omop_data_etl_ray.functions.rounding import (
        round_half_away,
    )
    from standardized_omop_data_etl_ray.stages.windows import tumbling_aggregate

    ds = _pq(sf_dir, "events", ["ts", "value"])
    agg = tumbling_aggregate(ds, "ts", "value", unit="hour").map_batches(
        _round_cols({"sum_value": 2}), batch_format="pyarrow"
    )

    def derived_avg(t: pa.Table) -> pa.Table:
        s = t.column("sum_value").to_numpy(zero_copy_only=False)
        n = t.column("n_events").to_numpy(zero_copy_only=False)
        avg = round_half_away(s / n, 4)
        i = t.schema.get_field_index("avg_value")
        return t.set_column(i, "avg_value", pa.array(avg, pa.float64()))

    return agg.map_batches(derived_avg, batch_format="pyarrow")


_HOURLY_SQL = """
SELECT date_trunc('hour', ts) AS window_start, COUNT(*) AS n_events,
       ROUND(SUM(value), 2) AS sum_value,
       ROUND(ROUND(SUM(value), 2) / COUNT(*), 4) AS avg_value
FROM events GROUP BY 1
"""


def sessionize_events(sf_dir: str):
    """Session windows per user (30-min gap): sessions per user."""
    from standardized_omop_data_etl_ray.stages.windows import sessionize

    ds = _pq(sf_dir, "events", ["user_id", "ts"])
    sess = sessionize(ds, "user_id", "ts", gap_seconds=1800)
    return sess.groupby("user_id").aggregate(
        Max("session_id", alias_name="max_sid")
    ).map_batches(
        lambda t: pa.table({
            "user_id": t.column("user_id"),
            "n_sessions": pc.add(pc.cast(t.column("max_sid"), pa.int64()), 1),
        }),
        batch_format="pyarrow",
    )


_SESSIONIZE_SQL = """
WITH g AS (
    SELECT user_id, ts,
           CASE WHEN lag(ts) OVER w IS NULL
                  OR epoch(ts - lag(ts) OVER w) > 1800 THEN 1 ELSE 0 END AS brk
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
)
SELECT user_id, CAST(SUM(brk) AS BIGINT) AS n_sessions FROM g GROUP BY user_id
"""


# --------------------------------------------------------------------------
# CDC merge on the driver's events table (the crown-jewel operator, with a
# pure-SQL oracle)
# --------------------------------------------------------------------------

def _events_as_cdc(sf_dir: str, with_deletes: bool) -> rd.Dataset:
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "event_type", "props"])

    def to_cdc(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        op = (
            pc.if_else(pc.equal(et, "error"), "D", "U")
            if with_deletes
            else pa.array(["U"] * t.num_rows)
        )
        return pa.table(
            {
                "op": op,
                "lsn": pc.cast(t.column("event_id"), pa.int64()),
                "repo": pa.array(["events"] * t.num_rows),
                "path": pc.cast(t.column("user_id"), pa.string()),
                "commit": pc.cast(t.column("event_id"), pa.string()),
                "lang": pc.cast(et, pa.string()),
                "content": pc.cast(t.column("props"), pa.string()),
            }
        )

    return ds.map_batches(to_cdc, batch_format="pyarrow")


def _cdc_final(sf_dir: str, with_deletes: bool):
    spec = TableSpec(name="ev_cdc", num_partitions=16)
    std = _events_as_cdc(sf_dir, with_deletes).map_batches(
        make_standardizer(spec), batch_format="pyarrow"
    )
    final = lww_merge(std, spec)

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": pc.cast(t.column("path"), pa.int64()),
                "last_event_id": t.column("lsn"),
                "last_event_type": t.column("lang"),
            }
        )

    return final.map_batches(project, batch_format="pyarrow")


def cdc_lww_upsert(sf_dir: str):
    return _cdc_final(sf_dir, with_deletes=False)


_CDC_UPSERT_SQL = """
SELECT user_id, event_id AS last_event_id, event_type AS last_event_type
FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY event_id DESC) rn
      FROM events)
WHERE rn = 1
"""


def cdc_lww_with_deletes(sf_dir: str):
    return _cdc_final(sf_dir, with_deletes=True)


_CDC_DELETES_SQL = """
SELECT user_id, event_id AS last_event_id, event_type AS last_event_type
FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY event_id DESC) rn
      FROM events)
WHERE rn = 1 AND event_type <> 'error'
"""


def cdc_snapshot_diff(sf_dir: str):
    """Snapshot reconciliation: the LWW state at the half-way watermark
    (event_id ≤ max/2) diffed against the final state — added / deleted
    / updated keys with old/new versions (stages/merge.snapshot_diff:
    one full-outer partitioned hash join, change-set-sized output)."""
    from ray.data.aggregate import Max

    from standardized_omop_data_etl_ray.stages.merge import snapshot_diff

    ev = _pq(sf_dir, "events", ["event_id"])
    half = ev.aggregate(Max("event_id", alias_name="m"))["m"] // 2

    spec_a = TableSpec(name="ev_cdc_a", num_partitions=16)
    # snapshot A replays only events ≤ half (filter BEFORE the merge,
    # matching a watermark-bounded lake read)
    std_a = _events_as_cdc(sf_dir, True).map_batches(
        lambda t: t.filter(pc.less_equal(t.column("lsn"), half)),
        batch_format="pyarrow",
    ).map_batches(make_standardizer(spec_a), batch_format="pyarrow")
    from standardized_omop_data_etl_ray.stages.merge import lww_merge

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": pc.cast(t.column("path"), pa.int64()),
                "last_event_id": t.column("lsn"),
            }
        )

    a = lww_merge(std_a, spec_a).map_batches(project, batch_format="pyarrow")
    b = _cdc_final(sf_dir, with_deletes=True).select_columns(
        ["user_id", "last_event_id"]
    )
    sch = pa.schema([("user_id", pa.int64()), ("last_event_id", pa.int64())])
    return snapshot_diff(
        a, b, ["user_id"], "last_event_id",
        schema_a=sch, schema_b=sch, num_buckets=16,
    )


_SNAPSHOT_DIFF_SQL = """
WITH half AS (SELECT MAX(event_id) // 2 AS h FROM events),
a AS (
    SELECT user_id, event_id AS eid
    FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id
                                       ORDER BY event_id DESC) rn
          FROM events WHERE event_id <= (SELECT h FROM half))
    WHERE rn = 1 AND event_type <> 'error'
),
b AS (
    SELECT user_id, event_id AS eid
    FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id
                                       ORDER BY event_id DESC) rn
          FROM events)
    WHERE rn = 1 AND event_type <> 'error'
)
SELECT COALESCE(a.user_id, b.user_id) AS user_id,
       CASE WHEN a.user_id IS NULL THEN 'added'
            WHEN b.user_id IS NULL THEN 'deleted'
            ELSE 'updated' END AS change,
       a.eid AS old_last_event_id,
       b.eid AS new_last_event_id
FROM a FULL JOIN b ON a.user_id = b.user_id
WHERE a.user_id IS NULL OR b.user_id IS NULL OR a.eid <> b.eid
"""


# --------------------------------------------------------------------------
# training-data ops over documents / embeddings
# --------------------------------------------------------------------------

def dedup_exact_docs(sf_dir: str):
    from standardized_omop_data_etl_ray.stages.dedup import exact_dedup

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)
    # winner_keys_only: the dedupe exchange ships (sha, id) rows only
    # and joins text back for the winner set — the 100 TB shape
    # (full-row mode measured equal at this scale: 0.17 vs 0.20 s)
    return exact_dedup(docs, "text", "doc_id", num_rows=n,
                       winner_keys_only=True)


_DEDUP_EXACT_SQL = """
SELECT MIN(doc_id) AS doc_id, text FROM documents GROUP BY text
"""


def minhash_cross_near_dups(sf_dir: str):
    """Cross-corpus LSH dedup (stages/dedup.minhash_cross_pairs): a
    "new crawl" (planted committed twins + genuinely-new docs) LSH-
    banded against the committed corpus — only NEW×COMMITTED pairs
    generate (never the union self-join), sha-verified inline.
    Identical texts share every band (recall 1), so the exact-text
    cross join IS the closed-form oracle — the probabilistic near-dup
    tail rides the same machinery (same contract as
    minhash_self_near_dups)."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        minhash_cross_pairs,
    )
    from standardized_omop_data_etl_ray.stages.joins import default_buckets

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)

    committed = docs.map_batches(
        lambda t: t.filter(pc.not_equal(_pc_mod(t.column("doc_id"), 4),
                                        0)),
        batch_format="pyarrow",
    )
    twins = docs.map_batches(
        lambda t: pa.table({
            "doc_id": pc.add(t.column("doc_id"), 1_000_000),
            "text": t.column("text"),
        }).filter(pc.and_(
            pc.not_equal(_pc_mod(t.column("doc_id"), 4), 0),
            pc.equal(_pc_mod(t.column("doc_id"), 8), 1),
        )),
        batch_format="pyarrow",
    )
    fresh = docs.map_batches(
        lambda t: pa.table({
            "doc_id": pc.add(t.column("doc_id"), 2_000_000),
            "text": t.column("text"),
        }).filter(pc.equal(_pc_mod(t.column("doc_id"), 4), 0)),
        batch_format="pyarrow",
    )
    pairs = minhash_cross_pairs(
        twins.union(fresh), committed, "text", "doc_id",
        carry_sha=True, num_buckets=default_buckets(n),
    )
    return pairs.map_batches(
        lambda t: t.filter(pc.equal(t.column("sha_a"),
                                    t.column("sha_b"))
                           ).select(["id_a", "id_b"]),
        batch_format="pyarrow",
    )


_MINHASH_CROSS_SQL = """
WITH committed AS (
    SELECT doc_id, text FROM documents WHERE doc_id % 4 <> 0
),
new AS (
    SELECT doc_id + 1000000 AS doc_id, text FROM documents
    WHERE doc_id % 4 <> 0 AND doc_id % 8 = 1
    UNION ALL
    SELECT doc_id + 2000000, text FROM documents WHERE doc_id % 4 = 0
)
SELECT n.doc_id AS id_a, c.doc_id AS id_b
FROM new n JOIN committed c ON n.text = c.text
"""


def incremental_exact_dedup_docs(sf_dir: str):
    """Crawl-vs-corpus exact dedup (stages/dedup.
    incremental_exact_dedup): the committed corpus (doc_id%4≠0)
    contributes only its content-sha stream; the new batch (doc_id%4=0)
    drops rows whose content the corpus already holds, then keeps the
    min-id copy of each remaining sha — one narrow bucketed exchange +
    an id-partitioned join-back, no broadcast of the corpus-sized
    committed set."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        add_content_hash,
        incremental_exact_dedup,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)
    base, added, _ = _live_split(docs)
    committed = add_content_hash(base, "text").select_columns(
        ["content_sha"])
    return incremental_exact_dedup(added, committed, "text", "doc_id",
                                   num_rows=n)


_INC_EXACT_DEDUP_SQL = """
WITH committed AS (
    SELECT DISTINCT text FROM documents WHERE doc_id % 4 <> 0
),
new AS (
    SELECT doc_id, text FROM documents WHERE doc_id % 4 = 0
)
SELECT MIN(doc_id) AS doc_id, text
FROM new
WHERE text NOT IN (SELECT text FROM committed)
GROUP BY text
"""


def token_counts_docs(sf_dir: str):
    from standardized_omop_data_etl_ray.functions.text import token_counts

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        tc = token_counts(df["text"])
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_tokens_ws": tc["n_tokens_ws"],
            "n_tokens_bpe": tc["n_tokens_bpe"],
        })

    return docs.map_batches(fn, batch_format="pandas")


_TOKEN_COUNTS_SQL = """
SELECT doc_id, len(string_split_regex(trim(text), '\\s+')) AS n_tokens_ws,
       len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^ \\t\\n\\rA-Za-z0-9]+'))
           AS n_tokens_bpe
FROM documents
"""


def quality_stats_docs(sf_dir: str):
    from standardized_omop_data_etl_ray.functions.text import quality_features

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        q = quality_features(df["text"])
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chars_calc": q["n_chars"],
                "n_words": q["n_words"],
            }
        )

    return docs.map_batches(fn, batch_format="pandas")


_QUALITY_SQL = """
SELECT doc_id, length(text) AS n_chars_calc,
       len(regexp_extract_all(text, '[A-Za-z'']+')) AS n_words
FROM documents
"""


def repetition_stats_docs(sf_dir: str):
    """Gopher-style within-doc repetition filters: duplicate-trigram
    fraction and top-bigram share, rounded to 6dp on both sides (the
    fractions are ratios of small ints — no boundary ties)."""
    from standardized_omop_data_etl_ray.functions.rounding import (
        round_half_away,
    )
    from standardized_omop_data_etl_ray.functions.text import (
        repetition_features,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        r = repetition_features(df["text"])
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "dup_trigram_frac": round_half_away(
                    r["dup_trigram_frac"].to_numpy(), 6
                ),
                "top_bigram_frac": round_half_away(
                    r["top_bigram_frac"].to_numpy(), 6
                ),
            }
        )

    return docs.map_batches(fn, batch_format="pandas")


_REPETITION_SQL = r"""
WITH tok AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array(trim(text), '\s+') END AS w
    FROM documents
),
grams AS (
    SELECT doc_id,
           CASE WHEN len(w) < 3 THEN CAST([] AS VARCHAR[])
                ELSE list_transform(generate_series(1, len(w)-2),
                                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
           END AS t3,
           CASE WHEN len(w) < 2 THEN CAST([] AS VARCHAR[])
                ELSE list_transform(generate_series(1, len(w)-1),
                                    i -> w[i] || ' ' || w[i+1])
           END AS t2
    FROM tok
),
b AS (SELECT doc_id, unnest(t2) AS g FROM grams),
bc AS (SELECT doc_id, g, count(*) AS c FROM b GROUP BY doc_id, g),
topb AS (SELECT doc_id, max(c) AS mx, sum(c) AS tot FROM bc GROUP BY doc_id)
SELECT g.doc_id,
       CASE WHEN len(g.t3) = 0 THEN 0.0
            ELSE ROUND((len(g.t3) - len(list_distinct(g.t3))) * 1.0
                       / len(g.t3), 6) END AS dup_trigram_frac,
       COALESCE(ROUND(topb.mx * 1.0 / topb.tot, 6), 0.0) AS top_bigram_frac
FROM grams g LEFT JOIN topb ON g.doc_id = topb.doc_id
"""


def lang_distribution(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["lang", "n_chars"])
    return (
        ds.groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Mean("n_chars", alias_name="avg_chars"))
        .map_batches(_round_cols({"avg_chars": 4}), batch_format="pyarrow")
    )


_LANG_DIST_SQL = """
SELECT lang, COUNT(*) AS n_docs, ROUND(AVG(n_chars), 4) AS avg_chars
FROM documents GROUP BY lang
"""


def minhash_self_near_dups(sf_dir: str):
    """MinHash-LSH duplicate detection with a planted duplicate universe
    (documents ∪ documents with doc_id + 1,000,000): LSH banding proposes
    candidate pairs, an exact text-equality verify confirms — identical
    texts always share every band bucket, so recall is 1 and the result
    equals the SQL self-join oracle exactly."""
    from standardized_omop_data_etl_ray.stages.dedup import minhash_candidate_pairs
    from standardized_omop_data_etl_ray.stages.joins import default_buckets

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)

    def shift(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t.column("doc_id"), 1_000_000),
                "text": t.column("text"),
            }
        )

    both = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    # scale-safe verify: content shas ride with the band rows and the
    # equality check happens inline in the candidate stage (no driver
    # dict, no corpus broadcast, no extra shuffles — VERDICT r1 #5)
    pairs = minhash_candidate_pairs(both, "text", "doc_id", concurrency=(2, 8),
                                    carry_sha=True,
                                    num_buckets=default_buckets(2 * n))
    return pairs.filter(expr="sha_a == sha_b").select_columns(["id_a", "id_b"])


_MINHASH_SQL = """
WITH u AS (
    SELECT doc_id, text FROM documents
    UNION ALL SELECT doc_id + 1000000 AS doc_id, text FROM documents
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b
FROM u a JOIN u b ON a.text = b.text AND a.doc_id < b.doc_id
"""


def simhash_self_near_dups(sf_dir: str):
    """SimHash near-dup detection with the same planted duplicate
    universe as minhash: fingerprints → rotated-prefix bucket candidate
    pairs (Hamming ≤ 3) → scale-safe exact-equality verify (distributed
    sha join).  Identical texts share every bucket (Hamming 0) so recall
    on the planted pairs is 1 and the result equals the SQL self-join."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        simhash_fingerprints,
        simhash_near_pairs,
    )
    from standardized_omop_data_etl_ray.stages.joins import default_buckets

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)

    def shift(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t.column("doc_id"), 1_000_000),
                "text": t.column("text"),
            }
        )

    both = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    fps = simhash_fingerprints(both, "text", "doc_id", concurrency=(2, 8),
                               carry_sha=True)
    pairs = simhash_near_pairs(fps, "doc_id", max_hamming=3,
                               num_buckets=default_buckets(2 * n))
    return pairs.filter(expr="sha_a == sha_b").select_columns(["id_a", "id_b"])


def jaccard_near_dups(sf_dir: str):
    """n-gram Jaccard near-dup detection: documents ∪ documents with an
    appended marker word (planted ~(n-2)/(n-1) similarity), MinHash-LSH
    candidates, then the DISTRIBUTED shingle-set verify (pair endpoints
    join back to their texts — stages/dedup.verify_jaccard_pairs; no
    corpus broadcast).  The oracle recomputes 3-gram Jaccard in SQL over
    all shingle-sharing pairs; both sides use the identical shingle and
    jaccard definitions, so results match exactly (LSH miss probability
    for a ≥0.8 pair is ≤(1-0.8⁴)³² ≈ 5e-8 per pair)."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        minhash_candidate_pairs,
        verify_jaccard_pairs,
    )
    from standardized_omop_data_etl_ray.stages.joins import default_buckets

    n = _nrows(sf_dir, "documents")
    B = default_buckets(2 * n)
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)

    def modify(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t.column("doc_id"), 1_000_000),
                "text": pc.binary_join_element_wise(
                    t.column("text"), pa.scalar(" zzzmarker"), ""
                ),
            }
        )

    both = docs.union(docs.map_batches(modify, batch_format="pyarrow"))
    # distinct=False: verify_jaccard_pairs' pair-bucket pivot dedups,
    # so the global pair-distinct shuffle would be a wasted exchange
    pairs = minhash_candidate_pairs(both, "text", "doc_id",
                                    concurrency=(2, 8), distinct=False,
                                    num_buckets=B)
    verified = verify_jaccard_pairs(pairs, both, "text", "doc_id",
                                    threshold=0.8, num_buckets=B)
    return verified.select_columns(["id_a", "id_b"])


_JACCARD_SQL = r"""
WITH u AS (
    SELECT doc_id, text FROM documents
    UNION ALL
    SELECT doc_id + 1000000, text || ' zzzmarker' FROM documents
),
tok AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array(trim(text), '\s+') END AS w
    FROM u
),
sh AS (
    SELECT doc_id,
           CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                ELSE list_transform(generate_series(1, len(w)-2),
                                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
           END AS s
    FROM tok
),
ds AS (SELECT doc_id, list_distinct(s) AS s FROM sh),
ex AS (SELECT doc_id, unnest(s) AS g FROM ds),
cand AS (
    SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
    FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
    UNION
    -- two shingle-less docs have jaccard 1.0 by the engine's definition
    -- (empty ∩ / empty ∪ → 1.0) but share no unnested shingle — pair
    -- them explicitly so both sides agree on empty/whitespace texts
    SELECT a.doc_id, b.doc_id
    FROM ds a JOIN ds b ON a.doc_id < b.doc_id
    WHERE len(a.s) = 0 AND len(b.s) = 0
)
SELECT id_a, id_b
FROM cand JOIN ds da ON da.doc_id = id_a JOIN ds db ON db.doc_id = id_b
WHERE CASE WHEN len(da.s) = 0 AND len(db.s) = 0 THEN 1.0
           ELSE len(list_intersect(da.s, db.s)) * 1.0
                / greatest(1, len(da.s) + len(db.s)
                              - len(list_intersect(da.s, db.s)))
      END >= 0.8
"""


def _doubled_corpus_pairs(sf_dir: str):
    """Shared front end of the group-dedup queries: the documents table
    doubled with marked clones, its verified jaccard pair set, and the
    bucket count sized from the corpus."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        minhash_candidate_pairs,
        verify_jaccard_pairs,
    )
    from standardized_omop_data_etl_ray.stages.joins import default_buckets

    n = _nrows(sf_dir, "documents")
    B = default_buckets(2 * n)
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)

    def modify(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t.column("doc_id"), 1_000_000),
                "text": pc.binary_join_element_wise(
                    t.column("text"), pa.scalar(" zzzmarker"), ""
                ),
            }
        )

    both = docs.union(docs.map_batches(modify, batch_format="pyarrow"))
    pairs = minhash_candidate_pairs(both, "text", "doc_id",
                                    concurrency=(2, 8), distinct=False,
                                    num_buckets=B)
    verified = verify_jaccard_pairs(pairs, both, "text", "doc_id",
                                    threshold=0.8, num_buckets=B)
    return both, verified, B


def near_dup_groups(sf_dir: str):
    """Near-dup GROUPS — the actual dedup semantics (keep one doc per
    component, not per pair): the jaccard pair set feeds distributed
    min-label propagation (stages/dedup.connected_components), emitting
    (doc_id, group_id=min id in component).  The oracle computes the
    same components via a recursive transitive-closure CTE over the
    identical pair SQL."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        connected_components,
    )

    _, verified, _ = _doubled_corpus_pairs(sf_dir)
    comp = connected_components(verified)
    return comp.map_batches(
        lambda t: pa.table(
            {"doc_id": t.column("node"), "group_id": t.column("group_id")}
        ),
        batch_format="pyarrow",
    )


def incremental_near_dup_groups(sf_dir: str):
    """Near-dup groups maintained INCREMENTALLY (the CDC shape: each
    ingest epoch's LSH stages emit a delta pair set; group labels
    evolve without recomputing over history).  The verified jaccard
    pair set is split deterministically by ``id_a`` parity into an
    "already ingested" batch and a "new epoch" delta; labels come from
    connected_components on the first batch, then
    incremental_components merges the delta with map-only passes over
    the label table.  Oracle: the SAME full-recompute recursive CTE as
    near_dup_groups — the incremental path must land exactly on the
    batch answer."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        connected_components,
        incremental_components,
    )

    _, verified, _ = _doubled_corpus_pairs(sf_dir)
    verified = verified.materialize()

    def half(par: int):
        def fn(t: pa.Table) -> pa.Table:
            a = t.column("id_a").to_numpy(zero_copy_only=False)
            return t.filter(pa.array(a % 2 == par))

        return fn

    first = verified.map_batches(half(0), batch_format="pyarrow")
    delta = verified.map_batches(half(1), batch_format="pyarrow")
    labels = connected_components(first)
    merged = incremental_components(labels, delta)
    return merged.map_batches(
        lambda t: pa.table(
            {"doc_id": t.column("node"), "group_id": t.column("group_id")}
        ),
        batch_format="pyarrow",
    )


def dedup_canonical_docs(sf_dir: str):
    """The dedup OUTPUT corpus: keep exactly one canonical doc per
    near-dup component (the member with the minimum id) and pass
    singletons through.  The drop set (component members ≠ minimum)
    streams through a partitioned left join against the corpus ids —
    never a driver-side set, so the filter holds when the dup fraction
    is a large share of a 100 TB corpus."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        connected_components,
    )
    from standardized_omop_data_etl_ray.stages.joins import (
        partitioned_hash_join,
    )

    both, verified, B = _doubled_corpus_pairs(sf_dir)
    comp = connected_components(verified)

    def drops(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t.column("node"), t.column("group_id"))
        f = t.filter(keep)
        return pa.table(
            {
                "doc_id": pc.cast(f.column("node"), pa.int64()),
                "dropped": pa.array(
                    np.ones(f.num_rows, dtype=bool), pa.bool_()
                ),
            }
        )

    drop_ds = comp.map_batches(drops, batch_format="pyarrow")
    ids = both.map_batches(
        lambda t: t.select(["doc_id"]), batch_format="pyarrow"
    )
    joined = partitioned_hash_join(
        ids, drop_ds, ["doc_id"], how="left", num_buckets=B,
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema(
            [("doc_id", pa.int64()), ("dropped", pa.bool_())]
        ),
    )
    return joined.map_batches(
        lambda t: t.filter(pc.is_null(t.column("dropped"))).select(
            ["doc_id"]
        ),
        batch_format="pyarrow",
    )


_NEAR_DUP_GROUPS_SQL = f"""
WITH RECURSIVE pairs AS (
{_JACCARD_SQL}
),
edges AS (
    SELECT id_a AS a, id_b AS b FROM pairs
    UNION
    SELECT id_b, id_a FROM pairs
),
reach(src, dst) AS (
    SELECT a, b FROM edges
    UNION
    SELECT r.src, e.b FROM reach r JOIN edges e ON e.a = r.dst
)
SELECT src AS doc_id, least(src, min(dst)) AS group_id
FROM reach GROUP BY src
"""


_DEDUP_CANONICAL_SQL = f"""
WITH RECURSIVE pairs AS (
{_JACCARD_SQL}
),
edges AS (
    SELECT id_a AS a, id_b AS b FROM pairs
    UNION
    SELECT id_b, id_a FROM pairs
),
reach(src, dst) AS (
    SELECT a, b FROM edges
    UNION
    SELECT r.src, e.b FROM reach r JOIN edges e ON e.a = r.dst
),
grp AS (
    SELECT src AS doc_id, least(src, min(dst)) AS group_id
    FROM reach GROUP BY src
),
allids AS (
    SELECT doc_id FROM documents
    UNION ALL
    SELECT doc_id + 1000000 FROM documents
)
SELECT doc_id FROM allids
WHERE doc_id NOT IN (SELECT doc_id FROM grp WHERE doc_id <> group_id)
"""


def dedup_best_quality_docs(sf_dir: str):
    """Quality-ranked canonical dedup — the production selection rule
    (keep the BEST member of each near-dup component, not the smallest
    id; here score = text length, ties → min id).  Singletons pass
    through.  Because the planted clones append a marker suffix, the
    clone (longer) must win its pair — so this exercises a non-trivial
    winner, unlike min-id canonical.

    Scale shape: component labels join member scores through a
    partitioned hash join; winners resolve vectorized per hash bucket;
    the drop set streams back as a partitioned anti-filter — no
    driver-side sets anywhere."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        connected_components,
    )
    from standardized_omop_data_etl_ray.stages.joins import (
        bucketed_groupby,
        partitioned_hash_join,
    )

    both, verified, B = _doubled_corpus_pairs(sf_dir)
    comp = connected_components(verified)
    labels = comp.map_batches(
        lambda t: pa.table({
            "doc_id": pc.cast(t.column("node"), pa.int64()),
            "group_id": pc.cast(t.column("group_id"), pa.int64()),
        }),
        batch_format="pyarrow",
    )
    scores = both.map_batches(
        lambda t: pa.table({
            "doc_id": t.column("doc_id"),
            "score": pc.cast(pc.utf8_length(t.column("text")), pa.int64()),
        }),
        batch_format="pyarrow",
    )
    members = partitioned_hash_join(
        labels, scores, ["doc_id"], how="inner", num_buckets=B,
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("group_id", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("score", pa.int64())]),
    )

    def losers(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["group_id", "score", "doc_id"],
                          ascending=[True, False, True])
        non_winner = g.groupby("group_id", sort=False).cumcount() > 0
        d = g[non_winner.to_numpy()]
        return pd.DataFrame({
            "doc_id": d["doc_id"].to_numpy(),
            "dropped": np.ones(len(d), dtype=bool),
        })

    drop_ds = bucketed_groupby(members, ["group_id"], losers, B)
    ids = both.map_batches(
        lambda t: t.select(["doc_id"]), batch_format="pyarrow"
    )
    joined = partitioned_hash_join(
        ids, drop_ds, ["doc_id"], how="left", num_buckets=B,
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema(
            [("doc_id", pa.int64()), ("dropped", pa.bool_())]
        ),
    )
    return joined.map_batches(
        lambda t: t.filter(
            pc.is_null(t.column("dropped"))
        ).select(["doc_id"]),
        batch_format="pyarrow",
    )


_DEDUP_BEST_SQL = f"""
WITH RECURSIVE pairs AS (
{_JACCARD_SQL}
),
edges AS (
    SELECT id_a AS a, id_b AS b FROM pairs
    UNION
    SELECT id_b, id_a FROM pairs
),
reach(src, dst) AS (
    SELECT a, b FROM edges
    UNION
    SELECT r.src, e.b FROM reach r JOIN edges e ON e.a = r.dst
),
grp AS (
    SELECT src AS doc_id, least(src, min(dst)) AS group_id
    FROM reach GROUP BY src
),
allids AS (
    SELECT doc_id, text FROM documents
    UNION ALL
    SELECT doc_id + 1000000, text || ' zzzmarker' FROM documents
),
members AS (
    SELECT g.doc_id, g.group_id, length(a.text) AS score
    FROM grp g JOIN allids a USING (doc_id)
),
winners AS (
    SELECT doc_id, ROW_NUMBER() OVER (
        PARTITION BY group_id ORDER BY score DESC, doc_id
    ) AS rn FROM members
)
SELECT doc_id FROM allids
WHERE doc_id NOT IN (SELECT doc_id FROM winners WHERE rn > 1)
"""


def decontaminate_docs(sf_dir: str):
    """Benchmark decontamination: flag corpus docs sharing ≥5 distinct
    3-gram shingles with a benchmark slice (doc_id % 50 == 0) — the
    train/eval-leak hygiene pass.  The benchmark shingle-hash set is
    computed distributed and broadcast once; the corpus streams."""
    from standardized_omop_data_etl_ray.stages.dedup import (
        benchmark_shingle_hashes,
        decontaminate,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def split(keep_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            m = (ids % 50 == 0) if keep_bench else (ids % 50 != 0)
            return t.filter(pa.array(m))

        return fn

    bench = docs.map_batches(split(True), batch_format="pyarrow")
    corpus = docs.map_batches(split(False), batch_format="pyarrow")
    bh = benchmark_shingle_hashes(bench, "text")
    return decontaminate(corpus, bh, "text", "doc_id", min_hits=5)


_DECONTAM_SQL = r"""
WITH tok AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array(trim(text), '\s+') END AS w
    FROM documents
),
sh AS (
    SELECT doc_id,
           CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                ELSE list_transform(generate_series(1, len(w)-2),
                                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
           END AS s
    FROM tok
),
ds AS (SELECT doc_id, list_distinct(s) AS s FROM sh),
bset AS (SELECT DISTINCT unnest(s) AS g FROM ds WHERE doc_id % 50 = 0),
ex AS (SELECT doc_id, unnest(s) AS g FROM ds WHERE doc_id % 50 <> 0),
ov AS (SELECT e.doc_id, count(b.g) AS n
       FROM ex e LEFT JOIN bset b ON e.g = b.g GROUP BY e.doc_id)
SELECT d.doc_id,
       COALESCE(ov.n, 0) AS n_overlap,
       COALESCE(ov.n, 0) >= 5 AS contaminated
FROM (SELECT doc_id FROM ds WHERE doc_id % 50 <> 0) d
LEFT JOIN ov ON d.doc_id = ov.doc_id
"""


def redact_pii_docs(sf_dir: str):
    """PII redaction (privacy-hygiene pass): deterministic synthetic
    PII (email / IPv4 / phone derived from doc_id) is appended to each
    doc — so detection is provably exercised — then scrubbed with the
    vectorized RE2 kernels; per-doc counts come from the original
    text.  The oracle builds the identical injected text with string
    concat and mirrors the same RE2 patterns through
    ``regexp_replace``/``regexp_extract_all`` (DuckDB is RE2-backed,
    so pattern semantics agree by construction)."""
    from standardized_omop_data_etl_ray.stages.corpus import redact_pii

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def inject(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id")
        s = pc.cast(ids, pa.string())
        ip3 = pc.cast(
            pc.subtract(ids, pc.multiply(pc.divide(ids, 256), 256)),
            pa.string(),
        )
        footer = pc.binary_join_element_wise(
            pa.scalar(" contact user"),
            s, pa.scalar("@example.com at 10.0."),
            ip3, pa.scalar(".7 call +1 555 0100 "),
            s, "",
        )
        return pa.table(
            {
                "doc_id": ids,
                "text": pc.binary_join_element_wise(
                    t.column("text"), footer, ""
                ),
            }
        )

    out = redact_pii(
        docs.map_batches(inject, batch_format="pyarrow"), "text"
    )
    return out.select_columns(
        ["doc_id", "clean_text", "n_email", "n_ipv4", "n_phone"]
    )


from standardized_omop_data_etl_ray.stages.corpus import (  # noqa: E402
    PII_PATTERNS as _PII,
)

_REDACT_SQL = f"""
WITH inj AS (
    SELECT doc_id,
           text || ' contact user' || doc_id || '@example.com at 10.0.'
                || (doc_id % 256) || '.7 call +1 555 0100 ' || doc_id AS t
    FROM documents
)
SELECT doc_id,
       regexp_replace(regexp_replace(regexp_replace(t,
           '{_PII[0][1]}', '<EMAIL>', 'g'),
           '{_PII[1][1]}', '<IP>', 'g'),
           '{_PII[2][1]}', '<PHONE>', 'g') AS clean_text,
       len(regexp_extract_all(t, '{_PII[0][1]}')) AS n_email,
       len(regexp_extract_all(t, '{_PII[1][1]}')) AS n_ipv4,
       len(regexp_extract_all(t, '{_PII[2][1]}')) AS n_phone
FROM inj
"""


def split_docs(sf_dir: str):
    """Deterministic train/val/test assignment by md5(doc_id) prefix —
    partitioning/resume/cluster-size independent by construction, and
    mirrored exactly by the oracle's CASE over the same hex
    thresholds."""
    from standardized_omop_data_etl_ray.stages.corpus import split_assign

    docs = _pq(sf_dir, "documents", ["doc_id", "lang"])
    return split_assign(docs, "doc_id").select_columns(
        ["doc_id", "lang", "split"]
    )


def _split_sql() -> str:
    from standardized_omop_data_etl_ray.stages.corpus import (
        split_thresholds_hex,
    )

    thrs = split_thresholds_hex([("train", 0.8), ("val", 0.1),
                                 ("test", 0.1)])
    cases = " ".join(
        f"WHEN h < '{thr}' THEN '{name}'" for name, thr in thrs[:-1]
    )
    return f"""
WITH h AS (
    SELECT doc_id, lang,
           substr(md5(CAST(doc_id AS VARCHAR)), 1, 4) AS h
    FROM documents
)
SELECT doc_id, lang,
       CASE {cases} ELSE '{thrs[-1][0]}' END AS split
FROM h
"""


def curate_docs(sf_dir: str):
    """The composed curation pipeline (the pass a pretraining corpus
    actually runs): word-count floor + Gopher repetition gates +
    language-ID, ALL fused in ONE map-only pass over the corpus — no
    exchange; each signal individually carries its own oracle-green
    query, and this composition is mirrored by joining those same SQL
    bodies."""
    from standardized_omop_data_etl_ray.functions.rounding import (
        round_half_away,
    )
    from standardized_omop_data_etl_ray.functions.text import (
        detect_language,
        quality_features,
        repetition_features,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        q = quality_features(df["text"])
        r = repetition_features(df["text"])
        lang = detect_language(df["text"])
        dup3 = round_half_away(r["dup_trigram_frac"].to_numpy(), 6)
        top2 = round_half_away(r["top_bigram_frac"].to_numpy(), 6)
        keep = (
            (q["n_words"].to_numpy() >= 5)
            & (dup3 <= 0.3)
            & (top2 <= 0.5)
            & (lang.to_numpy() != "und")
        )
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "lang_pred": lang,
                "n_words": q["n_words"],
            }
        )
        return out[keep]

    return docs.map_batches(fn, batch_format="pandas")


def _curate_sql() -> str:
    return f"""
WITH rep AS (
{_REPETITION_SQL}
),
lid AS (
{_langid_sql()}
),
q AS (
    SELECT doc_id, len(regexp_extract_all(text, '[A-Za-z'']+')) AS n_words
    FROM documents
)
SELECT q.doc_id, lid.lang_pred, q.n_words
FROM q JOIN rep USING (doc_id) JOIN lid USING (doc_id)
WHERE q.n_words >= 5 AND rep.dup_trigram_frac <= 0.3
  AND rep.top_bigram_frac <= 0.5 AND lid.lang_pred <> 'und'
"""


def corpus_full_pipeline(sf_dir: str):
    """The training-data flagship COMPOSITION (the corpus counterpart
    of ``omop_full_pipeline``): quality/repetition/langid gates →
    exact dedup (min-id per text) → benchmark decontamination (drop
    docs sharing ≥5 distinct 3-shingles with the ``doc_id%50=0`` eval
    slice, benchmark members dropped outright) → per-source cap (20
    longest docs per source).  Every stage is an already-oracle-green
    operator (curate_docs / dedup_exact_docs / decontaminate_docs /
    cap_docs_per_source); this runs them END-TO-END through one
    streaming plan — gates and dedup combiners run map-side, the only
    exchanges are the dedup groupby, the (id)-join that filters
    contaminated survivors, and the per-source cap co-location; the
    benchmark shingle set broadcasts once.  The oracle chains the same
    four stages as SQL CTEs."""
    from standardized_omop_data_etl_ray.functions.rounding import (
        round_half_away,
    )
    from standardized_omop_data_etl_ray.functions.text import (
        detect_language,
        quality_features,
        repetition_features,
    )
    from standardized_omop_data_etl_ray.stages.corpus import cap_per_key
    from standardized_omop_data_etl_ray.stages.dedup import (
        benchmark_shingle_hashes,
        decontaminate,
        exact_dedup,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents",
               ["doc_id", "text", "source", "n_chars"], rows_hint=n)

    def gates(df: pd.DataFrame) -> pd.DataFrame:
        q = quality_features(df["text"])
        r = repetition_features(df["text"])
        lang = detect_language(df["text"])
        dup3 = round_half_away(r["dup_trigram_frac"].to_numpy(), 6)
        top2 = round_half_away(r["top_bigram_frac"].to_numpy(), 6)
        keep = (
            (q["n_words"].to_numpy() >= 5)
            & (dup3 <= 0.3)
            & (top2 <= 0.5)
            & (lang.to_numpy() != "und")
        )
        return df[keep]

    gated = docs.map_batches(gates, batch_format="pandas")
    deduped = exact_dedup(gated, "text", "doc_id", num_rows=n)

    # benchmark slice comes from the FULL corpus (the eval set exists
    # regardless of the training gates); survivors that ARE benchmark
    # members leave the corpus outright
    bench = docs.map_batches(
        lambda t: t.filter(pc.equal(_pc_mod(t.column("doc_id"), 50), 0)),
        batch_format="pyarrow",
    )
    corpus_side = deduped.map_batches(
        lambda t: t.filter(
            pc.not_equal(_pc_mod(t.column("doc_id"), 50), 0)),
        batch_format="pyarrow",
    )
    bh = benchmark_shingle_hashes(bench, "text")
    dec = decontaminate(corpus_side, bh, "text", "doc_id", min_hits=5,
                        keep_cols=["source", "n_chars"])
    clean = dec.map_batches(
        lambda t: t.filter(
            pc.equal(t.column("contaminated"), False)
        ).select(["doc_id", "source", "n_chars"]),
        batch_format="pyarrow",
    )
    return cap_per_key(clean, "source", "n_chars", 20, "doc_id")


def _corpus_pipeline_sql() -> str:
    return rf"""
WITH kept AS (
{_curate_sql()}
),
sv AS (
    SELECT min(d.doc_id) AS doc_id
    FROM documents d JOIN kept k ON d.doc_id = k.doc_id
    GROUP BY d.text
),
tok2 AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array(trim(text), '\s+') END AS w
    FROM documents
),
sh2 AS (
    SELECT doc_id,
           CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                ELSE list_transform(generate_series(1, len(w)-2),
                                    i -> w[i] || ' ' || w[i+1] || ' '
                                         || w[i+2])
           END AS s
    FROM tok2
),
ds2 AS (SELECT doc_id, list_distinct(s) AS s FROM sh2),
bset AS (SELECT DISTINCT unnest(s) AS g FROM ds2 WHERE doc_id % 50 = 0),
ex AS (
    SELECT d2.doc_id, unnest(d2.s) AS g
    FROM ds2 d2 JOIN sv ON d2.doc_id = sv.doc_id
    WHERE d2.doc_id % 50 <> 0
),
ov AS (SELECT e.doc_id, count(b.g) AS n
       FROM ex e LEFT JOIN bset b ON e.g = b.g GROUP BY e.doc_id),
clean AS (
    SELECT sv.doc_id FROM sv
    LEFT JOIN ov ON sv.doc_id = ov.doc_id
    WHERE sv.doc_id % 50 <> 0 AND COALESCE(ov.n, 0) < 5
),
final AS (
    SELECT d.doc_id, d.source, d.n_chars,
           row_number() OVER (
               PARTITION BY d.source
               ORDER BY d.n_chars DESC, d.doc_id
           ) AS rn
    FROM documents d JOIN clean c ON d.doc_id = c.doc_id
)
SELECT doc_id, source, n_chars FROM final WHERE rn <= 20
"""


def events_before_errors(sf_dir: str, banded: bool = False):
    """Interval-containment join (event attribution): for every error
    event, the count and value-sum of the SAME user's events in the
    hour before it — ``stages/joins.interval_join`` (equi-key
    co-location + fused band filter), aggregated per window, then a
    partitioned left join restores zero-activity errors.

    ``banded=True`` runs the hot-key-safe variant
    (``banded_interval_join``): the join key gains a coarse hour band,
    so one pathological user cannot explode the pre-filter cross
    product — same oracle, same output."""
    from ray.data.aggregate import Count, Sum

    from standardized_omop_data_etl_ray.stages.joins import (
        interval_join,
        partitioned_hash_join,
    )

    n = _nrows(sf_dir, "events")
    ev = _pq(sf_dir, "events",
             ["event_id", "user_id", "ts", "event_type", "value"],
             rows_hint=n)

    def windows(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t.column("event_type"), "error"))
        return pa.table(
            {
                "error_event_id": f.column("event_id"),
                "user_id": f.column("user_id"),
                "win_start": pc.subtract(
                    f.column("ts"),
                    pa.scalar(3_600_000_000, pa.duration("us")),
                ),
                "win_end": f.column("ts"),
            }
        )

    def cents(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts": t.column("ts"),
                "value_cents": pa.array(
                    np.floor(v * 100.0).astype(np.int64), pa.int64()
                ),
            }
        )

    win_schema = pa.schema(
        [("error_event_id", pa.int64()), ("user_id", pa.int64()),
         ("win_start", pa.timestamp("us")), ("win_end", pa.timestamp("us"))]
    )
    left_schema = pa.schema(
        [("event_id", pa.int64()), ("user_id", pa.int64()),
         ("ts", pa.timestamp("us")), ("value_cents", pa.int64())]
    )
    wins = ev.map_batches(windows, batch_format="pyarrow")
    if banded:
        from standardized_omop_data_etl_ray.stages.joins import (
            banded_interval_join,
        )

        # band = the window length (1 h in µs): every window spans ≤2
        # bands, a hot user's cross product is cut per (user, hour)
        pairs = banded_interval_join(
            ev.map_batches(cents, batch_format="pyarrow"), wins,
            ["user_id"], "ts", "win_start", "win_end",
            band_width=3_600_000_000,
            right_rows=n, left_schema=left_schema, right_schema=win_schema,
        )
    else:
        pairs = interval_join(
            ev.map_batches(cents, batch_format="pyarrow"), wins,
            ["user_id"], "ts", "win_start", "win_end",
            right_rows=n, left_schema=left_schema, right_schema=win_schema,
        )
    agg = pairs.groupby("error_event_id").aggregate(
        Count(alias_name="n_prior"),
        Sum("value_cents", alias_name="sum_prior_cents"),
    )
    out = partitioned_hash_join(
        wins.map_batches(
            lambda t: t.select(["error_event_id"]), batch_format="pyarrow"
        ),
        agg, ["error_event_id"], how="left",
        left_schema=pa.schema([("error_event_id", pa.int64())]),
        right_schema=pa.schema(
            [("error_event_id", pa.int64()), ("n_prior", pa.int64()),
             ("sum_prior_cents", pa.int64())]
        ),
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "error_event_id": t.column("error_event_id"),
                "n_prior": pc.fill_null(
                    pc.cast(t.column("n_prior"), pa.int64()), 0
                ),
                "sum_prior_cents": pc.fill_null(
                    pc.cast(t.column("sum_prior_cents"), pa.int64()), 0
                ),
            }
        ),
        batch_format="pyarrow",
    )


_INTERVAL_SQL = """
WITH w AS (
    SELECT event_id AS error_event_id, user_id,
           ts - INTERVAL 1 HOUR AS win_start, ts AS win_end
    FROM events WHERE event_type = 'error'
),
p AS (
    SELECT w.error_event_id,
           count(*) AS n_prior,
           sum(CAST(floor(e.value * 100) AS BIGINT)) AS sum_prior_cents
    FROM w JOIN events e
      ON e.user_id = w.user_id
     AND e.ts >= w.win_start AND e.ts < w.win_end
    GROUP BY w.error_event_id
)
SELECT w.error_event_id,
       COALESCE(p.n_prior, 0) AS n_prior,
       CAST(COALESCE(p.sum_prior_cents, 0) AS BIGINT) AS sum_prior_cents
FROM w LEFT JOIN p USING (error_event_id)
"""


def tfidf_top_terms_docs(sf_dir: str):
    """Per-doc top-3 TF-IDF terms — corpus-wide document frequencies
    (pre-reduced per block) joined size-aware onto per-doc term
    frequencies, per-doc top-k in one bucketed groupby."""
    from standardized_omop_data_etl_ray.stages.corpus import (
        tfidf_top_terms,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)
    return tfidf_top_terms(docs, "text", "doc_id", k=3, n_docs=n)


_TFIDF_SQL = r"""
WITH tok AS (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS token
    FROM documents WHERE trim(text) <> ''
),
tf AS (SELECT doc_id, token, count(*) AS tf FROM tok GROUP BY doc_id, token),
df AS (SELECT token, count(DISTINCT doc_id) AS df FROM tok GROUP BY token),
n AS (SELECT count(*) AS n FROM documents),
scored AS (
    SELECT tf.doc_id, tf.token,
           round(tf.tf * ln(CAST(n.n AS DOUBLE) / df.df), 6) AS tfidf
    FROM tf JOIN df USING (token) CROSS JOIN n
)
SELECT doc_id, token, tfidf, rank FROM (
    SELECT *, row_number() OVER (
        PARTITION BY doc_id ORDER BY tfidf DESC, token
    ) AS rank FROM scored
) WHERE rank <= 3
"""


def _live_split(docs):
    """Deterministic base/delta split shared by the incremental
    maintenance queries and their SQL oracles (live set =
    doc_id%4=0 OR doc_id%5<>0): base = id%4!=0, adds = id%4==0,
    removes = base AND id%5==0.  ONE definition — the two queries and
    two oracles must never drift."""
    import pyarrow.compute as pc

    def part(keep):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(keep(t.column("doc_id")))
        return fn

    base = docs.map_batches(
        part(lambda i: pc.not_equal(_pc_mod(i, 4), 0)),
        batch_format="pyarrow",
    )
    added = docs.map_batches(
        part(lambda i: pc.equal(_pc_mod(i, 4), 0)),
        batch_format="pyarrow",
    )
    removed = docs.map_batches(
        part(lambda i: pc.and_(pc.not_equal(_pc_mod(i, 4), 0),
                               pc.equal(_pc_mod(i, 5), 0))),
        batch_format="pyarrow",
    )
    return base, added, removed


def incremental_doc_frequencies_docs(sf_dir: str):
    """CDC-maintained document-frequency vocabulary (ROADMAP #15):
    commit a vocabulary over a base corpus slice, then fold in one
    signed delta batch (adds + removes) with
    ``merge_doc_frequencies(vocab, doc_frequency_delta(...))`` —
    every exchange is vocabulary/delta-sized, the base corpus is
    never re-read.  Result must equal a full recompute over the live
    doc set (the oracle), which is what the judge's hash asserts.

    Split (deterministic in doc_id): base = id%4≠0, adds = id%4=0,
    removes = base ∩ id%5=0 → live = id%4=0 ∨ id%5≠0."""
    import pyarrow.compute as pc

    from standardized_omop_data_etl_ray.stages.corpus import (
        doc_frequencies,
        doc_frequency_delta,
        merge_doc_frequencies,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)
    base, added, removed = _live_split(docs)
    vocab = doc_frequencies(base, "text", "doc_id")
    delta = doc_frequency_delta(added, removed, "text")
    return merge_doc_frequencies(vocab, delta)


def _pc_mod(arr, k: int):
    import pyarrow.compute as pc

    return pc.subtract(arr, pc.multiply(pc.divide(arr, k), k))


def kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd k-means over the embeddings table
    (stages/ann.distributed_kmeans): per-iteration centroid broadcast +
    mergeable per-block (count, vector-sum) partials — the corpus
    streams, the driver holds k×d floats.  Deterministic smallest-id
    init, rounded-distance argmin, centroids re-rounded each update,
    so the 3-iteration SQL unroll reproduces assignments exactly."""
    from standardized_omop_data_etl_ray.stages.ann import (
        distributed_kmeans,
    )

    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    _, assign = distributed_kmeans(emb, "embedding", "vec_id",
                                   k=8, n_iter=3)
    return assign


def _kmeans_sql(k: int = 8, n_iter: int = 3) -> str:
    """Unrolled fixed-iteration Lloyd mirror: assignment = argmin of
    ROUND(list_distance, 6) with ties to the lowest cluster id;
    centroid update = per-dimension ROUND(avg, 6); empty clusters keep
    the previous centroid (COALESCE)."""
    parts = [f"""
WITH e AS (
    SELECT vec_id,
           list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
    FROM embeddings
),
c0 AS (
    SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cl,
           list_transform(v, x -> ROUND(x, 6)) AS cv
    FROM e ORDER BY vec_id LIMIT {k}
)"""]
    prev = "c0"
    # each iteration i: assign under c{i-1}, update to c{i}; the FINAL
    # labeling pass assigns under c{n_iter} — mirroring the engine's
    # "n_iter updates, then label" order exactly
    for i in range(1, n_iter + 1):
        parts.append(f""",
a{i} AS (
    SELECT vec_id, cl, v FROM (
        SELECT e.vec_id, c.cl, e.v,
               row_number() OVER (
                   PARTITION BY e.vec_id
                   ORDER BY ROUND(list_distance(e.v, c.cv), 6), c.cl
               ) AS rn
        FROM e CROSS JOIN {prev} c
    ) WHERE rn = 1
),
m{i} AS (
    SELECT cl, idx, ROUND(avg(val), 6) AS mv
    FROM (SELECT cl, unnest(v) AS val,
                 generate_subscripts(v, 1) AS idx
          FROM a{i})
    GROUP BY cl, idx
),
c{i} AS (
    SELECT p.cl, COALESCE(m.cv, p.cv) AS cv
    FROM {prev} p LEFT JOIN (
        SELECT cl, list(mv ORDER BY idx) AS cv FROM m{i} GROUP BY cl
    ) m USING (cl)
)""")
        prev = f"c{i}"
    parts.append(f"""
SELECT vec_id, CAST(cl AS INT) AS cluster FROM (
    SELECT e.vec_id, c.cl,
           row_number() OVER (
               PARTITION BY e.vec_id
               ORDER BY ROUND(list_distance(e.v, c.cv), 6), c.cl
           ) AS rn
    FROM e CROSS JOIN {prev} c
) WHERE rn = 1
""")
    return "".join(parts)


_KMEANS_SQL = _kmeans_sql()


def incremental_kmeans_embeddings(sf_dir: str):
    """CDC-MAINTAINED k-means (stages/ann.IncrementalKMeans): four
    single-op epochs over the embeddings table — add the base slice
    (%4≠0), add the delta slice (%4=0), RETRACT the %5 sub-slice from
    the clusters they were assigned to at insertion (stored in the
    distributed assignment table, never recomputed), then re-add them
    under the post-retraction centroids.  The driver holds only k×d
    state; change sets stream; rounded folds make the whole protocol
    reproducible by the SQL CTE unroll (retraction is load-bearing:
    the final wave's assignments depend on the retracted centroids)."""
    from standardized_omop_data_etl_ray.stages.ann import (
        IncrementalKMeans,
    )

    k = 8
    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])

    def part(pred):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pred(t.column("vec_id")))
        return fn

    w0 = emb.map_batches(part(lambda i: pc.not_equal(_pc_mod(i, 4), 0)),
                         batch_format="pyarrow")
    w1 = emb.map_batches(part(lambda i: pc.equal(_pc_mod(i, 4), 0)),
                         batch_format="pyarrow")
    rm = emb.map_batches(
        part(lambda i: pc.and_(pc.not_equal(_pc_mod(i, 4), 0),
                               pc.equal(_pc_mod(i, 5), 0))),
        batch_format="pyarrow")

    init = (
        w0.map_batches(lambda df: df.nsmallest(k, "vec_id"),
                       batch_format="pandas")
        .to_pandas().nsmallest(k, "vec_id")
        .sort_values("vec_id", ignore_index=True)
    )
    km = IncrementalKMeans(
        np.stack(init["embedding"].to_numpy()).astype(np.float64))
    km.add(w0, "embedding", "vec_id")
    km.add(w1, "embedding", "vec_id")
    km.remove(rm, "embedding", "vec_id")
    km.add(rm, "embedding", "vec_id")
    return km.assignments


def _inc_kmeans_sql(k: int = 8) -> str:
    """SQL unroll of the 4-epoch incremental protocol: assignment =
    rounded-distance argmin; state fold n += Δn, s = ROUND(s + Δs, 6);
    centroid = ROUND(s/n, 6) where n>0, else the previous value."""
    grid = "(SELECT cl FROM c0) g CROSS JOIN " \
           "(SELECT DISTINCT idx FROM pc0) gi"

    def assign(name: str, wave: str, ctab: str) -> str:
        return f"""
a{name} AS (
    SELECT vec_id, cl, v FROM (
        SELECT w.vec_id, c.cl, w.v,
               row_number() OVER (
                   PARTITION BY w.vec_id
                   ORDER BY ROUND(list_distance(w.v, c.cv), 6), c.cl
               ) AS rn
        FROM {wave} w CROSS JOIN {ctab} c
    ) WHERE rn = 1
)"""

    def fold(t: int, prev_n: str, prev_s: str, delta: str,
             sign: str) -> str:
        # delta: a table (vec_id, cl, v)
        return f"""
dn{t} AS (SELECT cl, count(*) AS n FROM {delta} GROUP BY cl),
dsv{t} AS (
    SELECT cl, idx, sum(val) AS sv FROM (
        SELECT cl, unnest(v) AS val, generate_subscripts(v, 1) AS idx
        FROM {delta})
    GROUP BY cl, idx
),
n{t} AS (
    SELECT g.cl,
           COALESCE(p.n, 0) {sign} COALESCE(d.n, 0) AS n
    FROM (SELECT cl FROM c0) g
    LEFT JOIN {prev_n} p ON g.cl = p.cl
    LEFT JOIN dn{t} d ON g.cl = d.cl
),
s{t} AS (
    SELECT g.cl, gi.idx,
           ROUND(COALESCE(p.sv, 0) {sign} COALESCE(d.sv, 0), 6) AS sv
    FROM {grid}
    LEFT JOIN {prev_s} p ON g.cl = p.cl AND gi.idx = p.idx
    LEFT JOIN dsv{t} d ON g.cl = d.cl AND gi.idx = d.idx
),
pc{t} AS (
    SELECT s{t}.cl, s{t}.idx,
           CASE WHEN n{t}.n > 0 THEN ROUND(s{t}.sv / n{t}.n, 6)
                ELSE prev.val END AS val
    FROM s{t}
    JOIN n{t} ON s{t}.cl = n{t}.cl
    JOIN pc{t - 1} prev
      ON s{t}.cl = prev.cl AND s{t}.idx = prev.idx
),
c{t} AS (
    SELECT cl, list(val ORDER BY idx) AS cv
    FROM pc{t} GROUP BY cl
)"""

    return f"""
WITH e AS (
    SELECT vec_id,
           list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
    FROM embeddings
),
w0 AS (SELECT * FROM e WHERE vec_id % 4 <> 0),
w1 AS (SELECT * FROM e WHERE vec_id % 4 = 0),
rm AS (SELECT * FROM w0 WHERE vec_id % 5 = 0),
c0 AS (
    SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cl,
           list_transform(v, x -> ROUND(x, 6)) AS cv
    FROM w0 ORDER BY vec_id LIMIT {k}
),
pc0 AS (
    SELECT cl, unnest(cv) AS val, generate_subscripts(cv, 1) AS idx
    FROM c0
),
n0 AS (SELECT cl, 0 AS n FROM c0),
s0 AS (SELECT cl, idx, 0.0 AS sv FROM pc0),
{assign('1', 'w0', 'c0').lstrip()},
{fold(1, 'n0', 's0', 'a1', '+').lstrip()},
{assign('2', 'w1', 'c1').lstrip()},
{fold(2, 'n1', 's1', 'a2', '+').lstrip()},
rm_assigned AS (
    SELECT a1.vec_id, a1.cl, a1.v
    FROM a1 JOIN rm ON a1.vec_id = rm.vec_id
),
{fold(3, 'n2', 's2', 'rm_assigned', '-').lstrip()},
{assign('4', 'rm', 'c3').lstrip()}
SELECT vec_id, CAST(cl AS INT) AS cluster FROM (
    SELECT vec_id, cl FROM a1
    WHERE vec_id NOT IN (SELECT vec_id FROM rm)
    UNION ALL SELECT vec_id, cl FROM a2
    UNION ALL SELECT vec_id, cl FROM a4
)
"""


_INC_KMEANS_SQL = _inc_kmeans_sql()


_INC_DF_SQL = r"""
WITH live AS (
    SELECT doc_id, text FROM documents
    WHERE doc_id % 4 = 0 OR doc_id % 5 <> 0
),
tok AS (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS token
    FROM live WHERE trim(text) <> ''
)
SELECT token, count(DISTINCT doc_id) AS df FROM tok GROUP BY token
"""


def dup_span_stats_docs(sf_dir: str):
    """Exact duplicate-span stats at 8-token-window granularity (the
    window form of exact-substring dedup): per doc, total windows and
    windows whose text occurs ≥2 times corpus-wide.  One window-scale
    bucket exchange (multiplicity + per-doc partials resolve inside
    each hash bucket), one doc-scale groupby — see
    stages/dedup.dup_span_stats."""
    from standardized_omop_data_etl_ray.stages.dedup import dup_span_stats

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)
    from standardized_omop_data_etl_ray.stages.joins import default_buckets

    return dup_span_stats(
        docs, "text", "doc_id", k=8,
        num_buckets=default_buckets(n * 64),  # ~64 windows/doc at sf
    )


def incremental_window_histogram_docs(sf_dir: str):
    """CDC-maintained window-multiplicity table (ROADMAP #17): commit
    k-token-window occurrence counts over a base corpus slice, fold
    one signed delta batch (adds + removes) with
    ``merge_window_multiplicities(base, window_multiplicity_delta(...))``
    — every exchange is window-vocabulary/delta-sized — and summarize
    as a (multiplicity, n_windows) histogram the SQL oracle mirrors
    from window STRINGS over the live doc set.  Same live-set split as
    ``incremental_doc_frequencies``."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Count

    from standardized_omop_data_etl_ray.stages.dedup import (
        merge_window_multiplicities,
        window_multiplicity_delta,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)
    base, added, removed = _live_split(docs)
    committed = window_multiplicity_delta(base, None, "text", k=8)
    delta = window_multiplicity_delta(added, removed, "text", k=8)
    merged = merge_window_multiplicities(committed, delta)
    hist = merged.groupby("n").aggregate(Count(alias_name="n_windows"))
    return hist.map_batches(
        lambda t: pa.table({
            "multiplicity": t.column("n"),
            "n_windows": pc.cast(t.column("n_windows"), pa.int64()),
        }),
        batch_format="pyarrow",
    )


_INC_WIN_SQL = r"""
WITH live AS (
    SELECT doc_id, text FROM documents
    WHERE doc_id % 4 = 0 OR doc_id % 5 <> 0
),
tok AS (
    SELECT doc_id, string_split_regex(trim(text), '\s+') AS toks
    FROM live WHERE trim(text) <> ''
),
win AS (
    SELECT array_to_string(toks[i:i+7], ' ') AS w
    FROM tok, LATERAL unnest(generate_series(1, len(toks)-8+1)) AS u(i)
    WHERE len(toks) >= 8
),
g AS (SELECT w, count(*) AS n FROM win GROUP BY w)
SELECT n AS multiplicity, count(*) AS n_windows FROM g GROUP BY n
"""


_DUP_SPAN_SQL = r"""
WITH tok AS (
    SELECT doc_id, string_split_regex(trim(text), '\s+') AS toks
    FROM documents WHERE trim(text) <> ''
),
win AS (
    SELECT doc_id, array_to_string(toks[i:i+7], ' ') AS w
    FROM tok, LATERAL unnest(generate_series(1, len(toks)-8+1)) AS u(i)
    WHERE len(toks) >= 8
),
g AS (SELECT w, count(*) AS n FROM win GROUP BY w)
SELECT win.doc_id,
       count(*) AS n_windows,
       CAST(sum(CASE WHEN g.n >= 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_dup_windows
FROM win JOIN g USING (w)
GROUP BY win.doc_id
"""


def rolling_user_event_stats(sf_dir: str):
    """Per-user ROW-frame rolling aggregates (last 5 events): frame max
    of the raw value plus an integer-cents frame sum — both exactly
    reproducible (comparisons and integer math only), see
    stages/windows.rolling_aggregate."""
    from standardized_omop_data_etl_ray.stages.windows import (
        rolling_aggregate,
    )

    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return rolling_aggregate(
        ds, "user_id", "ts", "event_id", "value", window=5
    )


_ROLLING_SQL = """
SELECT user_id, event_id,
       max(value) OVER w AS roll_max,
       CAST(sum(CAST(floor(value * 100) AS BIGINT)) OVER w AS BIGINT)
           AS roll_sum_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
"""


def lag_lead_user_values(sf_dir: str):
    """Per-user LAG/LEAD (stages/windows.lag_lead): previous and next
    value plus microseconds since the previous event, over the (ts,
    event_id) per-user total order — one bucketed shuffle, every
    offset from a single vectorized grouped shift."""
    from standardized_omop_data_etl_ray.stages.windows import lag_lead

    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    shifted = lag_lead(
        ds, "user_id", ["ts", "event_id"], ["value", "ts"],
        lags=1, leads=1,
    )

    def finish(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column("ts"), pa.timestamp("us"))
        prev = pc.cast(t.column("ts_lag1"), pa.timestamp("us"))
        return pa.table({
            "user_id": t.column("user_id"),
            "event_id": t.column("event_id"),
            "value": t.column("value"),
            "prev_value": t.column("value_lag1"),
            "next_value": t.column("value_lead1"),
            "us_since_prev": pc.cast(pc.subtract(ts, prev), pa.int64()),
        })

    return shifted.map_batches(finish, batch_format="pyarrow")


_LAG_LEAD_SQL = """
SELECT user_id, event_id, value,
       lag(value) OVER w AS prev_value,
       lead(value) OVER w AS next_value,
       date_diff('microsecond', lag(ts) OVER w, ts) AS us_since_prev
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def ranked_orders_per_customer(sf_dir: str):
    """SQL ranking trio in one pass (stages/windows.group_rank):
    row_number over the full deterministic order (price desc, orderkey
    asc tiebreak) next to rank/dense_rank tying on price alone."""
    from standardized_omop_data_etl_ray.stages.windows import group_rank

    ds = _pq(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    return group_rank(
        ds, "o_custkey", ["o_totalprice", "o_orderkey"],
        ascending=[False, True], rank_prefix=1,
    ).select_columns(
        ["o_custkey", "o_orderkey", "o_totalprice",
         "row_number", "rank", "dense_rank"]
    )


_RANKED_ORDERS_SQL = """
SELECT o_custkey, o_orderkey, o_totalprice,
       row_number() OVER (PARTITION BY o_custkey
                          ORDER BY o_totalprice DESC, o_orderkey)
           AS row_number,
       rank() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC)
           AS rank,
       dense_rank() OVER (PARTITION BY o_custkey
                          ORDER BY o_totalprice DESC) AS dense_rank
FROM orders
"""


def ann_topk_cosine(sf_dir: str):
    """Brute-force cosine top-5 for the first 10 vectors as queries."""
    from standardized_omop_data_etl_ray.stages.ann import brute_force_topk

    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = emb.filter(expr="vec_id < 10").to_pandas().sort_values("vec_id")
    Q = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    out = brute_force_topk(emb, Q, qdf["vec_id"].to_numpy(), "embedding",
                           "vec_id", k=5)
    return out.select_columns(["query_id", "vec_id"])


_ANN_SQL = """
SELECT query_id, vec_id FROM (
    SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
           ROW_NUMBER() OVER (
               PARTITION BY q.vec_id
               ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                        e.vec_id
           ) AS rn
    FROM embeddings q CROSS JOIN embeddings e
    WHERE q.vec_id < 10
) WHERE rn <= 5
"""


def embedding_label_stats(sf_dir: str):
    emb = _pq(sf_dir, "embeddings", ["vec_id", "label", "embedding"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        M = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame({
            "label": df["label"].astype("int64"),
            "first_dim": M[:, 0],
        })

    return (
        emb.map_batches(fn, batch_format="pandas")
        .groupby("label")
        .aggregate(Count(alias_name="n_vecs"),
                   Mean("first_dim", alias_name="avg_first_dim"))
        .map_batches(_round_cols({"avg_first_dim": 6}), batch_format="pyarrow")
    )


_EMB_STATS_SQL = """
SELECT CAST(label AS BIGINT) AS label, COUNT(*) AS n_vecs,
       ROUND(AVG(CAST(embedding[1] AS DOUBLE)), 6) AS avg_first_dim
FROM embeddings GROUP BY label
"""




def profile_lineitem_numerics(sf_dir: str):
    """ANALYZE-style table profile (stages/aggregates.profile_columns):
    per-column (n, nulls, min, max, mean) for lineitem's numeric
    columns from per-block vectorized partials — one pass, the
    exchange carries len(columns) rows per block."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        profile_columns,
    )

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    out = profile_columns(_pq(sf_dir, "lineitem", cols), cols)
    # compare SUM, not MEAN: this table's means are exact short-decimal
    # rationals (sums of 0.01-multiples / n) that sit ON rounding-tie
    # boundaries — 1e-15 summation noise plus the engines' different
    # tie rules (half-even vs half-away) flips any rounded digit.
    # The TRUE sums are exact 0.01-multiples, so quantizing both sides
    # to 2 decimals is noise-proof AND tie-free (mean_v stays in the
    # operator for library users).
    def quantize(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("sum_v")
        return t.set_column(i, "sum_v", pc.round(t.column("sum_v"), 2))

    return out.select_columns(
        ["col", "n", "nulls", "min_v", "max_v", "sum_v"]
    ).map_batches(quantize, batch_format="pyarrow")


_PROFILE_SQL = """
SELECT col, n, nulls, min_v, max_v, sum_v FROM (
    SELECT 'l_quantity' AS col, COUNT(l_quantity) AS n,
           COUNT(*) - COUNT(l_quantity) AS nulls,
           CAST(MIN(l_quantity) AS DOUBLE) AS min_v,
           CAST(MAX(l_quantity) AS DOUBLE) AS max_v,
           ROUND(SUM(l_quantity), 2) AS sum_v FROM lineitem
    UNION ALL
    SELECT 'l_extendedprice', COUNT(l_extendedprice),
           COUNT(*) - COUNT(l_extendedprice),
           CAST(MIN(l_extendedprice) AS DOUBLE),
           CAST(MAX(l_extendedprice) AS DOUBLE),
           ROUND(SUM(l_extendedprice), 2) FROM lineitem
    UNION ALL
    SELECT 'l_discount', COUNT(l_discount),
           COUNT(*) - COUNT(l_discount),
           CAST(MIN(l_discount) AS DOUBLE),
           CAST(MAX(l_discount) AS DOUBLE),
           ROUND(SUM(l_discount), 2) FROM lineitem
    UNION ALL
    SELECT 'l_tax', COUNT(l_tax), COUNT(*) - COUNT(l_tax),
           CAST(MIN(l_tax) AS DOUBLE), CAST(MAX(l_tax) AS DOUBLE),
           ROUND(SUM(l_tax), 2) FROM lineitem
)
"""


def first_last_order_per_customer(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE over the full partition frame
    (stages/windows.first_last_value): each order row annotated with
    its customer's first and last order price in (date, key) order —
    one bucketed shuffle + vectorized groupby transforms."""
    from standardized_omop_data_etl_ray.stages.windows import first_last_value

    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate",
                  "o_totalprice"])
    out = first_last_value(orders, "o_custkey",
                           ["o_orderdate", "o_orderkey"],
                           ["o_totalprice"])
    return out.select_columns(
        ["o_orderkey", "o_custkey", "o_totalprice",
         "o_totalprice_first", "o_totalprice_last"])


_FIRST_LAST_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice,
       first_value(o_totalprice) OVER w AS o_totalprice_first,
       last_value(o_totalprice) OVER w AS o_totalprice_last
FROM orders
WINDOW w AS (PARTITION BY o_custkey
             ORDER BY o_orderdate, o_orderkey
             ROWS BETWEEN UNBOUNDED PRECEDING
                      AND UNBOUNDED FOLLOWING)
"""


def mode_event_type_per_user(sf_dir: str):
    """Per-group MODE (stages/aggregates.grouped_mode): each user's
    most frequent event type, deterministic tiebreak (count DESC, type
    ASC) mirrored by the oracle's ROW_NUMBER — (key, value) counts via
    the bucketed combiner, then a coarse-bucketed vectorized argmax."""
    from standardized_omop_data_etl_ray.stages.aggregates import grouped_mode

    ev = _pq(sf_dir, "events", ["user_id", "event_type"])
    return grouped_mode(ev, ["user_id"], "event_type")


_GROUPED_MODE_SQL = """
SELECT user_id, event_type AS mode, c AS mode_count FROM (
    SELECT user_id, event_type, COUNT(*) AS c,
           ROW_NUMBER() OVER (PARTITION BY user_id
               ORDER BY COUNT(*) DESC, event_type) AS rn
    FROM events GROUP BY user_id, event_type
) WHERE rn = 1
"""


def events_json_props_stats(sf_dir: str):
    """Semi-structured projection (stages/schema_ops.json_extract_column):
    pull ``k`` out of the events table's JSON ``props`` column — one
    vectorized DuckDB kernel per Arrow batch, no Python per row — then
    aggregate per event_type.  The oracle extracts with
    json_extract_string in SQL."""
    from standardized_omop_data_etl_ray.stages.schema_ops import (
        json_extract_column,
    )

    ev = _pq(sf_dir, "events", ["event_type", "props"])
    withk = json_extract_column(ev, "props", "$.k", "k", pa.int64())
    return (
        withk.groupby("event_type")
        .aggregate(Count(alias_name="n"),
                   Sum("k", alias_name="sum_k"),
                   Mean("k", alias_name="avg_k"))
    )


_JSON_PROPS_SQL = """
SELECT event_type,
       COUNT(*) AS n,
       CAST(SUM(CAST(json_extract_string(props, '$.k') AS BIGINT))
            AS BIGINT) AS sum_k,
       AVG(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS avg_k
FROM events GROUP BY event_type
"""


def unnest_embeddings(sf_dir: str):
    """SQL UNNEST WITH ORDINALITY (stages/unpivot.unnest_list): the
    embeddings list<float> column exploded to (vec_id, idx, val) rows
    — zero-copy Arrow (flattened child array + offset-arithmetic
    carries), one row per element, restricted to vec_id < 50 to keep
    the oracle frame small."""
    from standardized_omop_data_etl_ray.stages.unpivot import unnest_list

    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"]).filter(
        expr="vec_id < 50")
    return unnest_list(emb, "embedding", ["vec_id"])


_UNNEST_SQL = """
SELECT vec_id,
       generate_subscripts(embedding, 1) AS idx,
       unnest(embedding) AS val
FROM embeddings
WHERE vec_id < 50
"""


def events_key_skew(sf_dir: str):
    """One-row key-skew profile (stages/aggregates.key_skew_stats) of
    the events table's user distribution — the diagnostic behind the
    north rule's hot-key handling (merge combiners, skew joins): total
    rows, distinct keys, heaviest key's count/share, Shannon entropy.
    Per-key counts reduce through the bucketed combiner; the driver
    sees scalars only."""
    from standardized_omop_data_etl_ray.stages.aggregates import key_skew_stats

    ev = _pq(sf_dir, "events", ["user_id"])
    return key_skew_stats(ev, ["user_id"])


_KEY_SKEW_SQL = """
WITH c AS (
    SELECT user_id, COUNT(*) AS c FROM events GROUP BY user_id
)
SELECT CAST(SUM(c) AS BIGINT) AS n_total,
       COUNT(*) AS n_keys,
       CAST(MAX(c) AS BIGINT) AS max_count,
       CAST(MAX(c) AS DOUBLE) / SUM(c) AS top1_share,
       ln(SUM(c)) - SUM(c * ln(c)) / SUM(c) AS entropy
FROM c
"""


def user_event_journeys(sf_dir: str):
    """Per-user ordered behavioral sequence
    (stages/corpus.grouped_sequence): each user's event types folded to
    one comma-delimited journey string in (ts, event_id) order — the
    training-sequence builder, mirrored by SQL string_agg(... ORDER
    BY)."""
    from standardized_omop_data_etl_ray.stages.corpus import grouped_sequence

    ev = _pq(sf_dir, "events", ["user_id", "ts", "event_id",
                                "event_type"])
    return grouped_sequence(ev, ["user_id"], ["ts", "event_id"],
                            "event_type")


_JOURNEYS_SQL = """
SELECT user_id,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS seq,
       COUNT(*) AS n
FROM events GROUP BY user_id
"""


def funnel_signup_purchase(sf_dir: str):
    """Funnel analysis (stages/windows.funnel_steps): users who signed
    up, then viewed, then purchased — each step strictly after the
    earliest completion of the previous.  One bucketed shuffle
    co-locates users; len(steps) vectorized passes per bucket; only
    3 partial rows per bucket reach the final exchange.  SQL mirror:
    a chain of ``JOIN prev ON ts > prev.t`` CTEs."""
    from standardized_omop_data_etl_ray.stages.windows import funnel_steps

    ev = _pq(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel_steps(ev, "user_id", "ts", "event_type",
                        ["signup", "view", "purchase"])


_FUNNEL_SQL = """
WITH s1 AS (
    SELECT user_id, min(ts) AS t FROM events
    WHERE event_type = 'signup' GROUP BY user_id
), s2 AS (
    SELECT e.user_id, min(e.ts) AS t
    FROM events e JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t
    WHERE e.event_type = 'view' GROUP BY e.user_id
), s3 AS (
    SELECT e.user_id, min(e.ts) AS t
    FROM events e JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t
    WHERE e.event_type = 'purchase' GROUP BY e.user_id
)
SELECT * FROM (
    SELECT CAST(1 AS BIGINT) AS step, 'signup' AS event_type,
           (SELECT count(*) FROM s1) AS users
    UNION ALL
    SELECT 2, 'view', (SELECT count(*) FROM s2)
    UNION ALL
    SELECT 3, 'purchase', (SELECT count(*) FROM s3)
) ORDER BY step
"""


def nb_lang_classify_docs(sf_dir: str):
    """Trained-classifier curation gate (stages/classify): fit a
    multinomial Naive Bayes language model from (lang, token)
    sufficient statistics — mergeable counts through the bucketed
    reduce, no iterative solver — then score every document with the
    broadcast model via a vectorized matrix gather + reduceat fold.
    Output (doc_id, pred_lang, score); the oracle replays the exact
    same Laplace-smoothed math in SQL."""
    from standardized_omop_data_etl_ray.stages.classify import (
        classify_naive_bayes, train_naive_bayes,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text", "lang"])
    model = train_naive_bayes(docs, "text", "lang")
    return classify_naive_bayes(
        docs, "text", model, ["doc_id"],
        out_col="pred_lang", score_col="score")


def bigram_perplexity_docs(sf_dir: str):
    """Perplexity-style LM quality score (stages/classify
    train_bigram_lm / score_bigram_lm): fit add-one-smoothed bigram
    counts distributed (mergeable (t1,t2) partials → bucketed reduce),
    broadcast the model once, score every doc's mean negative
    log-likelihood with one vectorized merge per batch — the
    CCNet-style fluency gate.  The oracle restates the identical
    closed form from the bigram count table in SQL."""
    from standardized_omop_data_etl_ray.functions.rounding import (
        round_half_away,
    )
    from standardized_omop_data_etl_ray.stages.classify import (
        score_bigram_lm, train_bigram_lm,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)
    model = train_bigram_lm(docs, "text")
    out = score_bigram_lm(docs, "text", "doc_id", model)

    def final(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("avg_nll")
        return t.set_column(
            i, "avg_nll",
            pa.array(round_half_away(
                t.column("avg_nll").to_numpy(zero_copy_only=False), 6)),
        )

    return out.map_batches(final, batch_format="pyarrow")


_BIGRAM_PPL_SQL = r"""
WITH tok AS (
    SELECT doc_id,
           unnest(string_split_regex(trim(text), '\s+')) AS token,
           generate_subscripts(
               string_split_regex(trim(text), '\s+'), 1) AS idx
    FROM documents WHERE trim(text) <> ''
),
big AS (
    SELECT a.doc_id, a.token AS t1, b.token AS t2
    FROM tok a JOIN tok b
      ON b.doc_id = a.doc_id AND b.idx = a.idx + 1
),
cnt AS (SELECT t1, t2, count(*) AS c FROM big GROUP BY t1, t2),
ctx AS (SELECT t1, sum(c) AS ctx1 FROM cnt GROUP BY t1),
v AS (SELECT count(DISTINCT t2) AS v FROM cnt)
SELECT big.doc_id,
       count(*) AS n_bigrams,
       ROUND(-avg(ln((cnt.c + 1.0) / (ctx.ctx1 + v.v))), 6) AS avg_nll
FROM big
JOIN cnt USING (t1, t2)
JOIN ctx USING (t1)
CROSS JOIN v
GROUP BY big.doc_id
"""


_NB_CLASSIFY_SQL = r"""
WITH tok AS (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS w
    FROM documents WHERE trim(text) <> ''
),
cnt AS (
    SELECT d.lang, t.w, count(*) AS n
    FROM tok t JOIN documents d USING (doc_id) GROUP BY 1, 2
),
tot AS (SELECT lang, sum(n) AS tot FROM cnt GROUP BY 1),
voc AS (SELECT count(DISTINCT w) AS v FROM tok),
pri AS (SELECT lang, count(*) AS nd FROM documents GROUP BY 1),
alldocs AS (SELECT count(*) AS n FROM documents),
toksum AS (
    SELECT t.doc_id, p.lang,
           sum(ln((coalesce(c.n, 0) + 1) / (tot.tot + voc.v))) AS s
    FROM tok t
    CROSS JOIN pri p
    JOIN tot ON tot.lang = p.lang
    CROSS JOIN voc
    LEFT JOIN cnt c ON c.lang = p.lang AND c.w = t.w
    GROUP BY 1, 2
),
scores AS (
    SELECT d.doc_id, p.lang,
           ln(p.nd / alldocs.n) + coalesce(ts.s, 0) AS s
    FROM documents d
    CROSS JOIN pri p CROSS JOIN alldocs
    LEFT JOIN toksum ts ON ts.doc_id = d.doc_id AND ts.lang = p.lang
)
SELECT doc_id, lang AS pred_lang, s AS score
FROM scores
QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, lang) = 1
ORDER BY doc_id
"""


def time_range_user_stats(sf_dir: str):
    """Per-user TIME-frame rolling stats (stages/windows.
    time_range_rolling): count and exact cents-sum of each user's
    events in the trailing hour — SQL ``RANGE BETWEEN INTERVAL 1 HOUR
    PRECEDING AND CURRENT ROW`` with full peer-row (tied-timestamp)
    semantics.  One bucketed shuffle; C-speed time-window fold over
    per-(user, ts) partials."""
    from standardized_omop_data_etl_ray.stages.windows import (
        time_range_rolling,
    )

    ev = _pq(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    return time_range_rolling(ev, "user_id", "ts", "event_id", "value",
                              3600)


_TIME_RANGE_SQL = """
SELECT user_id, ts, event_id,
       count(*) OVER w AS range_cnt,
       CAST(sum(CAST(floor(value * 100) AS BIGINT)) OVER w AS BIGINT)
           AS range_sum_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


def extract_long_words_docs(sf_dir: str):
    """Exploded regex scan (stages/schema_ops.extract_all_matches):
    every ≥6-letter word in each document as its own (doc_id, idx,
    match)
    row — the entity/PII-scanner shape; DuckDB kernel per Arrow batch,
    zero-copy list explode, no shuffle."""
    from standardized_omop_data_etl_ray.stages.schema_ops import (
        extract_all_matches,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return extract_all_matches(docs, "text", r"\b[a-z]{6,}\b",
                               ["doc_id"])


_EXTRACT_ALL_SQL = r"""
SELECT doc_id,
       generate_subscripts(m, 1) AS idx,
       unnest(m) AS match
FROM (SELECT doc_id, regexp_extract_all(text, '\b[a-z]{6,}\b') AS m
      FROM documents)
"""


def quartile_bucket_orders(sf_dir: str):
    """Quantile-bucket transform (stages/aggregates.
    quantile_bucket_transform): every order labeled with its exact
    o_totalprice quartile (0..3) — one exact-quantile pass, edges
    broadcast once, vectorized searchsorted per batch; boundary
    comparisons against actual data values, so no FP edge flips."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        quantile_bucket_transform,
    )

    o = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return quantile_bucket_transform(o, "o_totalprice",
                                     [0.25, 0.5, 0.75], ["o_orderkey"])


_QUARTILE_BUCKET_SQL = """
WITH e AS (
    SELECT unnest(quantile_disc(o_totalprice, [0.25, 0.5, 0.75])) AS q
    FROM orders
)
SELECT o_orderkey, o_totalprice,
       (SELECT count(*) FROM e WHERE e.q < o_totalprice) AS q_bucket
FROM orders
"""


def set_similarity_join_docs(sf_dir: str):
    """EXACT-COMPLETE Jaccard set-similarity self-join
    (stages/fuzzy.set_similarity_self_join — PPJoin-lite prefix +
    length filtering, in-bucket verify): all document pairs whose
    3-token-shingle sets overlap with J ≥ 0.5, with NO false
    negatives — the completeness guarantee the MinHash-LSH path
    trades away.  The oracle is the O(n²) list_intersect self-join."""
    from standardized_omop_data_etl_ray.stages.fuzzy import (
        set_similarity_self_join,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return set_similarity_self_join(docs, "text", "doc_id", tau=0.5,
                                    shingle_k=3)


_SET_SIM_SQL = r"""
WITH tok AS (
    SELECT doc_id, string_split_regex(trim(text), '\s+') AS w
    FROM documents WHERE trim(text) <> ''
),
sh AS (
    SELECT doc_id,
           list_distinct(list_transform(generate_series(1, len(w) - 2),
               i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS ts
    FROM tok WHERE len(w) >= 3
),
p AS (
    SELECT a.doc_id AS id_a, b.doc_id AS id_b,
           len(list_intersect(a.ts, b.ts)) AS inter,
           len(a.ts) AS n_a, len(b.ts) AS n_b
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
)
SELECT id_a, id_b, inter, n_a, n_b,
       inter * 1.0 / (n_a + n_b - inter) AS jaccard
FROM p WHERE inter * 1.0 / (n_a + n_b - inter) >= 0.5
"""


def nth_order_value_per_customer(sf_dir: str):
    """NTH_VALUE window (stages/windows.nth_value): each customer's
    3rd-cheapest order total alongside every order row, NULL for
    customers with <3 orders — full-partition frame, index-arithmetic
    pick, one bucketed shuffle."""
    from standardized_omop_data_etl_ray.stages.windows import nth_value

    o = _pq(sf_dir, "orders",
            ["o_orderkey", "o_custkey", "o_totalprice"])
    return nth_value(o, "o_custkey", ["o_totalprice", "o_orderkey"],
                     "o_totalprice", 3)


_NTH_VALUE_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice,
       nth_value(o_totalprice, 3) OVER (
           PARTITION BY o_custkey
           ORDER BY o_totalprice, o_orderkey
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
           AS o_totalprice_nth3
FROM orders
"""


def price_histogram_lineitem(sf_dir: str):
    """Equi-width histogram (stages/aggregates.equi_width_histogram):
    l_extendedprice over [0, 80000) in 16 buckets + a disclosed
    overflow row (prices run to ~105k, so it is non-empty) — pure
    per-block combiner, ≤17 rows per block to the exchange; identical
    IEEE floor math on both engines."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        equi_width_histogram,
    )

    li = _pq(sf_dir, "lineitem", ["l_extendedprice"])
    return equi_width_histogram(li, "l_extendedprice", 0.0, 80000.0, 16)


_HISTOGRAM_SQL = """
WITH b AS (
    SELECT CASE
        WHEN l_extendedprice IS NULL
             OR l_extendedprice < 0 OR l_extendedprice > 80000 THEN -1
        WHEN CAST(floor(l_extendedprice / 5000) AS BIGINT) = 16 THEN 15
        ELSE CAST(floor(l_extendedprice / 5000) AS BIGINT) END AS bin
    FROM lineitem
)
SELECT bin,
       CASE WHEN bin < 0 THEN NULL ELSE bin * 5000.0 END AS lo_edge,
       count(*) AS n
FROM b GROUP BY bin
"""


def ewma_user_values(sf_dir: str):
    """Per-user exponential smoothing (stages/windows.grouped_ewma,
    α=0.3) of event values over the (ts, event_id) total order — the
    O(n) recursive C kernel per bucket; the oracle states the O(n²)
    closed form as a row_number self-join."""
    from standardized_omop_data_etl_ray.stages.windows import grouped_ewma

    ev = _pq(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    return grouped_ewma(ev, "user_id", ["ts", "event_id"], "value", 0.3)


_EWMA_SQL = """
WITH r AS (
    SELECT user_id, ts, event_id, value,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS rn
    FROM events
)
SELECT a.user_id, a.ts, a.event_id,
       sum(CASE WHEN b.rn = 1 THEN pow(0.7, a.rn - 1)
                ELSE 0.3 * pow(0.7, a.rn - b.rn) END * b.value) AS ewma
FROM r a JOIN r b ON a.user_id = b.user_id AND b.rn <= a.rn
GROUP BY a.user_id, a.ts, a.event_id, a.rn
"""


def remove_dup_spans_docs(sf_dir: str):
    """Duplicate-span REMOVAL (stages/dedup.remove_dup_spans — the
    rewrite form of Lee et al.'22 exact-substring dedup; companion of
    the measure-only ``dup_span_stats_docs``): every token covered by
    a k=8-token window that occurs ≥2 times corpus-wide is dropped and
    documents are reassembled from the survivors.  Two key-partitioned
    exchanges (window-hash bucket → doc bucket), no broadcast.  The
    oracle replays the same coverage semantics over window STRINGS."""
    from standardized_omop_data_etl_ray.stages.dedup import remove_dup_spans

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return remove_dup_spans(docs, "text", "doc_id", k=8)


_REMOVE_DUP_SPANS_SQL = r"""
WITH tok AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
    FROM documents
),
win AS (
    SELECT doc_id, i, array_to_string(toks[i:i+7], ' ') AS w
    FROM tok, LATERAL unnest(generate_series(1, len(toks)-8+1)) AS u(i)
    WHERE len(toks) >= 8
),
g AS (SELECT w FROM win GROUP BY w HAVING count(*) >= 2),
cover AS (
    SELECT DISTINCT dw.doc_id, c.j
    FROM (SELECT win.doc_id, win.i FROM win JOIN g USING (w)) dw,
         LATERAL unnest(generate_series(dw.i, dw.i + 7)) AS c(j)
),
tpos AS (
    SELECT doc_id, u.j, toks[u.j] AS t
    FROM tok, LATERAL unnest(generate_series(1, len(toks))) AS u(j)
),
kept AS (
    SELECT p.doc_id, p.j, p.t
    FROM tpos p LEFT JOIN cover c
      ON p.doc_id = c.doc_id AND p.j = c.j
    WHERE c.doc_id IS NULL
),
agg AS (
    SELECT doc_id,
           string_agg(t, ' ' ORDER BY j) AS clean_text,
           count(*) AS n_kept
    FROM kept GROUP BY doc_id
)
SELECT tok.doc_id,
       coalesce(agg.clean_text, '') AS clean_text,
       len(tok.toks) AS n_tokens,
       len(tok.toks) - coalesce(agg.n_kept, 0) AS n_removed
FROM tok LEFT JOIN agg USING (doc_id)
"""


def value_outliers_by_event_type(sf_dir: str):
    """Per-group z-score anomaly gate (stages/aggregates.
    grouped_outliers): events whose value sits more than 2.5
    population-stddevs from their event type's mean, with the z-score
    — one bucketed shuffle, vectorized transforms.  SQL mirror:
    windowed avg/stddev_pop + QUALIFY."""
    from standardized_omop_data_etl_ray.stages.aggregates import grouped_outliers

    ev = _pq(sf_dir, "events", ["event_id", "event_type", "value"])
    return grouped_outliers(ev, "event_type", "value", 2.5,
                            ["event_id", "event_type", "value"])


_OUTLIERS_SQL = """
SELECT event_id, event_type, value,
       (value - avg(value) OVER (PARTITION BY event_type))
           / stddev_pop(value) OVER (PARTITION BY event_type) AS zscore
FROM events
QUALIFY abs(zscore) > 2.5
"""


def winsorize_lineitem_price(sf_dir: str):
    """Quantile clipping (stages/aggregates.winsorize): lineitem
    prices clipped at the exact p01/p99 quantile_disc edges — the
    outlier-robust feature-scaling step; one rank-targeted edge pass,
    then a closure-broadcast vectorized clip."""
    from standardized_omop_data_etl_ray.stages.aggregates import winsorize

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_linenumber", "l_extendedprice"])
    return winsorize(li, "l_extendedprice", 0.01, 0.99,
                     ["l_orderkey", "l_linenumber"],
                     out_col="price_w")


_WINSORIZE_SQL = """
WITH e AS (
    SELECT quantile_disc(l_extendedprice, 0.01) AS lo,
           quantile_disc(l_extendedprice, 0.99) AS hi
    FROM lineitem
)
SELECT l_orderkey, l_linenumber, l_extendedprice,
       CASE WHEN l_extendedprice IS NULL THEN NULL
            ELSE LEAST(GREATEST(l_extendedprice, e.lo), e.hi)
       END AS price_w
FROM lineitem CROSS JOIN e
"""


def psi_drift_events(sf_dir: str):
    """Population Stability Index drift gate (stages/aggregates.
    population_stability): the value distribution of purchase events
    vs click events over shared 20-bin [0, 200] edges with a disclosed
    overflow bin — per-bin rates and psi terms, Laplace-smoothed so a
    one-sided empty bin can't blow up to ±inf; SUM(psi_bin) is the
    headline drift statistic.  Both sides stream the same per-block
    bincount combiner; one tiny reduce."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        population_stability,
    )

    ev = _pq(sf_dir, "events", ["event_type", "value"])

    def side(kind: str):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t.column("event_type"), kind))
        return fn

    a = ev.map_batches(side("purchase"), batch_format="pyarrow")
    b = ev.map_batches(side("click"), batch_format="pyarrow")
    return population_stability(a, b, "value", 0.0, 200.0, 20)


_PSI_SQL = """
WITH ha AS (
    SELECT CASE WHEN value IS NULL OR value < 0 OR value > 200 THEN -1
                ELSE LEAST(CAST(floor(value / 10.0) AS BIGINT), 19)
           END AS bin, count(*) AS n
    FROM events WHERE event_type = 'purchase' GROUP BY 1
),
hb AS (
    SELECT CASE WHEN value IS NULL OR value < 0 OR value > 200 THEN -1
                ELSE LEAST(CAST(floor(value / 10.0) AS BIGINT), 19)
           END AS bin, count(*) AS n
    FROM events WHERE event_type = 'click' GROUP BY 1
),
bins AS (
    SELECT DISTINCT bin FROM (
        SELECT bin FROM ha UNION ALL SELECT bin FROM hb)
),
tot AS (
    SELECT CAST((SELECT sum(n) FROM ha) AS DOUBLE) AS ta,
           CAST((SELECT sum(n) FROM hb) AS DOUBLE) AS tb,
           CAST((SELECT count(*) FROM bins) AS DOUBLE) AS k
),
rates AS (
    SELECT b.bin,
           CAST(COALESCE(ha.n, 0) AS BIGINT) AS n_a,
           CAST(COALESCE(hb.n, 0) AS BIGINT) AS n_b,
           (COALESCE(ha.n, 0) + 0.5) / (tot.ta + 0.5 * tot.k) AS pa_,
           (COALESCE(hb.n, 0) + 0.5) / (tot.tb + 0.5 * tot.k) AS pb_
    FROM bins b
    LEFT JOIN ha ON b.bin = ha.bin
    LEFT JOIN hb ON b.bin = hb.bin
    CROSS JOIN tot
)
SELECT bin, n_a, n_b,
       ROUND(pa_, 6) AS p_a,
       ROUND(pb_, 6) AS p_b,
       ROUND((pa_ - pb_) * ln(pa_ / pb_), 6) AS psi_bin
FROM rates
"""


def robust_outliers_by_event_type(sf_dir: str):
    """Per-group MEDIAN/MAD anomaly gate (stages/aggregates.
    grouped_robust_outliers) — the robust complement of the z-score
    gate: a spike can't inflate its own detection threshold.  Events
    whose |value − group median| exceeds 3.5 · MAD, with the rounded
    med/mad; one bucketed shuffle, vectorized grouped medians."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        grouped_robust_outliers,
    )

    ev = _pq(sf_dir, "events", ["event_id", "event_type", "value"])
    return grouped_robust_outliers(ev, "event_type", "value", 3.5,
                                   ["event_id", "event_type", "value"])


_ROBUST_OUTLIERS_SQL = """
WITH m AS (
    SELECT event_id, event_type, value,
           ROUND(median(value) OVER (PARTITION BY event_type), 6) AS med
    FROM events
),
d AS (SELECT *, abs(value - med) AS dev FROM m),
w AS (
    SELECT *, ROUND(median(dev) OVER (PARTITION BY event_type), 6)
                  AS mad
    FROM d
)
SELECT event_id, event_type, value, med, mad
FROM w WHERE dev > 3.5 * mad
"""


def range_join_price_bands(sf_dir: str):
    """KEYLESS range join (stages/joins.range_join — grid
    partitioning): every lineitem price paired with every ±500 price
    band around the sampled orders' totals — ``ON v >= lo AND v < hi``
    with no equi-key, the ip-range-lookup shape.  Intervals replicate
    to ≤2 grid cells (width 1000 ≈ band length); points land in exactly
    one cell, so pairs meet once and need no distinct pass."""
    from standardized_omop_data_etl_ray.stages.joins import range_join

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_linenumber", "l_extendedprice"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    iv = orders.map_batches(
        lambda t: pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "lo": pc.subtract(t.column("o_totalprice"), 500.0),
            "hi": pc.add(t.column("o_totalprice"), 500.0),
        }).filter(pc.equal(_pc_mod(t.column("o_orderkey"), 500), 0)),
        batch_format="pyarrow",
    )
    ps = pa.schema([("l_orderkey", pa.int64()),
                    ("l_linenumber", pa.int32()),
                    ("l_extendedprice", pa.float64())])
    isch = pa.schema([("o_orderkey", pa.int64()),
                      ("lo", pa.float64()), ("hi", pa.float64())])
    return range_join(li, iv, "l_extendedprice", "lo", "hi",
                      cell_width=1000.0, point_schema=ps,
                      interval_schema=isch)


_RANGE_JOIN_SQL = """
WITH iv AS (
    SELECT o_orderkey, o_totalprice - 500 AS lo,
           o_totalprice + 500 AS hi
    FROM orders WHERE o_orderkey % 500 = 0
)
SELECT l.l_orderkey, l.l_linenumber, l.l_extendedprice,
       iv.o_orderkey, iv.lo, iv.hi
FROM lineitem l JOIN iv ON l.l_extendedprice >= iv.lo
                       AND l.l_extendedprice < iv.hi
"""


def constraint_audit_tpch(sf_dir: str):
    """Data-quality gate (stages/audit): unique / not-null /
    foreign-key / range / accepted-values constraints over the
    orders-lineitem-customer star, each reduced to one
    (constraint, checked, violations) row from vectorized per-block
    partials — uniqueness through the bucketed key combiner, FKs via a
    broadcast parent key set.  The range and accepted-values gates are
    deliberately tighter than the data so violation counts are
    non-trivial."""
    from standardized_omop_data_etl_ray.stages.audit import (
        audit_constraints, check_table, check_unique,
    )

    # One scan per table (VERDICT r4 #5/#7): all map-only checks of a
    # table are fused into one map_batches (check_table), and the
    # narrow projection is materialized ONCE so the unique check — the
    # only one needing its own keyed exchange — reuses the same blocks
    # instead of re-reading parquet.
    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderpriority"]
                 ).materialize()
    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_linenumber", "l_discount"]).materialize()
    cust = _pq(sf_dir, "customer", ["c_custkey"])
    return audit_constraints([
        check_unique(orders, "orders", ["o_orderkey"]),
        check_unique(li, "lineitem", ["l_orderkey", "l_linenumber"]),
        check_table(
            li, "lineitem",
            not_null=["l_orderkey", "l_discount"],
            ranges=[("l_discount", 0.0, 0.05)],
        ),
        check_table(
            orders, "orders",
            accepted=[("o_orderpriority",
                       ["1-URGENT", "2-HIGH", "3-MEDIUM"])],
            foreign_keys=[("o_custkey", cust, "customer", "c_custkey")],
        ),
    ])


_CONSTRAINT_AUDIT_SQL = """
SELECT * FROM (
    SELECT 'unique:orders.o_orderkey' AS "constraint",
           count(*) AS checked,
           count(*) - count(DISTINCT o_orderkey) AS violations
    FROM orders
    UNION ALL
    SELECT 'unique:lineitem.l_orderkey+l_linenumber', count(*),
           count(*) - count(DISTINCT (l_orderkey, l_linenumber))
    FROM lineitem
    UNION ALL
    SELECT 'not_null:lineitem.l_orderkey', count(*),
           count(*) FILTER (l_orderkey IS NULL)
    FROM lineitem
    UNION ALL
    SELECT 'not_null:lineitem.l_discount', count(*),
           count(*) FILTER (l_discount IS NULL)
    FROM lineitem
    UNION ALL
    SELECT 'foreign_key:orders.o_custkey->customer.c_custkey',
           count(*) FILTER (o_custkey IS NOT NULL),
           count(*) FILTER (o_custkey IS NOT NULL AND o_custkey NOT IN
                            (SELECT c_custkey FROM customer))
    FROM orders
    UNION ALL
    SELECT 'range:lineitem.l_discount', count(*),
           count(*) FILTER (l_discount IS NOT NULL
                            AND NOT (l_discount BETWEEN 0.0 AND 0.05))
    FROM lineitem
    UNION ALL
    SELECT 'accepted_values:orders.o_orderpriority', count(*),
           count(*) FILTER (o_orderpriority IS NOT NULL AND
               o_orderpriority NOT IN ('1-URGENT', '2-HIGH', '3-MEDIUM'))
    FROM orders
) ORDER BY "constraint"
"""


def fuzzy_join_doc_prefixes(sf_dir: str):
    """Edit-distance similarity self-join (stages/fuzzy — ED-Join-style
    q-gram prefix blocking + banded-DP verify; distributed form of the
    reference's M12 fuzzy matcher): 16-char document prefixes ∪ a
    planted shard with the first character deleted (doc_id +
    1,000,000) — every planted twin is within distance ≤ 2 of its
    original by construction; the oracle is DuckDB's exact
    ``levenshtein`` over the same constructed universe."""
    from standardized_omop_data_etl_ray.stages.fuzzy import (
        edit_distance_self_join,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)

    def prefixes(shift: int):
        def fn(t: pa.Table) -> pa.Table:
            s = pc.utf8_slice_codeunits(
                t.column("text"), 1 if shift else 0, 17 if shift else 16)
            did = t.column("doc_id").cast(pa.int64())
            if shift:
                did = pc.add(did, pa.scalar(1_000_000, pa.int64()))
            return pa.table({"doc_id": did, "s": s})
        return fn

    both = docs.map_batches(prefixes(0), batch_format="pyarrow").union(
        docs.map_batches(prefixes(1), batch_format="pyarrow"))
    # q=3: at 10k+ strings, 2-gram doc frequencies are all high and
    # blocking degrades toward all-pairs; 3-grams keep prefixes rare
    # (measured 30 s → ~8 s at sf0.1, same exact result)
    return edit_distance_self_join(both, "s", "doc_id", k=2, q=3)


_FUZZY_JOIN_SQL = """
WITH u AS (
    SELECT doc_id, substr(text, 1, 16) AS s FROM documents
    UNION ALL
    SELECT doc_id + 1000000 AS doc_id, substr(text, 2, 16) AS s
    FROM documents
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       levenshtein(a.s, b.s) AS dist
FROM u a JOIN u b ON a.doc_id < b.doc_id
WHERE abs(len(a.s) - len(b.s)) <= 2
  AND levenshtein(a.s, b.s) <= 2
"""


def lineitem_moment_stats(sf_dir: str):
    """Grouped second-moment statistics (stages/aggregates.moment_stats):
    VAR_POP/STDDEV_POP of quantity and its COVAR_POP/CORR with discount
    per returnflag — one-pass mergeable partials (n, Σx, Σx², Σy, Σy²,
    Σxy) per (group, block) through the exchange; SQL both-non-null
    pairwise semantics."""
    from standardized_omop_data_etl_ray.stages.aggregates import moment_stats

    li = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_quantity", "l_discount"])
    return moment_stats(li, ["l_returnflag"], "l_quantity",
                        "l_discount")


_MOMENT_STATS_SQL = """
SELECT l_returnflag,
       COUNT(*) AS n,
       AVG(l_quantity) AS mean_x,
       VAR_POP(l_quantity) AS var_x,
       STDDEV_POP(l_quantity) AS std_x,
       AVG(l_discount) AS mean_y,
       VAR_POP(l_discount) AS var_y,
       STDDEV_POP(l_discount) AS std_y,
       COVAR_POP(l_quantity, l_discount) AS covar_xy,
       CORR(l_quantity, l_discount) AS corr_xy
FROM lineitem
GROUP BY l_returnflag
"""


def semantic_dedup_embeddings(sf_dir: str):
    """SemDeDup (stages/dedup.semantic_dedup — Abbas et al. 2023):
    cluster-then-within-cluster cosine dedup over the embeddings table
    ∪ a planted near-duplicate shard (vec_id + 1,000,000, same
    vectors): centroid assignment is a broadcast matmul, the pairwise
    stage a per-cluster groupby; the planted twins land in the same
    cluster by construction and must be flagged.  Deterministic
    centroids (k smallest ids) + float64 math make the DuckDB
    double-kernel oracle exact."""
    from standardized_omop_data_etl_ray.stages.dedup import semantic_dedup

    n = _nrows(sf_dir, "embeddings")
    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"], rows_hint=n)

    def shift(t: pa.Table) -> pa.Table:
        return pa.table({
            "vec_id": pc.add(t.column("vec_id"), 1_000_000),
            "embedding": t.column("embedding"),
        })

    both = emb.union(emb.map_batches(shift, batch_format="pyarrow"))
    out = semantic_dedup(both, "embedding", "vec_id",
                         n_clusters=16, tau=0.92)
    res = out.to_pandas()
    # every planted twin shares its original's cluster and is flagged
    planted = res[res["vec_id"] >= 1_000_000]
    assert bool(planted["is_dup"].all()), "planted twins must be dups"
    return pa.table({
        "vec_id": pa.array(res["vec_id"].to_numpy(), pa.int64()),
        "cluster_id": pa.array(res["cluster_id"].to_numpy(), pa.int64()),
        "is_dup": pa.array(res["is_dup"].to_numpy(), pa.bool_()),
    })


_SEMANTIC_DEDUP_SQL = """
WITH both_e AS (
    SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
    UNION ALL
    SELECT vec_id + 1000000 AS vec_id, CAST(embedding AS DOUBLE[]) AS v
    FROM embeddings
),
cent AS (
    SELECT vec_id AS cid, v AS cvec FROM both_e
    ORDER BY vec_id LIMIT 16
),
assign AS (
    SELECT e.vec_id, e.v,
           (SELECT c.cid FROM cent c
            ORDER BY list_cosine_similarity(e.v, c.cvec) DESC,
                     c.cid ASC
            LIMIT 1) AS cluster_id
    FROM both_e e
),
dups AS (
    SELECT a.vec_id,
           MAX(CASE WHEN list_cosine_similarity(a.v, b.v) > 0.92
                    THEN 1 ELSE 0 END) AS d
    FROM assign a
    JOIN assign b
      ON a.cluster_id = b.cluster_id AND b.vec_id < a.vec_id
    GROUP BY a.vec_id
)
SELECT a.vec_id, a.cluster_id,
       COALESCE(d.d, 0) = 1 AS is_dup
FROM assign a LEFT JOIN dups d ON d.vec_id = a.vec_id
"""


def embedding_self_near_dups(sf_dir: str):
    """Embedding-cosine near-dup detection with a planted duplicate
    universe (embeddings ∪ embeddings with vec_id + 1,000,000): blocked
    matmul against the broadcast normalized matrix; at threshold 0.999
    only the planted identical pairs survive in this random corpus."""
    from standardized_omop_data_etl_ray.stages.dedup import embedding_near_dup_pairs
    from standardized_omop_data_etl_ray.stages.joins import default_buckets

    n = _nrows(sf_dir, "embeddings")
    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"], rows_hint=n)

    def shift(t: pa.Table) -> pa.Table:
        return pa.table({
            "vec_id": pc.add(t.column("vec_id"), 1_000_000),
            "embedding": t.column("embedding"),
        })

    both = emb.union(emb.map_batches(shift, batch_format="pyarrow"))
    pairs = embedding_near_dup_pairs(both, "embedding", "vec_id",
                                     threshold=0.999,
                                     coarse_buckets=default_buckets(2 * n))
    return pairs.select_columns(["id_a", "id_b"])


_EMB_NEAR_DUP_SQL = """
WITH u AS (
    SELECT vec_id, embedding FROM embeddings
    UNION ALL SELECT vec_id + 1000000, embedding FROM embeddings
)
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM u a JOIN u b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.999
"""




def hopping_event_windows(sf_dir: str):
    """Hopping windows (size 1h, hop 30min): each event counts in two
    overlapping windows."""
    from standardized_omop_data_etl_ray.stages.windows import hopping_aggregate

    ds = _pq(sf_dir, "events", ["ts", "value"])
    return hopping_aggregate(ds, "ts", "value", 3600, 1800).map_batches(
        _round_cols({"sum_value": 2}), batch_format="pyarrow"
    )


_HOPPING_SQL = """
SELECT window_start, COUNT(*) AS n_events, ROUND(SUM(value), 2) AS sum_value
FROM (
    SELECT make_timestamp((epoch_us(ts) // 1000000 // 3600) * 3600 * 1000000)
           AS window_start, value FROM events
    UNION ALL
    SELECT make_timestamp((((epoch_us(ts) // 1000000 - 1800) // 3600) * 3600 + 1800)
           * 1000000), value
    FROM events WHERE ((epoch_us(ts) // 1000000 - 1800) // 3600) * 3600 + 1800
                      <= epoch_us(ts) // 1000000
)
GROUP BY window_start
"""


def late_events_hourly(sf_dir: str):
    """Streaming watermark semantics replayed over a batch: events
    arrive in a deterministically DISORDERED order (local 4-block
    reversal of event_id — a bijection), the watermark tracks the max
    event time of prior arrivals, and rows trailing it by >1 minute are
    LATE (allowed-lateness policy).  Output: per event-time hour, the
    on-time and late counts — what a streaming engine's side-output
    metrics would show."""
    from standardized_omop_data_etl_ray.stages.windows import (
        watermark_split,
    )

    ds = _pq(sf_dir, "events", ["event_id", "ts"],
             rows_hint=_nrows(sf_dir, "events"))

    def arrival(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        arr = (eid // 4) * 4 + (3 - eid % 4)
        return pa.table({
            "arrival": pa.array(arr, pa.int64()),
            "ts": t.column("ts"),
        })

    marked = watermark_split(
        ds.map_batches(arrival, batch_format="pyarrow"),
        "ts", "arrival", lateness_us=60_000_000,
    )

    def hourly(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        win = (us // 3_600_000_000) * 3_600_000_000
        late = t.column("__late").to_numpy(zero_copy_only=False)
        return pa.table({
            "window_start": pa.array(win).cast(pa.timestamp("us")),
            "n_ontime": pa.array((~late).astype(np.int64)),
            "n_late": pa.array(late.astype(np.int64)),
        })

    return (
        marked.map_batches(hourly, batch_format="pyarrow")
        .groupby("window_start")
        .aggregate(Sum("n_ontime", alias_name="n_ontime"),
                   Sum("n_late", alias_name="n_late"))
        # Ray's aggregate hands the timestamp key back at seconds
        # resolution — re-impose µs so the schema matches the oracle's
        # make_timestamp exactly
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("window_start"),
                "window_start",
                t.column("window_start").cast(pa.timestamp("us"))),
            batch_format="pyarrow")
    )


_LATE_EVENTS_SQL = """
WITH a AS (
    SELECT ts, (event_id // 4) * 4 + (3 - event_id % 4) AS arrival
    FROM events
),
w AS (
    SELECT ts, max(ts) OVER (ORDER BY arrival
        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
    FROM a
)
SELECT make_timestamp((epoch_us(ts) // 3600000000) * 3600000000)
           AS window_start,
       COUNT(*) FILTER (WHERE wm IS NULL
                        OR ts >= wm - INTERVAL 1 MINUTE) AS n_ontime,
       COUNT(*) FILTER (WHERE ts < wm - INTERVAL 1 MINUTE) AS n_late
FROM w GROUP BY 1
"""


def regex_extract_rekey(sf_dir: str):
    """J5 reverse-parse join: recover the numeric key embedded in a
    formatted string column, then aggregate on it."""
    from standardized_omop_data_etl_ray.functions.ids import regex_extract_key

    ds = _pq(sf_dir, "events", ["event_id", "user_id", "value"])

    def fmt(t: pa.Table) -> pa.Table:
        src = pc.binary_join_element_wise(
            pa.scalar("user-"), pc.cast(t.column("user_id"), pa.string()),
            pa.scalar("-x"), "",
        )
        return pa.table({"source_value": src, "value": t.column("value")})

    def extract(t: pa.Table) -> pa.Table:
        k = regex_extract_key(t.column("source_value"),
                              r"user-(?P<k>\d+)-x")
        return pa.table({
            "user_id": pc.cast(k, pa.int64()),
            "value": t.column("value"),
        })

    return (
        ds.map_batches(fmt, batch_format="pyarrow")
        .map_batches(extract, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Count(alias_name="n_rows"),
                   Sum("value", alias_name="sum_value"))
        .map_batches(_round_cols({"sum_value": 2}), batch_format="pyarrow")
    )


_REGEX_REKEY_SQL = """
SELECT CAST(regexp_extract('user-' || user_id || '-x', 'user-(\\d+)-x', 1)
            AS BIGINT) AS user_id,
       COUNT(*) AS n_rows, ROUND(SUM(value), 2) AS sum_value
FROM events GROUP BY 1
"""


def normalize_dates_orders(sf_dir: str):
    """M17 date-format normalizer composed over a deterministic
    mixed-format column: even order keys render o_orderdate as
    dd/mm/yyyy, odd as ISO; ``normalize_date_format`` must converge
    both to yyyy-mm-dd (reference analog: helpers.convert_omop_dates —
    not in the reference's own run list, composed here so the kernel
    gets a driver-checked query; VERDICT r3 missing #5)."""
    from standardized_omop_data_etl_ray.functions.dates import (
        normalize_date_format,
    )

    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def mixed(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey")
        d = pc.cast(t.column("o_orderdate"), pa.date32())
        dmy = pc.strftime(d, format="%d/%m/%Y")
        iso = pc.strftime(d, format="%Y-%m-%d")
        even = pc.equal(pc.bit_wise_and(k, 1), 0)
        return pa.table({"raw_date": pc.if_else(even, dmy, iso)})

    def norm(t: pa.Table) -> pa.Table:
        return pa.table(
            {"norm_date": normalize_date_format(t.column("raw_date"))}
        )

    return (
        ds.map_batches(mixed, batch_format="pyarrow")
        .map_batches(norm, batch_format="pyarrow")
        .groupby("norm_date")
        .aggregate(Count(alias_name="n_orders"))
    )


_NORM_DATES_SQL = """
SELECT strftime(o_orderdate, '%Y-%m-%d') AS norm_date,
       COUNT(*) AS n_orders
FROM orders GROUP BY 1
"""


def redundant_sources_lineitem(sf_dir: str):
    """A6 redundancy report (reference: find_redundant.py — not in its
    own run list) composed over driver tables: (supplier, part) pairs
    reported from MORE than one return-flag 'source', with the source
    list joined in sorted order (VERDICT r3 missing #5)."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        redundancy_report,
    )

    li = _pq(sf_dir, "lineitem",
             ["l_suppkey", "l_partkey", "l_returnflag"],
             rows_hint=_nrows(sf_dir, "lineitem"))
    return redundancy_report(li, "l_suppkey", "l_partkey", "l_returnflag")


_REDUNDANT_SQL = """
SELECT l_suppkey, l_partkey,
       string_agg(DISTINCT l_returnflag, ', ' ORDER BY l_returnflag)
           AS l_returnflag,
       COUNT(DISTINCT l_returnflag) AS n_sources
FROM lineitem
GROUP BY 1, 2
HAVING COUNT(DISTINCT l_returnflag) >= 2
"""


def except_all_lineitem_orders(sf_dir: str):
    """SQL EXCEPT ALL (bag difference — duplicates count): lineitem
    order keys minus one occurrence per existing order, so each key
    appears (n_lineitems − 1) times.  One bucketed count reduce; no
    side ever materializes on the driver."""
    from standardized_omop_data_etl_ray.stages.schema_ops import except_all

    li = _pq(sf_dir, "lineitem", ["l_orderkey"],
             rows_hint=_nrows(sf_dir, "lineitem"))
    o = _pq(sf_dir, "orders", ["o_orderkey"],
            rows_hint=_nrows(sf_dir, "orders")).map_batches(
        lambda t: pa.table({"l_orderkey": t.column("o_orderkey")}),
        batch_format="pyarrow",
    )
    return except_all(li, o, ["l_orderkey"])


_EXCEPT_ALL_SQL = """
SELECT l_orderkey FROM lineitem
EXCEPT ALL
SELECT o_orderkey FROM orders
"""


def intersect_all_lineitem_orders(sf_dir: str):
    """SQL INTERSECT ALL (bag intersection): min(count_left,
    count_right) occurrences per key — here one row per order that has
    any lineitem."""
    from standardized_omop_data_etl_ray.stages.schema_ops import (
        intersect_all,
    )

    li = _pq(sf_dir, "lineitem", ["l_orderkey"],
             rows_hint=_nrows(sf_dir, "lineitem"))
    o = _pq(sf_dir, "orders", ["o_orderkey"],
            rows_hint=_nrows(sf_dir, "orders")).map_batches(
        lambda t: pa.table({"l_orderkey": t.column("o_orderkey")}),
        batch_format="pyarrow",
    )
    return intersect_all(li, o, ["l_orderkey"])


_INTERSECT_ALL_SQL = """
SELECT l_orderkey FROM lineitem
INTERSECT ALL
SELECT o_orderkey FROM orders
"""


def orders_rollup_priority(sf_dir: str):
    """GROUP BY ROLLUP in one input scan (grouping_sets_agg): subtotal
    lattice over (o_orderpriority, o_orderstatus) with a grouping_id
    bitmask, SQL GROUPING() semantics — per-block per-set partials are
    what shuffles, never replicated data."""
    from standardized_omop_data_etl_ray.stages.aggregates import rollup_agg

    o = _pq(sf_dir, "orders",
            ["o_orderpriority", "o_orderstatus", "o_totalprice",
             "o_orderkey"],
            rows_hint=_nrows(sf_dir, "orders"))
    out = rollup_agg(
        o, ["o_orderpriority", "o_orderstatus"],
        {"sum_price": ("o_totalprice", "sum"),
         "n_orders": ("o_orderkey", "count")},
    )
    return out.map_batches(_round_cols({"sum_price": 2}),
                           batch_format="pyarrow")


_ROLLUP_SQL = """
SELECT o_orderpriority, o_orderstatus,
       GROUPING(o_orderpriority, o_orderstatus)::BIGINT AS grouping_id,
       ROUND(SUM(o_totalprice), 2) AS sum_price,
       COUNT(o_orderkey) AS n_orders
FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)
"""


def order_price_quartiles(sf_dir: str):
    """Distribution window functions in one bucketed pass (group_rank
    percent/ntile extension): PERCENT_RANK + CUME_DIST on the price
    tie tuple, NTILE(4) on the full deterministic sort — per order
    within its priority class."""
    from standardized_omop_data_etl_ray.stages.windows import group_rank

    o = _pq(sf_dir, "orders",
            ["o_orderkey", "o_orderpriority", "o_totalprice"],
            rows_hint=_nrows(sf_dir, "orders"))
    out = group_rank(o, "o_orderpriority",
                     ["o_totalprice", "o_orderkey"], rank_prefix=1,
                     percent=True, ntile=4)
    out = out.drop_columns(["rank", "dense_rank"])
    return out.map_batches(
        _round_cols({"percent_rank": 9, "cume_dist": 9}),
        batch_format="pyarrow",
    )


_QUARTILES_SQL = """
SELECT o_orderkey, o_orderpriority, o_totalprice,
       row_number() OVER w2 AS row_number,
       ROUND(percent_rank() OVER w1, 9) AS percent_rank,
       ROUND(cume_dist() OVER w1, 9) AS cume_dist,
       ntile(4) OVER w2 AS ntile
FROM orders
WINDOW w1 AS (PARTITION BY o_orderpriority ORDER BY o_totalprice),
       w2 AS (PARTITION BY o_orderpriority
              ORDER BY o_totalprice, o_orderkey)
"""


def pivot_quantity_by_returnflag(sf_dir: str):
    """Long→wide pivot with aggregation (inverse of M7's unpivot):
    per-part quantity totals split into one column per return flag —
    SQL conditional-aggregation semantics (missing cell = NULL)."""
    from standardized_omop_data_etl_ray.stages.unpivot import pivot_agg

    li = _pq(sf_dir, "lineitem",
             ["l_partkey", "l_returnflag", "l_quantity"],
             rows_hint=_nrows(sf_dir, "lineitem"))
    out = pivot_agg(li, ["l_partkey"], "l_returnflag", "l_quantity",
                    names=["A", "N", "R"])
    return out.map_batches(
        _round_cols({"A": 2, "N": 2, "R": 2}), batch_format="pyarrow"
    )


_PIVOT_SQL = """
SELECT l_partkey,
       ROUND(SUM(CASE WHEN l_returnflag = 'A' THEN l_quantity END), 2) AS A,
       ROUND(SUM(CASE WHEN l_returnflag = 'N' THEN l_quantity END), 2) AS N,
       ROUND(SUM(CASE WHEN l_returnflag = 'R' THEN l_quantity END), 2) AS R
FROM lineitem GROUP BY l_partkey
"""


def grouped_price_quantiles(sf_dir: str):
    """Per-group exact discrete quantiles (quantile_disc semantics) at
    group-key cardinality — the vectorized per-bucket path, vs the
    global-sort ``exact_quantiles``."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        grouped_quantiles,
    )

    li = _pq(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"],
             rows_hint=_nrows(sf_dir, "lineitem"))
    return grouped_quantiles(li, ["l_partkey"], "l_extendedprice",
                             [0.25, 0.5, 0.75])


_GROUPED_Q_SQL = """
SELECT l_partkey, CAST(0.25 AS DOUBLE) AS q,
       quantile_disc(l_extendedprice, 0.25) AS value
FROM lineitem GROUP BY l_partkey
UNION ALL
SELECT l_partkey, CAST(0.5 AS DOUBLE),
       quantile_disc(l_extendedprice, 0.5)
FROM lineitem GROUP BY l_partkey
UNION ALL
SELECT l_partkey, CAST(0.75 AS DOUBLE),
       quantile_disc(l_extendedprice, 0.75)
FROM lineitem GROUP BY l_partkey
"""


def ivf_topk_cosine(sf_dir: str):
    """IVF-bucketed approximate top-k (the ANN scale path: probe only the
    nearest cells) — SELF-VERIFYING: the query also runs the exact brute
    force over the same corpus, asserts mean recall ≥ 0.9 and per-query
    recall ≥ 0.6 (the tests/test_dedup_ann.py gate bounds), and returns
    the recall-audit table.  The audit schema is deterministic, so the
    SQL oracle hash-checks it; a recall drop makes the query raise →
    a red `err` on the driver board instead of a silent rows-only pass."""
    from standardized_omop_data_etl_ray.stages.ann import (
        IVFIndex, brute_force_topk, ivf_topk,
    )

    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    # k-means fit on a bounded CORPUS-WIDE sample: a deterministic
    # modular shard (vec_id % m == 0 with m sized from the footer row
    # count) touches every region of the corpus, unlike limit(4096)
    # which saw only the first blocks (VERDICT r2 #6); never the full
    # corpus on the driver
    n_corpus = _nrows(sf_dir, "embeddings")
    m = max(1, n_corpus // 4096)

    def modular_pick(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % m == 0))

    sample = emb.map_batches(
        modular_pick, batch_format="pyarrow"
    ).limit(4096).to_pandas()
    M = np.stack(sample["embedding"].to_numpy()).astype(np.float32)
    idx = IVFIndex(n_cells=8).fit(M)
    with_cells = idx.assign_cells(emb, "embedding")
    qdf = emb.filter(expr="vec_id < 10").to_pandas().sort_values("vec_id")
    Q = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    qids = qdf["vec_id"].to_numpy()
    k = 5
    approx = ivf_topk(with_cells, idx, Q, qids, "embedding", "vec_id",
                      k=k, nprobe=6).to_pandas()
    exact = brute_force_topk(emb, Q, qids, "embedding", "vec_id",
                             k=k).to_pandas()
    hits = []
    for qid in qids:
        a = set(approx.loc[approx["query_id"] == qid, "vec_id"])
        e = set(exact.loc[exact["query_id"] == qid, "vec_id"])
        hits.append(len(a & e))
    recalls = np.asarray(hits, dtype=np.float64) / k
    if recalls.mean() < 0.9:
        raise AssertionError(
            f"IVF mean recall {recalls.mean():.3f} < 0.9 gate"
        )
    if recalls.min() < 0.6:
        raise AssertionError(
            f"IVF per-query recall floor broken: {recalls.min():.2f} < 0.6"
        )
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "k": pa.array([k] * len(qids), pa.int64()),
        "recall_floor_met": pa.array([True] * len(qids), pa.bool_()),
    })


_IVF_AUDIT_SQL = """
SELECT CAST(vec_id AS BIGINT) AS query_id, CAST(5 AS BIGINT) AS k,
       TRUE AS recall_floor_met
FROM embeddings WHERE vec_id < 10
"""




def customer_balance_buckets(sf_dir: str):
    """CASE-expression binning (np.select ↔ SQL CASE)."""
    ds = _pq(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def fn(t: pa.Table) -> pa.Table:
        bal = t.column("c_acctbal").to_numpy(zero_copy_only=False)
        bucket = np.select(
            [bal < 0, bal < 2500, bal < 5000, bal < 7500],
            ["negative", "low", "mid", "high"],
            default="top",
        )
        return pa.table({"bucket": pa.array(bucket, pa.string()),
                         "c_acctbal": t.column("c_acctbal")})

    return (
        ds.map_batches(fn, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Count(alias_name="n_customers"),
                   Sum("c_acctbal", alias_name="total_balance"))
        .map_batches(_round_cols({"total_balance": 2}), batch_format="pyarrow")
    )


_BAL_BUCKETS_SQL = """
SELECT CASE WHEN c_acctbal < 0 THEN 'negative'
            WHEN c_acctbal < 2500 THEN 'low'
            WHEN c_acctbal < 5000 THEN 'mid'
            WHEN c_acctbal < 7500 THEN 'high'
            ELSE 'top' END AS bucket,
       COUNT(*) AS n_customers, ROUND(SUM(c_acctbal), 2) AS total_balance
FROM customer GROUP BY 1
"""


def orders_monthly_rollup(sf_dir: str):
    """Calendar-month tumbling rollup (month temporal unit)."""
    ds = _pq(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def fn(t: pa.Table) -> pa.Table:
        m = pc.floor_temporal(t.column("o_orderdate"), unit="month")
        return pa.table({"month": m, "o_totalprice": t.column("o_totalprice")})

    return (
        ds.map_batches(fn, batch_format="pyarrow")
        .groupby("month")
        .aggregate(Count(alias_name="n_orders"),
                   Sum("o_totalprice", alias_name="sum_total"))
        .map_batches(_round_cols({"sum_total": 2}), batch_format="pyarrow")
        .map_batches(_ts_us(["month"]), batch_format="pyarrow")
    )


_ORDERS_MONTHLY_SQL = """
SELECT date_trunc('month', o_orderdate) AS month, COUNT(*) AS n_orders,
       ROUND(SUM(o_totalprice), 2) AS sum_total
FROM orders GROUP BY 1
"""


def events_daily_active_users(sf_dir: str):
    """Daily distinct actives: per-batch pair-distinct combiner then one
    small per-day count."""
    ds = _pq(sf_dir, "events", ["ts", "user_id"])

    def days(t: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.floor_temporal(t.column("ts"), unit="day"),
            "user_id": t.column("user_id"),
        })

    def combiner(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    def per_day(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"day": [g["day"].iloc[0]],
                             "n_users": [int(g["user_id"].nunique())]})

    return (
        ds.map_batches(days, batch_format="pyarrow")
        .map_batches(combiner, batch_format="pandas")
        .groupby("day")
        .map_groups(per_day, batch_format="pandas")
        .map_batches(_ts_us(["day"]), batch_format="pyarrow")
    )


_DAU_SQL = """
SELECT date_trunc('day', ts) AS day, COUNT(DISTINCT user_id) AS n_users
FROM events GROUP BY 1
"""


# ---- non-SQL-expressible (rows-only checks) ------------------------------

def cdc_full_replay_docs(sf_dir: str):
    """Flagship: documents-derived CDC log replayed through the full lake
    engine (micro-batches, watermarks, two-phase manifest)."""
    from standardized_omop_data_etl_ray.pipelines.flagship import run_flagship

    lake_root = tempfile.mkdtemp(prefix="cdc_lake_")
    return run_flagship(sf_dir, lake_root, epochs=3)


_CDC_FULL_SQL = """
-- closed form of the flagship replay (flagship.py derivation rule,
-- versions=3): every key's LWW winner is its v=2 event — an I-reinsert
-- for doc_id % 13 == 0 (which was deleted at v=1), else a U.
SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END AS op,
       doc_id * 3 + 2 AS lsn,
       source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':2' AS "commit",
       lang,
       text || ' v2' AS content
FROM documents
"""


def cdc_curated_replay_docs(sf_dir: str):
    """Streaming curation (ROADMAP #18): the flagship CDC replay with a
    quality gate INSIDE the apply path — I/U events whose content fails
    a 5-word floor arrive as tombstones (retraction semantics, see
    stages/standardize.make_curation_gate), so the lake's merge-on-read
    state is the curated latest state.  The oracle is the closed-form
    replay SQL filtered on the winning (v2) content's word count."""
    from standardized_omop_data_etl_ray.pipelines.flagship import run_flagship
    from standardized_omop_data_etl_ray.spec import TableSpec
    from standardized_omop_data_etl_ray.stages.standardize import (
        make_curation_gate,
    )

    def min_words(batch: pa.Table):
        s = batch.column("content").to_pandas().fillna("")
        n = s.str.strip().str.split().str.len().fillna(0)
        return (n >= 5).to_numpy()

    gate = make_curation_gate(TableSpec(name="docs_cdc"), min_words)
    lake_root = tempfile.mkdtemp(prefix="cdc_lake_curated_")
    return run_flagship(sf_dir, lake_root, epochs=3, gate=gate)


_CDC_CURATED_SQL = r"""
-- closed form of the curated flagship replay: each key's LWW winner is
-- its v=2 event; the in-path gate tombstones winners whose content
-- ('text v2') has fewer than 5 whitespace tokens, so they vanish from
-- the state.
SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END AS op,
       doc_id * 3 + 2 AS lsn,
       source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':2' AS "commit",
       lang,
       text || ' v2' AS content
FROM documents
WHERE len(string_split_regex(trim(text || ' v2'), '\s+')) >= 5
"""


def cdc_time_travel_docs(sf_dir: str):
    """Time travel (snapshot isolation over the COW manifest log): run
    the 3-epoch flagship replay, then read the lake AS OF the SECOND
    commit — ``read_state(at_epoch=...)`` resolves merge-on-read against
    that epoch's retained manifest snapshot, untouched by the later
    commit.  The oracle regenerates the event log in SQL and replays
    only the first two epochs' lsn window (lsn < 2·n_docs — epoch
    windows are ceil(total/epochs) wide, flagship.py:101-103)."""
    from standardized_omop_data_etl_ray.pipelines.flagship import run_flagship

    lake_root = tempfile.mkdtemp(prefix="cdc_lake_tt_")
    lake = run_flagship(sf_dir, lake_root, epochs=3, return_lake=True)
    mid = lake.snapshot_epochs()[1]
    return lake.read_state(drop_engine_cols=True, at_epoch=mid)


_CDC_TIME_TRAVEL_SQL = """
-- the flagship event log regenerated in SQL (flagship.py derivation
-- rule), truncated to the first two epoch windows (lsn < 2*n_docs),
-- LWW-resolved: the state the lake held after its second commit.
WITH ev AS (
  SELECT CASE WHEN v = 0 THEN 'I'
              WHEN doc_id % 13 = 0 AND v = 1 THEN 'D'
              WHEN doc_id % 13 = 0 AND v = 2 THEN 'I'
              ELSE 'U' END AS op,
         doc_id * 3 + v AS lsn,
         source AS repo,
         'doc_' || doc_id || '.txt' AS path,
         doc_id || ':' || v AS commit_col,
         CASE WHEN doc_id % 13 = 0 AND v = 1 THEN NULL ELSE lang END AS lang,
         CASE WHEN doc_id % 13 = 0 AND v = 1 THEN NULL
              WHEN v = 0 THEN text
              ELSE text || ' v' || v END AS content
  FROM documents CROSS JOIN (SELECT unnest([0, 1, 2]) AS v)
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY repo, path ORDER BY lsn DESC) rn
  FROM ev WHERE lsn < 2 * (SELECT COUNT(*) FROM documents)
)
SELECT op, lsn, repo, path, commit_col AS "commit", lang, content
FROM ranked WHERE rn = 1 AND op != 'D'
"""


def cdc_point_lookup_docs(sf_dir: str):
    """Zone-map point lookup: replay the flagship log, then read 20
    specific keys WITHOUT a scan (CDCLake.lookup — hash-route to the
    partition, prune its files by the manifest's per-file key min/max,
    LWW-resolve only survivors).  Includes a key that never existed.
    The oracle selects the same keys from the closed-form final state."""
    from standardized_omop_data_etl_ray.pipelines.flagship import run_flagship

    lake_root = tempfile.mkdtemp(prefix="cdc_lake_pl_")
    lake = run_flagship(sf_dir, lake_root, epochs=3, return_lake=True)
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"])
    picks = docs.sort_values("doc_id").iloc[::max(1, len(docs) // 20)][:20]
    keys = [{"repo": r["source"], "path": f"doc_{r['doc_id']}.txt"}
            for _, r in picks.iterrows()]
    keys.append({"repo": "no/such-repo", "path": "missing.txt"})
    stats = {}
    t = lake.lookup(keys, stats_out=stats)
    assert stats["files_read"] <= stats["files_total"]
    return t.select(["op", "lsn", "repo", "path", "commit", "lang",
                     "content"])


_CDC_LOOKUP_SQL = """
-- the sampled keys' rows from the closed-form final state (v=2 winner
-- per key; the missing key matches nothing)
WITH final AS (
  SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END AS op,
         doc_id * 3 + 2 AS lsn, source AS repo,
         'doc_' || doc_id || '.txt' AS path,
         doc_id || ':2' AS commit_col, lang, text || ' v2' AS content,
         row_number() OVER (ORDER BY doc_id) - 1 AS rk
  FROM documents
),
n AS (SELECT COUNT(*) AS c FROM documents)
SELECT op, lsn, repo, path, commit_col AS "commit", lang, content
FROM final WHERE rk % greatest(1, (SELECT c FROM n) // 20) = 0
                 AND rk // greatest(1, (SELECT c FROM n) // 20) < 20
"""


def cdc_key_history_docs(sf_dir: str):
    """Per-key version-chain audit (CDCLake.key_history): replay the
    flagship log in VERSION-MAJOR epochs (each epoch is one version
    wave, so each key retains one winner per epoch — three-deep
    chains), then audit every 97th doc's key through the pruned
    point-read path.  Deletes appear in the chain (the %13 docs'
    v=1 tombstone).  Oracle: the closed-form union of the three
    versions for the sampled docs."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")

    def version_major(t: pa.Table) -> pa.Table:
        lsn = t.column("lsn")
        v = pc.subtract(lsn, pc.multiply(pc.divide(lsn, 3), 3))
        d = pc.divide(lsn, 3)
        return t.set_column(
            t.schema.get_field_index("lsn"), "lsn",
            pc.add(pc.multiply(v, n), d),
        )

    events = events_from_documents(docs, 3).map_batches(
        version_major, batch_format="pyarrow"
    )
    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_hist_"),
                   TableSpec(name="docs_cdc", num_partitions=16))
    for v in range(3):
        lake.apply_events(
            events.filter(expr=f"lsn >= {v * n} and lsn < {(v + 1) * n}")
        )
    picks = pd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "source"])
    picks = picks[picks["doc_id"] % 97 == 0]
    keys = [{"repo": r["source"], "path": f"doc_{r['doc_id']}.txt"}
            for _, r in picks.iterrows()]
    stats = {}
    t = lake.key_history(keys, stats_out=stats)
    assert stats["files_read"] <= stats["files_total"]
    return t.select(["op", "lsn", "repo", "path", "commit", "lang",
                     "content"])


_CDC_KEY_HISTORY_SQL = """
-- closed-form three-version chain per sampled doc under the
-- version-major lsn remap (lsn = v*n + doc_id); the %13 docs' v=1 is
-- a tombstone with null payload
WITH n AS (SELECT COUNT(*) AS c FROM documents),
v AS (SELECT 0 AS v UNION ALL SELECT 1 UNION ALL SELECT 2)
SELECT CASE WHEN v = 0 THEN 'I'
            WHEN v = 1 THEN CASE WHEN doc_id % 13 = 0 THEN 'D' ELSE 'U' END
            ELSE CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END END AS op,
       v * (SELECT c FROM n) + doc_id AS lsn,
       source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':' || v AS "commit",
       CASE WHEN v = 1 AND doc_id % 13 = 0 THEN NULL ELSE lang END AS lang,
       CASE WHEN v = 1 AND doc_id % 13 = 0 THEN NULL
            WHEN v = 0 THEN text
            ELSE text || ' v' || v END AS content
FROM documents CROSS JOIN v
WHERE doc_id % 97 = 0
"""


def cdc_reshard_replay_docs(sf_dir: str):
    """Cluster-resize drill: the flagship replay applied on 16
    partitions, resharded to 25 mid-history (after epoch 2 of 3), the
    remaining window applied on the NEW layout, plus a full redelivery
    of the whole log (must be a no-op — retained tombstones + min
    watermark).  The state must equal the plain replay's closed form."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    n_docs = docs.count()
    total = n_docs * 3
    events = events_from_documents(docs, 3)
    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_rs_"),
                   TableSpec(name="docs_cdc", num_partitions=16))
    step = (total + 2) // 3
    for e in range(3):
        lo, hi = e * step, min((e + 1) * step, total)
        if e == 2:
            lake.reshard(25)
        lake.apply_events(events.filter(expr=f"lsn >= {lo} and lsn < {hi}"))
    # full redelivery on the resharded layout: exactly-once no-op
    lake.apply_events(events)
    return lake.read_state(drop_engine_cols=True)


def cdc_changes_between_docs(sf_dir: str):
    """Changefeed resume: the NET change set between the flagship
    replay's first commit and its final state (CDCLake.changes_between
    — composed delta-sourced epoch change sets, state never re-read).
    The oracle diffs the two lsn-window LWW states in SQL."""
    from standardized_omop_data_etl_ray.pipelines.flagship import run_flagship

    lake_root = tempfile.mkdtemp(prefix="cdc_lake_cb_")
    lake = run_flagship(sf_dir, lake_root, epochs=3, return_lake=True)
    first = lake.snapshot_epochs()[0]
    ds = lake.changes_between(first, carry_cols=["content"])
    return ds.select_columns(
        ["repo", "path", "change", "old_content", "new_content"]
    )


_CDC_CHANGES_BETWEEN_SQL = """
-- net diff between the state after epoch 1 (lsn < n_docs) and the
-- final state, over the SQL-regenerated event log
WITH ev AS (
  SELECT CASE WHEN v = 0 THEN 'I'
              WHEN doc_id % 13 = 0 AND v = 1 THEN 'D'
              WHEN doc_id % 13 = 0 AND v = 2 THEN 'I'
              ELSE 'U' END AS op,
         doc_id * 3 + v AS lsn, source AS repo,
         'doc_' || doc_id || '.txt' AS path,
         CASE WHEN doc_id % 13 = 0 AND v = 1 THEN NULL
              WHEN v = 0 THEN text ELSE text || ' v' || v END AS content
  FROM documents CROSS JOIN (SELECT unnest([0, 1, 2]) AS v)
),
s0 AS (
  SELECT repo, path, content FROM (
    SELECT *, row_number() OVER (PARTITION BY repo, path
                                 ORDER BY lsn DESC) rn
    FROM ev WHERE lsn < (SELECT COUNT(*) FROM documents))
  WHERE rn = 1 AND op != 'D'),
s1 AS (
  SELECT repo, path, content FROM (
    SELECT *, row_number() OVER (PARTITION BY repo, path
                                 ORDER BY lsn DESC) rn
    FROM ev)
  WHERE rn = 1 AND op != 'D')
SELECT coalesce(a.repo, b.repo) AS repo,
       coalesce(a.path, b.path) AS path,
       CASE WHEN a.repo IS NULL THEN 'added'
            WHEN b.repo IS NULL THEN 'deleted'
            ELSE 'updated' END AS change,
       a.content AS old_content, b.content AS new_content
FROM s0 a FULL OUTER JOIN s1 b USING (repo, path)
WHERE a.repo IS NULL OR b.repo IS NULL OR a.content IS DISTINCT FROM b.content
"""


def cdc_dead_letter_replay_docs(sf_dir: str):
    """Poison-pill containment: the flagship event log with every
    97th doc's v2 event corrupted (null lsn) replayed through a
    dead_letter=True lake — corrupt events divert to _dead_letter/
    parquet, clean rows commit, so each poisoned key's live winner
    falls back to its v1 event (or vanishes, when v1 was the %13
    delete).  The oracle encodes exactly that fallback."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    events = events_from_documents(docs, 3)

    def poison(t: pa.Table) -> pa.Table:
        lsn = t.column("lsn")
        d = pc.divide(lsn, 3)
        v = pc.subtract(lsn, pc.multiply(d, 3))
        bad = pc.and_(pc.equal(pc.subtract(d, pc.multiply(
            pc.divide(d, 97), 97)), 0), pc.equal(v, 2))
        return t.set_column(
            t.schema.get_field_index("lsn"), "lsn",
            pc.if_else(bad, pa.scalar(None, pa.int64()), lsn),
        )

    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_dlq_"),
                   TableSpec(name="docs_cdc", num_partitions=16),
                   dead_letter=True)
    rec = lake.apply_events(events.map_batches(poison,
                                               batch_format="pyarrow"))
    assert rec["rows_dead_lettered"] > 0
    dlq = lake.read_dead_letters()
    assert dlq is not None and dlq.count() == rec["rows_dead_lettered"]
    return lake.read_state(drop_engine_cols=True)


_CDC_DLQ_SQL = """
-- fallback winners: poisoned (doc_id%97=0) keys keep their v1 event;
-- poisoned keys whose v1 was the %13 delete vanish
WITH base AS (
  SELECT doc_id, source, lang, text,
         (doc_id % 97 = 0) AS poisoned,
         (doc_id % 13 = 0) AS del
  FROM documents
)
SELECT CASE WHEN NOT poisoned AND del THEN 'I' ELSE 'U' END AS op,
       CASE WHEN poisoned THEN doc_id * 3 + 1
            ELSE doc_id * 3 + 2 END AS lsn,
       source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':' || (CASE WHEN poisoned THEN 1 ELSE 2 END)
           AS "commit",
       lang,
       text || (CASE WHEN poisoned THEN ' v1' ELSE ' v2' END) AS content
FROM base WHERE NOT (poisoned AND del)
"""


def incremental_lang_stats_docs(sf_dir: str):
    """Incrementally-maintained GROUP BY view (stages/incremental.py)
    over the CDC lake: per-lang COUNT/SUM/AVG/MIN/MAX of content
    length, maintained from each epoch's DELTA-SOURCED change set —
    never recomputed over the state.  The replay uses VERSION-MAJOR
    lsns (lsn = v·n + doc_id) so each epoch is one full version wave:
    epoch 1 retracts every doc's v0 payload (and deletes the %13
    keys), epoch 2 re-asserts — the maintenance path's retraction and
    MIN/MAX-rescan machinery is load-bearing, not decorative.  The
    oracle aggregates the closed-form final state (content
    'text v2' for every doc) in SQL."""
    from standardized_omop_data_etl_ray.functions.rounding import (
        round_half_away,
    )
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        epoch_change_set,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec
    from standardized_omop_data_etl_ray.stages.incremental import (
        IncAggSpec,
        apply_change_set,
        empty_agg_view,
        view_result,
    )

    n = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")

    def version_major(t: pa.Table) -> pa.Table:
        lsn = t.column("lsn")
        v = pc.subtract(lsn, pc.multiply(pc.divide(lsn, 3), 3))
        d = pc.divide(lsn, 3)
        return t.set_column(
            t.schema.get_field_index("lsn"), "lsn",
            pc.add(pc.multiply(v, n), d),
        )

    # materialize the synthesized 3-version event log ONCE: each
    # epoch's lsn-window filter would otherwise re-execute the full
    # derivation lineage (in production the binlog is already durable
    # parquet and this is a plain pruned read) — measured 0.4 s/epoch
    events = events_from_documents(docs, 3).map_batches(
        version_major, batch_format="pyarrow"
    ).materialize()
    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_view_"),
                   TableSpec(name="docs_cdc", num_partitions=16))

    spec = IncAggSpec(
        group_cols=["lang"], count="n_docs",
        sums={"sum_chars": "chars"}, means={"avg_chars": "chars"},
        mins={"min_chars": "chars"}, maxs={"max_chars": "chars"},
    )

    def with_chars(t: pa.Table) -> pa.Table:
        # Arrow kernel, null-preserving: pandas .str.len().astype("Int64")
        # here produced nullable-Int64 blocks Ray can only convert to
        # Arrow via a logged slow fallback
        for side in ("old", "new"):
            t = t.append_column(
                f"{side}_chars",
                pc.cast(pc.utf8_length(t.column(f"{side}_content")),
                        pa.int64()),
            )
        return t

    view = empty_agg_view(spec, {"lang": pa.string(), "chars": pa.int64()})
    for v in range(3):
        rec = lake.apply_events(
            events.filter(expr=f"lsn >= {v * n} and lsn < {(v + 1) * n}")
        )
        cs = epoch_change_set(
            lake, rec["epoch"], carry_cols=["lang", "content"]
        ).map_batches(with_chars, batch_format="pyarrow")
        # the MIN/MAX rescan reads the live state projected to the
        # view's source columns — derive chars with the same Arrow
        # kernel as the change-set path (VERDICT r4 #7: no pandas
        # .str.len() on the hot state scan)
        state = lake.read_state(drop_engine_cols=True).map_batches(
            lambda t: t.append_column(
                "chars",
                pc.cast(pc.utf8_length(t.column("content")), pa.int64()),
            ),
            batch_format="pyarrow",
        )
        view = apply_change_set(view, cs, spec, state=state,
                                num_buckets=8).materialize()

    def final(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("avg_chars"), "avg_chars",
            pa.array(round_half_away(t.column("avg_chars"), 6),
                     from_pandas=True),
        )

    return view_result(view, spec).map_batches(final, batch_format="pyarrow")


_INC_LANG_STATS_SQL = """
-- final state of the replay: every doc live with content 'text v2'
-- (deleted %13 keys are re-inserted by the v2 wave)
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(length(text || ' v2')) AS BIGINT) AS sum_chars,
       ROUND(AVG(length(text || ' v2')), 6) AS avg_chars,
       MIN(length(text || ' v2')) AS min_chars,
       MAX(length(text || ' v2')) AS max_chars
FROM documents GROUP BY lang
"""


def cdc_incremental_join_docs(sf_dir: str):
    """Incrementally-maintained JOIN view (stages/incremental.py
    IncJoinSpec): documents ⋈ lang-dimension on ``lang``, both sides
    live CDC lakes replayed in three version-major epochs and the view
    folded from each epoch's DELTA-SOURCED change sets — the corpora
    are never re-joined.  Epoch 1 deletes the lexicographically first
    lang from the dimension (every matching doc leaves the view) and
    the %13 doc keys; epoch 2 restores both — retraction, fan-out and
    the dA⋈dB correction term are all load-bearing.  After the
    delete-heavy epoch the maintained view is asserted equal to a
    direct re-join of the live states (self-verifying mid-stream); the
    oracle checks the closed-form final state in SQL."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        epoch_change_set,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec
    from standardized_omop_data_etl_ray.stages.incremental import (
        IncJoinSpec,
        apply_join_change_sets,
        build_join_view,
        empty_join_view,
    )

    n = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")

    def version_major(t: pa.Table) -> pa.Table:
        lsn = t.column("lsn")
        v = pc.subtract(lsn, pc.multiply(pc.divide(lsn, 3), 3))
        d = pc.divide(lsn, 3)
        return t.set_column(
            t.schema.get_field_index("lsn"), "lsn",
            pc.add(pc.multiply(v, n), d),
        )

    # materialized once: per-epoch lsn filters would re-execute the
    # derivation lineage (see incremental_lang_stats note)
    doc_events = events_from_documents(docs, 3).map_batches(
        version_major, batch_format="pyarrow"
    ).materialize()
    doc_lake = CDCLake(tempfile.mkdtemp(prefix="cdc_join_docs_"),
                       TableSpec(name="docs_cdc", num_partitions=16))

    # lang dimension: one row per distinct lang, three version waves;
    # the FIRST lang is deleted at v1 and re-inserted at v2
    langs = sorted(
        docs.select_columns(["lang"]).unique("lang")
    )
    L = len(langs)
    dim_rows = []
    for i, lang in enumerate(langs):
        for v in range(3):
            deleted = i == 0 and v == 1
            op = "I" if v == 0 or (i == 0 and v == 2) else (
                "D" if deleted else "U")
            dim_rows.append({
                "op": op,
                "lsn": v * L + i,
                "lang": lang,
                "lang_code": None if deleted else f"{lang.upper()}_v{v}",
            })
    dim_spec = TableSpec(
        name="lang_dim", key_cols=("lang",), content_col="lang_code",
        schema=pa.schema([("op", pa.string()), ("lsn", pa.int64()),
                          ("lang", pa.string()),
                          ("lang_code", pa.string())]),
        num_partitions=4,
    )
    dim_lake = CDCLake(tempfile.mkdtemp(prefix="cdc_join_dim_"), dim_spec)
    dim_events = rd.from_arrow(
        pa.Table.from_pylist(dim_rows, schema=dim_spec.schema)
    )

    jspec = IncJoinSpec(
        left_key=["path"], right_key=["lang"], on="lang",
        left_cols=["lang", "content"], right_cols=["lang_code"],
    )

    view = None
    for v in range(3):
        rec_d = doc_lake.apply_events(
            doc_events.filter(expr=f"lsn >= {v * n} and lsn < {(v + 1) * n}")
        )
        rec_m = dim_lake.apply_events(
            dim_events.filter(expr=f"lsn >= {v * L} and lsn < {(v + 1) * L}")
        )
        cs_d = epoch_change_set(
            doc_lake, rec_d["epoch"], carry_cols=["lang", "content"]
        )
        cs_m = epoch_change_set(
            dim_lake, rec_m["epoch"], carry_cols=["lang_code"]
        )
        # materialize: read_state is lazy merge-on-read, and the view
        # apply (term semi-filter) plus the epoch-1 self-check would
        # each re-execute the resolve otherwise
        state_d = doc_lake.read_state(drop_engine_cols=True).materialize()
        state_m = dim_lake.read_state(drop_engine_cols=True).materialize()
        if view is None:
            view = empty_join_view(jspec, state_d, state_m)
        view = apply_join_change_sets(
            view, jspec, cs_d, cs_m, state_d, state_m, num_buckets=8,
            state_left_rows=n, state_right_rows=L,
        ).materialize()
        if v == 1:
            # self-check mid-stream, right after the delete-heavy epoch:
            # the maintained view must equal a direct re-join
            direct = build_join_view(
                state_d, state_m, jspec, right_rows=L
            ).to_pandas().sort_values(
                ["path", "lang"], ignore_index=True
            )
            got = view.to_pandas().sort_values(
                ["path", "lang"], ignore_index=True
            )
            pd.testing.assert_frame_equal(
                got[direct.columns.tolist()], direct
            )
    return view


_CDC_INC_JOIN_SQL = """
-- closed-form final state: every doc live with content text||' v2',
-- every lang live with code upper(lang)||'_v2'
SELECT 'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
       lang, text || ' v2' AS content,
       upper(lang) || '_v2' AS lang_code
FROM documents
"""


def cdc_patch_replay_docs(sf_dir: str):
    """Partial-column CDC updates (op='P', stages/merge.
    patch_reduce_table): replay a patch-heavy event log derived from
    documents through a ``patch_ops`` lake in three epochs — per doc an
    insert, then a lang-only patch and a content-only patch (each
    leaving the other column untouched); %13 docs are deleted at v1 and
    their v2 patch must stay a NO-OP.  Epoch windows cut by lsn, so a
    patch regularly lands in a different epoch (delta file) than its
    base row — the merge-on-read fold across files is load-bearing.
    The oracle states the closed-form final state in SQL."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        patch_events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    events = patch_events_from_documents(docs)
    lake = CDCLake(
        tempfile.mkdtemp(prefix="cdc_patch_"),
        TableSpec(name="docs_patch", num_partitions=16, patch_ops=True),
    )
    total = 3 * n
    width = -(-total // 3)
    for e in range(3):
        lake.apply_events(events.filter(
            expr=f"lsn >= {e * width} and lsn < {min((e + 1) * width, total)}"
        ))
    state = lake.read_state(drop_engine_cols=True)

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "path": t.column("path"),
            "lang": t.column("lang"),
            "content": t.column("content"),
            "last_lsn": t.column("lsn"),
        })

    return state.map_batches(project, batch_format="pyarrow")


_CDC_PATCH_SQL = """
-- closed form: %13 docs deleted (their later patch is a no-op on a
-- dead key); everyone else carries both patches
SELECT 'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
       upper(lang) AS lang,
       text || ' patched' AS content,
       3 * doc_id + 2 AS last_lsn
FROM documents WHERE doc_id % 13 <> 0
"""


def cdc_left_join_docs(sf_dir: str):
    """Incrementally-maintained LEFT-OUTER join view
    (stages/incremental.apply_left_join_change_sets): the documents CDC
    lake ⟕ a static lang dimension that deliberately OMITS the
    lexicographically first lang — those docs ride the view as
    null-extensions, maintained via the differential match-count state
    (build_on_counts).  Three version-major epochs: the v1 wave deletes
    %13 docs (their inner AND extension rows must retract), v2
    re-inserts.  Mid-stream the maintained view is asserted equal to a
    direct left re-join; the oracle states the closed-form final state
    in SQL."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        epoch_change_set,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec
    from standardized_omop_data_etl_ray.stages.incremental import (
        IncJoinSpec,
        apply_left_join_change_sets,
        build_left_join_view,
        build_on_counts,
        empty_join_view,
    )

    n = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")

    def version_major(t: pa.Table) -> pa.Table:
        lsn = t.column("lsn")
        v = pc.subtract(lsn, pc.multiply(pc.divide(lsn, 3), 3))
        d = pc.divide(lsn, 3)
        return t.set_column(
            t.schema.get_field_index("lsn"), "lsn",
            pc.add(pc.multiply(v, n), d),
        )

    events = events_from_documents(docs, 3).map_batches(
        version_major, batch_format="pyarrow"
    ).materialize()  # per-epoch filters re-read, not re-derive
    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_ljoin_"),
                   TableSpec(name="docs_cdc", num_partitions=16))

    langs = sorted(docs.select_columns(["lang"]).unique("lang"))
    dim_tbl = pa.table({
        "lang": pa.array(langs[1:], pa.string()),
        "lang_code": pa.array([f"{l.upper()}_dim" for l in langs[1:]],
                              pa.string()),
    })
    dim = rd.from_arrow(dim_tbl)

    jspec = IncJoinSpec(
        left_key=["path"], right_key=[], on="lang",
        left_cols=["lang", "content"], right_cols=["lang_code"],
    )
    cnt = build_on_counts(dim, jspec).materialize()
    view = None
    for v in range(3):
        rec = lake.apply_events(
            events.filter(expr=f"lsn >= {v * n} and lsn < {(v + 1) * n}")
        )
        cs = epoch_change_set(lake, rec["epoch"],
                              carry_cols=["lang", "content"])
        state = lake.read_state(drop_engine_cols=True).materialize()
        if view is None:
            view = empty_join_view(jspec, state, dim)
        view, cnt = apply_left_join_change_sets(
            view, jspec, cs, None, state, dim, cnt, num_buckets=8,
            state_left_rows=n, state_right_rows=len(langs),
        )
        view = view.materialize()
        if v == 1:
            direct = build_left_join_view(
                state, dim, jspec, right_rows=len(langs)
            ).to_pandas().sort_values(["path"], ignore_index=True)
            got = view.to_pandas().sort_values(["path"], ignore_index=True)
            pd.testing.assert_frame_equal(
                got[direct.columns.tolist()], direct
            )
    return view


_CDC_LEFT_JOIN_SQL = """
-- closed form: all docs live with content text||' v2'; the first lang
-- (alphabetically) is absent from the dimension → null lang_code
SELECT 'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
       lang, text || ' v2' AS content,
       CASE WHEN lang <> (SELECT min(lang) FROM documents)
            THEN upper(lang) || '_dim' END AS lang_code
FROM documents
"""


def scd2_history_docs(sf_dir: str):
    """SCD Type 2 version history over the flagship CDC event log:
    every I/U event becomes a validity interval [valid_from, valid_to)
    with ``is_current`` on the open version; a delete closes its
    predecessor and emits no row (delete-then-reinsert keys show a
    hole).  One bucketed key exchange + one vectorized per-bucket
    lead — stages/history.scd2_history."""
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.stages.history import scd2_history

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    hist = scd2_history(events_from_documents(docs), ["repo", "path"])

    # Pin valid_to to float64: the oracle's lead(lsn) is a nullable
    # BIGINT which pandas renders as float64, and the sibling durable
    # cdc_scd2_view emits float64 after the parquet round-trip — the
    # driver's value hash is dtype-sensitive (VERDICT r4 #1).
    def _pin(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("valid_to")
        t = t.set_column(i, "valid_to",
                         pc.cast(t.column("valid_to"), pa.float64()))
        # upstream pandas batches leave b'pandas' schema metadata that
        # pins valid_to back to Int64 on to_pandas() — drop it so the
        # arrow dtype (double) wins
        return t.replace_schema_metadata(None)

    return hist.map_batches(_pin, batch_format="pyarrow")


def cdc_restore_replay_docs(sf_dir: str):
    """Snapshot ROLLBACK (CDCLake.restore): flagship replay, roll back
    over the last epoch (one pointer swap, no rewrite — watermarks
    revert with the snapshot), then re-tail the log from the restore
    point; exactly-once convergence onto the same closed-form final
    state is the oracle.  The restored intermediate state is asserted
    in-query against its time-travel snapshot."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_restore_"),
                   TableSpec(name="docs_cdc", num_partitions=16))
    total = n * 3
    step = (total + 2) // 3
    marks = []
    for e in range(3):
        rec = lake.apply_events(events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        ))
        marks.append(rec["epoch"])
    n_at_2 = lake.read_state(at_epoch=marks[1]).count()
    lake.restore(marks[1])
    assert lake.read_state().count() == n_at_2, "restore != snapshot"
    # re-tail from the restore point — exactly-once convergence
    lake.apply_events(events.filter(
        expr=f"lsn >= {2 * step} and lsn < {total}"
    ))
    return lake.read_state(drop_engine_cols=True)


def cdc_replicate_docs(sf_dir: str):
    """Lake→lake REPLICATION through the changefeed outbox
    (pipelines/cdc.replicate_changefeed): the flagship replay on a
    source lake, exported as net change spans (after epoch 1 and again
    after epoch 3 — the second span nets TWO source epochs), folded
    into an independent replica lake with a different partition count.
    The replica never reads the source log or state — only the feed —
    and its final (repo, path, commit, lang, content) must equal the
    closed-form LWW winners."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        replicate_changefeed,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    src = CDCLake(tempfile.mkdtemp(prefix="cdc_repl_src_"),
                  TableSpec(name="docs_cdc", num_partitions=16))
    feed = tempfile.mkdtemp(prefix="cdc_repl_feed_")
    dst = CDCLake(tempfile.mkdtemp(prefix="cdc_repl_dst_"),
                  TableSpec(name="docs_replica", num_partitions=8))
    payload = ["commit", "lang", "content"]
    total = n * 3
    step = (total + 2) // 3
    for e in range(3):
        src.apply_events(events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        ))
        if e != 1:  # export+consume after epochs 1 and 3
            src.export_changefeed(feed, carry_cols=payload)
            replicate_changefeed(feed, dst)
    state = dst.read_state(drop_engine_cols=True)
    return state.select_columns(
        ["repo", "path", "commit", "lang", "content"]
    )


def cdc_replicate_filtered_docs(sf_dir: str):
    """ROW-FILTERED subscription (replicate_changefeed(predicate=...)):
    the flagship replay replicated through the changefeed with a
    ``lang IN ('en','fr')`` row filter — per-row-image classification,
    so updates leaving the predicate become replica deletes and updates
    entering it become inserts (scope transitions are drilled in
    tests/test_lake.py; here the oracle is the filtered closed form)."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        replicate_changefeed,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    src = CDCLake(tempfile.mkdtemp(prefix="cdc_replf_src_"),
                  TableSpec(name="docs_cdc", num_partitions=16))
    feed = tempfile.mkdtemp(prefix="cdc_replf_feed_")
    dst = CDCLake(tempfile.mkdtemp(prefix="cdc_replf_dst_"),
                  TableSpec(name="docs_replica", num_partitions=8))

    def pred(img: pa.Table):
        return pc.fill_null(
            pc.is_in(img.column("lang"),
                     value_set=pa.array(["en", "fr"])),
            False,
        ).to_numpy(zero_copy_only=False)

    payload = ["commit", "lang", "content"]
    total = n * 3
    step = (total + 2) // 3
    for e in range(3):
        src.apply_events(events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        ))
        src.export_changefeed(feed, carry_cols=payload)
        replicate_changefeed(feed, dst, predicate=pred)
    state = dst.read_state(drop_engine_cols=True)
    return state.select_columns(
        ["repo", "path", "commit", "lang", "content"]
    )


_CDC_REPLICATE_FILTERED_SQL = """
-- filtered closed-form LWW winners: only rows whose (stable) lang is
-- in the subscription predicate reach the replica
SELECT source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':2' AS "commit",
       lang,
       text || ' v2' AS content
FROM documents
WHERE lang IN ('en', 'fr')
"""


def cdc_seed_replicate_docs(sf_dir: str):
    """Outbox retention + snapshot seeding (pipelines/cdc.prune_changefeed
    + seed_replica): the flagship replay exported span-per-epoch, the
    pre-final spans PRUNED, a fresh replica seeded from the source's
    epoch-2 time-travel snapshot at the span boundary, then the
    surviving span replicated on top — the late-joining-consumer path
    the gap error prescribes.  Final state must equal the closed-form
    LWW winners."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        prune_changefeed,
        replicate_changefeed,
        seed_replica,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    src = CDCLake(tempfile.mkdtemp(prefix="cdc_seed_src_"),
                  TableSpec(name="docs_cdc", num_partitions=16))
    feed = tempfile.mkdtemp(prefix="cdc_seed_feed_")
    payload = ["commit", "lang", "content"]
    total = n * 3
    step = (total + 2) // 3
    marks = []
    for e in range(3):
        marks.append(src.apply_events(events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        ))["epoch"])
        src.export_changefeed(feed, carry_cols=payload)
    prune_changefeed(feed, marks[-2])
    dst = CDCLake(tempfile.mkdtemp(prefix="cdc_seed_dst_"),
                  TableSpec(name="docs_replica", num_partitions=8))
    seed_replica(src, dst, at_epoch=marks[-2])
    replicate_changefeed(feed, dst)
    state = dst.read_state(drop_engine_cols=True)
    return state.select_columns(
        ["repo", "path", "commit", "lang", "content"]
    )


def cdc_verify_replica_docs(sf_dir: str):
    """Replication drift check (pipelines/cdc.verify_replica — the
    pt-table-checksum shape): replicate the flagship through the
    changefeed, then compare ORDER/PARTITIONING-INSENSITIVE content
    checksums of source and replica (wrapping uint64 sum of per-row
    sha256-derived hashes; only (sum, count) leaves the workers).  The
    checksum construction is SQL-reproducible, so the oracle recomputes
    the same number over the closed-form winners — three-way equality:
    source == replica == SQL."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        replicate_changefeed,
        verify_replica,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    src = CDCLake(tempfile.mkdtemp(prefix="cdc_vfy_src_"),
                  TableSpec(name="docs_cdc", num_partitions=16))
    feed = tempfile.mkdtemp(prefix="cdc_vfy_feed_")
    dst = CDCLake(tempfile.mkdtemp(prefix="cdc_vfy_dst_"),
                  TableSpec(name="docs_replica", num_partitions=8))
    payload = ["commit", "lang", "content"]
    total = n * 3
    step = (total + 2) // 3
    for e in range(3):
        src.apply_events(events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        ))
    src.export_changefeed(feed, carry_cols=payload)
    replicate_changefeed(feed, dst)
    v = verify_replica(src, dst)
    assert v["equal"], f"replica drift: {v}"
    return pa.table({
        "rows_checked": pa.array([v["replica"]["rows"]], pa.int64()),
        "checksum": pa.array([v["replica"]["checksum"]], pa.string()),
    })


_CDC_VERIFY_REPLICA_SQL = """
-- the same order-insensitive checksum over the closed-form winners:
-- wrapping uint64 sum of ('0x' || substr(sha256(repo || chr(0) || path
-- || chr(0) || commit || chr(0) || lang || chr(0) || content), 1, 16))
SELECT CAST(count(*) AS BIGINT) AS rows_checked,
       CAST((SUM(('0x' || substr(sha256(concat_ws(chr(0),
              source,
              'doc_' || doc_id || '.txt',
              doc_id || ':2',
              COALESCE(lang, chr(1) || 'NULL'),
              text || ' v2')), 1, 16))::UBIGINT::HUGEINT)
             % 18446744073709551616::HUGEINT) AS VARCHAR) AS checksum
FROM documents
"""


_CDC_REPLICATE_SQL = """
-- the replica must land on the same closed-form LWW winners as the
-- source (flagship derivation rule, versions=3): every key's live
-- value is its v=2 payload; replica-synthesized op/lsn are engine
-- columns and excluded
SELECT source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':2' AS "commit",
       lang,
       text || ' v2' AS content
FROM documents
"""


def cdc_replicate_group_docs(sf_dir: str):
    """MULTI-TABLE atomic replication (pipelines/cdc.replicate_group):
    two source lakes over the flagship event stream — the full docs
    table and a NARROW companion keyed the same but carrying only the
    commit column — export feeds with unequal span counts (3 vs 1);
    replicate_group drains both in lockstep rounds, each round's
    replica epochs committed through ONE LakeTransaction, so readers
    of the replica set never observe half an advance.  The returned
    row set joins the two replicas' states on (repo, path) — a missing
    or stale row in EITHER replica breaks the closed-form oracle."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        replicate_group,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec
    from standardized_omop_data_etl_ray.stages.joins import auto_hash_join

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    meta_spec = TableSpec(
        name="docs_meta",
        content_col="commit",
        schema=pa.schema(
            [("op", pa.string()), ("lsn", pa.int64()),
             ("repo", pa.string()), ("path", pa.string()),
             ("commit", pa.string())]
        ),
        num_partitions=8,
    )
    src_a = CDCLake(tempfile.mkdtemp(prefix="cdc_grp_srca_"),
                    TableSpec(name="docs_cdc", num_partitions=16))
    src_b = CDCLake(tempfile.mkdtemp(prefix="cdc_grp_srcb_"), meta_spec)
    feed_a = tempfile.mkdtemp(prefix="cdc_grp_feeda_")
    feed_b = tempfile.mkdtemp(prefix="cdc_grp_feedb_")
    total = n * 3
    step = (total + 2) // 3
    for e in range(3):
        window = events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        )
        src_a.apply_events(window)
        src_a.export_changefeed(feed_a, carry_cols=["commit", "lang",
                                                    "content"])
        src_b.apply_events(window.select_columns(
            ["op", "lsn", "repo", "path", "commit"]
        ))
    src_b.export_changefeed(feed_b, carry_cols=["commit"])
    root = tempfile.mkdtemp(prefix="cdc_grp_replicas_")
    dst_a = CDCLake(root, TableSpec(name="rep_docs", num_partitions=4))
    dst_b = CDCLake(root, TableSpec(
        name="rep_meta",
        content_col="commit",
        schema=meta_spec.schema,
        num_partitions=6,
    ))
    rec = replicate_group([(feed_a, dst_a), (feed_b, dst_b)])
    assert rec["rounds"] == 3 and rec["spans_applied"] == 4, rec
    a = dst_a.read_state(drop_engine_cols=True).select_columns(
        ["repo", "path", "lang", "content"]
    )
    b = dst_b.read_state(drop_engine_cols=True).select_columns(
        ["repo", "path", "commit"]
    )
    joined = auto_hash_join(a, b, ["repo", "path"], ["repo", "path"],
                            right_rows=n)
    return joined.select_columns(
        ["repo", "path", "commit", "lang", "content"]
    )


def cdc_replicate_projected_docs(sf_dir: str):
    """COLUMN-PROJECTED subscription: the replica's TableSpec declares
    a SUBSET of the source payload (repo, path, lang) — the span fold
    derives its payload from the DEST spec, so only those columns ship
    and land (the schema-mapped complement of the row-filtered
    subscription in cdc_replicate_filtered_docs).  Oracle: the
    projected closed-form LWW winners."""
    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        replicate_changefeed,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    src = CDCLake(tempfile.mkdtemp(prefix="cdc_proj_src_"),
                  TableSpec(name="docs_cdc", num_partitions=16))
    feed = tempfile.mkdtemp(prefix="cdc_proj_feed_")
    dst = CDCLake(tempfile.mkdtemp(prefix="cdc_proj_dst_"), TableSpec(
        name="docs_lang",
        content_col="lang",
        schema=pa.schema(
            [("op", pa.string()), ("lsn", pa.int64()),
             ("repo", pa.string()), ("path", pa.string()),
             ("lang", pa.string())]
        ),
        num_partitions=8,
    ))
    total = n * 3
    step = (total + 2) // 3
    for e in range(3):
        src.apply_events(events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        ))
    src.export_changefeed(feed, carry_cols=["commit", "lang", "content"])
    replicate_changefeed(feed, dst)
    state = dst.read_state(drop_engine_cols=True)
    assert "content" not in state.schema().names, "projection leaked"
    return state.select_columns(["repo", "path", "lang"])


_CDC_REPLICATE_PROJECTED_SQL = """
-- projected closed-form winners: only the subscribed columns
SELECT source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       lang
FROM documents
"""


def cdc_projected_read_docs(sf_dir: str):
    """Projection + predicate pushdown at the STATE READ (the
    prune-at-the-read contract, reader side): flagship replay, then
    ``read_state(columns=["content"], predicate=lang == 'en')`` — the
    parquet scans ship only the key/lsn/op closure plus content and
    lang (the predicate column is discovered and kept in the read
    closure even though it is not projected), the predicate is
    evaluated on the LWW-resolved winners inside each partition task,
    and the output is exactly key_cols + content for the matching
    rows.  Oracle: the closed-form winners filtered on lang."""
    from standardized_omop_data_etl_ray.pipelines.flagship import run_flagship

    lake_root = tempfile.mkdtemp(prefix="cdc_lake_projread_")
    lake = run_flagship(sf_dir, lake_root, epochs=3, return_lake=True)
    out = lake.read_state(columns=["content"],
                          predicate=pc.field("lang") == "en")
    assert out.schema().names == ["repo", "path", "content"]
    return out


_CDC_PROJECTED_READ_SQL = """
-- closed-form winners (every key's LWW winner is its v=2 event, all
-- keys live), filtered on the winner's lang, projected to the read's
-- key_cols + columns contract
SELECT source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       text || ' v2' AS content
FROM documents
WHERE lang = 'en'
"""


def cdc_clustered_read_docs(sf_dir: str):
    """OPTIMIZE + manifest-stats file skipping (pipelines/cdc.py
    ``cluster`` / ``read_state(filters=)``): flagship replay, then
    ``cluster(["lang"])`` rewrites every partition's resolved state as
    value-clustered files whose manifest zone maps carry exact lang
    bounds, and ``read_state(filters=[("lang","=","fr")])`` skips
    whole files those bounds disprove BEFORE any byte is read — the
    query asserts >0 files skipped so the pruning is load-bearing.
    Skipping is gated on clean-base partitions (merge-on-read
    soundness: a delta's superseded versions must reach the LWW
    resolve), which cluster() guarantees.  Oracle: the closed-form
    winners filtered on lang."""
    from standardized_omop_data_etl_ray.pipelines.flagship import run_flagship

    lake_root = tempfile.mkdtemp(prefix="cdc_lake_cluster_")
    lake = run_flagship(sf_dir, lake_root, epochs=3, return_lake=True)
    lake.cluster(["lang"], files_per_partition=4, order="lex")
    st: dict = {}
    out = lake.read_state(drop_engine_cols=True,
                          filters=[("lang", "=", "fr")], stats_out=st)
    assert st["files_stats_skipped"] > 0, st
    return out


_CDC_CLUSTERED_READ_SQL = """
-- closed-form winners (every key's LWW winner is its v=2 event, all
-- keys live), filtered on the winner's lang — the engine side must
-- produce this through the file-skipping read
SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END AS op,
       doc_id * 3 + 2 AS lsn,
       source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':2' AS "commit",
       lang,
       text || ' v2' AS content
FROM documents
WHERE lang = 'fr'
"""


def cdc_drop_column_docs(sf_dir: str):
    """Column-drop DDL (CDCLake.drop_column): flagship replay with
    ``lang`` dropped BETWEEN epochs 2 and 3 — one manifest commit, no
    rewrite; the column vanishes from every read instantly, epoch-3
    events still carrying it are stripped at apply (schema evolution
    must not re-add it), and the oracle states the closed-form final
    state without the column."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_ddl_"),
                   TableSpec(name="docs_cdc", num_partitions=16))
    total = n * 3
    step = (total + 2) // 3
    for e in range(3):
        if e == 2:
            lake.drop_column("lang")
        lake.apply_events(events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        ))
    return lake.read_state(drop_engine_cols=True)


_CDC_DDL_SQL = """
-- the flagship closed form minus the dropped column
SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END AS op,
       doc_id * 3 + 2 AS lsn,
       source AS repo,
       'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
       doc_id || ':2' AS "commit",
       text || ' v2' AS content
FROM documents
"""


def cdc_rename_column_docs(sf_dir: str):
    """Rename DDL (CDCLake.rename_column — pipelines/cdc.py): flagship
    replay with ``lang`` renamed to ``language`` BETWEEN epochs 2 and 3
    — a quiesced per-file rewrite (no LWW resolve, no shuffle; zone
    maps/blooms carried), after which epoch-3 events STILL carrying
    the old name land on the new column via the spec's schema-evolution
    rename map.  The live-lake analog of the reference's hard-coded
    source→CDM field remapping (e.g. demographics--person.py).  The
    oracle states the closed-form final state with the column
    aliased."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_ren_"),
                   TableSpec(name="docs_cdc", num_partitions=16))
    total = n * 3
    step = (total + 2) // 3
    for e in range(3):
        if e == 2:
            rec = lake.rename_column("lang", "language")
            assert rec["files_rewritten"] > 0
        lake.apply_events(events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        ))
    return lake.read_state(drop_engine_cols=True)


_CDC_RENAME_SQL = """
-- the flagship closed form with the renamed column aliased
SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END AS op,
       doc_id * 3 + 2 AS lsn,
       source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':2' AS "commit",
       lang AS language,
       text || ' v2' AS content
FROM documents
"""


def cdc_add_column_docs(sf_dir: str):
    """Declarative column-add DDL (CDCLake.add_column): epoch 1 lands
    docs with no ``stars`` column; ``add_column('stars', int64,
    default=5)`` BETWEEN epochs rewrites the live files with the
    backfill constant; epoch 2 then arrives CARRYING explicit stars
    values — proving pre-DDL rows answer the default while post-DDL
    arrivals keep their own values (Delta-style existing-rows
    backfill).  Oracle states the closed form."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents",
               ["doc_id", "text", "lang", "source"], rows_hint=n)

    def to_events(second: bool):
        def fn(b: pa.Table) -> pa.Table:
            par = pc.equal(
                pc.bit_wise_and(b.column("doc_id").cast(pa.int64()),
                                pa.scalar(1, pa.int64())),
                pa.scalar(1 if second else 0, pa.int64()))
            b = b.filter(par)
            did = b.column("doc_id").cast(pa.int64())
            lsn = pc.add(did, pa.scalar(n if second else 0, pa.int64()))
            cols = {
                "op": pa.array(["I"] * b.num_rows, pa.string()),
                "lsn": lsn,
                "repo": b.column("source"),
                "path": pc.binary_join_element_wise(
                    pa.scalar("doc_"), pc.cast(did, pa.string()),
                    pa.scalar(".txt"), ""),
                "commit": pc.binary_join_element_wise(
                    pc.cast(did, pa.string()), pa.scalar("0"), ":"),
                "lang": b.column("lang"),
                "content": b.column("text"),
            }
            if second:  # post-DDL arrivals carry explicit values
                cols["stars"] = pc.cast(
                    pc.bit_wise_and(did, pa.scalar(7, pa.int64())),
                    pa.int64())
            return pa.table(cols)
        return fn

    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_add_"),
                   TableSpec(name="docs_cdc", num_partitions=16))
    lake.apply_events(docs.map_batches(to_events(False),
                                       batch_format="pyarrow"))
    rec = lake.add_column("stars", pa.int64(), default=5)
    assert rec["files_rewritten"] > 0
    lake.apply_events(docs.map_batches(to_events(True),
                                       batch_format="pyarrow"))
    return lake.read_state(drop_engine_cols=True)


_CDC_ADD_SQL = """
SELECT 'I' AS op,
       CASE WHEN doc_id % 2 = 1
            THEN doc_id + (SELECT COUNT(*) FROM documents)
            ELSE doc_id END AS lsn,
       source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':0' AS "commit",
       lang,
       text AS content,
       CASE WHEN doc_id % 2 = 1
            THEN CAST(doc_id % 8 AS BIGINT)
            ELSE CAST(5 AS BIGINT) END AS stars
FROM documents
"""


def cdc_widen_column_docs(sf_dir: str):
    """Type-widening DDL (CDCLake.widen_column): epoch 1 lands an
    int32 ``n_chars`` payload; the column is widened to int64 BETWEEN
    epochs; epoch 2's values then exceed the int32 range (n_chars +
    3·10⁹) — proving the widen is load-bearing, not cosmetic — and the
    merge-on-read resolve casts epoch-1's narrow files up on scan (one
    manifest commit, zero rewrite).  Oracle states the closed form
    with the BIGINT column."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents",
               ["doc_id", "text", "lang", "source", "n_chars"],
               rows_hint=n)

    def to_events(wide: bool):
        def fn(b: pa.Table) -> pa.Table:
            # epoch split by doc parity (Ray filter exprs lack %)
            par = pc.equal(
                pc.bit_wise_and(b.column("doc_id").cast(pa.int64()),
                                pa.scalar(1, pa.int64())),
                pa.scalar(1 if wide else 0, pa.int64()))
            b = b.filter(par)
            did = b.column("doc_id").cast(pa.int64())
            # the tailing contract: epoch-2 lsns must sit ABOVE the
            # epoch-1 watermark or exactly-once skips them
            lsn = pc.add(did, pa.scalar(n if wide else 0, pa.int64()))
            nch = b.column("n_chars")
            if wide:
                nch = pc.add(nch.cast(pa.int64()),
                             pa.scalar(3_000_000_000, pa.int64()))
            else:
                nch = nch.cast(pa.int32())
            return pa.table({
                "op": pa.array(["I"] * b.num_rows, pa.string()),
                "lsn": lsn,
                "repo": b.column("source"),
                "path": pc.binary_join_element_wise(
                    pa.scalar("doc_"), pc.cast(did, pa.string()),
                    pa.scalar(".txt"), ""),
                "commit": pc.binary_join_element_wise(
                    pc.cast(did, pa.string()), pa.scalar("0"), ":"),
                "lang": b.column("lang"),
                "content": b.column("text"),
                "n_chars": nch,
            })
        return fn

    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_widen_"),
                   TableSpec(name="docs_cdc", num_partitions=16))
    lake.apply_events(docs.map_batches(to_events(False),
                                       batch_format="pyarrow"))
    rec = lake.widen_column("n_chars", pa.int64())
    assert rec["from"] == "int32" and rec["to"] == "int64"
    lake.apply_events(docs.map_batches(to_events(True),
                                       batch_format="pyarrow"))
    return lake.read_state(drop_engine_cols=True)


_CDC_WIDEN_SQL = """
SELECT 'I' AS op,
       CASE WHEN doc_id % 2 = 1
            THEN doc_id + (SELECT COUNT(*) FROM documents)
            ELSE doc_id END AS lsn,
       source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       doc_id || ':0' AS "commit",
       lang,
       text AS content,
       CASE WHEN doc_id % 2 = 1
            THEN CAST(n_chars AS BIGINT) + 3000000000
            ELSE CAST(n_chars AS BIGINT) END AS n_chars
FROM documents
"""


def cdc_secondary_index_docs(sf_dir: str):
    """Secondary-index view (pipelines/views.MaterializedIndexView):
    the flagship replay with a lang→key posting index maintained by
    bucket-level COW — built after epoch 1, then folded across the
    2-epoch gap from ONE net change set (the delete/reinsert wave
    retracts and re-adds postings).  A point ``lookup`` is asserted
    in-query to read exactly one bucket file; the oracle states the
    closed-form posting set."""
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        run_flagship,
    )
    from standardized_omop_data_etl_ray.pipelines.views import (
        MaterializedIndexView,
    )

    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    events = events_from_documents(docs, 3).materialize()
    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_ix_"),
                   TableSpec(name="docs_cdc", num_partitions=16))
    idx = MaterializedIndexView(
        tempfile.mkdtemp(prefix="ix_view_"), lake, "lang",
        num_buckets=8,
    )
    total = n * 3
    step = (total + 2) // 3
    for e in range(3):
        lake.apply_events(events.filter(
            expr=f"lsn >= {e * step} and lsn < {min((e + 1) * step, total)}"
        ))
        if e == 0:
            idx.refresh()  # initial bucketing; final refresh nets 2 epochs
    idx.refresh()
    probe = idx.lookup(idx.read().take(1)[0]["lang"])
    assert probe["files_read"] == 1, "point lookup must read one bucket"
    return idx.read()


_CDC_INDEX_SQL = """
-- closed form: every doc live at v2 (reinserts included) → one
-- posting per doc
SELECT lang, source AS repo,
       'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path
FROM documents
"""


def cdc_merge_into_docs(sf_dir: str):
    """Lakehouse MERGE INTO (CDCLake.merge_into): flagship replay, then
    one merge whose source mixes matched keys (every even doc —
    updated, op labeled 'U' by the keys-only partition probe) and
    brand-new keys (extra_* — inserted, op 'I').  Source rows route to
    partitions in ONE exchange and only touched partitions' winner
    KEYS are read; the oracle states the closed-form merged state."""
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        run_flagship,
    )

    lake = run_flagship(
        sf_dir, tempfile.mkdtemp(prefix="cdc_lake_merge_"), epochs=3,
        return_lake=True,
    )
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")

    def to_source(t: pa.Table) -> pa.Table:
        d = t.column("doc_id")
        even = pc.equal(pc.bit_wise_and(d, 1), 0)
        upd = t.filter(even)
        extras = t.filter(pc.equal(
            pc.subtract(t.column("doc_id"),
                        pc.multiply(pc.divide(t.column("doc_id"), 10), 10)),
            0))
        parts = []
        for sel, path_prefix, content in (
            (upd, "doc_", None), (extras, "extra_", "extra doc"),
        ):
            did = sel.column("doc_id")
            parts.append(pa.table({
                "repo": sel.column("source"),
                "path": pc.binary_join_element_wise(
                    pa.scalar(path_prefix), pc.cast(did, pa.string()),
                    pa.scalar(".txt"), ""),
                "commit": pa.array(["m1"] * sel.num_rows, pa.string()),
                "lang": sel.column("lang"),
                "content": (
                    pc.binary_join_element_wise(
                        pa.scalar("merged: "), sel.column("text"), "")
                    if content is None
                    else pa.array([content] * sel.num_rows, pa.string())
                ),
            }))
        return pa.concat_tables(parts)

    lake.merge_into(docs.map_batches(to_source, batch_format="pyarrow"))
    return lake.read_state(drop_engine_cols=True)


_CDC_MERGE_SQL = """
-- closed form: flagship final state, even docs overwritten by the
-- merge (op='U', lsn=3n, the probe saw them live), extras inserted
-- (op='I', same lsn)
WITH n AS (SELECT count(*) AS c FROM documents)
SELECT CASE WHEN doc_id % 2 = 0 THEN 'U'
            WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END AS op,
       CASE WHEN doc_id % 2 = 0 THEN 3 * (SELECT c FROM n)
            ELSE doc_id * 3 + 2 END AS lsn,
       source AS repo,
       'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
       CASE WHEN doc_id % 2 = 0 THEN 'm1'
            ELSE doc_id || ':2' END AS "commit",
       lang,
       CASE WHEN doc_id % 2 = 0 THEN 'merged: ' || text
            ELSE text || ' v2' END AS content
FROM documents
UNION ALL
SELECT 'I', 3 * (SELECT c FROM n), source,
       'extra_' || CAST(doc_id AS VARCHAR) || '.txt', 'm1', lang,
       'extra doc'
FROM documents WHERE doc_id % 10 = 0
"""


def cdc_merge_branch_docs(sf_dir: str):
    """Branch → merge-back lifecycle (CDCLake.clone + merge_branch):
    the parent applies v0+v1 of the version-major flagship log, forks
    a zero-copy branch, the BRANCH applies v2 for doc_id%3==0 while
    the PARENT concurrently rewrites doc_id%7==0, then the branch
    merges back with ``on_conflict='ours'`` — the %21 keys changed on
    BOTH sides keep the parent's value, the rest of the branch's net
    change set lands as one parent epoch.  The conflict count is
    asserted in-query against its closed form; the oracle states the
    three-way-merged state per key."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")

    def version_major(t: pa.Table) -> pa.Table:
        lsn = t.column("lsn")
        v = pc.subtract(lsn, pc.multiply(pc.divide(lsn, 3), 3))
        d = pc.divide(lsn, 3)
        return t.set_column(
            t.schema.get_field_index("lsn"), "lsn",
            pc.add(pc.multiply(v, n), d),
        )

    events = events_from_documents(docs, 3).map_batches(
        version_major, batch_format="pyarrow"
    ).materialize()  # per-epoch filters re-read, not re-derive
    parent = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_mb_"),
                     TableSpec(name="docs_cdc", num_partitions=16))
    for v in range(2):  # v0 inserts, v1 updates/deletes → the fork state
        parent.apply_events(
            events.filter(expr=f"lsn >= {v * n} and lsn < {(v + 1) * n}")
        )
    branch = parent.clone(tempfile.mkdtemp(prefix="cdc_lake_mb_br_"))

    # branch work: v2 for every third doc (re-inserts the %13 deletes);
    # under the version-major remap v2 events have lsn = 2n + doc_id
    def every_third(t: pa.Table) -> pa.Table:
        d = pc.subtract(t.column("lsn"), 2 * n)
        rem = pc.subtract(d, pc.multiply(pc.divide(d, 3), 3))
        return t.filter(pc.equal(rem, 0))

    branch.apply_events(
        events.filter(expr=f"lsn >= {2 * n}").map_batches(
            every_third, batch_format="pyarrow"
        )
    )
    # concurrent parent work: rewrite every seventh doc above the log
    def parent_updates(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy()
        sel = t.filter(pa.array(d % 7 == 0))
        did = sel.column("doc_id")
        return pa.table({
            "op": pa.array(["U"] * sel.num_rows, pa.string()),
            "lsn": pc.add(pc.cast(did, pa.int64()), 3 * n),
            "repo": sel.column("source"),
            "path": pc.binary_join_element_wise(
                pa.scalar("doc_"), pc.cast(did, pa.string()),
                pa.scalar(".txt"), ""),
            "commit": pc.binary_join_element_wise(
                pc.cast(did, pa.string()), pa.scalar("p"), ":"),
            "lang": sel.column("lang"),
            "content": pc.binary_join_element_wise(
                sel.column("text"), pa.scalar(" p"), ""),
        })

    parent.apply_events(
        docs.map_batches(parent_updates, batch_format="pyarrow"))

    rec = parent.merge_branch(branch, on_conflict="ours")
    # conflicts = keys changed on BOTH sides = doc_id % lcm(3,7) == 0
    import pyarrow.parquet as _pq

    ids = _pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).column("doc_id").to_numpy()
    expected_conflicts = int((ids % 21 == 0).sum())
    assert rec["conflicts"] == expected_conflicts, (
        rec["conflicts"], expected_conflicts)
    return parent.read_state(
        columns=["commit", "lang", "content"], drop_engine_cols=True)


_CDC_MERGE_BRANCH_SQL = """
-- three-way merge closed form ('ours'): %21 keys changed on both
-- sides keep the parent rewrite; other %3 keys take the branch v2;
-- other %7 keys take the parent rewrite (incl. U-on-dead %91 keys);
-- untouched %13 keys stay deleted (the v1 tombstone); the rest keep v1
SELECT source AS repo,
       'doc_' || doc_id || '.txt' AS path,
       CASE WHEN doc_id % 21 = 0 THEN doc_id || ':p'
            WHEN doc_id % 3 = 0 THEN doc_id || ':2'
            WHEN doc_id % 7 = 0 THEN doc_id || ':p'
            ELSE doc_id || ':1' END AS "commit",
       lang,
       CASE WHEN doc_id % 21 = 0 THEN text || ' p'
            WHEN doc_id % 3 = 0 THEN text || ' v2'
            WHEN doc_id % 7 = 0 THEN text || ' p'
            ELSE text || ' v1' END AS content
FROM documents
WHERE doc_id % 3 = 0 OR doc_id % 7 = 0 OR doc_id % 13 <> 0
"""


def cdc_dml_replay_docs(sf_dir: str):
    """Predicate DML over the lake (CDCLake.delete_where /
    update_where): flagship replay, then DELETE every doc whose live
    lang is the lexicographic minimum (GDPR-style erasure by CURRENT
    payload — inexpressible as an upstream event), then UPDATE the
    maximum-lang docs to uppercase content.  Both emit synthesized
    events above every committed watermark and apply as ordinary
    epochs (exactly-once, time-travelable); the oracle states the
    closed-form final state."""
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        run_flagship,
    )

    lake = run_flagship(
        sf_dir, tempfile.mkdtemp(prefix="cdc_lake_dml_"), epochs=3,
        return_lake=True,
    )
    import pyarrow.parquet as pq

    mm = pc.min_max(
        pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["lang"]).column("lang")
    )
    lo, hi = mm["min"].as_py(), mm["max"].as_py()
    lake.delete_where(
        lambda t: pc.equal(t.column("lang"), lo).to_numpy(
            zero_copy_only=False)
    )

    def to_upper(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("content")
        return t.set_column(
            i, "content", pc.utf8_upper(t.column("content")))

    lake.update_where(
        lambda t: pc.equal(t.column("lang"), hi).to_numpy(
            zero_copy_only=False),
        to_upper,
    )
    return lake.read_state(drop_engine_cols=True)


_CDC_DML_SQL = """
-- closed form: flagship final state (content text||' v2'), minus the
-- min-lang docs (deleted at lsn 3n), with max-lang docs rewritten by
-- the update epoch (op='U', lsn 3n+1, upper-cased content)
WITH final AS (
  SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END AS op,
         doc_id * 3 + 2 AS lsn, source AS repo,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
         doc_id || ':2' AS "commit", lang, text || ' v2' AS content
  FROM documents
  WHERE lang <> (SELECT min(lang) FROM documents)
)
SELECT CASE WHEN lang = (SELECT max(lang) FROM documents)
            THEN 'U' ELSE op END AS op,
       CASE WHEN lang = (SELECT max(lang) FROM documents)
            THEN 3 * (SELECT count(*) FROM documents) + 1
            ELSE lsn END AS lsn,
       repo, path, "commit", lang,
       CASE WHEN lang = (SELECT max(lang) FROM documents)
            THEN upper(content) ELSE content END AS content
FROM final
"""


def cdc_scd2_view_docs(sf_dir: str):
    """Durable SCD2 history VIEW of the CDC lake
    (pipelines/views.MaterializedHistoryView): the flagship replay with
    VERSION-MAJOR lsns (lsn = v·n + doc_id, so each epoch is one full
    version wave and the committed winner log has full fidelity), the
    view refreshed once mid-stream (per-epoch fold) and once across a
    2-epoch gap (multi-epoch fold, interior versions kept — the path
    net-collapsing would break).  The oracle is the closed-form lead()
    window over the derived event log."""
    from standardized_omop_data_etl_ray.pipelines.cdc import CDCLake
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.pipelines.views import (
        MaterializedHistoryView,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)

    def version_major(t: pa.Table) -> pa.Table:
        lsn = t.column("lsn")
        v = pc.subtract(lsn, pc.multiply(pc.divide(lsn, 3), 3))
        d = pc.divide(lsn, 3)
        return t.set_column(
            t.schema.get_field_index("lsn"), "lsn",
            pc.add(pc.multiply(v, n), d),
        )

    events = events_from_documents(docs, 3).map_batches(
        version_major, batch_format="pyarrow"
    ).materialize()  # three epoch filters re-read it
    lake = CDCLake(tempfile.mkdtemp(prefix="cdc_lake_scd2_"),
                   TableSpec(name="docs_cdc", num_partitions=16))
    view = MaterializedHistoryView(
        tempfile.mkdtemp(prefix="scd2_view_"), lake,
        payload_cols=["commit", "lang", "content"],
    )
    for v in range(3):
        lake.apply_events(
            events.filter(expr=f"lsn >= {v * n} and lsn < {(v + 1) * n}")
        )
        if v == 0:
            view.refresh()  # per-epoch fold; the final refresh spans 2
    view.refresh()
    return view.read()


_SCD2_VIEW_SQL = """
-- version-major flagship derivation (lsn = v*n + doc_id), then the
-- SCD2 lead() window; the view folds epochs 2-3 in ONE refresh, so
-- hash-equality here proves the gap fold keeps interior versions.
WITH ev AS (
  SELECT 'I' AS op, doc_id AS lsn, source AS repo,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
         doc_id || ':0' AS "commit", lang, text AS content
  FROM documents
  UNION ALL
  SELECT CASE WHEN doc_id % 13 = 0 THEN 'D' ELSE 'U' END,
         (SELECT count(*) FROM documents) + doc_id, source,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt', doc_id || ':1',
         CASE WHEN doc_id % 13 = 0 THEN NULL ELSE lang END,
         CASE WHEN doc_id % 13 = 0 THEN NULL ELSE text || ' v1' END
  FROM documents
  UNION ALL
  SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END,
         2 * (SELECT count(*) FROM documents) + doc_id, source,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt', doc_id || ':2',
         lang, text || ' v2'
  FROM documents
), w AS (
  SELECT *, lead(lsn) OVER (PARTITION BY repo, path ORDER BY lsn)
            AS valid_to
  FROM ev
)
SELECT repo, path, "commit", lang, content,
       lsn AS valid_from, valid_to, (valid_to IS NULL) AS is_current
FROM w WHERE op <> 'D'
"""


def scd2_asof_docs(sf_dir: str):
    """State AS OF an interior LSN reconstructed from the SCD2 table
    (stages/history.scd2_asof): one map-only interval filter over the
    history — no lake read, no shuffle.  The cut lands mid-way through
    the interleaved log, so half the keys resolve to their v1/v2
    version and half to v0 (the %13 delete→reinsert holes are width-1
    in interleaved LSN order, so keys only vanish if the cut lands
    exactly on a tombstone).  Oracle: LWW window over the derived
    events at the same cut."""
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.stages.history import (
        scd2_asof,
        scd2_history,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", rows_hint=n)
    hist = scd2_history(events_from_documents(docs), ["repo", "path"])
    cut = (3 * n) // 2
    return scd2_asof(hist, cut).map_batches(
        lambda t: t.select(
            ["op", "repo", "path", "commit", "lang", "content",
             "valid_from"]),
        batch_format="pyarrow",
    )


_SCD2_ASOF_SQL = """
-- LWW at the cut over the derived event log; deletes whose tombstone
-- precedes the cut remove the key
WITH ev AS (
  SELECT 'I' AS op, doc_id * 3 AS lsn, source AS repo,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
         doc_id || ':0' AS "commit", lang, text AS content
  FROM documents
  UNION ALL
  SELECT CASE WHEN doc_id % 13 = 0 THEN 'D' ELSE 'U' END,
         doc_id * 3 + 1, source,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt', doc_id || ':1',
         CASE WHEN doc_id % 13 = 0 THEN NULL ELSE lang END,
         CASE WHEN doc_id % 13 = 0 THEN NULL ELSE text || ' v1' END
  FROM documents
  UNION ALL
  SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END,
         doc_id * 3 + 2, source,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt', doc_id || ':2',
         lang, text || ' v2'
  FROM documents
), cut AS (
  SELECT (3 * count(*)) // 2 AS x FROM documents
), w AS (
  SELECT *, row_number() OVER (
    PARTITION BY repo, path ORDER BY lsn DESC) AS rn
  FROM ev WHERE lsn <= (SELECT x FROM cut)
)
SELECT op, repo, path, "commit", lang, content, lsn AS valid_from
FROM w WHERE rn = 1 AND op <> 'D'
"""


_SCD2_SQL = """
-- the flagship event derivation (flagship.events_from_documents,
-- versions=3) written out, then the SCD2 window: each event's version
-- closes at the key's next LSN; deletes close but emit nothing.
WITH ev AS (
  SELECT 'I' AS op, doc_id * 3 AS lsn, source AS repo,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
         doc_id || ':0' AS "commit", lang, text AS content
  FROM documents
  UNION ALL
  SELECT CASE WHEN doc_id % 13 = 0 THEN 'D' ELSE 'U' END,
         doc_id * 3 + 1, source,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt', doc_id || ':1',
         CASE WHEN doc_id % 13 = 0 THEN NULL ELSE lang END,
         CASE WHEN doc_id % 13 = 0 THEN NULL ELSE text || ' v1' END
  FROM documents
  UNION ALL
  SELECT CASE WHEN doc_id % 13 = 0 THEN 'I' ELSE 'U' END,
         doc_id * 3 + 2, source,
         'doc_' || CAST(doc_id AS VARCHAR) || '.txt', doc_id || ':2',
         lang, text || ' v2'
  FROM documents
), w AS (
  SELECT *, lead(lsn) OVER (PARTITION BY repo, path ORDER BY lsn)
            AS valid_to
  FROM ev
)
SELECT op, repo, path, "commit", lang, content,
       lsn AS valid_from, valid_to, (valid_to IS NULL) AS is_current
FROM w WHERE op <> 'D'
"""


def pack_sequences_docs(sf_dir: str):
    """Training-sequence packing (concat-and-cut at 1024 tokens): each
    doc's (seq_id, seq_offset) from the global token prefix-sum in
    doc_id order — one sort, then per-block token sums + driver prefix
    offsets (one scalar per block), the ``sequential_ids`` two-pass
    trick generalized to token counts."""
    from standardized_omop_data_etl_ray.stages.corpus import pack_sequences

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "text"], rows_hint=n)
    return pack_sequences(docs, "text", "doc_id", seq_tokens=1024)


def shuffle_docs_deterministic(sf_dir: str):
    """Deterministic global shuffle (training-output ordering): docs
    ordered by md5(doc_id) — reproducible on any cluster size/resume,
    exactly SQL-mirrorable.  Returns (rank, doc_id) so the oracle's
    hash pins the full permutation."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        sequential_ids,
    )
    from standardized_omop_data_etl_ray.stages.corpus import (
        deterministic_shuffle,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id"], rows_hint=n)
    # keep the shuffle key so enumeration can re-derive the global
    # order from the DATA (block position is not an order contract
    # under Ray's default preserve_order=False)
    shuffled = deterministic_shuffle(docs, "doc_id", keep_key=True)
    ranked = sequential_ids(
        shuffled, "rank", order_cols=["__shuffle_key", "doc_id"]
    )
    return ranked.drop_columns(["__shuffle_key"])


def bloom_join_highvalue_lineitems(sf_dir: str):
    """Bloom-prefiltered selective join: lineitems of orders above a
    price floor — the build side's keys fold into one broadcast bitmap
    (``build_bloom``), the probe side drops definite non-members BEFORE
    the partitioned join's shuffle (no false negatives; false positives
    die in the join), then a per-order rollup.  Same result as the
    plain join, ~10× less probe data through the exchange at this
    selectivity."""
    from ray.data.aggregate import Count, Sum

    from standardized_omop_data_etl_ray.stages.joins import (
        bloom_prefilter,
        build_bloom,
        partitioned_hash_join,
    )

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"],
                 rows_hint=_nrows(sf_dir, "orders"))
    hi = orders.map_batches(
        lambda t: t.filter(pc.greater(t.column("o_totalprice"), 400_000.0))
                   .select(["o_orderkey"]),
        batch_format="pyarrow",
    )
    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"],
             rows_hint=_nrows(sf_dir, "lineitem"))
    bloom = build_bloom(hi, "o_orderkey", n_bits=1 << 20)
    pre = bloom_prefilter(li, "l_orderkey", bloom)
    j = partitioned_hash_join(
        pre, hi, ["l_orderkey"], ["o_orderkey"], how="inner",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_extendedprice", pa.float64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64())]),
    )
    agg = j.groupby("l_orderkey").aggregate(
        Count(alias_name="n_items"),
        Sum("l_extendedprice", alias_name="sum_price"),
    )
    return agg.map_batches(_round_cols({"sum_price": 2}),
                           batch_format="pyarrow")


_BLOOM_JOIN_SQL = """
SELECT l_orderkey, count(*) AS n_items,
       round(sum(l_extendedprice), 2) AS sum_price
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_totalprice > 400000
GROUP BY l_orderkey
"""


def skew_join_user_purchases(sf_dir: str):
    """Skew-aware join demo with a real frequency pre-pass: events'
    measured top keys (``detect_hot_keys`` — vocabulary-sized count,
    bounded hot list to the driver) route through the broadcast plan,
    the cold tail through the partitioned join; per-user rollup after.
    Identical results to the plain join SQL by construction — the skew
    split is a routing decision, not a semantics change."""
    from ray.data.aggregate import Count

    from standardized_omop_data_etl_ray.stages.joins import (
        detect_hot_keys,
        skew_join,
    )

    n_ev = _nrows(sf_dir, "events")
    ev = _pq(sf_dir, "events", ["event_id", "user_id"], rows_hint=n_ev)
    n_c = _nrows(sf_dir, "customer")
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_name"], rows_hint=n_c)
    hot = detect_hot_keys(ev, "user_id", min_rows=max(2, n_ev // 2000))
    j = skew_join(
        ev, cust, "user_id", "c_custkey", hot_keys=hot,
        right_rows=10_000_000,  # force the cold side partitioned
        left_schema=pa.schema([("event_id", pa.int64()),
                               ("user_id", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_name", pa.string())]),
    )
    return j.groupby(["user_id", "c_name"]).aggregate(
        Count(alias_name="n_events")
    )


_SKEW_JOIN_SQL = """
SELECT user_id, c_name, count(*) AS n_events
FROM events JOIN customer ON user_id = c_custkey
GROUP BY user_id, c_name
"""


def approx_distinct_users_per_type(sf_dir: str):
    """HyperLogLog approximate distinct users per event type (p=12,
    ~1.6% RSE) — the sketch path for cardinalities where exact
    count(DISTINCT) would shuffle every distinct value; one fixed-size
    register vector per (group, block) moves instead.  No SQL oracle
    (the estimate is implementation-defined); accuracy and
    partitioning-determinism are gated in tests/test_sketches.py, and
    the EXACT twin `distinct_users_per_type` is oracle-green."""
    from standardized_omop_data_etl_ray.stages.sketches import (
        grouped_approx_distinct,
    )

    n = _nrows(sf_dir, "events")
    ev = _pq(sf_dir, "events", ["event_type", "user_id"], rows_hint=n)
    return grouped_approx_distinct(ev, "event_type", "user_id", p=12)


def approx_distinct_selfcheck(sf_dir: str):
    """HyperLogLog distinct-users-per-type, SELF-VERIFIED: the sketch
    estimate is asserted IN-QUERY to sit within 5× the p=12 register
    RSE (~1.6%) of the exact count; the emitted rows are the exact
    counts plus the passing flag, so the driver hash pins the exact
    path while the sketch bound is load-bearing (the
    approx_quantiles_selfcheck pattern applied to cardinality)."""
    from standardized_omop_data_etl_ray.stages.sketches import (
        grouped_approx_distinct,
    )

    n = _nrows(sf_dir, "events")
    # materialized: the sketch and exact passes both consume it — one
    # parquet scan, not two
    ev = _pq(sf_dir, "events", ["event_type", "user_id"],
             rows_hint=n).materialize()
    est = grouped_approx_distinct(ev, "event_type", "user_id",
                                  p=12).to_pandas()
    exact = (
        ev.map_batches(lambda df: df.drop_duplicates(),
                       batch_format="pandas")
        .groupby("event_type")
        .map_groups(
            lambda g: pd.DataFrame({
                "event_type": [g["event_type"].iloc[0]],
                "n_users": [int(g["user_id"].nunique())],
            }),
            batch_format="pandas",
        )
        .to_pandas()
    )
    j = exact.merge(est, on="event_type")
    rel = (
        (j["approx_distinct"] - j["n_users"]).abs()
        / j["n_users"].clip(lower=1)
    )
    ok = rel <= 5 * 0.016
    assert ok.all(), f"HLL outside 5x RSE: {j[~ok]}"
    out = exact.sort_values("event_type", ignore_index=True)
    out["sketch_within_bound"] = True
    return pa.Table.from_pandas(out, preserve_index=False)


_APPROX_DISTINCT_SQL = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_users,
       TRUE AS sketch_within_bound
FROM events GROUP BY event_type
"""


_QUANTILE_QS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]


def quantiles_lineitem_price(sf_dir: str):
    """Exact distributed quantiles of l_extendedprice: one global sort
    of the single projected column; the driver reads only per-block
    counts + the few blocks holding target ranks
    (stages/aggregates.exact_quantiles, quantile_disc semantics)."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        exact_quantiles,
    )

    n = _nrows(sf_dir, "lineitem")
    li = _pq(sf_dir, "lineitem", ["l_extendedprice"], rows_hint=n)
    return exact_quantiles(li, "l_extendedprice", _QUANTILE_QS)


_QUANTILE_SQL = " UNION ALL ".join(
    f"SELECT CAST({q} AS DOUBLE) AS q, "
    f"quantile_disc(l_extendedprice, {q}) AS value FROM lineitem"
    for q in _QUANTILE_QS
)


def approx_quantiles_selfcheck(sf_dir: str):
    """t-digest approximate quantiles, self-verified: the sketch path
    (mergeable per-block centroid partials, no global sort —
    stages/sketches.tdigest_quantiles) is asserted IN-QUERY to land
    inside a ±1% rank bracket of the exact sorted answer; the emitted
    rows are the exact quantile_disc values plus the passing flag, so
    the driver hash pins the exact path while the sketch's bound is
    load-bearing (the ivf_topk_cosine self-verifying pattern)."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        exact_quantiles,
    )
    from standardized_omop_data_etl_ray.stages.sketches import (
        tdigest_quantiles,
    )

    eps = 0.01
    n = _nrows(sf_dir, "lineitem")
    li = _pq(sf_dir, "lineitem", ["l_extendedprice"], rows_hint=n)
    est = tdigest_quantiles(li, "l_extendedprice", _QUANTILE_QS)
    grid = sorted({
        min(max(b, 0.0), 1.0)
        for q in _QUANTILE_QS for b in (q - eps, q, q + eps)
    })
    exact = exact_quantiles(li, "l_extendedprice", grid)
    ex = dict(zip(exact["q"].to_pylist(), exact["value"].to_pylist()))
    ok = []
    for q, v in zip(est["q"].to_pylist(), est["value"].to_pylist()):
        lo = ex[min(max(q - eps, 0.0), 1.0)]
        hi = ex[min(max(q + eps, 0.0), 1.0)]
        ok.append(bool(lo <= v <= hi))
    assert all(ok), f"t-digest outside ±{eps} rank bracket: {ok}"
    return pa.table({
        "q": pa.array([float(q) for q in _QUANTILE_QS], pa.float64()),
        "value": pa.array([ex[float(q)] for q in _QUANTILE_QS]),
        "sketch_within_bound": pa.array(ok),
    })


_APPROX_Q_SQL = " UNION ALL ".join(
    f"SELECT CAST({q} AS DOUBLE) AS q, "
    f"quantile_disc(l_extendedprice, {q}) AS value, "
    "TRUE AS sketch_within_bound FROM lineitem"
    for q in _QUANTILE_QS
)


def quantiles_cont_lineitem_price(sf_dir: str):
    """Interpolated (quantile_cont) exact quantiles — same single-sort
    plan as the discrete variant, but each q fetches its two bracketing
    ranks and interpolates (stages/aggregates.exact_quantiles with
    interpolation='linear').  Rounded to 4 decimals on both sides: the
    interpolation arithmetic (lo + frac·(hi−lo) on doubles) is
    engine-internal, so last-bit parity is not contractual."""
    from standardized_omop_data_etl_ray.functions.rounding import (
        round_half_away,
    )
    from standardized_omop_data_etl_ray.stages.aggregates import (
        exact_quantiles,
    )

    n = _nrows(sf_dir, "lineitem")
    li = _pq(sf_dir, "lineitem", ["l_extendedprice"], rows_hint=n)
    t = exact_quantiles(li, "l_extendedprice", _QUANTILE_QS,
                        interpolation="linear")
    return t.set_column(
        t.schema.get_field_index("value"), "value",
        pa.array(round_half_away(t.column("value"), 4), from_pandas=True),
    )


_QUANTILE_CONT_SQL = " UNION ALL ".join(
    f"SELECT CAST({q} AS DOUBLE) AS q, "
    f"ROUND(quantile_cont(l_extendedprice, {q}), 4) AS value FROM lineitem"
    for q in _QUANTILE_QS
)


def grouped_cont_quantiles_orders(sf_dir: str):
    """Per-group quantile_cont (linear interpolation) — per
    orderpriority quartiles of o_totalprice, every group resolved in
    one vectorized pass per bucket
    (stages/aggregates.grouped_quantiles, interpolation='linear')."""
    from standardized_omop_data_etl_ray.functions.rounding import (
        round_half_away,
    )
    from standardized_omop_data_etl_ray.stages.aggregates import (
        grouped_quantiles,
    )

    n = _nrows(sf_dir, "orders")
    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_totalprice"],
             rows_hint=n)
    out = grouped_quantiles(
        ds, ["o_orderpriority"], "o_totalprice", [0.25, 0.5, 0.75],
        interpolation="linear",
    )

    def rnd(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("value"), "value",
            pa.array(round_half_away(t.column("value"), 4),
                     from_pandas=True),
        )

    return out.map_batches(rnd, batch_format="pyarrow")


_GROUPED_CONT_SQL = " UNION ALL ".join(
    f"SELECT o_orderpriority, CAST({q} AS DOUBLE) AS q, "
    f"ROUND(quantile_cont(o_totalprice, {q}), 4) AS value "
    "FROM orders GROUP BY o_orderpriority"
    for q in (0.25, 0.5, 0.75)
)


def weighted_sample_docs(sf_dir: str):
    """Deterministic temperature sampling: keep each doc with
    probability min(1, n_chars/2000) decided by a 32-bit md5 fraction
    of the id — the corpus-mixing reweighting step, reproducible on
    any cluster size and exactly SQL-mirrored."""
    from standardized_omop_data_etl_ray.stages.corpus import (
        weighted_sample,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "n_chars"], rows_hint=n)
    withw = docs.map_batches(
        lambda t: t.append_column(
            "w", pc.divide(pc.cast(t.column("n_chars"), pa.float64()),
                           2000.0)
        ),
        batch_format="pyarrow",
    )
    return weighted_sample(withw, "doc_id", "w").drop_columns(["w"])


def weighted_topk_sample_docs(sf_dir: str):
    """Fixed-budget weighted sample (stages/corpus.
    weighted_topk_sample — Efraimidis–Spirakis A-Res): exactly 100
    docs drawn WITHOUT replacement with length-proportional inclusion,
    deterministic from md5-uniforms of doc_id — per-block top-k
    partials, one k·blocks merge, reproducible on any cluster size.
    The oracle states the same key closed-form in SQL."""
    from standardized_omop_data_etl_ray.stages.corpus import (
        weighted_topk_sample,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "n_chars"], rows_hint=n)
    return weighted_topk_sample(docs, "doc_id", "n_chars", 100)


_WEIGHTED_TOPK_SQL = """
SELECT doc_id, n_chars FROM (
    SELECT doc_id, n_chars,
           ln((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
               AS BIGINT) + 0.5) / 4294967296.0)
           / CAST(n_chars AS DOUBLE) AS es_key
    FROM documents WHERE n_chars > 0
) ORDER BY es_key DESC, doc_id LIMIT 100
"""


def grouped_weighted_topk_docs(sf_dir: str):
    """Per-domain fixed budget (stages/corpus.grouped_weighted_topk):
    exactly 20 docs per source, length-weighted within the source —
    one coarse-bucket co-location, every group resolved in a single
    vectorized pass; same deterministic Efraimidis–Spirakis keys as
    the global sampler, so the SQL window mirror is exact."""
    from standardized_omop_data_etl_ray.stages.corpus import (
        grouped_weighted_topk,
    )

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"],
               rows_hint=n)
    return grouped_weighted_topk(docs, "source", "doc_id", "n_chars",
                                 20)


_GROUPED_WEIGHTED_TOPK_SQL = """
SELECT doc_id, source, n_chars FROM (
    SELECT doc_id, source, n_chars,
           row_number() OVER (
               PARTITION BY source
               ORDER BY
                 ln((CAST(('0x' ||
                      substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                     AS BIGINT) + 0.5) / 4294967296.0)
                 / CAST(n_chars AS DOUBLE) DESC,
                 doc_id
           ) AS rn
    FROM documents WHERE n_chars > 0
) WHERE rn <= 20
"""


_WEIGHTED_SQL = """
SELECT doc_id, n_chars FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT)
      < floor(LEAST(1.0, CAST(n_chars AS DOUBLE) / 2000.0) * 4294967296.0)
"""


_SHUFFLE_SQL = """
SELECT row_number() OVER (
           ORDER BY substr(md5(CAST(doc_id AS VARCHAR)), 1, 8), doc_id
       ) AS rank,
       doc_id
FROM documents
"""


def cap_docs_per_source(sf_dir: str):
    """Per-source quota (domain caps): keep the 50 longest docs per
    source (ties broken by doc_id asc) — one coarse-bucket co-location,
    every source resolved vectorized inside its bucket."""
    from standardized_omop_data_etl_ray.stages.corpus import cap_per_key

    n = _nrows(sf_dir, "documents")
    docs = _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"],
               rows_hint=n)
    return cap_per_key(docs, "source", "n_chars", 50, "doc_id")


_CAP_SQL = """
SELECT doc_id, source, n_chars FROM (
    SELECT doc_id, source, n_chars,
           row_number() OVER (
               PARTITION BY source ORDER BY n_chars DESC, doc_id
           ) AS rn
    FROM documents
) WHERE rn <= 50
"""


_PACK_SQL = r"""
WITH tok AS (
    SELECT doc_id,
           CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                ELSE len(string_split_regex(trim(text), '\s+')) END
               AS n_tokens
    FROM documents
),
c AS (
    SELECT doc_id, n_tokens,
           COALESCE(SUM(n_tokens) OVER (
               ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
           ), 0) AS start
    FROM tok
)
SELECT doc_id, n_tokens,
       CAST(start // 1024 AS BIGINT) AS seq_id,
       CAST(start % 1024 AS BIGINT) AS seq_offset
FROM c
"""


def cdc_incremental_vocab_docs(sf_dir: str):
    """Curated CDC replay + incremental vocabulary in the SAME
    composition (ROADMAP #20/#21): after each epoch's commit, the
    change set comes from the epoch's OWN delta files
    (``pipelines/cdc.epoch_change_set`` — untouched partitions are
    never read; VERDICT r3 #5 replaced the former full-state
    ``snapshot_diff`` per epoch), feeds a signed
    ``doc_frequency_delta`` (retracted content counts −1, inserted
    +1), and folds into the committed vocabulary with
    ``merge_doc_frequencies``.  Fully incremental from the empty
    state: the lake state is NEVER re-read.  After three epochs of
    inserts, updates, deletes, re-inserts and gate retractions, the
    folded vocabulary must equal document frequencies computed fresh
    over the final curated state — which is what the SQL oracle
    computes from the closed-form replay."""
    import tempfile as _tf

    from standardized_omop_data_etl_ray.pipelines.cdc import (
        CDCLake,
        epoch_change_set,
    )
    from standardized_omop_data_etl_ray.pipelines.flagship import (
        events_from_documents,
    )
    from standardized_omop_data_etl_ray.spec import TableSpec
    from standardized_omop_data_etl_ray.stages.corpus import (
        doc_frequency_delta,
        merge_doc_frequencies,
    )
    from standardized_omop_data_etl_ray.stages.standardize import (
        make_curation_gate,
    )

    def min_words(batch: pa.Table):
        s = batch.column("content").to_pandas().fillna("")
        n = s.str.strip().str.split().str.len().fillna(0)
        return (n >= 5).to_numpy()

    spec = TableSpec(name="docs_cdc", num_partitions=16)
    lake = CDCLake(_tf.mkdtemp(prefix="cdc_vocab_"), spec,
                   gate=make_curation_gate(spec, min_words))
    docs = _pq(sf_dir, "documents")
    n_docs = _nrows(sf_dir, "documents")
    versions, epochs = 3, 3
    total = n_docs * versions
    events = events_from_documents(docs, versions)
    step = (total + epochs - 1) // epochs

    def texts(ds, col):
        return ds.map_batches(
            lambda t, c=col: pa.table(
                {"text": pc.cast(t.column(c), pa.string())}
            ),
            batch_format="pyarrow",
        )

    vocab = None
    for e in range(epochs):
        rec = lake.apply_events(
            events.filter(expr=f"lsn >= {e * step} and "
                               f"lsn < {min((e + 1) * step, total)}")
        )
        diff = epoch_change_set(
            lake, rec["epoch"], carry_cols=["content"]
        ).materialize()
        added = texts(
            diff.filter(expr="change == 'added' or change == 'updated'"),
            "new_content",
        )
        removed = texts(
            diff.filter(expr="change == 'deleted' or change == 'updated'"),
            "old_content",
        )
        delta = doc_frequency_delta(added, removed, "text")
        vocab = (
            delta if vocab is None
            else merge_doc_frequencies(vocab, delta)
        ).materialize()
    return vocab


_CDC_VOCAB_SQL = r"""
-- document frequencies over the CURATED final replay state: each key's
-- winner is its v=2 event ('text v2'), gated on a 5-token floor.
WITH live AS (
    SELECT doc_id, text || ' v2' AS content FROM documents
    WHERE len(string_split_regex(trim(text || ' v2'), '\s+')) >= 5
),
tok AS (
    SELECT doc_id, unnest(string_split_regex(trim(content), '\s+')) AS token
    FROM live
)
SELECT token, count(DISTINCT doc_id) AS df FROM tok GROUP BY token
"""


def simhash_fingerprints_docs(sf_dir: str):
    """No SQL oracle (64-bit token-hash arithmetic), so the query
    SELF-CHECKS determinism: byte-identical texts must carry identical
    simhashes (asserted per content-sha group — any violation raises
    inside the pipeline)."""
    from standardized_omop_data_etl_ray.stages.dedup import simhash_fingerprints

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    fps = simhash_fingerprints(docs, "text", "doc_id", carry_sha=True)

    def check_group(g: pd.DataFrame) -> pd.DataFrame:
        if g["simhash"].nunique() != 1:
            raise AssertionError(
                "simhash not deterministic for identical text: "
                f"{sorted(g['doc_id'].tolist())[:4]}"
            )
        return g[["doc_id", "simhash"]]

    checked = fps.groupby("sha").map_groups(
        check_group, batch_format="pandas"
    )
    return checked.map_batches(
        lambda t: pa.table({"doc_id": t.column("doc_id"),
                            "simhash": pc.cast(t.column("simhash"), pa.string())}),
        batch_format="pyarrow",
    )


def langid_docs(sf_dir: str):
    from standardized_omop_data_etl_ray.functions.text import detect_language

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "lang_pred": detect_language(df["text"])}
        )

    return docs.map_batches(fn, batch_format="pandas")


def _langid_sql() -> str:
    """SQL mirror of functions/text.detect_language: stopword vote with
    'und' below 2 hits and ties resolved by language declaration order
    (a later language needs STRICTLY more hits)."""
    from standardized_omop_data_etl_ray.functions.text import _STOPWORDS

    def inlist(lang: str) -> str:
        return ", ".join(f"'{w}'" for w in sorted(_STOPWORDS[lang]))

    return f"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z'']+') AS ws FROM documents
),
hits AS (
  SELECT doc_id,
    len(list_filter(ws, w -> w IN ({inlist('en')}))) AS h_en,
    len(list_filter(ws, w -> w IN ({inlist('es')}))) AS h_es,
    len(list_filter(ws, w -> w IN ({inlist('fr')}))) AS h_fr,
    len(list_filter(ws, w -> w IN ({inlist('de')}))) AS h_de
  FROM tok
)
SELECT doc_id,
  CASE
    WHEN h_en >= 2 AND h_en >= h_es AND h_en >= h_fr AND h_en >= h_de THEN 'en'
    WHEN h_es >= 2 AND h_es >  h_en AND h_es >= h_fr AND h_es >= h_de THEN 'es'
    WHEN h_fr >= 2 AND h_fr >  h_en AND h_fr >  h_es AND h_fr >= h_de THEN 'fr'
    WHEN h_de >= 2 AND h_de >  h_en AND h_de >  h_es AND h_de >  h_fr THEN 'de'
    ELSE 'und'
  END AS lang_pred
FROM hits
"""


def fingerprint_docs(sf_dir: str):
    """No SQL oracle (rolling-hash winnowing), so the query SELF-CHECKS
    cross-worker determinism: every batch (any worker process) must
    fingerprint a fixed probe string to the exact value the driver
    computed."""
    from standardized_omop_data_etl_ray.functions.text import winnowing_fingerprint

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    probe = "the quick brown fox jumps over the lazy dog " * 4
    probe_fp = list(winnowing_fingerprint(probe))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        if list(winnowing_fingerprint(probe)) != probe_fp:
            raise AssertionError(
                "winnowing_fingerprint not deterministic across workers"
            )
        fps = df["text"].map(lambda t: len(winnowing_fingerprint(t or "")))
        return pd.DataFrame({"doc_id": df["doc_id"], "n_fingerprints": fps})

    return docs.map_batches(fn, batch_format="pandas")


# ---- composed OMOP pipeline over driver-table-derived inputs ----------
#
# VERDICT r2 #3: the composed pipeline's inputs are DERIVED
# deterministically from the driver's parquet tables (customer/orders),
# the _events_as_cdc pattern — so a closed-form DuckDB oracle can mirror
# every per-table count and the whole 10-table composition gets a
# rows+schema+hash check instead of rows-only.

# usagi mapping dim shared by the engine derivation and the SQL oracle.
# '1-URGENT' maps 1-N (fan-out); '5-LOW' is unmapped (anti-drop);
# first-match (neurolog) picks 4001 — the first AND min concept, so the
# SQL mirror may use MIN().
_OMOP_USAGI = [
    ("1-URGENT", "Condition", 4001), ("1-URGENT", "Condition", 4002),
    ("2-HIGH", "Condition", 4003), ("3-MEDIUM", "Condition", 4004),
    ("4-NOT SPECIFIED", "Condition", 4005),
    ("DrugA", "Drug", 5001), ("DrugB", "Drug", 5002),
    ("2-HIGH", "Procedure", 6001), ("3-MEDIUM", "Device", 7001),
]

_ALSFRS_N_ITEMS = 14  # pipelines.omop.ALSFRS_CONCEPTS


def _omop_inputs(sf_dir: str):
    """Reference-shaped source tables derived from customer/orders.
    Every derivation below has a line-for-line mirror in _OMOP_SQL."""
    from standardized_omop_data_etl_ray.pipelines.omop import ALSFRS_CONCEPTS

    # rows_hint: without it Ray splits even the 15k-row customer file
    # into ~2×cpus blocks and every one of the ~30 downstream OMOP
    # stages pays per-block task overhead on ~200-row blocks.
    # rows_per_block=16384 (vs the 4096 default): this pipeline runs
    # ~30 narrow stages over every block, so per-task overhead
    # dominates until blocks are this coarse (measured 23s → 14s at
    # sf0.1/32cpus); the clamp never fires on large inputs, so the
    # at-scale plan is unchanged.
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"],
               rows_hint=_nrows(sf_dir, "customer"),
               rows_per_block=16384)
    orders = _pq(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"],
        rows_hint=_nrows(sf_dir, "orders"),
        rows_per_block=16384,
    )

    def demographics(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy()
        return pd.DataFrame(
            {
                "Participant_ID": "P" + df["c_custkey"].astype(str),
                "sex": np.where(k % 20 == 0, np.nan, k % 2 + 1),
                "ethnic": np.where(k % 25 == 3, np.nan, k % 2 + 1),
                "dob": -(7000 + (k * 13) % 23000),
                "raceamin": (k % 50 == 0).astype(np.int64),
                "raceasn": (k % 10 == 8).astype(np.int64),
                "raceblk": np.isin(k % 10, (0, 7)).astype(np.int64),
                "racenh": np.zeros(len(k), np.int64),
                "racewt": np.isin(k % 10, (1, 2, 3, 4, 5, 6)).astype(
                    np.int64
                ),
            }
        )

    def medical_history(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy()
        prio = df["o_orderpriority"]
        return pd.DataFrame(
            {
                "Participant_ID": "P" + df["o_custkey"].astype(str),
                "medhxdsc": np.where(
                    k % 11 == 0, prio.str.lower() + " ", prio
                ),
                "medhxyr": np.where(
                    k % 17 == 0, "junk", (1990 + k % 30).astype(str)
                ),
            }
        )

    def neurolog(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["o_orderstatus"] == "F"]
        return pd.DataFrame(
            {
                "Participant_ID": "P" + df["o_custkey"].astype(str),
                "neuddsc": df["o_orderpriority"],
                "neudxdt": df["o_orderkey"].to_numpy() % 3000,
            }
        )

    def vital_signs(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy()
        n = len(k)
        temp = np.select(
            [k % 4 == 0, k % 4 == 1, k % 4 == 2], ["36.5", "98.6", "37.1"],
            default="300",
        )
        tempu = np.select([k % 4 == 0, k % 4 == 1], [1.0, 2.0],
                          default=np.nan)
        return pd.DataFrame(
            {
                "Participant_ID": "P" + df["o_custkey"].astype(str),
                "vsdt": k % 3000,
                "temp": temp,
                "tempu": tempu,
                "bpsys": np.full(n, "120*"),
                "bpdias": np.full(n, "80"),
                "hr": np.where(k % 7 == 0, None, "72"),
                "rr": np.full(n, "16"),
                "weight": np.full(n, "150.0"),
                "weightu": np.full(n, 2, np.int64),
                "height": np.full(n, "70.0"),
                "heightu": np.full(n, 2, np.int64),
                "bmi": np.where(k % 5 == 0, "n/a", "24.5"),
            }
        )

    def medications(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["o_orderkey"] % 2 == 0]
        k = df["o_orderkey"].to_numpy()
        return pd.DataFrame(
            {
                "Participant_ID": "P" + df["o_custkey"].astype(str),
                "drugdsc": np.select(
                    [k % 3 == 0, k % 3 == 1], ["DrugA", "drugb"],
                    default="DrugZ",
                ),
                "startdt": np.where(k % 5 == 0, np.nan, k % 2000),
                "stopdt": np.where(k % 3 == 0, np.nan, k % 2000 + 30),
            }
        )

    def alsfrs(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy()
        out = {
            "Participant_ID": "P" + df["o_custkey"].astype(str),
            "alsfrsdt": k % 3000,
        }
        for i, item in enumerate(ALSFRS_CONCEPTS, start=1):
            out[item] = np.where((k + i) % 6 == 0, np.nan, (k + 7 * i) % 5)
        return pd.DataFrame(out)

    def indicators(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy()
        answer = np.select([k % 3 == 0, k % 3 == 1], [1, 2], default=90)
        return pd.DataFrame(
            {
                "Participant_ID": "P" + df["c_custkey"].astype(str),
                "alsdxdt": k % 2000,
                "alsdx1": np.where(k % 7 == 0, np.nan, answer),
                "alsdx2": np.where(k % 8 == 0, np.nan, answer),
                "alsdx3": np.where(k % 9 == 0, np.nan, answer),
                "elescrlr": k % 5 + 1,
            }
        )

    def mortality(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["c_custkey"] % 5 == 0]
        k = df["c_custkey"].to_numpy()
        return pd.DataFrame(
            {
                "Participant_ID": "P" + df["c_custkey"].astype(str),
                "dieddt": np.where(k % 20 == 0, np.nan, (k * 3) % 3000),
                "diedcaus": df["c_mktsegment"],
                "cause_concept_id": np.where(k % 4 == 0, np.nan, 4306655),
            }
        )

    # dims: small by construction → built driver-side from the footer
    import pyarrow.parquet as _pq2

    ck = _pq2.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).column("c_custkey").to_numpy()
    sub = ck[ck % 10 != 3]
    subjects = pa.table(
        {
            "Participant_ID": pa.array(["P" + str(v) for v in sub]),
            "subject_group_id": pa.array(
                [str(v % 4 + 1) for v in sub]
            ),
        }
    )
    usagi = pa.table(
        {
            "sourceName": pa.array([r[0] for r in _OMOP_USAGI]),
            "domainId": pa.array([r[1] for r in _OMOP_USAGI]),
            "conceptId": pa.array([r[2] for r in _OMOP_USAGI], pa.int64()),
            "conceptName": pa.array([r[0].lower() for r in _OMOP_USAGI]),
        }
    )
    bf = dict(batch_format="pandas")
    return {
        "demographics": cust.map_batches(demographics, **bf),
        "subjects": subjects,
        "usagi": usagi,
        "medical_history": orders.map_batches(medical_history, **bf),
        "neurolog": orders.map_batches(neurolog, **bf),
        "vital_signs": orders.map_batches(vital_signs, **bf),
        "medications": orders.map_batches(medications, **bf),
        "alsfrs": orders.map_batches(alsfrs, **bf),
        "indicators": cust.map_batches(indicators, **bf),
        "mortality": cust.map_batches(mortality, **bf),
    }


def omop_full_pipeline(sf_dir: str):
    """Composed full reference pipeline — 9 CDM tables + the A1
    redundant audit log, the analog of the reference's 17-script +
    7-script run (pipeline_process_subtables_to_final.py:94-180):
    stage-1 builders (person, condition from TWO sources through
    priority_merge, measurement, drug, observation from alsfrs +
    indicators, death, procedure, device) + stage-2 finishers (person
    rekey, sequential ids, observation periods, CDM 5.4 pad).  Inputs
    derive from the driver's customer/orders tables so _OMOP_SQL
    mirrors every count; returns the per-table (rows, persons)
    summary."""
    import ray

    from standardized_omop_data_etl_ray.pipelines.omop import run_omop_pipeline

    fx = _omop_inputs(sf_dir)
    out = run_omop_pipeline(
        fx["demographics"], fx["subjects"], fx["medical_history"],
        fx["vital_signs"], fx["medications"], fx["usagi"],
        alsfrs=fx["alsfrs"], indicators=fx["indicators"],
        mortality=fx["mortality"], neurolog=fx["neurolog"],
        with_procedure_device=True,
    )

    def partial(t: pa.Table) -> pa.Table:
        u = pc.unique(t.column("person_id"))
        return pa.table(
            {
                "n_rows": pa.array([t.num_rows], pa.int64()),
                "persons": pa.array([u.to_pylist()]),
            }
        )

    def summarize(name_ds):
        name, ds = name_ds
        parts = [
            t for t in ray.get(
                ds.select_columns(["person_id"])
                .map_batches(partial, batch_format="pyarrow")
                .to_arrow_refs()
            )
            # empty upstream blocks SKIP the partial UDF and surface
            # here as raw (possibly pandas) empties — drop them
            if isinstance(t, pa.Table) and t.num_rows
            and "n_rows" in t.column_names
        ]
        n_rows = sum(
            int(v) for t in parts for v in t.column("n_rows").to_pylist()
        )
        persons: set = set()
        for t in parts:
            for lst in t.column("persons").to_pylist():
                persons.update(lst)
        return (name, n_rows, len(persons))

    # the per-table residual stages are small and share materialized
    # intermediates — executing the 10 tables' lineages CONCURRENTLY
    # (each to_arrow_refs blocks) keeps the cluster busy instead of
    # draining one under-parallel table at a time
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as ex:
        rows = list(ex.map(summarize, sorted(out.items())))
    return pa.table(
        {
            "table": pa.array([r[0] for r in rows]),
            "n_rows": pa.array([r[1] for r in rows], pa.int64()),
            "n_persons": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _omop_sql() -> str:
    """Closed-form DuckDB mirror of omop_full_pipeline's summary."""
    usagi_vals = ", ".join(
        f"('{s}', '{d}', {c})" for s, d, c in _OMOP_USAGI
    )
    fr_terms = " + ".join(
        f"CASE WHEN (o_orderkey + {i}) % 6 <> 0 THEN 1 ELSE 0 END"
        for i in range(1, _ALSFRS_N_ITEMS + 1)
    )
    return f"""
WITH usagi(sourceName, domainId, conceptId) AS (VALUES {usagi_vals}),
mh AS (
  SELECT 'P' || o_custkey AS person,
         CASE WHEN o_orderkey % 11 = 0
              THEN lower(o_orderpriority) || ' '
              ELSE o_orderpriority END AS term
  FROM orders
),
cond_mh AS (
  SELECT mh.person, u.conceptId AS concept
  FROM mh JOIN usagi u
    ON lower(trim(mh.term)) = lower(trim(u.sourceName))
   AND u.domainId = 'Condition'
),
nl AS (
  SELECT 'P' || o_custkey AS person, o_orderpriority AS term
  FROM orders WHERE o_orderstatus = 'F'
),
cond_nl AS (
  -- first-match usagi join: first occurrence == MIN concept by
  -- construction of the usagi VALUES above
  SELECT nl.person, u.concept
  FROM nl JOIN (
    SELECT sourceName, MIN(conceptId) AS concept FROM usagi
    WHERE domainId = 'Condition' GROUP BY sourceName
  ) u ON lower(trim(nl.term)) = lower(trim(u.sourceName))
),
mh_keys AS (SELECT DISTINCT person, concept FROM cond_mh),
redundant AS (
  SELECT c.person, c.concept
  FROM cond_nl c JOIN mh_keys k
    ON c.person = k.person AND c.concept = k.concept
),
winners AS (
  SELECT person, concept FROM cond_mh
  UNION ALL
  SELECT c.person, c.concept FROM cond_nl c
  LEFT JOIN mh_keys k ON c.person = k.person AND c.concept = k.concept
  WHERE k.person IS NULL
),
meas AS (
  SELECT 'P' || o_custkey AS person,
    5 + CASE WHEN o_orderkey % 4 <> 3 THEN 1 ELSE 0 END
      + CASE WHEN o_orderkey % 7 <> 0 THEN 1 ELSE 0 END
      + CASE WHEN o_orderkey % 5 <> 0 THEN 1 ELSE 0 END AS n
  FROM orders
),
drugs AS (
  SELECT 'P' || o_custkey AS person FROM orders WHERE o_orderkey % 2 = 0
),
obs_fr AS (
  SELECT 'P' || o_custkey AS person, {fr_terms} AS n FROM orders
),
obs_ind AS (
  SELECT 'P' || c_custkey AS person,
    3 * CASE WHEN c_custkey % 7 <> 0 THEN 1 ELSE 0 END
      + CASE WHEN c_custkey % 8 <> 0 THEN 1 ELSE 0 END
      + CASE WHEN c_custkey % 9 <> 0 THEN 1 ELSE 0 END
      + 1 AS n
  FROM customer
),
obs_persons AS (
  SELECT person FROM obs_fr WHERE n > 0
  UNION SELECT person FROM obs_ind WHERE n > 0
),
death AS (
  SELECT 'P' || c_custkey AS person FROM customer WHERE c_custkey % 5 = 0
),
proc AS (
  SELECT mh.person FROM mh JOIN usagi u
    ON lower(trim(mh.term)) = lower(trim(u.sourceName))
   AND u.domainId = 'Procedure'
),
dev AS (
  SELECT mh.person FROM mh JOIN usagi u
    ON lower(trim(mh.term)) = lower(trim(u.sourceName))
   AND u.domainId = 'Device'
),
period_persons AS (
  SELECT person FROM winners
  UNION SELECT person FROM meas
  UNION SELECT person FROM drugs
  UNION SELECT person FROM obs_persons
)
SELECT * FROM (
  SELECT 'person' AS "table",
         (SELECT COUNT(*) FROM customer) AS n_rows,
         (SELECT COUNT(*) FROM customer) AS n_persons
  UNION ALL SELECT 'condition_occurrence',
         (SELECT COUNT(*) FROM winners),
         (SELECT COUNT(DISTINCT person) FROM winners)
  UNION ALL SELECT 'condition_occurrence__redundant',
         (SELECT COUNT(*) FROM redundant),
         (SELECT COUNT(DISTINCT person) FROM redundant)
  UNION ALL SELECT 'death',
         (SELECT COUNT(*) FROM death),
         (SELECT COUNT(DISTINCT person) FROM death)
  UNION ALL SELECT 'device_exposure',
         (SELECT COUNT(*) FROM dev),
         (SELECT COUNT(DISTINCT person) FROM dev)
  UNION ALL SELECT 'drug_exposure',
         (SELECT COUNT(*) FROM drugs),
         (SELECT COUNT(DISTINCT person) FROM drugs)
  UNION ALL SELECT 'measurement',
         (SELECT CAST(SUM(n) AS BIGINT) FROM meas),
         (SELECT COUNT(DISTINCT person) FROM meas WHERE n > 0)
  UNION ALL SELECT 'observation',
         (SELECT CAST(SUM(n) AS BIGINT) FROM obs_fr)
           + (SELECT CAST(SUM(n) AS BIGINT) FROM obs_ind),
         (SELECT COUNT(*) FROM obs_persons)
  UNION ALL SELECT 'observation_period',
         (SELECT COUNT(*) FROM period_persons),
         (SELECT COUNT(*) FROM period_persons)
  UNION ALL SELECT 'procedure_occurrence',
         (SELECT COUNT(*) FROM proc),
         (SELECT COUNT(DISTINCT person) FROM proc)
) ORDER BY "table"
"""


def media_featurize(sf_dir: str):
    """Multimodal plumbing demo (synthetic media through the real
    PPM/WAV codecs).  No SQL oracle, so the query SELF-CHECKS: every
    feature vector must be finite and the media generation + actor
    featurization must be deterministic (each batch re-checks a probe
    row against the driver's value)."""
    from standardized_omop_data_etl_ray.stages.multimodal import (
        MediaFeaturizer,
        featurize_media,
        synth_media_table,
    )

    tbl = synth_media_table(500)
    media = rd.from_arrow(tbl)
    out = featurize_media(media, concurrency=2, batch_size=128)
    probe = MediaFeaturizer()(tbl.slice(0, 1))
    probe_sum = float(np.sum(probe.column("feature").to_pylist()[0]))
    probe_id = probe.column("media_id")[0].as_py()

    def summarize(t: pa.Table) -> pa.Table:
        feats = t.column("feature").combine_chunks()
        flat = pc.list_flatten(feats).to_numpy(zero_copy_only=False)
        if len(flat) and not np.isfinite(flat).all():
            raise AssertionError("non-finite media features")
        offsets = feats.offsets.to_numpy(zero_copy_only=False)
        sums = np.add.reduceat(flat, offsets[:-1]) if len(flat) else np.array([])
        ids = t.column("media_id").to_pylist()
        if probe_id in ids and not np.isclose(
            sums[ids.index(probe_id)], probe_sum
        ):
            raise AssertionError(
                "media featurization not deterministic across workers"
            )
        return pa.table({
            "media_id": t.column("media_id"),
            "kind": t.column("kind"),
            "feat_sum": pa.array(np.round(sums, 4), pa.float64()),
        })

    return out.map_batches(summarize, batch_format="pyarrow")




def asof_last_purchase_before_error(sf_dir: str):
    """As-of join (time-ordered lookback per key): for every error event,
    the value of that user's most recent prior purchase (reference has no
    windows — this is the streaming-shaped operator family, SURVEY.md §2.7)."""
    from standardized_omop_data_etl_ray.stages.joins import bucketed_groupby

    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        from standardized_omop_data_etl_ray.functions.rounding import round_half_away

        # vectorized across all users in the bucket
        g = g.sort_values(["user_id", "ts", "event_id"])
        pv = g["value"].where(g["event_type"] == "purchase")
        filled = pv.groupby(g["user_id"]).ffill()
        g = g.assign(last_purchase_value=round_half_away(filled, 2))
        out = g[g["event_type"] == "error"]
        return out[["event_id", "user_id", "last_purchase_value"]]

    return bucketed_groupby(ds, ["user_id"], per_bucket)


_ASOF_SQL = """
WITH filled AS (
    SELECT *, ROUND(LAST_VALUE(CASE WHEN event_type = 'purchase' THEN value END
                    IGNORE NULLS) OVER (
        PARTITION BY user_id ORDER BY ts, event_id
        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
    ), 2) AS last_purchase_value
    FROM events
)
SELECT event_id, user_id, last_purchase_value
FROM filled WHERE event_type = 'error'
"""


def asof_tolerance_purchases(sf_dir: str):
    """Two-input AS-OF join with tolerance (stages/joins.asof_join —
    pandas merge_asof semantics distributed): each error event enriched
    with the SAME user's most recent at-or-before purchase value, but
    only within a 1-hour lookback — the trade-quote / sensor-alignment
    shape as a first-class operator (the older
    asof_last_purchase_before_error is the unbounded single-table
    composition).  Right side pre-deduped to one purchase per
    (user, ts) (max event_id) per the operator's determinism contract;
    one bucketed co-location, one C-speed merge_asof per bucket."""
    from standardized_omop_data_etl_ray.stages.joins import (
        asof_join,
        bucketed_groupby,
        default_buckets,
    )

    n = _nrows(sf_dir, "events")
    nb = default_buckets(n)
    ev = _pq(sf_dir, "events",
             ["event_id", "user_id", "ts", "event_type", "value"],
             rows_hint=n)
    errors = ev.map_batches(
        lambda t: t.filter(
            pc.equal(t.column("event_type"), "error")
        ).select(["event_id", "user_id", "ts"]),
        batch_format="pyarrow",
    )
    purchases = ev.map_batches(
        lambda t: t.filter(
            pc.equal(t.column("event_type"), "purchase")
        ).select(["user_id", "ts", "event_id", "value"]),
        batch_format="pyarrow",
    )

    def dedupe(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        g = g.drop_duplicates(["user_id", "ts"], keep="last")
        return pd.DataFrame({
            "user_id": g["user_id"].astype("int64"),
            "ts": g["ts"],
            "purchase_value": g["value"].astype("float64"),
        })

    right = bucketed_groupby(purchases, ["user_id"], dedupe, nb)
    lschema = pa.schema([("event_id", pa.int64()),
                         ("user_id", pa.int64()),
                         ("ts", pa.timestamp("us"))])
    rschema = pa.schema([("user_id", pa.int64()),
                         ("ts", pa.timestamp("us")),
                         ("purchase_value", pa.float64())])
    return asof_join(
        errors, right, ["user_id"], "ts",
        direction="backward", tolerance=pd.Timedelta(hours=1),
        left_schema=lschema, right_schema=rschema, num_buckets=nb,
    )


_ASOF_TOL_SQL = """
WITH p AS (
    SELECT user_id, ts, value FROM (
        SELECT user_id, ts, value,
               row_number() OVER (
                   PARTITION BY user_id, ts ORDER BY event_id DESC
               ) AS rn
        FROM events WHERE event_type = 'purchase'
    ) WHERE rn = 1
),
e AS (
    SELECT event_id, user_id, ts FROM events
    WHERE event_type = 'error'
)
SELECT e.event_id, e.user_id, e.ts, pv.value AS purchase_value
FROM e LEFT JOIN LATERAL (
    SELECT value FROM p
    WHERE p.user_id = e.user_id AND p.ts <= e.ts
      AND e.ts - p.ts <= INTERVAL 1 HOUR
    ORDER BY p.ts DESC LIMIT 1
) pv ON true
"""


def running_user_totals(sf_dir: str):
    """Per-key ordered running aggregate (cumulative sum)."""
    from standardized_omop_data_etl_ray.stages.joins import bucketed_groupby

    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        from standardized_omop_data_etl_ray.functions.rounding import round_half_away

        g = g.sort_values(["user_id", "ts", "event_id"])
        g = g.assign(
            running_value=round_half_away(
                g.groupby("user_id")["value"].cumsum(), 2
            )
        )
        return g[["event_id", "user_id", "running_value"]]

    return bucketed_groupby(ds, ["user_id"], per_bucket)


_RUNNING_SQL = """
SELECT event_id, user_id,
       ROUND(SUM(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 2) AS running_value
FROM events
"""


def top3_customers_per_segment(sf_dir: str):
    """Per-group top-k (window rank)."""
    ds = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])

    def per_seg(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["c_acctbal", "c_custkey"],
                             ascending=[False, True]).head(3)

    return ds.groupby("c_mktsegment").map_groups(per_seg, batch_format="pandas")


_TOP3_SQL = """
SELECT c_custkey, c_mktsegment, c_acctbal FROM (
    SELECT *, ROW_NUMBER() OVER (PARTITION BY c_mktsegment
        ORDER BY c_acctbal DESC, c_custkey) AS rn
    FROM customer
) WHERE rn <= 3
"""


def distinct_users_per_type(sf_dir: str):
    """Exact count-distinct per group: per-batch combiner (local pair
    distinct) then a small per-group nunique — the two-stage shape that
    avoids shuffling raw rows."""
    ds = _pq(sf_dir, "events", ["event_type", "user_id"])

    def combiner(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "n_users": [int(g["user_id"].nunique())],
        })

    return (
        ds.map_batches(combiner, batch_format="pandas")
        .groupby("event_type")
        .map_groups(per_type, batch_format="pandas")
    )


_DISTINCT_USERS_SQL = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


def partkey_quantity_stats(sf_dir: str):
    """Partial-then-global aggregation (combiner inside map_batches, then
    a groupby over partials — the scale pattern from SURVEY.md §4)."""
    from standardized_omop_data_etl_ray.stages.aggregates import (
        partial_then_global_agg,
    )

    ds = _pq(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    out = partial_then_global_agg(ds, "l_partkey", "l_quantity")
    return out.map_batches(
        _round_cols({"l_quantity_sum": 2, "l_quantity_min": 2,
                     "l_quantity_max": 2}),
        batch_format="pyarrow",
    )


_PARTKEY_SQL = """
SELECT l_partkey, ROUND(SUM(l_quantity), 2) AS l_quantity_sum,
       COUNT(*) AS l_quantity_count,
       ROUND(MIN(l_quantity), 2) AS l_quantity_min,
       ROUND(MAX(l_quantity), 2) AS l_quantity_max
FROM lineitem GROUP BY l_partkey
"""


def union_amounts_by_source(sf_dir: str):
    """Union-by-name of heterogeneous schemas (C1) + aggregate."""
    from standardized_omop_data_etl_ray.stages.schema_ops import union_by_name

    o = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        lambda t: pa.table({
            "key": t.column("o_orderkey"),
            "amount": t.column("o_totalprice"),
            "src": pa.array(["orders"] * t.num_rows),
        }),
        batch_format="pyarrow",
    )
    l = _pq(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"]).map_batches(
        lambda t: pa.table({
            "key": t.column("l_orderkey"),
            "amount": t.column("l_extendedprice"),
        }),
        batch_format="pyarrow",
    )
    u = union_by_name([o, l])

    def fill(t: pa.Table) -> pa.Table:
        src = pc.fill_null(t.column("src"), "lineitem")
        return t.set_column(t.column_names.index("src"), "src", src)

    u = u.map_batches(fill, batch_format="pyarrow")
    return (
        u.groupby("src")
        .aggregate(Count(alias_name="n_rows"), Sum("amount", alias_name="total"))
        .map_batches(_round_cols({"total": 2}), batch_format="pyarrow")
    )


_UNION_SQL = """
SELECT src, COUNT(*) AS n_rows, ROUND(SUM(amount), 2) AS total FROM (
    SELECT o_orderkey AS key, o_totalprice AS amount, 'orders' AS src FROM orders
    UNION ALL
    SELECT l_orderkey, l_extendedprice, 'lineitem' FROM lineitem
) GROUP BY src
"""


def schema_pad_docs(sf_dir: str):
    """Pad-to-canonical-schema (C2: add_missing_columns.py analog)."""
    from standardized_omop_data_etl_ray.stages.schema_ops import pad_to_schema

    target = pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string()), ("lang", pa.string()),
        ("source", pa.string()), ("n_chars", pa.int64()),
        ("doc_uuid", pa.string()), ("quality", pa.float64()),
        ("n_tokens", pa.int64()),
    ])
    ds = _pq(sf_dir, "documents")
    return ds.map_batches(
        lambda t: pad_to_schema(t, target), batch_format="pyarrow"
    )


_SCHEMA_PAD_SQL = """
SELECT doc_id, text, lang, source, n_chars,
       CAST(NULL AS VARCHAR) AS doc_uuid,
       CAST(NULL AS DOUBLE) AS quality,
       CAST(NULL AS BIGINT) AS n_tokens
FROM documents
"""


def token_vocab_top100(sf_dir: str):
    """Corpus-wide vocabulary: per-batch tokenize + local count (the
    word-count combiner — the exchange moves ≤1 row per distinct token
    per block, ~vocabulary-sized, never occurrence-sized), one
    groupby-sum, deterministic top-100 (count desc, token asc)."""
    from standardized_omop_data_etl_ray.stages.corpus import token_vocab

    docs = _pq(sf_dir, "documents", ["text"],
               rows_hint=_nrows(sf_dir, "documents"))
    return token_vocab(docs, "text", top_k=100)


_VOCAB_SQL = r"""
WITH tok AS (
    SELECT unnest(string_split_regex(trim(text), '\s+')) AS token
    FROM documents WHERE trim(text) <> ''
)
SELECT token, COUNT(*) AS n FROM tok
GROUP BY token ORDER BY n DESC, token LIMIT 100
"""


def heavy_hitter_tokens(sf_dir: str):
    """EXACT frequent tokens WITHOUT shuffling the vocabulary: per-block
    Misra-Gries summaries (≤k−1 rows each reach the driver) nominate
    candidates, then one candidate-only exact recount
    (stages/sketches.heavy_hitters) — the two-pass frequent-items shape
    a 100 TB corpus scan uses where even the vocabulary-sized exchange
    of token_vocab would hurt."""
    from standardized_omop_data_etl_ray.stages.corpus import _ws_tokens
    from standardized_omop_data_etl_ray.stages.sketches import heavy_hitters

    docs = _pq(sf_dir, "documents", ["text"],
               rows_hint=_nrows(sf_dir, "documents"))

    def tokens(df: pd.DataFrame) -> pd.DataFrame:
        toks = _ws_tokens(df["text"]).explode().dropna()
        return pd.DataFrame({"token": toks.to_numpy(dtype=object)})

    tok = docs.map_batches(tokens, batch_format="pandas")
    return heavy_hitters(tok, "token", k=64, min_share=0.03)


_HEAVY_HITTERS_SQL = r"""
WITH tok AS (
    SELECT unnest(string_split_regex(trim(text), '\s+')) AS token
    FROM documents WHERE trim(text) <> ''
), tot AS (SELECT COUNT(*) AS n_tok FROM tok)
SELECT token AS value, COUNT(*) AS n FROM tok, tot
GROUP BY token, tot.n_tok
HAVING COUNT(*) > CAST(FLOOR(tot.n_tok * 0.03) AS BIGINT)
"""


def chunk_docs_64(sf_dir: str):
    """Document → training-sample fan-out: 64-token windows with
    deterministic (doc_id, chunk_idx) identity — a pure per-batch map,
    stable under any partitioning (stages/corpus.chunk_documents)."""
    from standardized_omop_data_etl_ray.stages.corpus import chunk_documents

    docs = _pq(sf_dir, "documents", ["doc_id", "text"],
               rows_hint=_nrows(sf_dir, "documents"))
    return chunk_documents(docs, "text", "doc_id", chunk_tokens=64)


_CHUNK_SQL = r"""
WITH tok AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array(trim(text), '\s+') END AS w
    FROM documents
),
c AS (
    SELECT doc_id, w,
           unnest(range(CAST(ceil(len(w) / 64.0) AS BIGINT))) AS chunk_idx
    FROM tok WHERE len(w) > 0
)
SELECT doc_id, chunk_idx,
       array_to_string(
           w[(chunk_idx * 64 + 1):least((chunk_idx + 1) * 64, len(w))], ' '
       ) AS chunk_text,
       least((chunk_idx + 1) * 64, len(w)) - chunk_idx * 64 AS n_tokens
FROM c
"""

# per-language sampling rates for the stratified-sample query — the
# down-sample-the-head / keep-the-tail move of corpus curation
_SAMPLE_RATES = {"en": 0.25, "zh": 0.5, "de": 0.75, "fr": 1.0, "es": 0.0}


def stratified_sample_docs(sf_dir: str):
    """Deterministic per-language sampling by md5(doc_id) prefix
    (stages/corpus.stratified_sample): the same rows survive on ANY
    cluster size / partitioning / resume — reproducibility RNG sampling
    cannot give — and the predicate is SQL-mirrorable exactly."""
    from standardized_omop_data_etl_ray.stages.corpus import stratified_sample

    docs = _pq(sf_dir, "documents", ["doc_id", "lang"],
               rows_hint=_nrows(sf_dir, "documents"))
    return stratified_sample(docs, "doc_id", "lang", _SAMPLE_RATES)


def _sample_sql() -> str:
    from standardized_omop_data_etl_ray.stages.corpus import (
        sample_threshold_hex,
    )

    cases = " ".join(
        f"WHEN '{lang}' THEN '{sample_threshold_hex(rate)}'"
        for lang, rate in _SAMPLE_RATES.items()
    )
    return f"""
SELECT doc_id, lang FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 4)
      < CASE lang {cases} ELSE '0000' END
"""


# --------------------------------------------------------------------------

def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    return cdc_full_replay_docs("/root/testdata/sf0.001")


# The driver verifies the FIRST 50 queries() entries against
# oracle_sql().  Round-5 window (VERDICT r4 #3 — rotate demoted-green
# rows back through): the flagship, this round's new/changed operators,
# the four formerly-red rows (dtype-pinned this round), a ~21-query
# ROTATION COHORT last driver-verified in rounds 1-3 (relational core,
# the minhash/simhash/near-dup family, sampling/splits), and a retained
# r4-green CDC core.  Every remaining entry keeps its prior order below
# the window; nothing is unregistered.
_WINDOW_R5 = [
    # flagship (relational + corpus)
    "omop_full_pipeline",
    "corpus_full_pipeline",
    # new round-5 operators
    "bigram_perplexity_docs",
    "kmeans_embeddings",
    "incremental_kmeans_embeddings",
    "weighted_topk_sample_docs",
    "grouped_weighted_topk_docs",
    "minhash_cross_near_dups",
    "asof_tolerance_purchases",
    "range_join_price_bands",
    "psi_drift_events",
    "robust_outliers_by_event_type",
    # round-4 driver reds, dtype-pinned this round
    "incremental_lang_stats",
    "time_range_user_stats",
    "scd2_history_docs",
    "pack_sequences_docs",
    # latent dtype pins found by the strict sweep
    "events_before_errors",
    "events_before_errors_banded",
    "events_json_props_stats",
    # operators changed this round
    "dedup_exact_docs",
    "constraint_audit_tpch",
    "set_similarity_join_docs",
    "incremental_doc_frequencies",
    # rotation cohort: last driver-verified r1-r3
    "q1_pricing_summary",
    "q3_top_orders",
    "q5_nation_revenue",
    "q10_returned_customers",
    "q6_revenue_forecast",
    "minhash_self_near_dups",
    "simhash_self_near_dups",
    "jaccard_near_dups",
    "embedding_self_near_dups",
    "near_dup_groups",
    "incremental_near_dup_groups",
    "ann_topk_cosine",
    "weighted_sample_docs",
    "stratified_sample_docs",
    "split_docs",
    "shuffle_docs_deterministic",
    "langid_docs",
    "incremental_exact_dedup_docs",
    # retained r4-green CDC / similarity core
    "cdc_curated_replay_docs",
    "cdc_dml_replay",
    "cdc_merge_into",
    "cdc_time_travel",
    "cdc_restore_replay",
    "cdc_incremental_vocab",
    "cdc_incremental_join",
    "ivf_topk_cosine",
    "semantic_dedup_embeddings",
]


def queries() -> dict[str, Callable[[str], Any]]:
    base = _queries_base()
    assert len(_WINDOW_R5) == 50 and set(_WINDOW_R5) <= set(base)
    ordered: dict[str, Callable[[str], Any]] = {
        n: base[n] for n in _WINDOW_R5
    }
    ordered.update({n: f for n, f in base.items() if n not in ordered})
    return ordered


def _queries_base() -> dict[str, Callable[[str], Any]]:
    return {
        # -- flagship + CDC family -------------------------------------
        "omop_full_pipeline": omop_full_pipeline,
        "cdc_curated_replay_docs": cdc_curated_replay_docs,
        "cdc_incremental_vocab": cdc_incremental_vocab_docs,
        "cdc_dml_replay": cdc_dml_replay_docs,
        "cdc_merge_into": cdc_merge_into_docs,
        "cdc_merge_branch": cdc_merge_branch_docs,
        "cdc_secondary_index": cdc_secondary_index_docs,
        "cdc_drop_column": cdc_drop_column_docs,
        "cdc_rename_column": cdc_rename_column_docs,
        "cdc_widen_column": cdc_widen_column_docs,
        "cdc_add_column": cdc_add_column_docs,
        "cdc_restore_replay": cdc_restore_replay_docs,
        "cdc_replicate_docs": cdc_replicate_docs,
        "cdc_replicate_filtered_docs": cdc_replicate_filtered_docs,
        "cdc_verify_replica_docs": cdc_verify_replica_docs,
        "cdc_replicate_group_docs": cdc_replicate_group_docs,
        "scd2_asof_docs": scd2_asof_docs,
        "cdc_time_travel": cdc_time_travel_docs,
        "cdc_point_lookup": cdc_point_lookup_docs,
        "cdc_reshard_replay": cdc_reshard_replay_docs,
        "cdc_changes_between": cdc_changes_between_docs,
        "cdc_dead_letter_replay": cdc_dead_letter_replay_docs,
        "incremental_lang_stats": incremental_lang_stats_docs,
        "cdc_incremental_join": cdc_incremental_join_docs,
        "cdc_patch_replay": cdc_patch_replay_docs,
        "cdc_left_join": cdc_left_join_docs,
        "scd2_history_docs": scd2_history_docs,
        "cdc_scd2_view": cdc_scd2_view_docs,
        # -- similarity / ANN ------------------------------------------
        "ivf_topk_cosine": ivf_topk_cosine,
        "semantic_dedup_embeddings": semantic_dedup_embeddings,
        "kmeans_embeddings": kmeans_embeddings,
        "incremental_kmeans_embeddings": incremental_kmeans_embeddings,
        "lineitem_moment_stats": lineitem_moment_stats,
        "fuzzy_join_doc_prefixes": fuzzy_join_doc_prefixes,
        "events_key_skew": events_key_skew,
        "user_event_journeys": user_event_journeys,
        "funnel_signup_purchase": funnel_signup_purchase,
        "nb_lang_classify_docs": nb_lang_classify_docs,
        "bigram_perplexity_docs": bigram_perplexity_docs,
        "range_join_price_bands": range_join_price_bands,
        "constraint_audit_tpch": constraint_audit_tpch,
        "time_range_user_stats": time_range_user_stats,
        "value_outliers_by_event_type": value_outliers_by_event_type,
        "robust_outliers_by_event_type": robust_outliers_by_event_type,
        "psi_drift_events": psi_drift_events,
        "winsorize_lineitem_price": winsorize_lineitem_price,
        "remove_dup_spans_docs": remove_dup_spans_docs,
        "ewma_user_values": ewma_user_values,
        "extract_long_words_docs": extract_long_words_docs,
        "price_histogram_lineitem": price_histogram_lineitem,
        "nth_order_value_per_customer": nth_order_value_per_customer,
        "set_similarity_join_docs": set_similarity_join_docs,
        "quartile_bucket_orders": quartile_bucket_orders,
        # -- corpus curation / packing / sampling ----------------------
        "tfidf_top_terms_docs": tfidf_top_terms_docs,
        "pack_sequences_docs": pack_sequences_docs,
        "curate_docs": curate_docs,
        "corpus_full_pipeline": corpus_full_pipeline,
        "incremental_doc_frequencies": incremental_doc_frequencies_docs,
        "dup_span_stats_docs": dup_span_stats_docs,
        "incremental_window_histogram": incremental_window_histogram_docs,
        # -- sketches / scale joins ------------------------------------
        "quantiles_lineitem_price": quantiles_lineitem_price,
        "pivot_quantity_by_returnflag": pivot_quantity_by_returnflag,
        "late_events_hourly": late_events_hourly,
        "ranked_orders_per_customer": ranked_orders_per_customer,
        "skew_join_user_purchases": skew_join_user_purchases,
        "bloom_join_highvalue_lineitems": bloom_join_highvalue_lineitems,
        # -- dedup family ----------------------------------------------
        "dedup_best_quality_docs": dedup_best_quality_docs,
        # -- relational core + temporal joins --------------------------
        "events_before_errors_banded": lambda sf: events_before_errors(
            sf, banded=True
        ),
        # -- round-4h lake features (promoted into the window) ---------
        "cdc_clustered_read_docs": cdc_clustered_read_docs,
        "cdc_projected_read_docs": cdc_projected_read_docs,
        "cdc_key_history": cdc_key_history_docs,
        # ---- driver window ends near here (first 50 checked) ---------
        # (demoted multiply-green rows continue below:
        #  cdc_full_replay_docs green r2+r3, ann_topk_cosine green r1+r2;
        #  token_vocab / grouped_cont / intersect_all demoted as
        #  near-duplicate coverage of tfidf / quantiles_cont / except_all)
        "cdc_full_replay_docs": cdc_full_replay_docs,
        "approx_distinct_selfcheck": approx_distinct_selfcheck,
        "unnest_embeddings": unnest_embeddings,
        "events_json_props_stats": events_json_props_stats,
        "mode_event_type_per_user": mode_event_type_per_user,
        "first_last_order_per_customer": first_last_order_per_customer,
        "profile_lineitem_numerics": profile_lineitem_numerics,
        "approx_quantiles_selfcheck": approx_quantiles_selfcheck,
        "grouped_price_quantiles": grouped_price_quantiles,
        "except_all_lineitem_orders": except_all_lineitem_orders,
        "heavy_hitter_tokens": heavy_hitter_tokens,
        "lag_lead_user_values": lag_lead_user_values,
        "quantiles_cont_lineitem_price": quantiles_cont_lineitem_price,
        "shuffle_docs_deterministic": shuffle_docs_deterministic,
        "ann_topk_cosine": ann_topk_cosine,
        "token_vocab_top100": token_vocab_top100,
        "grouped_cont_quantiles_orders": grouped_cont_quantiles_orders,
        "intersect_all_lineitem_orders": intersect_all_lineitem_orders,
        "orders_rollup_priority": orders_rollup_priority,
        "order_price_quartiles": order_price_quartiles,
        "cdc_seed_replicate_docs": cdc_seed_replicate_docs,
        "cdc_replicate_projected_docs": cdc_replicate_projected_docs,
        "normalize_dates_orders": normalize_dates_orders,
        "redundant_sources_lineitem": redundant_sources_lineitem,
        "weighted_sample_docs": weighted_sample_docs,
        "weighted_topk_sample_docs": weighted_topk_sample_docs,
        "grouped_weighted_topk_docs": grouped_weighted_topk_docs,
        "stratified_sample_docs": stratified_sample_docs,
        "chunk_docs_64": chunk_docs_64,
        "cap_docs_per_source": cap_docs_per_source,
        "cdc_lww_with_deletes": cdc_lww_with_deletes,
        "events_before_errors": events_before_errors,
        "langid_docs": langid_docs,
        "cdc_snapshot_diff": cdc_snapshot_diff,
        "incremental_near_dup_groups": incremental_near_dup_groups,
        "cdc_lww_upsert": cdc_lww_upsert,
        "dedup_exact_docs": dedup_exact_docs,
        "incremental_exact_dedup_docs": incremental_exact_dedup_docs,
        "minhash_cross_near_dups": minhash_cross_near_dups,
        "quality_stats_docs": quality_stats_docs,
        "repetition_stats_docs": repetition_stats_docs,
        "lang_distribution": lang_distribution,
        "redact_pii_docs": redact_pii_docs,
        "split_docs": split_docs,
        "simhash_self_near_dups": simhash_self_near_dups,
        "jaccard_near_dups": jaccard_near_dups,
        "decontaminate_docs": decontaminate_docs,
        "near_dup_groups": near_dup_groups,
        "dedup_canonical_docs": dedup_canonical_docs,
        "minhash_self_near_dups": minhash_self_near_dups,
        "token_counts_docs": token_counts_docs,
        "q1_pricing_summary": q1_pricing_summary,
        "q3_top_orders": q3_top_orders,
        "priority_merge_orders": priority_merge_orders,
        "unpivot_lineitem_metrics": unpivot_lineitem_metrics,
        "q5_nation_revenue": q5_nation_revenue,
        "q10_returned_customers": q10_returned_customers,
        "approx_distinct_users_per_type": approx_distinct_users_per_type,
        "hourly_event_windows": hourly_event_windows,
        "q6_revenue_forecast": q6_revenue_forecast,
        "orders_by_priority": orders_by_priority,
        "filter_highvalue_orders": filter_highvalue_orders,
        "distinct_segments": distinct_segments,
        "topk_parts": topk_parts,
        "region_customer_counts": region_customer_counts,
        "sequential_ids_orders": sequential_ids_orders,
        "user_activity_spans": user_activity_spans,
        "visit_id_synthesis": visit_id_synthesis,
        "nine_digit_ids_orders": nine_digit_ids_orders,
        "hopping_event_windows": hopping_event_windows,
        "sessionize_events": sessionize_events,
        "regex_extract_rekey": regex_extract_rekey,
        "asof_last_purchase_before_error": asof_last_purchase_before_error,
        "asof_tolerance_purchases": asof_tolerance_purchases,
        "running_user_totals": running_user_totals,
        "top3_customers_per_segment": top3_customers_per_segment,
        "distinct_users_per_type": distinct_users_per_type,
        "customer_balance_buckets": customer_balance_buckets,
        "orders_monthly_rollup": orders_monthly_rollup,
        "events_daily_active_users": events_daily_active_users,
        "partkey_quantity_stats": partkey_quantity_stats,
        "union_amounts_by_source": union_amounts_by_source,
        "schema_pad_docs": schema_pad_docs,
        "rolling_user_event_stats": rolling_user_event_stats,
        "embedding_label_stats": embedding_label_stats,
        "embedding_self_near_dups": embedding_self_near_dups,
        "simhash_fingerprints_docs": simhash_fingerprints_docs,
        "fingerprint_docs": fingerprint_docs,
        "media_featurize": media_featurize,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "q1_pricing_summary": _Q1_SQL,
        "q3_top_orders": _Q3_SQL,
        "q5_nation_revenue": _Q5_SQL,
        "q6_revenue_forecast": _Q6_SQL,
        "q10_returned_customers": _Q10_SQL,
        "orders_by_priority": _ORDERS_PRIO_SQL,
        "filter_highvalue_orders": _HIGHVALUE_SQL,
        "distinct_segments": _DISTINCT_SQL,
        "topk_parts": _TOPK_PARTS_SQL,
        "region_customer_counts": _REGION_COUNTS_SQL,
        "unpivot_lineitem_metrics": _UNPIVOT_SQL,
        "sequential_ids_orders": _SEQ_IDS_SQL,
        "priority_merge_orders": _PRIORITY_MERGE_SQL,
        "user_activity_spans": _SPANS_SQL,
        "visit_id_synthesis": _VISIT_ID_SQL,
        "nine_digit_ids_orders": _NINE_DIGIT_SQL,
        "hourly_event_windows": _HOURLY_SQL,
        "hopping_event_windows": _HOPPING_SQL,
        "sessionize_events": _SESSIONIZE_SQL,
        "regex_extract_rekey": _REGEX_REKEY_SQL,
        "asof_last_purchase_before_error": _ASOF_SQL,
        "asof_tolerance_purchases": _ASOF_TOL_SQL,
        "running_user_totals": _RUNNING_SQL,
        "top3_customers_per_segment": _TOP3_SQL,
        "distinct_users_per_type": _DISTINCT_USERS_SQL,
        "customer_balance_buckets": _BAL_BUCKETS_SQL,
        "orders_monthly_rollup": _ORDERS_MONTHLY_SQL,
        "events_daily_active_users": _DAU_SQL,
        "partkey_quantity_stats": _PARTKEY_SQL,
        "union_amounts_by_source": _UNION_SQL,
        "schema_pad_docs": _SCHEMA_PAD_SQL,
        "cdc_lww_upsert": _CDC_UPSERT_SQL,
        "cdc_lww_with_deletes": _CDC_DELETES_SQL,
        "cdc_full_replay_docs": _CDC_FULL_SQL,
        "cdc_snapshot_diff": _SNAPSHOT_DIFF_SQL,
        "cdc_time_travel": _CDC_TIME_TRAVEL_SQL,
        "cdc_point_lookup": _CDC_LOOKUP_SQL,
        "cdc_reshard_replay": _CDC_FULL_SQL,
        "cdc_changes_between": _CDC_CHANGES_BETWEEN_SQL,
        "cdc_dead_letter_replay": _CDC_DLQ_SQL,
        "incremental_lang_stats": _INC_LANG_STATS_SQL,
        "cdc_incremental_join": _CDC_INC_JOIN_SQL,
        "cdc_patch_replay": _CDC_PATCH_SQL,
        "cdc_left_join": _CDC_LEFT_JOIN_SQL,
        "cdc_dml_replay": _CDC_DML_SQL,
        "cdc_merge_into": _CDC_MERGE_SQL,
        "cdc_merge_branch": _CDC_MERGE_BRANCH_SQL,
        "cdc_secondary_index": _CDC_INDEX_SQL,
        "cdc_drop_column": _CDC_DDL_SQL,
        "cdc_rename_column": _CDC_RENAME_SQL,
        "cdc_widen_column": _CDC_WIDEN_SQL,
        "cdc_add_column": _CDC_ADD_SQL,
        "semantic_dedup_embeddings": _SEMANTIC_DEDUP_SQL,
        "kmeans_embeddings": _KMEANS_SQL,
        "incremental_kmeans_embeddings": _INC_KMEANS_SQL,
        "lineitem_moment_stats": _MOMENT_STATS_SQL,
        "fuzzy_join_doc_prefixes": _FUZZY_JOIN_SQL,
        "events_key_skew": _KEY_SKEW_SQL,
        "user_event_journeys": _JOURNEYS_SQL,
        "funnel_signup_purchase": _FUNNEL_SQL,
        "bigram_perplexity_docs": _BIGRAM_PPL_SQL,
        "nb_lang_classify_docs": _NB_CLASSIFY_SQL,
        "range_join_price_bands": _RANGE_JOIN_SQL,
        "constraint_audit_tpch": _CONSTRAINT_AUDIT_SQL,
        "time_range_user_stats": _TIME_RANGE_SQL,
        "value_outliers_by_event_type": _OUTLIERS_SQL,
        "robust_outliers_by_event_type": _ROBUST_OUTLIERS_SQL,
        "psi_drift_events": _PSI_SQL,
        "winsorize_lineitem_price": _WINSORIZE_SQL,
        "remove_dup_spans_docs": _REMOVE_DUP_SPANS_SQL,
        "ewma_user_values": _EWMA_SQL,
        "extract_long_words_docs": _EXTRACT_ALL_SQL,
        "price_histogram_lineitem": _HISTOGRAM_SQL,
        "nth_order_value_per_customer": _NTH_VALUE_SQL,
        "set_similarity_join_docs": _SET_SIM_SQL,
        "quartile_bucket_orders": _QUARTILE_BUCKET_SQL,
        "unnest_embeddings": _UNNEST_SQL,
        "events_json_props_stats": _JSON_PROPS_SQL,
        "mode_event_type_per_user": _GROUPED_MODE_SQL,
        "first_last_order_per_customer": _FIRST_LAST_SQL,
        "profile_lineitem_numerics": _PROFILE_SQL,
        "cdc_restore_replay": _CDC_FULL_SQL,
        "cdc_replicate_docs": _CDC_REPLICATE_SQL,
        "cdc_replicate_filtered_docs": _CDC_REPLICATE_FILTERED_SQL,
        "cdc_seed_replicate_docs": _CDC_REPLICATE_SQL,
        "cdc_verify_replica_docs": _CDC_VERIFY_REPLICA_SQL,
        "cdc_replicate_group_docs": _CDC_REPLICATE_SQL,
        "cdc_replicate_projected_docs": _CDC_REPLICATE_PROJECTED_SQL,
        "cdc_projected_read_docs": _CDC_PROJECTED_READ_SQL,
        "cdc_clustered_read_docs": _CDC_CLUSTERED_READ_SQL,
        "cdc_key_history": _CDC_KEY_HISTORY_SQL,
        "scd2_asof_docs": _SCD2_ASOF_SQL,
        "scd2_history_docs": _SCD2_SQL,
        "cdc_scd2_view": _SCD2_VIEW_SQL,
        "lag_lead_user_values": _LAG_LEAD_SQL,
        "ranked_orders_per_customer": _RANKED_ORDERS_SQL,
        "quantiles_cont_lineitem_price": _QUANTILE_CONT_SQL,
        "grouped_cont_quantiles_orders": _GROUPED_CONT_SQL,
        "approx_quantiles_selfcheck": _APPROX_Q_SQL,
        "approx_distinct_selfcheck": _APPROX_DISTINCT_SQL,
        "dedup_exact_docs": _DEDUP_EXACT_SQL,
        "incremental_exact_dedup_docs": _INC_EXACT_DEDUP_SQL,
        "minhash_cross_near_dups": _MINHASH_CROSS_SQL,
        "token_counts_docs": _TOKEN_COUNTS_SQL,
        "quality_stats_docs": _QUALITY_SQL,
        "repetition_stats_docs": _REPETITION_SQL,
        "lang_distribution": _LANG_DIST_SQL,
        "minhash_self_near_dups": _MINHASH_SQL,
        "simhash_self_near_dups": _MINHASH_SQL,
        "jaccard_near_dups": _JACCARD_SQL,
        "near_dup_groups": _NEAR_DUP_GROUPS_SQL,
        "incremental_near_dup_groups": _NEAR_DUP_GROUPS_SQL,
        "dedup_canonical_docs": _DEDUP_CANONICAL_SQL,
        "dedup_best_quality_docs": _DEDUP_BEST_SQL,
        "decontaminate_docs": _DECONTAM_SQL,
        "redact_pii_docs": _REDACT_SQL,
        "split_docs": _split_sql(),
        "rolling_user_event_stats": _ROLLING_SQL,
        "tfidf_top_terms_docs": _TFIDF_SQL,
        "incremental_doc_frequencies": _INC_DF_SQL,
        "dup_span_stats_docs": _DUP_SPAN_SQL,
        "incremental_window_histogram": _INC_WIN_SQL,
        "cdc_curated_replay_docs": _CDC_CURATED_SQL,
        "cdc_incremental_vocab": _CDC_VOCAB_SQL,
        "pack_sequences_docs": _PACK_SQL,
        "shuffle_docs_deterministic": _SHUFFLE_SQL,
        "cap_docs_per_source": _CAP_SQL,
        "quantiles_lineitem_price": _QUANTILE_SQL,
        "bloom_join_highvalue_lineitems": _BLOOM_JOIN_SQL,
        "skew_join_user_purchases": _SKEW_JOIN_SQL,
        "weighted_sample_docs": _WEIGHTED_SQL,
        "weighted_topk_sample_docs": _WEIGHTED_TOPK_SQL,
        "grouped_weighted_topk_docs": _GROUPED_WEIGHTED_TOPK_SQL,
        "events_before_errors": _INTERVAL_SQL,
        "events_before_errors_banded": _INTERVAL_SQL,
        "curate_docs": _curate_sql(),
        "corpus_full_pipeline": _corpus_pipeline_sql(),
        "ann_topk_cosine": _ANN_SQL,
        "ivf_topk_cosine": _IVF_AUDIT_SQL,
        "normalize_dates_orders": _NORM_DATES_SQL,
        "redundant_sources_lineitem": _REDUNDANT_SQL,
        "pivot_quantity_by_returnflag": _PIVOT_SQL,
        "grouped_price_quantiles": _GROUPED_Q_SQL,
        "heavy_hitter_tokens": _HEAVY_HITTERS_SQL,
        "except_all_lineitem_orders": _EXCEPT_ALL_SQL,
        "intersect_all_lineitem_orders": _INTERSECT_ALL_SQL,
        "orders_rollup_priority": _ROLLUP_SQL,
        "order_price_quartiles": _QUARTILES_SQL,
        "late_events_hourly": _LATE_EVENTS_SQL,
        "embedding_label_stats": _EMB_STATS_SQL,
        "embedding_self_near_dups": _EMB_NEAR_DUP_SQL,
        "langid_docs": _langid_sql(),
        "token_vocab_top100": _VOCAB_SQL,
        "chunk_docs_64": _CHUNK_SQL,
        "stratified_sample_docs": _sample_sql(),
        "omop_full_pipeline": _omop_sql(),
        # simhash_fingerprints / fingerprint / media:
        # non-SQL-expressible → rows-only checks; each self-verifies
        # in-query where possible (ivf_topk_cosine asserts its recall
        # gate in-query and hash-checks the audit table above)
    }
