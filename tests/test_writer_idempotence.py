"""Task-retry idempotence: the per-partition delta writer must produce
byte-identical files and stats rows when re-executed on the same group
(Ray retries a failed task; the deterministic name + atomic rename must
make the retry invisible)."""

from pathlib import Path

import pyarrow as pa

from standardized_omop_data_etl_ray.pipelines.cdc import _delta_writer
from standardized_omop_data_etl_ray.spec import TableSpec
from standardized_omop_data_etl_ray.stages.standardize import make_standardizer


def test_write_group_retry_is_byte_identical(tmp_path):
    spec = TableSpec(name="t", num_partitions=1)
    raw = pa.table(
        {
            "op": ["I", "U", "D", "I"],
            "lsn": pa.array([1, 3, 2, 4], pa.int64()),
            "repo": ["r", "r", "r", "r"],
            "path": ["a", "a", "b", "c"],
            "commit": ["c1", "c3", "c2", "c4"],
            "lang": ["py", "py", None, "go"],
            "content": ["x", "y", None, "z"],
        }
    )
    group = make_standardizer(spec)(raw)
    writer = _delta_writer(str(tmp_path), "t", 1, spec)
    info1 = writer(group).to_pylist()[0]
    f = Path(tmp_path) / "t" / info1["file"]
    bytes1 = f.read_bytes()

    info2 = writer(group).to_pylist()[0]  # simulated task retry
    assert info2 == info1
    assert f.read_bytes() == bytes1


def test_regex_extract_key():
    from standardized_omop_data_etl_ray.functions.ids import regex_extract_key

    out = regex_extract_key(
        pa.array(["Participant P042 (site 3)", "bad", None]),
        r"Participant (?P<k>P\d+)",
    ).to_pylist()
    assert out == ["P042", None, None]
