"""Unit tests for the vectorized kernels (reference-semantics parity)."""

from datetime import date

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from standardized_omop_data_etl_ray.functions import concepts as C
from standardized_omop_data_etl_ray.functions import dates as D
from standardized_omop_data_etl_ray.functions import ids as I
from standardized_omop_data_etl_ray.functions import parsing as P
from standardized_omop_data_etl_ray.functions import provenance as PR
from standardized_omop_data_etl_ray.functions import text as T
from standardized_omop_data_etl_ray.functions.hashing import (
    key_hash_u64,
    sha256_hex,
    sha_rollup,
)


def test_sha256_matches_hashlib():
    import hashlib

    vals = ["abc", "", "héllo", None]
    out = sha256_hex(pa.array(vals)).to_pylist()
    for v, h in zip(vals, out):
        if v is None:
            assert h is None
        else:
            assert h == hashlib.sha256(v.encode()).hexdigest()


def test_sha_rollup_matches_row_loop():
    """The buffer-range rollup equals the per-row formula (sha256 over
    each row's sha, "D" for a null) on chunked, sliced and null-bearing
    input, for both string offset widths."""
    import hashlib

    def row_loop(vals):
        h = hashlib.sha256()
        for v in vals:
            h.update((v or "D").encode())
        return h.hexdigest()

    shas = [None if i % 7 == 3 else hashlib.sha256(str(i).encode()).hexdigest()
            for i in range(500)]
    chunked = pa.chunked_array([pa.array(shas[:180]), pa.array(shas[180:]),
                                pa.array([], pa.string())])
    cases = [
        pa.array(shas),
        chunked,
        chunked.slice(37, 301),
        pa.array(shas).slice(11, 5),
        pa.array(shas, pa.large_string()).slice(3, 200),
        pa.array([None, None], pa.string()),
        pa.array([], pa.string()),
        pa.chunked_array([], pa.string()),
    ]
    for arr in cases:
        assert sha_rollup(arr) == row_loop(arr.to_pylist())


def test_key_hash_stable():
    a = key_hash_u64(pa.array(["r1", "r2"]), pa.array(["p1", "p2"]))
    b = key_hash_u64(pa.array(["r1", "r2"]), pa.array(["p1", "p2"]))
    assert a.equals(b)
    # separator prevents ("ab","c") == ("a","bc") collisions
    x = key_hash_u64(pa.array(["ab"]), pa.array(["c"]))
    y = key_hash_u64(pa.array(["a"]), pa.array(["bc"]))
    assert x.to_pylist() != y.to_pylist()


def test_relative_day_to_date():
    # helpers.py:6-39 semantics: index 2016-01-01 + N days
    out = D.relative_day_to_date(pa.array([0, 31, -1, None])).to_pylist()
    assert out == [date(2016, 1, 1), date(2016, 2, 1), date(2015, 12, 31), None]
    years = D.relative_day_to_year(pa.array([0, 366])).to_pylist()
    assert years == [2016, 2017]


def test_year_to_date_sentinel():
    # helpers.py:66-98: junk/blank/out-of-range → 1900-01-01
    out = D.year_to_date(
        pa.array(["1985", " 2020 ", "", "abc", "1850", "2099", None])
    ).to_pylist()
    assert out == [
        date(1985, 1, 1), date(2020, 1, 1), date(1900, 1, 1),
        date(1900, 1, 1), date(1900, 1, 1), date(1900, 1, 1),
        date(1900, 1, 1),
    ]


def test_fill_date_matrix():
    s = pa.array([date(2020, 1, 1), None, None], pa.date32())
    e = pa.array([None, date(2021, 1, 1), None], pa.date32())
    s2, e2 = D.fill_date_matrix(s, e)
    assert s2.to_pylist() == [date(2020, 1, 1), date(2021, 1, 1), date(1900, 1, 1)]
    assert e2.to_pylist() == [date(2020, 1, 1), date(2021, 1, 1), date(1900, 1, 1)]


def test_normalize_date_format():
    out = D.normalize_date_format(pa.array(["25/12/2020", "2020-01-02"])).to_pylist()
    assert out == ["2020-12-25", "2020-01-02"]


def test_coalesce_missing_concepts():
    t = pa.table(
        {
            "x_concept_id": pa.array([8507, None], pa.int64()),
            "x_concept_name": pa.array(["Male", "whatever"]),
        }
    )
    out = C.coalesce_missing_concepts(t)
    assert out.column("x_concept_id").to_pylist() == [8507, 0]
    assert out.column("x_concept_name").to_pylist() == ["Male", "No Matching Concept"]


def test_map_codes_and_multi_hot():
    out = C.map_codes(pa.array([1, 2, 7, None], pa.int64()), C.SEX_CONCEPTS)
    assert out.to_pylist() == [8507, 8532, None, None]
    t = pa.table(
        {
            "a": pa.array([1, 0, 1, None], pa.int64()),
            "b": pa.array([0, 0, 1, 0], pa.int64()),
        }
    )
    out = C.resolve_multi_hot(t, ["a", "b"], {"a": 100, "b": 200})
    # exactly-one → concept; zero or many → 0 (demographics--person.py:136-223)
    assert out.to_pylist() == [100, 0, 0, 0]


def test_visit_id_and_nine_digit():
    v = I.visit_occurrence_id(pa.array(["P1", "P2"]), pa.array(["2020-01-01", None]))
    assert v.to_pylist() == ["P1_2020-01-01", "P2_0"]
    # transform_ids.py:5-25: 11 + zero-pad to 7; long ids keep LAST 7 digits
    n = I.nine_digit_id(pa.array(["42", "CASE-123", "123456789"]))
    assert n.to_pylist() == ["110000042", "110000123", "113456789"]


def test_lenient_float():
    out = P.lenient_float(pa.array(["98.6*", " 120 ", "-5", ".", "-", "", "abc", None]))
    assert out.to_pylist() == [98.6, 120.0, -5.0, None, None, None, None, None]


def test_unit_conversions_and_inference():
    assert P.fahrenheit_to_celsius(pa.array([98.6])).to_pylist() == [37.0]
    assert P.pounds_to_kg(pa.array([150.0])).to_pylist() == [68.0]
    assert P.inches_to_cm(pa.array([70.0])).to_pylist() == [177.8]
    inf = P.infer_temp_unit(pa.array([37.0, 98.6, 60.0])).to_pylist()
    assert inf == ["C", "F", None]


def test_classify_unit_family():
    out = P.classify_unit_family(
        pa.array(["U/L", "24 - 195 U/L", "mg/dL", "mmol"])
    ).to_pylist()
    assert out == ["enzymatic", "enzymatic", "mass", None]


def test_fuzzy_match():
    out = P.fuzzy_match_mask(
        pa.array(["temporal", "temporel", "temperol", "blood", None]), "temporal"
    ).to_pylist()
    # 'temperol' ratio vs 'temporal' is 0.75 → False, matching the
    # reference's is_similar_to_temporal (vital_signs--measurement.py:62-81)
    assert out == [True, True, False, False, False]


def test_provenance():
    v = pa.array(["1", "2", None])
    i = pa.array(["Yes", "2", "No"])
    part = PR.provenance_part("tbl", "var", v, i).to_pylist()
    assert part == ["tbl+var: 1 (Yes)", "tbl+var: 2", None]
    joined = PR.join_provenance(
        pa.array(["a: 1", None]), pa.array(["b: 2", "b: 3"])
    ).to_pylist()
    assert joined == ["a: 1 | b: 2", "b: 3"]


def test_text_kernels():
    s = pd.Series(["the cat and the dog sat", "", "le chat et le chien dans la rue"])
    tc = T.token_counts(s)
    assert tc["n_tokens_ws"].tolist() == [6, 0, 8]
    q = T.quality_features(s)
    assert q["n_words"].tolist() == [6, 0, 8]
    assert q.loc[0, "stopword_ratio"] > 0.3
    langs = T.detect_language(s).tolist()
    assert langs[0] == "en" and langs[2] == "fr"


def test_minhash_similarity_correlates_with_jaccard():
    a, b = T.minhash_params(256)
    d1 = "the quick brown fox jumps over the lazy dog " * 5
    d2 = "the quick brown fox jumps over the lazy cat " * 5
    d3 = "completely different words entirely here now friend " * 5
    sigs = []
    for d in (d1, d2, d3):
        sh = T.word_shingles(d, 3)
        sigs.append(T.minhash_signature(T.hash_u64(np.array(sh, object)), a, b))
    sim12 = (sigs[0] == sigs[1]).mean()
    sim13 = (sigs[0] == sigs[2]).mean()
    assert sim12 > 0.5 > sim13


def test_simhash_near_for_similar_docs():
    t1 = "alpha beta gamma delta epsilon zeta eta theta " * 10
    t2 = t1 + "iota"
    h1 = T.simhash64(T.hash_u64(np.array(t1.split(), object)))
    h2 = T.simhash64(T.hash_u64(np.array(t2.split(), object)))
    ham = bin(int(h1) ^ int(h2)).count("1")
    assert ham <= 8


def test_winnowing_deterministic():
    f1 = T.winnowing_fingerprint("abcdefghij" * 10)
    f2 = T.winnowing_fingerprint("abcdefghij" * 10)
    assert np.array_equal(f1, f2) and len(f1) > 0


def test_repetition_features():
    """Gopher-rule repetition signals: a looped doc has high duplicate-
    trigram fraction and top-bigram share; distinct prose has zero."""
    import pandas as pd

    from standardized_omop_data_etl_ray.functions.text import (
        repetition_features,
    )

    texts = pd.Series([
        "spam ham " * 10,               # one bigram dominates
        "each word here appears just once in this doc",
        "",                              # empty → zeros
        "two words",                     # no trigram window
    ])
    r = repetition_features(texts)
    # 20 words → 18 trigrams but only 2 distinct ("spam ham spam"/"ham spam ham")
    assert r.loc[0, "dup_trigram_frac"] == (18 - 2) / 18
    # 19 bigrams, "spam ham" appears 10 times
    assert r.loc[0, "top_bigram_frac"] == 10 / 19
    assert r.loc[1, "dup_trigram_frac"] == 0.0
    assert (r.loc[2] == 0.0).all()
    assert r.loc[3, "dup_trigram_frac"] == 0.0
    assert r.loc[3, "top_bigram_frac"] == 1.0
