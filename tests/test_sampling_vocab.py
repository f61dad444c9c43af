"""Deterministic sampling / split assignment + vocab top-k unit tests."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from arlas_proc_ray.functions.hashing import sha256_prefix_int
from arlas_proc_ray.stages.sampling import (
    deterministic_sample,
    hash_buckets,
    split_by_hash,
)


def test_sha256_prefix_int_matches_hexdigest():
    vals = ["", "a", "hello world", "42", None, "x" * 1000]
    got = sha256_prefix_int(pa.array(vals, pa.string()))
    for v, g in zip(vals, got):
        if v is None:
            assert g == -1
        else:
            exp = int(hashlib.sha256(v.encode()).hexdigest()[:15], 16)
            assert int(g) == exp


def test_split_assignment_is_partitioning_invariant():
    """The property random_sample lacks: the assignment must not change
    when the data is repartitioned (cluster resize / rerun)."""
    df = pd.DataFrame({"k": np.arange(500, dtype=np.int64)})
    a = (
        split_by_hash(rd.from_pandas(df), key_col="k")
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    b = (
        split_by_hash(rd.from_pandas(df).repartition(13), key_col="k")
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    # ~10% val at permille=100 (loose band; deterministic, not random)
    frac = (a["split"] == "val").mean()
    assert 0.04 < frac < 0.2


def test_deterministic_sample_subset_property():
    """A 50-permille sample is a SUBSET of the 100-permille sample
    (nested grains — what makes hash sampling auditable)."""
    df = pd.DataFrame({"k": np.arange(1000, dtype=np.int64)})
    s50 = set(
        deterministic_sample(rd.from_pandas(df), key_col="k", keep_permille=50)
        .to_pandas()["k"]
    )
    s100 = set(
        deterministic_sample(rd.from_pandas(df), key_col="k", keep_permille=100)
        .to_pandas()["k"]
    )
    assert s50 <= s100
    assert len(s50) > 0 and len(s100) < 1000


def test_top_terms_exact_counts():
    from arlas_proc_ray.functions.text import top_terms

    df = pd.DataFrame(
        {"text": ["the cat sat", "the cat", "THE dog", None, "cat! cat?"]}
    )
    out = top_terms(rd.from_pandas(df).repartition(3), text_col="text", k=3)
    assert out["term"].tolist() == ["cat", "the", "dog"]  # 4, 3, 1; tie term asc
    assert out["n"].tolist() == [4, 3, 1]


def test_global_cumsum_multiblock_matches_pandas():
    """Distributed two-pass scan == pandas cumsum, regardless of input
    block layout (the per-block offset lookup is the part that can rot)."""
    from arlas_proc_ray.stages.scan import global_cumsum, sequence_packing

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "id": rng.permutation(2000).astype(np.int64),
            "w": rng.randint(1, 500, 2000).astype(np.int64),
        }
    )
    got = (
        global_cumsum(
            rd.from_pandas(df).repartition(17), order_col="id", value_col="w",
            target="cs",
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    exp = df.sort_values("id").reset_index(drop=True)
    exp["cs"] = exp["w"].cumsum()
    pd.testing.assert_frame_equal(got[["id", "w", "cs"]], exp)

    packed = (
        sequence_packing(
            rd.from_pandas(df).repartition(9), order_col="id", size_col="w",
            capacity=1000,
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    exp["pack_id"] = (exp["cs"] - exp["w"]) // 1000
    assert packed["pack_id"].tolist() == exp["pack_id"].tolist()
    # packs are contiguous runs and non-decreasing in the global order
    assert (np.diff(packed["pack_id"].to_numpy()) >= 0).all()


def test_repetition_metrics_crafted():
    from arlas_proc_ray.functions.text import repetition_metrics

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "a\nb\nc",          # no dups
                "x\nx\nx\ny",       # 4 lines, 2 distinct
                None,                # null -> one empty line
            ],
        }
    )
    out = repetition_metrics(df).sort_values("doc_id").reset_index(drop=True)
    assert out.loc[0, "frac_dup_lines"] == 0.0
    assert out.loc[1, "frac_dup_lines"] == (4 - 2) / 4
    # 'x' occurs 3x (3 chars of 4 total line chars)
    assert out.loc[1, "frac_chars_dup_lines"] == 3 / 4
    assert out.loc[2, "frac_dup_lines"] == 0.0


def test_decontaminate_flags_overlap_only():
    import ray.data as rd2

    from arlas_proc_ray.dedup.decontaminate import decontaminate

    bench = ["The quick brown fox jumps over the lazy dog"]
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "prefix The quick brown fox suffix",   # shares a 13-gram
                "completely different words here",     # no overlap
                "short",                               # < 13 chars: never
                None,
            ],
        }
    )
    out = (
        decontaminate(rd2.from_pandas(docs), bench, n=13)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["contaminated"].tolist() == [True, False, False, False]


def test_global_rank_presorted_input_is_exact_and_balanced(ray_session):
    """Rank must stay exact on input ALREADY sorted by the order column
    (the adversarial case for prefix-sampled bounds), and the bucket
    bounds must spread such input across partitions instead of one hot
    bucket (round-2 ADVICE regression class)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from arlas_proc_ray.stages.joins import range_partition_bounds
    from arlas_proc_ray.stages.scan import global_rank

    rng = np.random.RandomState(5)
    vals = np.sort(rng.randint(0, 10_000, size=20_000))  # pre-sorted
    ids = np.arange(20_000)
    ds = rd.from_pandas(pd.DataFrame({"event_id": ids, "value": vals})
                        ).repartition(16)

    got = (
        global_rank(ds, order_cols=["value", "event_id"], num_partitions=8)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    want = (
        pd.DataFrame({"event_id": ids, "value": vals})
        .sort_values(["value", "event_id"])
        .assign(rnk=np.arange(1, 20_001, dtype=np.int64))
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["event_id", "value", "rnk"]], want)

    bounds = range_partition_bounds(ds, "value", 8)
    occupancy = np.bincount(
        np.searchsorted(bounds, vals.astype(np.float64), side="right"),
        minlength=len(bounds) + 1,
    )
    assert (occupancy > 0).sum() >= max(2, len(bounds) // 2)
    assert occupancy.max() < len(vals) * 0.75  # not one hot bucket


def test_df_term_filter_edge_cases(ray_session):
    from arlas_proc_ray.functions.text import (
        df_term_filter,
        document_frequency_stop_terms,
    )

    # "common" appears in 3/4 docs (75% > 50%); "rare" in 1.
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "common rare",
                "common only common",   # duplicate term counts once per doc
                "common",               # all tokens removed -> ""
                "",                     # empty stays empty (not NaN)
            ],
        }
    )
    ds = rd.from_pandas(df).repartition(2)

    stop = document_frequency_stop_terms(ds, max_df_frac=0.5, num_partitions=2)
    assert stop["term"].tolist() == ["common"]
    assert stop["df_n"].tolist() == [3]

    out = (
        df_term_filter(ds, max_df_frac=0.5, target="clean", num_partitions=2)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["clean"].tolist() == ["rare", "only", "", ""]
    # original column untouched when target= given
    assert out["text"].tolist() == df["text"].tolist()


def test_extract_json_int_field_edges():
    import pyarrow as pa

    from arlas_proc_ray.functions.text import extract_json_int_field

    col = pa.array(
        ['{"k": 87}', '{"a": 1, "k": -3}', '{"x": 5}', None,
         '{"k":0}', '{"kk": 9}', '{"k": 12, "k2": 99}']
    )
    got = extract_json_int_field(col, "k").to_pylist()
    assert got == [87, -3, None, None, 0, None, 12]
    # chunked input round-trips
    got2 = extract_json_int_field(pa.chunked_array([col, col]), "k")
    assert got2.to_pylist() == got + got


def test_training_shuffle_epochs_differ(ray_session):
    """training_shuffle: a permutation (each pos exactly once), identical
    across reruns, DIFFERENT across shuffle epochs."""
    import ray.data as rd

    from arlas_proc_ray.stages.sampling import training_shuffle

    ids = pa.table({"event_id": pa.array(range(500), pa.int64())})
    e1 = (
        training_shuffle(rd.from_arrow(ids), "event_id", 1)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    e1b = (
        training_shuffle(rd.from_arrow(ids), "event_id", 1)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    e2 = (
        training_shuffle(rd.from_arrow(ids), "event_id", 2)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    assert sorted(e1["shuffle_pos"]) == list(range(1, 501))
    pd.testing.assert_frame_equal(e1, e1b)  # reproducible
    assert (e1["shuffle_pos"] != e2["shuffle_pos"]).mean() > 0.99  # distinct


def _mix_corpus(n=4000):
    rng = np.random.default_rng(7)
    domains = rng.choice(["a", "b", "c"], size=n, p=[0.6, 0.3, 0.1])
    return pd.DataFrame(
        {
            "doc_id": np.arange(n),
            "dom": domains,
            "toks": rng.integers(1, 100, size=n),
        }
    )


def test_mixture_sample_hits_proportions(ray_session):
    from arlas_proc_ray.stages.sampling import mixture_plan, mixture_sample

    pdf = _mix_corpus()
    ds = rd.from_pandas(pdf)
    weights = {"a": 40, "b": 40, "c": 20}
    plan = mixture_plan(ds, domain_col="dom", weights=weights)
    # binding domain is the scarcest relative to its share (c here)
    mass_c = int((pdf["dom"] == "c").sum())
    assert plan["total"] == mass_c * 100 // 20
    out = mixture_sample(
        ds, domain_col="dom", key_col="doc_id", weights=weights, plan=plan
    ).to_pandas()
    got = out["dom"].value_counts(normalize=True)
    # hash-binomial acceptance: proportions approximate, not exact
    assert abs(got["a"] - 0.4) < 0.05
    assert abs(got["b"] - 0.4) < 0.05
    assert abs(got["c"] - 0.2) < 0.05
    # the binding domain is kept (near-)whole: threshold = bucket_mod
    assert plan["thresholds"]["c"] == plan["bucket_mod"]


def test_mixture_sample_budget_and_determinism(ray_session):
    from arlas_proc_ray.stages.sampling import mixture_sample

    pdf = _mix_corpus()
    weights = {"a": 50, "b": 50}
    a = mixture_sample(
        rd.from_pandas(pdf), domain_col="dom", key_col="doc_id",
        weights=weights, budget=500,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # repartition-invariant: same rows from a differently-blocked input
    b = mixture_sample(
        rd.from_pandas(pdf).repartition(13), domain_col="dom",
        key_col="doc_id", weights=weights, budget=500,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert abs(len(a) - 500) < 100  # hash-binomial around the budget
    assert set(a["dom"]) == {"a", "b"}  # unweighted domain dropped


def test_mixture_sample_token_weighted_and_errors(ray_session):
    import pytest

    from arlas_proc_ray.stages.sampling import mixture_plan

    pdf = _mix_corpus()
    ds = rd.from_pandas(pdf)
    plan = mixture_plan(
        ds, domain_col="dom", weights={"a": 1, "b": 1}, size_col="toks"
    )
    assert plan["mass"]["a"] == int(pdf.loc[pdf["dom"] == "a", "toks"].sum())
    with pytest.raises(ValueError, match="no mass"):
        mixture_plan(ds, domain_col="dom", weights={"zzz": 1})
    with pytest.raises(ValueError, match="INTEGER"):
        mixture_plan(ds, domain_col="dom", weights={"a": 0.5})


def test_mixture_plan_properties():
    """Hypothesis: mixture_plan's integer thresholds respect the budget,
    never upsample, and the binding domain saturates at bucket_mod."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from arlas_proc_ray.stages.sampling import mixture_plan

    @given(
        masses=st.lists(st.integers(1, 10_000), min_size=2, max_size=5),
        weights=st.lists(st.integers(1, 100), min_size=2, max_size=5),
        budget=st.one_of(st.none(), st.integers(1, 50_000)),
    )
    @settings(max_examples=60, deadline=None)
    def check(masses, weights, budget):
        k = min(len(masses), len(weights))
        doms = [f"d{i}" for i in range(k)]
        rows = []
        for d, m in zip(doms, masses[:k]):
            rows.append(pd.DataFrame({"dom": [d] * m}))
        pdf = pd.concat(rows, ignore_index=True)
        w = dict(zip(doms, weights[:k]))
        plan = mixture_plan(
            rd.from_pandas(pdf), domain_col="dom", weights=w,
            budget=budget,
        )
        W = sum(w.values())
        mod = plan["bucket_mod"]
        B = plan["total"]
        if budget is not None:
            assert B <= budget
        for d in doms:
            thr = plan["thresholds"][d]
            assert 0 <= thr <= mod  # never upsamples
            # expected kept count is within one row of the exact target
            assert thr == (w[d] * B * mod) // (W * plan["mass"][d])
        if budget is None:
            # B is exactly the largest no-upsampling total (integer
            # truncation means the binding domain's threshold may sit
            # just below bucket_mod, so saturation is NOT guaranteed)
            assert B == min(
                (plan["mass"][d] * W) // w[d] for d in doms
            )

    check()


def test_decontaminate_hashed_and_bloom_parity():
    """The scale modes (8-byte hashes / Bloom bitmap) flag exactly the
    same fixture docs as the oracle-exact string mode, including
    multi-byte UTF-8 text (hashes are per CHARACTER window, not bytes),
    and their broadcast payloads are strictly smaller."""
    import ray.data as rd2

    from arlas_proc_ray.dedup.decontaminate import (
        benchmark_window_payload,
        decontaminate,
    )

    bench = [
        "The quick brown fox jumps over the lazy dog",
        "àéîõü çñ über naïve façade — mixed script bench",
    ]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "prefix The quick brown fox suffix",     # shares a 13-gram
                "completely different words here",       # no overlap
                "short",                                 # < 13 chars: never
                None,
                "xx über naïve façade — mixed yy",       # multi-byte overlap
                "ueber naive facade plain ascii",        # NOT the same chars
            ],
        }
    )
    ds = rd2.from_pandas(docs).repartition(3)
    results = {}
    for mode in ("exact", "hashed", "bloom"):
        results[mode] = (
            decontaminate(ds, bench, n=13, mode=mode)
            .to_pandas().sort_values("doc_id")["contaminated"].tolist()
        )
    assert results["exact"] == [True, False, False, False, True, False]
    assert results["hashed"] == results["exact"]
    # bloom is superset-only; on this fixture the FP rate (~6e-4) makes
    # exact equality overwhelmingly likely — assert it, plus supersetness
    assert results["bloom"] == results["exact"]
    assert all(
        b or not e for b, e in zip(results["bloom"], results["exact"])
    )

    # broadcast-size ordering: bloom < hashed < exact strings
    _, b_exact = benchmark_window_payload(bench, 13, "exact")
    _, b_hashed = benchmark_window_payload(bench, 13, "hashed")
    _, b_bloom = benchmark_window_payload(bench, 13, "bloom")
    assert b_bloom < b_hashed < b_exact
    # hashed is exactly 8 bytes per distinct window
    hv, _ = benchmark_window_payload(bench, 13, "hashed")
    assert b_hashed == 8 * len(hv)


def test_decontaminate_bloom_fp_rate_is_bounded():
    """Random corpus with ZERO true overlap: bloom false-positive DOC
    rate stays under a generous multiple of the per-window bound."""
    import ray.data as rd2

    from arlas_proc_ray.dedup.decontaminate import decontaminate

    rng = np.random.RandomState(11)
    alpha = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    mk = lambda ln: "".join(rng.choice(alpha, ln))
    bench = [mk(500) for _ in range(5)]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(400, dtype=np.int64),
            # digits only -> cannot share an alpha 13-gram
            "text": ["".join(rng.choice(list("0123456789"), 60)) for _ in range(400)],
        }
    )
    out = (
        decontaminate(rd2.from_pandas(docs), bench, n=13, mode="bloom")
        .to_pandas()
    )
    # ~48 windows/doc x 5.7e-4 -> P(doc flagged) ~ 2.7%; allow slack
    assert out["contaminated"].mean() <= 0.15


def test_bigram_collocations_counts_and_lift():
    from arlas_proc_ray.functions.text import bigram_collocations

    docs = [
        "a b a b c",
        "a b x",
        "c a b",
        "",  # empty text → one '' token, no bigrams beyond itself
    ]
    df = pd.DataFrame({"text": docs})
    out = bigram_collocations(
        rd.from_pandas(df).repartition(3), text_col="text",
        min_frac_denom=3,  # n_ab*3 > N_bi → n_ab ≥ 3 here
        num_partitions=2,
    )
    # brute-force oracle
    from collections import Counter

    uni, bi = Counter(), Counter()
    for d in docs:
        toks = d.split(" ")
        uni.update(toks)
        bi.update(zip(toks, toks[1:]))
    n_uni, n_bi = sum(uni.values()), sum(bi.values())
    want = {
        (a, b): (n, float(n * n_uni * n_uni) / float(n_bi * uni[a] * uni[b]))
        for (a, b), n in bi.items()
        if n * 3 > n_bi
    }
    got = {
        (r.w1, r.w2): (int(r.n_ab), float(r.lift)) for r in out.itertuples()
    }
    assert got == want
    assert ("a", "b") in got and got[("a", "b")][0] == 4


def test_compression_ratio_signal_ordering_and_exactness():
    import zlib

    from arlas_proc_ray.functions.text import compression_ratio_fn

    docs = ["ab" * 500, "the quick brown fox jumps over the lazy dog " * 8,
            "", None]
    import numpy as np

    rng = np.random.default_rng(0)
    noise = "".join(chr(33 + int(c)) for c in rng.integers(0, 90, 1000))
    docs.insert(2, noise)
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    out = (
        rd.from_pandas(df).repartition(2)
        .map_batches(compression_ratio_fn("text"), batch_format="pyarrow",
                     batch_size=None)
        .to_pandas()
        .sort_values("doc_id")
    )
    r = out["zlib_ratio"].to_numpy()
    # same-library oracle, value-exact
    for i, t in enumerate(docs):
        if not t:
            assert r[i] == 0.0
        else:
            assert r[i] == len(zlib.compress(t.encode(), 6)) / len(t)
    # ordering: repetition < natural text < random noise
    assert r[0] < r[1] < r[2]


def test_tfidf_top_terms_counts_a_document_split_over_rows_once():
    # doc 7's text spans two rows, in different blocks: it is ONE
    # document for df and its tf sums both rows (the SQL oracle's
    # GROUP BY doc_id), checked against the exact-integer oracle
    import collections
    import re

    from arlas_proc_ray.functions.text import tfidf_top_terms

    rows = [
        (7, "apple banana"),
        (1, "apple cherry cherry"),
        (2, "banana date"),
        (7, "apple fig"),
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    out = (
        tfidf_top_terms(
            rd.from_pandas(df, override_num_blocks=2),
            doc_col="doc_id", text_col="text", k=3, num_partitions=4,
        )
        .to_pandas()
        .sort_values(["doc_id", "tfidf_scaled", "term"],
                     ascending=[True, False, True])
        .reset_index(drop=True)
    )
    tfs: dict = collections.defaultdict(collections.Counter)
    for d, t in rows:
        tfs[d].update(re.findall("[a-z]+", t.lower()))
    dfc: collections.Counter = collections.Counter()
    for c in tfs.values():
        dfc.update(set(c))
    assert dfc["apple"] == 2  # doc 7 counted once
    S = 10**12
    want = []
    for d in sorted(tfs):
        ranked = sorted(
            ((tf * (S // dfc[t]), t, tf) for t, tf in tfs[d].items()),
            key=lambda r: (-r[0], r[1]),
        )[:3]
        want += [(d, t, tf, dfc[t], sc) for sc, t, tf in ranked]
    got = list(
        out[["doc_id", "term", "tf", "df_n", "tfidf_scaled"]].itertuples(
            index=False, name=None
        )
    )
    assert got == want


def test_tfidf_top_terms_exact_scores_ties_and_empties():
    from arlas_proc_ray.functions.text import tfidf_top_terms

    docs = [
        "apple apple banana cherry",   # tf: apple 2
        "banana banana banana apple",  # tf: banana 3
        "cherry date",                 # rare terms -> high idf
        "",                            # no tokens: absent from output
        None,                          # null text: absent from output
        "aa bb cc dd",                 # 4 singleton terms: tie broken by term ASC
    ]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    out = (
        tfidf_top_terms(
            rd.from_pandas(df).repartition(3),
            doc_col="doc_id", text_col="text", k=3, num_partitions=4,
        )
        .to_pandas()
        .sort_values(["doc_id", "tfidf_scaled", "term"],
                     ascending=[True, False, True])
        .reset_index(drop=True)
    )
    # exact python oracle
    import collections

    tfs = [collections.Counter(
        __import__("re").findall("[a-z]+", (t or "").lower())) for t in docs]
    dfc: collections.Counter = collections.Counter()
    for c in tfs:
        dfc.update(set(c))
    S = 10**12
    want = []
    for i, c in enumerate(tfs):
        rows = sorted(
            ((tf * (S // dfc[t]), t, tf) for t, tf in c.items()),
            key=lambda r: (-r[0], r[1]),
        )[:3]
        want += [(i, t, tf, dfc[t], sc) for sc, t, tf in rows]
    got = list(
        out[["doc_id", "term", "tf", "df_n", "tfidf_scaled"]].itertuples(
            index=False, name=None
        )
    )
    assert got == want
    assert 3 not in set(out["doc_id"]) and 4 not in set(out["doc_id"])
    # doc 5's tie resolves lexicographically: aa, bb, cc kept; dd cut
    d5 = out[out["doc_id"] == 5]["term"].tolist()
    assert d5 == ["aa", "bb", "cc"]
