"""Property-based tests (hypothesis) for the hot-path kernels.

These pin the ALGEBRAIC properties the distributed designs rely on:
LWW associativity (the pre-shuffle combiner's correctness condition),
rolling-hash prefix/Horner equivalence, quantize/searchsorted bounds,
partition-id stability, and salted-aggregation invariance.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arlas_proc_ray.cdc.replay import lww_reduce_table
from arlas_proc_ray.functions.hashing import partition_ids
from arlas_proc_ray.functions.text import _all_window_hashes


def _events_table(rows):
    return pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.string()),
            "lsn": pa.array([r[1] for r in rows], pa.int64()),
            "v": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


event_lists = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(0, 1000),
        st.integers(0, 10),
    ),
    min_size=0,
    max_size=40,
)


def _canon(t: pa.Table) -> list:
    rows = sorted(zip(*(t.column(c).to_pylist() for c in ("k", "lsn", "v"))))
    return rows


@settings(max_examples=200, deadline=None)
@given(event_lists, st.integers(0, 39))
def test_lww_combiner_is_associative(rows, split):
    """combine(combine(A) ∪ combine(B)) == combine(A ∪ B) for ANY split —
    the exact property that makes the pre-shuffle combiner correct.
    Ties on (key, lsn) are broken by later physical row, so the property
    requires unique (key, lsn) pairs per stream (guaranteed by LSN
    uniqueness in the real changelog)."""
    seen = set()
    uniq = []
    for r in rows:
        if (r[0], r[1]) not in seen:
            seen.add((r[0], r[1]))
            uniq.append(r)
    rows = uniq
    split = min(split, len(rows))
    whole = lww_reduce_table(_events_table(rows), ["k"], "lsn")
    a = lww_reduce_table(_events_table(rows[:split]), ["k"], "lsn")
    b = lww_reduce_table(_events_table(rows[split:]), ["k"], "lsn")
    partial = lww_reduce_table(
        pa.concat_tables([a, b]) if a.num_rows + b.num_rows else a, ["k"], "lsn"
    )
    assert _canon(whole) == _canon(partial)


def test_lww_without_a_repeated_key_returns_its_input():
    """No key repeats: the combiner keeps every row, and hands back the
    table itself, not a copy; one repeat makes it reduce."""
    t = _events_table([("a", 3, 1), ("b", 1, 2), ("c", 2, 3)])
    out = lww_reduce_table(t, ["k"], "lsn")
    assert out is t
    assert out.to_pydict() == {"k": ["a", "b", "c"], "lsn": [3, 1, 2],
                               "v": [1, 2, 3]}
    dup = _events_table([("a", 3, 1), ("b", 1, 2), ("a", 4, 3)])
    assert lww_reduce_table(dup, ["k"], "lsn").to_pydict() == {
        "k": ["b", "a"], "lsn": [1, 4], "v": [2, 3]}


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=200), st.integers(1, 16))
def test_rolling_hash_equals_horner(data, w):
    """The vectorized inverse-power prefix-sum Karp-Rabin equals the
    textbook Horner evaluation on every window."""
    if len(data) == 0:
        return
    got = _all_window_hashes(data, w)
    wz = min(w, len(data))
    B, MASK = 0x100000001B3, (1 << 64) - 1
    for j in range(len(data) - wz + 1):
        h = 0
        for i in range(wz):
            h = (h * B + data[j + i]) & MASK
        assert int(got[j]) == h


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50),
)
def test_quantize_bounds_and_monotonicity(values):
    from arlas_proc_ray.stages.ml import HmmModel, STILLMOVE_MODEL_JSON

    m = HmmModel.from_json(STILLMOVE_MODEL_JSON)
    bins = m.quantize(np.asarray(values, np.float64))
    n_bins = m.log_emit.shape[1]
    assert ((bins >= 0) & (bins < n_bins)).all()
    order = np.argsort(values, kind="stable")
    assert (np.diff(bins[order]) >= 0).all()  # monotone in the observation


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.text(min_size=0, max_size=8), min_size=1, max_size=30),
    st.integers(1, 64),
)
def test_partition_ids_stable_and_bounded(keys, P):
    t = pa.table({"k": pa.array(keys, pa.string())})
    p1 = partition_ids(t, ["k"], P)
    p2 = partition_ids(t, ["k"], P)
    assert (p1 == p2).all()
    assert ((p1 >= 0) & (p1 < P)).all()
    # BYTE-equal keys land in equal partitions. (Grouping by encoded bytes:
    # pandas' object-str hashtable uses C-string semantics and merges keys
    # differing only by NUL bytes — bytes objects hash exactly, matching
    # partition_ids / Arrow / DuckDB equality. The engine's partition fns
    # group byte-exactly too via byte_exact_group_cols.)
    df = pd.DataFrame({"k": keys, "p": p1})
    by_bytes = df.groupby(df["k"].str.encode("utf-8"))["p"]
    assert (by_bytes.nunique() == 1).all()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["x", "y", "z"]), st.integers(0, 50)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 6),
)
def test_salted_partials_merge_to_exact_counts(rows, salt):
    """Splitting a key's rows across ANY salt assignment and re-merging
    partial counts gives the exact per-key count (the salted_aggregate
    correctness condition for count-like partials)."""
    df = pd.DataFrame(rows, columns=["k", "v"])
    rng = np.random.RandomState(0)
    salts = rng.randint(0, salt, len(df))
    partials = (
        df.assign(s=salts).groupby(["k", "s"]).size().reset_index(name="n")
    )
    merged = partials.groupby("k")["n"].sum()
    exact = df.groupby("k").size()
    pd.testing.assert_series_equal(
        merged.sort_index(), exact.sort_index(), check_names=False
    )


@settings(max_examples=6, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.lists(st.integers(1, 799), min_size=1, max_size=4),
    st.booleans(),
)
def test_cdc_exactly_once_under_random_epoch_splits(seed, cuts, redeliver):
    """END-TO-END property: for ANY way of cutting the changelog into
    epochs — with or without full redelivery of every prior epoch — the
    engine's final state equals the pure-Python oracle's full replay."""
    import ray.data as rd
    import tempfile

    from arlas_proc_ray.cdc import (
        ChangelogConfig,
        CdcEngine,
        generate_changelog_tables,
        oracle_final_state,
    )
    from arlas_proc_ray.model import DataModel

    cfg = ChangelogConfig(num_events=800, num_keys=120, seed=seed % 100_000,
                          delete_prob=0.2)
    bounds = sorted({min(c, cfg.num_events) for c in cuts} | {cfg.num_events})
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()

    with tempfile.TemporaryDirectory() as d:
        eng = CdcEngine(d, DataModel(num_partitions=4))
        lo = 0
        for e, hi in enumerate(bounds, start=1):
            start = 0 if redeliver else lo  # at-least-once: resend history
            if hi <= lo and not redeliver:
                continue
            eng.apply_epoch(
                rd.from_arrow(generate_changelog_tables(cfg, start, hi)), e
            )
            lo = hi
        got = (
            eng.final_state()
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)[list(exp.columns)]
        )
    pd.testing.assert_frame_equal(got, exp)


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=0, max_size=300))
def test_oph_signature_bins_hold_true_minima(text):
    """One-permutation-hashing invariants: every non-empty bin carries the
    true minimum of its shingle hashes; empty bins are densified from the
    next non-empty bin (cyclic) plus the rotation distance; the signature
    is deterministic."""
    from arlas_proc_ray.dedup.minhash import MinHasher, _shingle_hashes

    mh = MinHasher(num_perm=32, bands=8, algo="oph")
    sig1 = mh.signature(text)
    sig2 = mh.signature(text)
    assert (sig1 == sig2).all()
    assert len(sig1) == 32

    sh = _shingle_hashes(text, mh.ngram)
    k = np.uint64(32)
    if len(sh) == 0:
        assert (sig1 == 0).all()
        return
    bins = (sh % k).astype(np.int64)
    for b in range(32):
        members = sh[bins == b]
        if len(members):
            assert sig1[b] == members.min()
        else:
            # densified: source bin is the next non-empty to the right
            # (cyclic); value = its min + distance (mod 2^64)
            nonempty = sorted(set(bins.tolist()))
            src = next(
                (c for c in list(range(b, 32)) + list(range(0, b)) if c in nonempty)
            )
            dist = (src - b) % 32
            exp = (int(sh[bins == src].min()) + dist) % (1 << 64)
            assert int(sig1[b]) == exp


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(
                alphabet=st.sampled_from(["\x00", "a", "b", "\x01", "é"]),
                min_size=0, max_size=4,
            ),
            st.integers(0, 50),
            st.floats(-100, 100, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
        unique_by=lambda r: (r[0], r[1]),
    ),
    st.integers(1, 8),
)
def test_keyed_duration_byte_exact_vs_pandas_oracle(rows, P):
    """END-TO-END fuzz: with_duration over ARBITRARY keys (NUL bytes,
    control chars, unicode) equals a byte-exact pandas oracle grouped on
    utf-8-encoded keys, for any partition count."""
    import ray.data as rd

    from arlas_proc_ray.stages.keyed import with_duration

    df = pd.DataFrame(rows, columns=["k", "seq", "ts"])
    got = (
        with_duration(
            rd.from_pandas(df), keys=["k"], order_col="seq", ts_col="ts",
            num_partitions=P,
        )
        .to_pandas()
        .sort_values(["k", "seq"], key=lambda s: s.map(repr) if s.dtype == object else s)
        .reset_index(drop=True)
    )
    exp = df.sort_values(
        ["k", "seq"], key=lambda s: s.map(repr) if s.dtype == object else s
    ).reset_index(drop=True)
    enc = exp["k"].str.encode("utf-8")
    exp["duration_s"] = exp["ts"] - exp.groupby(enc, sort=False)["ts"].shift(1)
    pd.testing.assert_series_equal(
        got["duration_s"], exp["duration_s"], check_names=False
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_states=st.integers(2, 4),
    n_bins=st.integers(2, 5),
    n_keys=st.integers(1, 4),
    run_len=st.integers(1, 40),
)
@example(
    seed=17971,
    n_states=2,
    n_bins=2,
    n_keys=2,
    run_len=35,
).via('discovered failure')
def test_viterbi_sql_builder_matches_numpy(seed, n_states, n_bins, n_keys, run_len):
    """The recursive-CTE Viterbi builder (pipelines/queries.py:_viterbi_sql)
    must decode EXACTLY like HmmModel.viterbi for arbitrary model shapes —
    random probabilities, random observation sequences, multiple keys."""
    import json

    import duckdb

    from arlas_proc_ray.pipelines.queries import _bin_case, _emit_case, _viterbi_sql
    from arlas_proc_ray.stages.ml import HmmModel

    rng = np.random.default_rng(seed)

    def norm(x):
        x = x + 1e-3  # keep strictly positive
        return (x / x.sum(axis=-1, keepdims=True)).tolist()

    edges = np.sort(rng.uniform(0, 100, size=n_bins - 1)).tolist()
    spec = {
        "states": [f"S{i}" for i in range(n_states)],
        "bin_edges": [0.0] + edges + [1e12],
        "initial": norm(rng.random(n_states)),
        "transition": norm(rng.random((n_states, n_states))),
        "emission": norm(rng.random((n_states, n_bins))),
    }
    mj = json.dumps(spec)
    model = HmmModel.from_json(mj)

    obs = rng.uniform(0, 110, size=n_keys * run_len)
    df = pd.DataFrame(
        {
            "event_id": np.arange(len(obs)),
            "user_id": np.repeat(np.arange(n_keys), run_len),
            "value": obs,
        }
    )

    # numpy decode per key
    exp_states = np.empty(len(df), dtype=object)
    for uid, grp in df.groupby("user_id"):
        bins = model.quantize(grp["value"].to_numpy())
        exp_states[grp.index] = np.asarray(model.states)[model.viterbi(bins)]

    emits = ", ".join(
        f"{_emit_case(mj, s)} AS e{s}" for s in range(n_states)
    )
    em_cte = f"""obs AS (
      SELECT event_id, user_id, value,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS t,
             {_bin_case(mj, "value")} AS bin
      FROM events
    ),
    em AS (SELECT *, {emits} FROM obs)"""
    final = """
    SELECT o.event_id, s.vit_state
    FROM obs o JOIN vit s ON s.user_id = o.user_id AND s.t = o.t
    """
    sql = _viterbi_sql(mj, key="user_id", order="event_id",
                       em_cte=em_cte, final_select=final)
    con = duckdb.connect()
    con.register("events", df)
    got = con.execute(sql).df().sort_values("event_id")
    assert got["vit_state"].tolist() == exp_states.tolist()


@settings(max_examples=8, deadline=None)
@given(
    lkeys=st.lists(
        st.text(alphabet="ab\x00", min_size=0, max_size=2), min_size=1,
        max_size=12,
    ),
    rkeys=st.lists(
        st.text(alphabet="ab\x00", min_size=0, max_size=2), min_size=0,
        max_size=12,
    ),
    how=st.sampled_from(["inner", "left", "right", "outer", "semi", "anti"]),
    P=st.integers(1, 4),
)
def test_equi_join_all_modes_match_duckdb(lkeys, rkeys, how, P):
    """Every join mode, byte-exact on NUL-laden keys, vs DuckDB."""
    import duckdb
    import ray.data as rd

    from arlas_proc_ray.stages.joins import equi_join

    left = pd.DataFrame({"k": lkeys, "x": np.arange(len(lkeys))})
    right = pd.DataFrame(
        {"k": rkeys, "y": np.arange(len(rkeys)) * 10}
    )
    out = equi_join(
        rd.from_pandas(left),
        rd.from_pandas(right) if len(right) else rd.from_pandas(
            pd.DataFrame({"k": pd.Series([], dtype=object),
                          "y": pd.Series([], dtype=np.int64)})
        ),
        on=["k"], right_cols=[] if how in ("semi", "anti") else ["y"],
        how=how, num_partitions=P,
    ).to_pandas()

    con = duckdb.connect()
    # explicit Arrow types: an EMPTY object column would register as
    # DOUBLE and break the VARCHAR coalesce
    con.register("l", pa.table({"k": pa.array(lkeys, pa.string()),
                                "x": pa.array(left["x"])}))
    con.register("r", pa.table({"k": pa.array(rkeys, pa.string()),
                                "y": pa.array(right["y"])}))
    sql = {
        "inner": "SELECT l.k, l.x, r.y FROM l JOIN r USING (k)",
        "left": "SELECT l.k, l.x, r.y FROM l LEFT JOIN r USING (k)",
        "right": "SELECT coalesce(l.k, r.k) AS k, l.x, r.y "
                 "FROM l RIGHT JOIN r ON l.k = r.k",
        "outer": "SELECT coalesce(l.k, r.k) AS k, l.x, r.y "
                 "FROM l FULL OUTER JOIN r ON l.k = r.k",
        "semi": "SELECT k, x FROM l WHERE EXISTS "
                "(SELECT 1 FROM r WHERE r.k = l.k)",
        "anti": "SELECT k, x FROM l WHERE NOT EXISTS "
                "(SELECT 1 FROM r WHERE r.k = l.k)",
    }[how]
    exp = con.execute(sql).df()

    cols = sorted(exp.columns)
    assert len(out) == len(exp)
    if len(exp) == 0:
        return
    g = out[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    e = exp[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, e, check_dtype=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 20))
def test_ntile_integer_formula_matches_sql_semantics(n, k):
    """The q_value_ntile bucket formula must reproduce SQL NTILE exactly
    for EVERY n (front-loaded larger buckets), not just k | n."""
    q, rem = divmod(n, k)
    cut = rem * (q + 1)
    r0 = np.arange(n)
    big = r0 // (q + 1) + 1
    small = rem + (r0 - cut) // max(q, 1) + 1
    mine = np.where(r0 < cut, big, small)
    # reference: first n%k buckets hold q+1 rows, the rest q rows
    sizes = [q + 1] * rem + [q] * (k - rem)
    ref = np.repeat(np.arange(1, k + 1), sizes)
    assert (mine == ref).all()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 20000), min_size=1, max_size=60),
    st.integers(1, 10),
)
def test_window_sum_cumsum_difference_matches_rolling(cents, w):
    """The cumsum-difference windowed sum (moving_avg_value /
    rolling_zscore_anomaly kernel) equals pandas' rolling sum."""
    s = pd.Series(cents, dtype="int64")
    cs = s.cumsum()
    wsum = (cs - cs.shift(w).fillna(0)).astype("int64")
    ref = s.rolling(w, min_periods=1).sum().astype("int64")
    assert (wsum == ref).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 20000), min_size=1, max_size=40))
def test_integer_zscore_decision_matches_float(cents):
    """(c·n−S₁)² > 4(n·S₂−S₁²) over the trailing-8 frame must agree with
    the float |x−mean| > 2σ_pop decision away from exact-boundary ties
    (the integer form exists precisely to pin those ties exactly)."""
    c = np.asarray(cents, dtype=np.int64)
    W = 8
    for i in range(len(c)):
        lo = max(0, i - W + 1)
        win = c[lo : i + 1]
        n = len(win)
        s1, s2 = int(win.sum()), int((win * win).sum())
        lhs = (int(c[i]) * n - s1) ** 2
        rhs = 4 * (n * s2 - s1 * s1)
        mean = win.mean()
        var = ((win - mean) ** 2).mean()
        f_lhs, f_rhs = (c[i] - mean) ** 2, 4 * var
        if not np.isclose(f_lhs, f_rhs, rtol=1e-9, atol=1e-9):
            assert (lhs > rhs) == (f_lhs > f_rhs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 500), st.integers(0, 10)),
        min_size=3,
        max_size=80,
    ),
    st.integers(1, 6),
)
def test_group_correlation_partials_merge_exactly(rows, nsplit):
    """group_correlation's moment partials are associative: any batch
    split merges to the same exact moments, and the finalize matches
    numpy's corrcoef within float tolerance (exact-int path vs float
    accumulation)."""
    import math

    df = pd.DataFrame(rows, columns=["g", "x", "y"])
    # exact moments per group from ANY split
    moments = {}
    for i in range(nsplit):
        part = df.iloc[i::nsplit]
        if part.empty:
            continue
        for g, sub in part.groupby("g"):
            m = moments.setdefault(g, [0, 0, 0, 0, 0, 0])
            m[0] += len(sub)
            m[1] += int(sub["x"].sum())
            m[2] += int(sub["y"].sum())
            m[3] += int((sub["x"] * sub["y"]).sum())
            m[4] += int((sub["x"] * sub["x"]).sum())
            m[5] += int((sub["y"] * sub["y"]).sum())
    for g, sub in df.groupby("g"):
        n, sx, sy, sxy, sxx, syy = moments[g]
        assert n == len(sub) and sx == sub["x"].sum() and sy == sub["y"].sum()
        num = n * sxy - sx * sy
        vx, vy = n * sxx - sx * sx, n * syy - sy * sy
        if vx > 0 and vy > 0:
            mine = float(num) / math.sqrt(float(vx) * float(vy))
            ref = np.corrcoef(sub["x"], sub["y"])[0, 1]
            assert abs(mine - ref) < 1e-9


# --------------------------------------------------------------------------
# table-constraint evaluation (cdc/constraints.py): the vectorized
# violation_reasons must agree with a row-at-a-time SQL-CHECK reference
# on arbitrary batches — null operands pass comparisons, not_null rejects
# them, DELETE exempt, PATCH exempt from not_null only, first violated
# constraint (insertion order) names the reason.
# --------------------------------------------------------------------------

constraint_rows = st.lists(
    st.tuples(
        st.sampled_from(["INSERT", "UPDATE", "DELETE", "PATCH"]),
        st.one_of(st.none(), st.sampled_from(["py", "md", "rs"])),
        st.one_of(st.none(), st.integers(-5, 5)),
    ),
    min_size=0,
    max_size=30,
)


@given(constraint_rows)
@settings(max_examples=60, deadline=None)
def test_violation_reasons_matches_rowwise_reference(rows):
    from arlas_proc_ray.cdc.constraints import violation_reasons

    t = pa.table(
        {
            "op": pa.array([r[0] for r in rows], pa.string()),
            "language": pa.array([r[1] for r in rows], pa.string()),
            "content_size": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    constraints = {
        "no_md": [("language", "!=", "md")],
        "size_pos": [("content_size", ">=", 0),
                     ("content_size", "not_null")],
    }
    got = list(violation_reasons(t, constraints))

    def ref(op, lang, size):
        if op == "DELETE":
            return None
        # no_md: strictly false only when lang == 'md' (null passes)
        if lang is not None and lang == "md":
            return "check:no_md"
        # size_pos: conjunction false when size < 0, or size null and
        # not PATCH (not_null clause; PATCH exempt from not_null)
        if size is not None and size < 0:
            return "check:size_pos"
        if size is None and op != "PATCH":
            return "check:size_pos"
        return None

    want = [ref(*r) for r in rows]
    assert got == want


# ---------------------------------------------------------- epoch sizing

@given(
    st.integers(min_value=1, max_value=10**14),
    st.integers(min_value=1, max_value=10**14),
)
@settings(max_examples=300, deadline=None)
def test_epoch_plan_is_memory_admissible(epoch_bytes, budget):
    """plan_epoch_chunks' decision always satisfies its own memory model:
    single → 4·b ≤ allow; inmem → pinned(1) + chunk(1/K) + exchange(4/K)
    ≤ allow; scratch → 4·b/K ≤ allow (allow = HEADROOM × budget)."""
    from arlas_proc_ray.cdc.sizing import (
        AMPLIFICATION,
        HEADROOM,
        plan_epoch_chunks,
    )

    p = plan_epoch_chunks(epoch_bytes, budget)
    allow = budget * HEADROOM
    assert p.chunks >= 1
    if p.strategy == "single":
        assert p.chunks == 1
        assert AMPLIFICATION * epoch_bytes <= allow
    elif p.strategy == "inmem":
        assert p.chunks >= 2
        assert epoch_bytes * (1 + (AMPLIFICATION + 1) / p.chunks) <= allow
    else:
        assert p.strategy == "scratch"
        assert AMPLIFICATION * epoch_bytes / p.chunks <= allow


@given(
    st.lists(
        st.lists(
            st.integers(min_value=-(2**40), max_value=2**40),
            min_size=0, max_size=40,
        ),
        min_size=1, max_size=6,
    ),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_lsn_chunks_partition_exactly(ray_session, blocks, k):
    """LSN-range chunking (cdc/sizing.py) partitions ARBITRARY block
    layouts exactly once — heavy ties, negative LSNs, empty blocks,
    pre-sorted and adversarial orders — and later chunks carry strictly
    higher LSNs than earlier ones (the per-partition fence contract)."""
    import ray

    from arlas_proc_ray.cdc.sizing import lsn_cutpoints, lsn_range_refs

    tables = [
        pa.table({"lsn": pa.array(b, pa.int64()),
                  "v": pa.array(list(range(len(b))), pa.int64())})
        for b in blocks
    ]
    refs = [ray.put(t) for t in tables]
    cuts = lsn_cutpoints(refs, k)
    assert cuts == sorted(cuts) and len(set(cuts)) == len(cuts)
    bounds = [None, *cuts, None]
    all_lsns = np.concatenate(
        [np.asarray(b, np.int64) for b in blocks]
    ) if any(blocks) else np.array([], np.int64)
    seen = []
    prev_max = None
    for i in range(len(bounds) - 1):
        chunk = pa.concat_tables(
            ray.get(lsn_range_refs(refs, bounds[i], bounds[i + 1]))
        )
        vals = chunk.column("lsn").to_numpy(zero_copy_only=False)
        seen.append(vals)
        if len(vals):
            if prev_max is not None:
                assert vals.min() > prev_max
            prev_max = vals.max()
    got = np.sort(np.concatenate(seen)) if seen else np.array([], np.int64)
    assert np.array_equal(got, np.sort(all_lsns))


@given(
    vals=st.lists(st.integers(-500, 500), min_size=1, max_size=120),
    ref=st.integers(-50, 50),
    h=st.integers(1, 400),
)
@settings(max_examples=120, deadline=None)
def test_cusum_closed_form_matches_page_recurrence(vals, ref, h):
    """The vectorized closed form s = c − min(0, running-min c) used by
    stages/windows.py:cusum_alarm_points equals the literal Page
    recurrence s_i = max(0, s_{i−1} + d_i), alarm for alarm."""
    v = np.asarray(vals, dtype=np.int64)
    d = v - ref
    c = np.cumsum(d)
    rmin = np.minimum.accumulate(c)
    s_closed = c - np.minimum(rmin, 0)
    prev = np.concatenate([[0], s_closed[:-1]])
    fired_closed = (s_closed > h) & (prev <= h)

    s, armed, fired_loop = 0, False, np.zeros(len(v), dtype=bool)
    for i, di in enumerate(d):
        s = max(0, s + int(di))
        fired_loop[i] = s > h and not armed
        armed = s > h
    assert np.array_equal(fired_closed, fired_loop)
    assert (s_closed >= 0).all()


@given(
    seqs=st.lists(
        st.lists(st.integers(0, 20000), min_size=1, max_size=30),
        min_size=1,
        max_size=8,
    ),
    d=st.sampled_from([2, 4, 8, 16]),
)
@settings(max_examples=80, deadline=None)
def test_ema_jagged_scan_matches_sequential_loop(seqs, d):
    """stages/windows.py:ema_last's position-wise jagged scan equals the
    per-key sequential integer recurrence, key for key."""
    from arlas_proc_ray.stages.windows import ema_last
    import ray.data as rd

    rows = []
    for uid, seq in enumerate(seqs):
        rows.extend((uid, i, v) for i, v in enumerate(seq))
    df = pd.DataFrame(rows, columns=["uid", "seq", "v"])
    out = (
        ema_last(
            rd.from_pandas(df).repartition(3),
            key_col="uid", order_col="seq", value_int_col="v",
            alpha_denom=d, num_partitions=2,
        )
        .to_pandas()
        .set_index("uid")
    )
    for uid, seq in enumerate(seqs):
        s = seq[0]
        for v in seq[1:]:
            s = ((d - 1) * s + v + d // 2) // d
        assert int(out.loc[uid, "ema"]) == s
        assert int(out.loc[uid, "n_events"]) == len(seq)


@given(
    gaps=st.lists(st.integers(0, 8), min_size=1, max_size=60),
    nkeys=st.integers(1, 4),
    w=st.integers(1, 20),
)
@settings(max_examples=40, deadline=None)
def test_trailing_range_window_matches_bruteforce(gaps, nkeys, w):
    """stages/windows.py:trailing_range_agg (lifted-axis searchsorted)
    equals the brute-force per-row [ts−w, ts] filter, peers included."""
    import ray.data as rd

    from arlas_proc_ray.stages.windows import trailing_range_agg

    rows, seq = [], 0
    for uid in range(nkeys):
        t = 0
        for gi, g in enumerate(gaps):
            t += g * 1000
            rows.append((uid, seq, t, (seq % 7) + 1))
            seq += 1
    df = pd.DataFrame(rows, columns=["uid", "seq", "tus", "v"])
    df["ts"] = pd.to_datetime(df["tus"], unit="us")
    W = w * 1000
    out = (
        trailing_range_agg(
            rd.from_pandas(df).repartition(3), key_col="uid", ts_col="ts",
            order_col="seq", value_int_col="v", window_us=W,
            num_partitions=2,
        )
        .to_pandas()
        .set_index("seq")
    )
    for r in df.itertuples():
        m = df[(df.uid == r.uid) & (df.tus >= r.tus - W) & (df.tus <= r.tus)]
        assert int(out.loc[r.seq, "trailing_n"]) == len(m)
        assert int(out.loc[r.seq, "trailing_sum"]) == int(m["v"].sum())


@given(st.lists(st.integers(0, 10**6), min_size=0, max_size=300, unique=True))
@settings(max_examples=60, deadline=None)
def test_merge_inversion_count_matches_bruteforce(seq):
    from arlas_proc_ray.pipelines.queries import _count_inversions

    a = np.asarray(seq, dtype=np.int64)
    want = sum(
        1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j]
    )
    assert _count_inversions(a) == want


@given(st.lists(st.integers(-20, 20), min_size=0, max_size=200))
@settings(max_examples=40, deadline=None)
def test_inversion_count_handles_ties_and_negatives(seq):
    """Ties are NOT inversions; the stable rank-compress must keep it
    that way (and keep arbitrary int ranges from overflowing the
    segment offsets)."""
    from arlas_proc_ray.pipelines.queries import _count_inversions

    a = np.asarray(seq, dtype=np.int64)
    want = sum(
        1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j]
    )
    assert _count_inversions(a) == want


def test_leaderboard_finalize_1m_keys():
    """Driver-finalize cardinality contract (q_rrf/gini/spearman/
    kendall docstrings): the entity-sized finalizes must handle 10⁶
    DISTINCT keys comfortably. Pins (a) the level-vectorized inversion
    count — exact on a 10⁶ permutation via the complement identity
    inv(a) + inv(reverse(a)) = C(n,2), finishing in seconds, not the
    minutes the per-segment Python loop took — and (b) the rrf/gini
    rank arithmetic at the same scale against closed forms."""
    import time

    from arlas_proc_ray.pipelines.queries import _count_inversions

    n = 1_000_000
    rng = np.random.default_rng(17)
    a = rng.permutation(n)
    t0 = time.perf_counter()
    i1 = _count_inversions(a)
    i2 = _count_inversions(a[::-1].copy())
    took = time.perf_counter() - t0
    assert i1 + i2 == n * (n - 1) // 2
    assert 0 < i1 < n * (n - 1) // 2
    assert took < 60, took  # generous CI bound; ~6 s measured
    assert _count_inversions(np.arange(n)) == 0
    assert _count_inversions(np.arange(n)[::-1].copy()) == n * (n - 1) // 2

    # rrf + gini finalize arithmetic at 10^6 keys vs closed forms:
    # spend ranks are a permutation; with x_(i) = i (cents, ascending)
    # G = (2*sum i*i)/(n*sum x) - (n+1)/n has an exact closed form
    r1 = np.arange(1, n + 1, dtype=np.int64)
    r2 = rng.permutation(n).astype(np.int64) + 1
    rrf = 1.0 / (60 + r1) + 1.0 / (60 + r2)
    assert len(rrf) == n and np.isfinite(rrf).all()
    x = np.arange(1, n + 1, dtype=np.int64)  # sorted ascending cents
    num = 2 * int((x * np.arange(1, n + 1, dtype=np.int64)).sum())
    den = n * int(x.sum())
    g = float(num) / float(den) - float(n + 1) / float(n)
    want = 2.0 * (2 * n + 1) / (3.0 * n) - float(n + 1) / float(n)
    assert abs(g - want) < 1e-12
