"""keyed_partition_map's exchange against a per-key pandas reference.

``keyed_partition_map`` runs the package's one keyed exchange
(``arlas_proc_ray/exchange.py``). Every case here is compared with
``_sort_reference``, built in the test: the frame sorted by (key, order)
and the partition fn applied to each key's rows on its own, which is what
a fn vectorized across keys must reproduce on a partition of many keys.
Keys are separated byte-exactly (``''``, ``'\\x00'`` and NUL-embedded
keys stay distinct). The exchange hands a group that received no rows to
the fn as 0-row input; the run_collapse_fn regression here reproduced as
a KeyError in the tempo_proportion_collapse sweep before the fix in
stages/summarize.py (empty input must emit the rest∪agg column set).

Partition fns are built INSIDE the tests (closures) so Ray pickles them
by value — a module-level fn would pickle as a reference to this test
module, which worker processes cannot import.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.stages.keyed import keyed_partition_map


def _fixture(n=500, keys=7, seed=3):
    rng = np.random.default_rng(seed)
    key_pool = [f"k{i}" for i in range(keys - 1)] + ["nul\x00key"]
    return pd.DataFrame(
        {
            "k": rng.choice(key_pool, size=n),
            "o": rng.permutation(n).astype("int64"),
            "v": rng.integers(-1000, 1000, size=n).astype("int64"),
        }
    )


def _canon(out: pd.DataFrame) -> pd.DataFrame:
    return out.sort_values(list(out.columns), kind="mergesort").reset_index(
        drop=True
    )


def _sort_reference(pdf: pd.DataFrame, fns) -> pd.DataFrame:
    """Each key's rows alone, sorted by (k, o) before every fn, through
    the chain; the per-key results concatenated and typed as Arrow would
    type them."""
    outs = []
    for key in dict.fromkeys(pdf["k"].tolist()):
        part = pdf[(pdf["k"] == key).to_numpy()]
        for f in fns:
            part = f(part.sort_values(["k", "o"], kind="mergesort")
                     .reset_index(drop=True))
        outs.append(part)
    out = pd.concat(outs, ignore_index=True)
    table = pa.Table.from_pandas(out, preserve_index=False)
    return _canon(table.replace_schema_metadata(None).to_pandas())


def _run(pdf, fn, num_partitions, blocks=4):
    out = keyed_partition_map(
        rd.from_pandas(pdf, override_num_blocks=blocks),
        keys=["k"],
        order_col="o",
        fn=fn,
        num_partitions=num_partitions,
    ).to_pandas()
    return _canon(out)


def _make_fn(kind: str):
    if kind == "agg":

        def fn(pdf: pd.DataFrame) -> pd.DataFrame:
            g = pdf.groupby("k", sort=False)["v"]
            out = g.agg(total="sum", n="count").reset_index()
            out["n"] = out["n"].astype("int64")
            return out

    else:

        def fn(pdf: pd.DataFrame) -> pd.DataFrame:
            # event-sized output: per-row delta within the sorted key run
            prev = pdf.groupby("k", sort=False)["v"].shift(1).fillna(0)
            return pd.DataFrame(
                {
                    "k": pdf["k"],
                    "o": pdf["o"].to_numpy(np.int64),
                    "delta": (pdf["v"] - prev).to_numpy(np.int64),
                }
            )

    return fn


@pytest.mark.parametrize("kind", ["agg", "rowwise"])
def test_staged_matches_sort(kind):
    pdf = _fixture()
    fn = _make_fn(kind)
    pd.testing.assert_frame_equal(
        _run(pdf, fn, num_partitions=8), _sort_reference(pdf, [fn])
    )


@pytest.mark.parametrize("kind", ["agg", "rowwise"])
def test_staged_empty_partitions_match_sort(kind):
    # P ≫ distinct keys: most partitions, and some whole groups, receive
    # no rows; the result must still equal the per-key reference
    pdf = _fixture(n=60, keys=3)
    fn = _make_fn(kind)
    pd.testing.assert_frame_equal(
        _run(pdf, fn, num_partitions=64), _sort_reference(pdf, [fn])
    )


def test_collapse_empty_partition_schema_regression():
    # run_collapse_fn(passthrough=False) on 0-row input must emit the
    # aggregated column set, not the input schema — a group with no rows
    # makes this reachable (tempo_proportion_collapse KeyError)
    from arlas_proc_ray.stages.summarize import run_collapse_fn

    pdf = _fixture(n=40, keys=2)
    pdf["w"] = np.abs(pdf["v"]) + 1

    collapse = run_collapse_fn(
        keys=["k"],
        order_col="o",
        group_col="k",
        condition=lambda p: pd.Series(True, index=p.index),
        agg={
            "v_w": ("v", "wmean", "w"),
            "n_events": ("o", "count"),
            "w_total": ("w", "sum"),
        },
        passthrough=False,
    )

    def finish(p: pd.DataFrame) -> pd.DataFrame:
        # touches the agg columns — KeyErrors if an empty partition
        # leaked the input schema
        p = collapse(p)
        p["n_events"] = p["n_events"].astype("int64")
        return p

    got = _run(pdf, finish, num_partitions=32)
    pd.testing.assert_frame_equal(got, _sort_reference(pdf, [finish]))
    assert {"v_w", "n_events", "w_total"} <= set(got.columns)


def test_chain_fused_staged_matches_sort():
    # a fused chain re-sorts before every fn, as the per-key reference does
    pdf = _fixture(n=300, keys=5)

    def lag_fn(p):
        p = p.copy()
        p["v_lag"] = p.groupby("k", sort=False)["v"].shift(1).fillna(0).astype("int64")
        return p

    def cum_fn(p):
        p = p.copy()
        p["v_cum"] = p.groupby("k", sort=False)["v"].cumsum().astype("int64")
        return p

    out = keyed_partition_map(
        rd.from_pandas(pdf, override_num_blocks=3),
        keys=["k"],
        order_col="o",
        chain=[lag_fn, cum_fn],
        num_partitions=16,
    ).to_pandas()
    pd.testing.assert_frame_equal(
        _canon(out), _sort_reference(pdf, [lag_fn, cum_fn])
    )


def test_keyed_exchange_makes_bxg_objects_and_g_group_tasks(monkeypatch):
    """keyed_partition_map splits each of its B blocks into one
    ``(first_partition, table, bounds)`` object per group — B×G objects,
    not B×P — and runs one task per group: each object is one
    single-chunk table sorted by partition, whose bounds cover its rows
    once, and whose view of a partition holds exactly that block's rows
    hashed there. Its result has one block per group."""
    import ray

    from arlas_proc_ray import exchange
    from arlas_proc_ray.functions.hashing import partition_ids

    P, B = 16, 4
    pdf = _fixture(n=400, keys=40)
    blocks = [pa.Table.from_pandas(b, preserve_index=False)
              for b in np.array_split(pdf, B)]
    received = {}
    run_groups = exchange.run_groups

    def capture(body, groups, inputs):
        for grp, refs in zip(groups, inputs):
            received[grp] = ray.get(list(refs))
        return run_groups(body, groups, inputs)

    monkeypatch.setattr(exchange, "run_groups", capture)
    out = keyed_partition_map(
        rd.from_arrow(blocks), keys=["k"], order_col="o",
        fn=_make_fn("agg"), num_partitions=P,
    )
    groups = exchange.session_groups(P)
    assert 1 < len(groups) < P  # the test session has 4 CPUs
    assert list(received) == groups
    assert out.num_blocks() == len(groups)
    for grp, inputs in received.items():
        assert len(inputs) == B  # one object per block and group
        for (first, table, bounds), block in zip(inputs, blocks):
            assert first == grp.start and len(bounds) == len(grp) + 1
            assert all(c.num_chunks == 1 for c in table.columns)
            assert bounds[0] == 0 and bounds[-1] == table.num_rows
            pids = partition_ids(block, ["k"], P)
            for p in grp:
                (view,) = exchange.partition_views([(first, table, bounds)], p)
                want = block.filter(pa.array(pids == p))
                assert view.equals(want.replace_schema_metadata(None)), p
    pd.testing.assert_frame_equal(
        _canon(out.to_pandas()), _sort_reference(pdf, [_make_fn("agg")])
    )


from hypothesis import given, settings
from hypothesis import strategies as st

_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "", "\x00", "a\x00b", "long-key-ü"]),
        st.integers(0, 10_000),
        st.integers(-(2**40), 2**40),
        st.sampled_from(["", "x", "\x00y", None]),
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=8, deadline=None)
@given(_rows)
def test_staged_parity_property(rows):
    # random frames: byte-exact string keys (NULs, empties, unicode),
    # nullable object payloads, duplicate (k, o) pairs — the exchange
    # must agree with the per-key reference after a stable per-key
    # aggregation; an input with no rows runs the fn once on 0 rows
    pdf = pd.DataFrame(rows, columns=["k", "o", "v", "s"])
    pdf["k"] = pdf["k"].astype(object)
    pdf["o"] = pdf["o"].astype("int64")
    pdf["v"] = pdf["v"].astype("int64")

    def fn(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby("k", sort=False)
        out = pd.DataFrame(
            {
                "total": g["v"].sum(),
                "n": g["v"].count().astype("int64"),
                "first_s": g["s"].first(),
            }
        ).reset_index()
        return out

    if len(pdf) == 0:
        ds = keyed_partition_map(
            rd.from_pandas(pdf), keys=["k"], order_col="o", fn=fn,
            num_partitions=16,
        )
        assert ds.count() == 0
        assert ds.schema().names == ["k", "total", "n", "first_s"]
        return
    pd.testing.assert_frame_equal(
        _run(pdf, fn, num_partitions=16), _sort_reference(pdf, [fn])
    )
