"""Fused keyed-operator chains: one shuffle, identical results."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from arlas_proc_ray.stages import keyed
from arlas_proc_ray.stages.keyed import keyed_partition_map, state_id_fn


def _fixture() -> pd.DataFrame:
    rng = np.random.RandomState(3)
    n = 2000
    return pd.DataFrame(
        {
            "id": rng.choice([f"k{i}" for i in range(40)], n),
            "seq": rng.permutation(n),
            "v": rng.randint(0, 5, n).astype(float),
        }
    )


def test_chain_matches_sequential(monkeypatch):
    # closures (not module-level fns): workers can't import the test module
    def lag_fn(pdf):
        pdf["v_lag"] = pdf.groupby("id", sort=False)["v"].shift(1)
        return pdf

    def dur_fn(pdf):
        pdf["dv"] = pdf["v"] - pdf.groupby("id", sort=False)["v"].shift(1)
        return pdf

    def cum_fn(pdf):
        pdf["v_cum"] = pdf.groupby("id", sort=False)["v"].cumsum()
        return pdf

    df = _fixture()
    sid = state_id_fn(["id"], "seq", "v", "seg")
    fns = [lag_fn, dur_fn, cum_fn, sid]

    exchanges = []
    run_exchange = keyed.partition_map
    monkeypatch.setattr(
        keyed, "partition_map",
        lambda *a, **kw: exchanges.append(1) or run_exchange(*a, **kw),
    )
    seq = rd.from_pandas(df)
    for f in fns:
        seq = keyed_partition_map(
            seq, keys=["id"], order_col="seq", fn=f, num_partitions=4,
        )
    expected = (
        seq.to_pandas().sort_values(["id", "seq"]).reset_index(drop=True)
    )
    assert len(exchanges) == 4

    fused = keyed_partition_map(
        rd.from_pandas(df), keys=["id"], order_col="seq", chain=fns,
        num_partitions=4,
    )
    got = fused.to_pandas().sort_values(["id", "seq"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[expected.columns], expected)

    # ONE exchange for the fused chain (vs 4 sequentially)
    assert len(exchanges) == 5


def test_chain_param_validation():
    ds = rd.from_pandas(_fixture())
    with pytest.raises(ValueError):
        keyed_partition_map(ds, keys=["id"], order_col="seq")
    with pytest.raises(ValueError):
        keyed_partition_map(
            ds, keys=["id"], order_col="seq",
            fn=lambda p: p, chain=[lambda p: p],
        )
