"""Epoch auto-sizing against the object-store budget (cdc/sizing.py).

Pins the sizing decision (pure function) and proves the auto-split
apply paths — in-memory LSN chunks and parquet-scratch chunks — are
byte-equivalent to the unsplit apply on the same change log.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from arlas_proc_ray.cdc import (
    CdcEngine,
    ChangelogConfig,
    changelog_dataset,
    generate_changelog_tables,
    oracle_final_state,
)
from arlas_proc_ray.cdc.sizing import (
    AMPLIFICATION,
    HEADROOM,
    EpochPlan,
    lsn_cutpoints,
    lsn_range_refs,
    plan_epoch_chunks,
)
from arlas_proc_ray.model import DataModel

CFG = ChangelogConfig(num_events=20_000, num_keys=2_000, num_repos=50, seed=42)


# ------------------------------------------------------------- pure decision


def test_plan_single_when_rule_holds():
    # 4 x 10 <= 0.85 x 100 -> no split
    p = plan_epoch_chunks(10, 100)
    assert p == EpochPlan("single", 1, 10, 100)


def test_plan_inmem_when_input_can_stay_pinned():
    # 4x30 > 85 but 2x30 <= 85: in-memory chunks.
    # K = ceil(5*30 / (85 - 30)) = ceil(2.72) = 3
    p = plan_epoch_chunks(30, 100)
    assert p.strategy == "inmem" and p.chunks == 3


def test_plan_scratch_when_input_cannot_stay_pinned():
    # 2x60 > 85: the pinned input alone would blow the budget ->
    # scratch spill; K = ceil(4*60 / 85) = 3
    p = plan_epoch_chunks(60, 100)
    assert p.strategy == "scratch" and p.chunks == 3


def test_plan_boundary_is_exact():
    # exactly at the rule: 4*21.25 == 85 -> still single
    assert plan_epoch_chunks(21, 100).strategy == "single"
    assert plan_epoch_chunks(22, 100).strategy == "inmem"


def test_rule_constants_match_documented_rule():
    # the measured rule: 4x bytes <= 0.85x store (BASELINE.md r3 addendum)
    assert AMPLIFICATION == 4.0 and HEADROOM == 0.85


def test_default_budget_reads_the_live_object_store():
    # under the session fixture Ray is initialised; the budget must come
    # from the cluster resource, not the fallback
    assert (
        plan_epoch_chunks(1).budget_bytes
        == int(ray.cluster_resources()["object_store_memory"])
    )


# ------------------------------------------------- LSN chunking is a partition


def test_lsn_chunks_partition_rows_exactly_once():
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=5_000, num_keys=400, seed=9)
    )
    refs = [ray.put(t) for t in tables]
    cuts = lsn_cutpoints(refs, 4)
    assert cuts == sorted(cuts) and len(set(cuts)) == len(cuts)
    bounds = [None, *cuts, None]
    total = sum(t.num_rows for t in tables)
    seen = []
    for i in range(len(bounds) - 1):
        chunk = pa.concat_tables(
            ray.get(lsn_range_refs(refs, bounds[i], bounds[i + 1])),
            promote_options="default",  # mixed schema versions in the log
        )
        seen.append(chunk.column("lsn").to_numpy(zero_copy_only=False))
        if i > 0 and len(seen[i]) and len(seen[i - 1]):
            # later chunks carry strictly higher LSNs (the fence contract)
            assert seen[i].min() > seen[i - 1].max()
    allv = np.concatenate(seen)
    assert len(allv) == total
    exp = np.sort(
        np.concatenate(
            [t.column("lsn").to_numpy(zero_copy_only=False) for t in tables]
        )
    )
    assert np.array_equal(np.sort(allv), exp)


# ------------------------------------------------------- split-apply parity


def _final(eng) -> pd.DataFrame:
    return (
        eng.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


@pytest.mark.parametrize("strategy", ["inmem", "scratch"])
def test_auto_split_apply_matches_unsplit(tmp_path, strategy):
    dm = DataModel(num_partitions=8)
    mat = changelog_dataset(CFG, override_num_blocks=8).materialize()
    nbytes = mat.size_bytes()
    # budget chosen to force the strategy under plan_epoch_chunks:
    # inmem needs 2.35x < budget/bytes < 4.7x; scratch needs < 2.35x
    budget = int(nbytes * (3.0 if strategy == "inmem" else 1.5))
    assert plan_epoch_chunks(nbytes, budget).strategy == strategy

    ref = CdcEngine(str(tmp_path / "ref"), dm)
    ref.apply_epoch_staged(mat, epoch=1, auto_split=False)

    eng = CdcEngine(str(tmp_path / strategy), dm)
    summary = eng.apply_epoch_staged(mat, epoch=1, budget_bytes=budget)
    assert summary["auto_split"] >= 2
    assert summary["split_strategy"] == strategy
    assert summary["epochs"] == list(
        range(1, 1 + summary["auto_split"])
    )
    assert eng.store.latest_committed_epoch() == summary["epochs"][-1]
    pd.testing.assert_frame_equal(_final(eng), _final(ref))
    # and against the independent in-memory oracle
    exp = oracle_final_state(generate_changelog_tables(CFG)).to_pandas()
    got = _final(eng)[list(exp.columns)]
    pd.testing.assert_frame_equal(got, exp)


def test_auto_split_then_incremental_epoch(tmp_path):
    """A split epoch leaves a normal store: the next (fitting) epoch
    applies on top and the combined state matches the full oracle."""
    dm = DataModel(num_partitions=8)
    cfg2 = ChangelogConfig(
        num_events=CFG.num_events * 2, num_keys=CFG.num_keys,
        num_repos=CFG.num_repos, seed=42,
    )
    first = changelog_dataset(
        cfg2, hi=CFG.num_events, override_num_blocks=8
    ).materialize()
    budget = int(first.size_bytes() * 3.0)
    eng = CdcEngine(str(tmp_path / "s"), dm)
    s1 = eng.apply_epoch_staged(first, epoch=1, budget_bytes=budget)
    assert s1["auto_split"] >= 2
    nxt = eng.store.latest_committed_epoch() + 1
    eng.apply_epoch_staged(
        changelog_dataset(
            cfg2, lo=CFG.num_events, hi=cfg2.num_events,
            override_num_blocks=8,
        ),
        epoch=nxt,
        auto_split=False,
    )
    exp = oracle_final_state(generate_changelog_tables(cfg2)).to_pandas()
    got = _final(eng)[list(exp.columns)]
    pd.testing.assert_frame_equal(got, exp)


def test_publish_false_refuses_to_split_and_warns(tmp_path):
    dm = DataModel(num_partitions=4)
    mat = changelog_dataset(
        ChangelogConfig(num_events=2_000, num_keys=200, seed=5),
        override_num_blocks=4,
    ).materialize()
    eng = CdcEngine(str(tmp_path / "s"), dm)
    with pytest.warns(RuntimeWarning, match="publish=False"):
        out = eng.apply_epoch_staged(
            mat, epoch=1, publish=False,
            budget_bytes=int(mat.size_bytes() * 1.5),
        )
    assert out.get("staged") is True and "auto_split" not in out
    eng.publish_epoch(1)
    exp = oracle_final_state(
        generate_changelog_tables(
            ChangelogConfig(num_events=2_000, num_keys=200, seed=5)
        )
    ).to_pandas()
    pd.testing.assert_frame_equal(_final(eng)[list(exp.columns)], exp)
