"""The shared partition-apply kernel and the grouped staged exchange.

Every exchange path (Dataset groupby, staged one- and two-level) ends in
``cdc.engine.apply_partition``; the staged paths run it in one merge task
per CPU over a contiguous group of partitions. These tests pin the group
plan, the shape of the staged exchange objects, P > session CPUs on every
path, a crash in the middle of a group, the manifest metrics under
redelivery (the kernel's, and the actor path's, which share one schema),
and that finalize hashes only the rows that have no digest yet.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

from arlas_proc_ray.cdc import replay, staged
from arlas_proc_ray.cdc.actors import StreamingCdcEngine
from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import ChangelogConfig, generate_changelog_tables
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.staged import _split_block, group_plan, session_groups
from arlas_proc_ray.functions.hashing import sha256_hex
from arlas_proc_ray.model import DataModel

P = 16  # > the 4 CPUs of the test session: 4 partitions per merge group


@pytest.mark.parametrize(
    "parts,groups", [(1, 1), (1, 4), (4, 4), (10, 3), (16, 4), (17, 32), (64, 5)]
)
def test_group_plan_covers_every_partition_once(parts, groups):
    plan = group_plan(parts, groups)
    assert len(plan) == min(parts, groups)
    flat = [p for grp in plan for p in grp]
    assert flat == list(range(parts))  # each exactly once, in order
    sizes = {len(grp) for grp in plan}
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def test_session_groups_follow_cpus():
    assert [list(g) for g in session_groups(P)] == [
        list(range(i, i + 4)) for i in range(0, P, 4)
    ]
    assert len(session_groups(2)) == 2


@pytest.mark.parametrize("two_level", [False, True])
@pytest.mark.parametrize("parts,one_group", [(1, False), (P, False), (P, True)])
def test_exchange_objects_are_contiguous_partition_sorted_tables(
    tmp_path, monkeypatch, two_level, parts, one_group
):
    """Every object a merge group receives is ``(first_partition, table,
    bounds)``: one single-chunk table whose bounds cover its rows exactly
    once, and whose view of each partition equals the rows
    ``_split_block`` routes to that partition."""
    if one_group:
        monkeypatch.setattr(staged, "session_groups",
                            lambda n: group_plan(n, 1))
    received = {}
    run_groups = staged._run_groups

    def capture(ctx, groups, inputs_of):
        for g, grp in enumerate(groups):
            received[grp] = ray.get(list(inputs_of(g)))
        return run_groups(ctx, groups, inputs_of)

    monkeypatch.setattr(staged, "_run_groups", capture)
    cfg = ChangelogConfig(num_events=3000, num_keys=300, seed=49)
    tables = generate_changelog_tables(cfg)
    assert len(tables) > 1  # more than one block per exchange
    eng = CdcEngine(str(tmp_path), DataModel(num_partitions=parts))
    eng.apply_epoch_staged(rd.from_arrow(tables), 1, two_level=two_level)

    groups = staged.session_groups(parts)
    assert list(received) == groups
    align = eng._ingest_fn(1, None)
    routed = [_split_block(t, eng.dm, align) for t in tables]
    for grp, inputs in received.items():
        covered = set()
        for obj in inputs:
            first, table, bounds = obj
            assert isinstance(first, int) and isinstance(bounds, np.ndarray)
            assert all(c.num_chunks == 1 for c in table.columns)
            assert bounds[0] == 0 and bounds[-1] == table.num_rows
            assert (np.diff(bounds) >= 0).all()
            covered |= set(range(first, first + len(bounds) - 1))
            if not two_level:  # one object per block, exactly the group
                assert range(first, first + len(bounds) - 1) == grp
        assert covered >= set(grp)
        for p in grp:
            views = staged._partition_views(inputs, p)
            want = pa.concat_tables([r[p] for r in routed])
            assert pa.concat_tables(views).equals(want), p
    pd.testing.assert_frame_equal(
        eng.final_state().to_pandas(), oracle_final_state(tables).to_pandas()
    )


def _apply(eng, mode, ds, epoch):
    if mode in ("dataset", "actors"):
        return eng.apply_epoch(ds, epoch)
    return eng.apply_epoch_staged(ds, epoch, two_level=(mode == "two_level"))


def test_more_partitions_than_cpus_all_paths_identical(tmp_path):
    cfg = ChangelogConfig(num_events=3000, num_keys=300, seed=41)
    tables = generate_changelog_tables(cfg)
    exp = oracle_final_state(tables).to_pandas()

    def run(mode):
        eng = CdcEngine(str(tmp_path / mode), DataModel(num_partitions=P))
        sums = [
            {k: s[k] for k in ("row_count", "last_lsn", "rollup")}
            for s in (
                _apply(eng, mode, rd.from_arrow(t), i)
                for i, t in enumerate(tables, start=1)
            )
        ]
        assert eng.store.verify_deep(recompute_hashes=True)["ok"]
        return eng.final_state().to_pandas(), sums

    base_state, base_sums = run("dataset")
    pd.testing.assert_frame_equal(base_state, exp)
    for mode in ("staged", "two_level"):
        state, sums = run(mode)
        pd.testing.assert_frame_equal(state, base_state)
        assert sums == base_sums, mode


def crash_at(crash_epoch: int, crash_part: int):
    """Fault hook raising when one partition of one epoch is about to
    commit (a closure, so Ray workers unpickle it by value)."""

    def hook(epoch: int, part: int):
        if (epoch, part) == (crash_epoch, crash_part):
            raise RuntimeError(f"injected crash at epoch={epoch} part={part}")

    return hook


@pytest.mark.parametrize("two_level", [False, True])
def test_crash_mid_group_resumes_to_oracle(tmp_path, two_level):
    cfg = ChangelogConfig(num_events=3000, num_keys=300, seed=43)
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
    snap = str(tmp_path / "snap")
    dm = DataModel(num_partitions=P)

    def epoch_ds(lo, hi):
        return rd.from_arrow(generate_changelog_tables(cfg, lo, hi))

    CdcEngine(snap, dm).apply_epoch_staged(
        epoch_ds(0, 1500), 1, two_level=two_level
    )
    fault = 5  # second partition of group [4, 8)
    crashy = CdcEngine(snap, dm, fault_hook=crash_at(2, fault))
    with pytest.raises(Exception, match="injected crash"):
        crashy.apply_epoch_staged(epoch_ds(1500, 3000), 2, two_level=two_level)
    store = crashy.store
    assert store.latest_committed_epoch() == 1
    # the group runs its partitions in order: the one before the fault
    # committed, the fault and the rest of its group never did
    assert store.partition_done(2, fault - 1)
    for part in range(fault, 8):
        assert not store.partition_done(2, part), part

    resumed = CdcEngine(snap, dm)
    resumed.apply_epoch_staged(epoch_ds(1500, 3000), 2, two_level=two_level)
    assert resumed.store.latest_committed_epoch() == 2
    pd.testing.assert_frame_equal(resumed.final_state().to_pandas(), exp)
    deep = resumed.store.verify_deep(recompute_hashes=True)
    assert deep["ok"], deep["failed"]


@pytest.mark.parametrize("mode", ["dataset", "staged", "two_level", "actors"])
def test_redelivery_counts_exact_fence_drops(tmp_path, mode):
    """Epoch 2 redelivers epoch 1's events together with newer ones, in
    one block. The combiner keeps one row per key, the newest; a key
    whose newest row is an old event is at or below its partition's
    watermark and must be counted in ``fence_dropped``, never applied."""
    cfg = ChangelogConfig(
        num_events=3000, num_keys=300, seed=45, v2_start_lsn=10_000
    )
    (old,) = generate_changelog_tables(cfg, 0, 1500)
    (both,) = generate_changelog_tables(cfg, 0, 3000)
    engine = StreamingCdcEngine if mode == "actors" else CdcEngine
    eng = engine(str(tmp_path / mode), DataModel(num_partitions=P))
    try:
        _apply(eng, mode, rd.from_arrow(old), 1)
        _apply(eng, mode, rd.from_arrow(both), 2)
    finally:
        if mode == "actors":
            eng.shutdown()

    def keys(t):
        return set(zip(t.column("repo").to_pylist(), t.column("path").to_pylist()))

    new = both.filter(pc.greater_equal(both.column("lsn"), 1500))
    metrics = [eng.store.read_manifest(2, p).metrics for p in range(P)]
    total = {k: sum(m[k] for m in metrics)
             for k in ("events_in", "fence_dropped", "events_applied")}
    assert total == {
        "events_in": len(keys(both)),
        "fence_dropped": len(keys(old) - keys(new)),
        "events_applied": len(keys(new)),
    }
    assert all(m["events_in"] == m["fence_dropped"] + m["events_applied"]
               for m in metrics)
    exp = oracle_final_state([both]).to_pandas()
    pd.testing.assert_frame_equal(eng.final_state().to_pandas(), exp)


def test_finalize_hashes_only_new_survivors(monkeypatch):
    cfg = ChangelogConfig(num_events=2000, num_keys=200, seed=47,
                          v2_start_lsn=10_000)
    dm = DataModel(num_partitions=1)
    (first,) = generate_changelog_tables(cfg, 0, 1000)
    (second,) = generate_changelog_tables(cfg, 1000, 2000)
    from arlas_proc_ray.cdc.engine import (
        _events_as_merge_rows,
        _state_as_merge_rows,
    )
    from arlas_proc_ray.cdc.events import default_registry

    align = replay.make_align_fn(default_registry())
    prior = replay.finalize_partition_table(
        _events_as_merge_rows(align(first)), dm
    )
    merged = pa.concat_tables([
        _events_as_merge_rows(align(second)), _state_as_merge_rows(prior),
    ])

    hashed = []

    def counting(col):
        hashed.append(len(col))
        return sha256_hex(col)

    monkeypatch.setattr(replay, "sha256_hex", counting)
    got = replay.finalize_partition_table(merged, dm)

    live = replay.lww_reduce_table(merged, dm.key_cols, dm.order_col)
    live = live.filter(pc.not_equal(live.column("op"), "DELETE"))
    new_rows = live.column("content_sha256").null_count
    assert 0 < new_rows < live.num_rows
    assert hashed == [new_rows]  # one call, over the null-digest rows only
    # byte-identical to hashing the whole column and keeping old digests
    whole = pc.coalesce(
        live.column("content_sha256"), sha256_hex(live.column("content"))
    )
    assert got.column("content_sha256").combine_chunks().equals(
        whole.combine_chunks()
    )

    hashed.clear()
    boot = replay.finalize_partition_table(
        _events_as_merge_rows(align(first)), dm
    )
    assert hashed == [boot.num_rows]  # all new: the direct whole-column call
    assert boot.equals(prior)
