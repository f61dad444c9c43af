"""Snapshot clone / fork (cdc/clone.py)."""

import json
import os

import pandas as pd
import pytest

from arlas_proc_ray.cdc.clone import clone_snapshot
from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import ChangelogConfig, changelog_dataset
from arlas_proc_ray.model import DataModel

CFG = ChangelogConfig(num_events=4000, seed=19)


def _engine(root, epochs=2):
    eng = CdcEngine(root, DataModel(num_partitions=8))
    mid = CFG.num_events // 2
    eng.apply_epoch(changelog_dataset(CFG, hi=mid), 1)
    if epochs > 1:
        eng.apply_epoch(changelog_dataset(CFG, lo=mid), 2)
    return eng


def _state(eng):
    return (
        eng.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def test_clone_equals_source(tmp_path):
    eng = _engine(str(tmp_path / "src"))
    res = clone_snapshot(eng.store, str(tmp_path / "dst"))
    assert res["source_epoch"] == 2 and res["rows"] > 0 and res["bytes"] > 0

    clone_eng = CdcEngine(str(tmp_path / "dst"), DataModel(num_partitions=8))
    pd.testing.assert_frame_equal(_state(clone_eng), _state(eng))
    # hashes carried byte-for-byte → deep verify certifies the copy
    v = clone_eng.store.verify_deep(recompute_hashes=True)
    assert v["ok"]


def test_clone_at_older_epoch_and_ref(tmp_path):
    eng = _engine(str(tmp_path / "src"))
    eng.store.tag("cut", epoch=1)

    clone_snapshot(eng.store, str(tmp_path / "e1"), epoch=1)
    clone_snapshot(eng.store, str(tmp_path / "ref"), epoch="cut")
    a = CdcEngine(str(tmp_path / "e1"), DataModel(num_partitions=8))
    b = CdcEngine(str(tmp_path / "ref"), DataModel(num_partitions=8))
    pd.testing.assert_frame_equal(_state(a), _state(b))
    # epoch-1 state differs from the 2-epoch tip
    assert not _state(a).equals(_state(eng))


def test_fork_applies_tail_without_double_apply(tmp_path):
    """Clone at the midpoint, then replay the FULL changelog into the
    fork — carried applied-LSN fences drop the already-applied half, so
    the fork converges to the same final state as the source tip."""
    src = _engine(str(tmp_path / "src"), epochs=1)  # epoch 1 = first half
    clone_snapshot(src.store, str(tmp_path / "fork"))
    fork = CdcEngine(str(tmp_path / "fork"), DataModel(num_partitions=8))
    # replay EVERYTHING (first half again + second half) as epoch 1
    fork.apply_epoch(changelog_dataset(CFG), 1)

    tip = _engine(str(tmp_path / "tip"))  # clean two-epoch source
    pd.testing.assert_frame_equal(_state(fork), _state(tip))


def test_clone_resume_after_crash(tmp_path):
    """A clone that died mid-copy (some partition fences written, no
    commit marker) resumes: finished partitions are skipped, the result
    equals a clean clone."""
    import shutil as sh

    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    eng = _engine(str(tmp_path / "src"))
    full = clone_snapshot(eng.store, str(tmp_path / "ref_dst"))

    # simulate the crash: hand-copy partitions 0 and 3 (each file's
    # footer is its fence) into an uncommitted destination
    dst = str(tmp_path / "dst")
    d = SnapshotStore(dst)
    sources = [m.epoch for m in eng.store.epoch_index(2)]
    os.makedirs(d.epoch_dir(0), exist_ok=True)
    for p in (0, 3):
        src_e = sources[p]
        sh.copyfile(
            eng.store.part_data_path(src_e, p), d.part_data_path(0, p)
        )
    before = os.path.getmtime(d.part_data_path(0, 0))

    res = clone_snapshot(eng.store, dst)
    assert res["rows"] == full["rows"]
    # pre-finished partitions were not rewritten
    assert os.path.getmtime(d.part_data_path(0, 0)) == before

    clone_eng = CdcEngine(dst, DataModel(num_partitions=8))
    pd.testing.assert_frame_equal(_state(clone_eng), _state(eng))

    # rerunning onto a committed destination refuses (fork ≠ overwrite)
    with pytest.raises(ValueError, match="already has commits"):
        clone_snapshot(eng.store, dst)


def test_jobs_cli_clone(tmp_path, capsys):
    from arlas_proc_ray.jobs import main

    eng = _engine(str(tmp_path / "src"))
    assert main([
        "clone", "--snapshot", str(tmp_path / "src"),
        "--dest", str(tmp_path / "dst"),
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["rows"] > 0
    assert main(["stats", "--snapshot", str(tmp_path / "dst")]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["row_count"] == _state(eng).shape[0]


def test_sync_snapshot_incremental(tmp_path, ray_session):
    """sync_snapshot: bootstrap clone, then a delta sync copies ONLY the
    partitions whose backing file moved; idle source is a noop; the
    destination always deep-verifies equal to the source cut."""
    import ray.data as rd

    from arlas_proc_ray.cdc import ChangelogConfig, generate_changelog_tables
    from arlas_proc_ray.cdc.clone import sync_snapshot

    tables = generate_changelog_tables(
        ChangelogConfig(num_events=3000, num_keys=300, seed=61)
    )
    src = CdcEngine(str(tmp_path / "src"), DataModel(num_partitions=8))
    src.apply_epoch(rd.from_arrow(tables[0]), 1)

    dst_root = str(tmp_path / "dst")
    r1 = sync_snapshot(src.store, dst_root)
    assert r1["mode"] == "bootstrap" and r1["partitions_copied"] == 8

    # idle source: noop, no new epoch
    r_noop = sync_snapshot(src.store, dst_root)
    assert r_noop["mode"] == "noop"

    # delta epoch touching a few keys -> only those partitions re-copy
    small = tables[1].slice(0, 3)  # ≤3 keys → ≤3 of 8 partitions move
    src.apply_epoch(rd.from_arrow(small), 2, delta=True)
    r2 = sync_snapshot(src.store, dst_root)
    assert r2["mode"] == "incremental"
    assert 0 < r2["partitions_copied"] < 8
    assert r2["partitions_copied"] + r2["partitions_referenced"] == 8

    dst = CdcEngine(dst_root, DataModel(num_partitions=8))
    pd.testing.assert_frame_equal(
        dst.final_state().to_pandas(), src.final_state().to_pandas()
    )
    deep = dst.store.verify_deep(recompute_hashes=True)
    assert deep["ok"], deep["failed"]

    # source fan-out change -> full re-copy at the new fan-out
    src.repartition_snapshot(4)
    r3 = sync_snapshot(src.store, dst_root)
    assert r3["mode"] == "full" and r3["partitions_copied"] == 4
    dst2 = CdcEngine(dst_root, DataModel(num_partitions=4))
    pd.testing.assert_frame_equal(
        dst2.final_state().to_pandas(),
        CdcEngine(str(tmp_path / "src"),
                  DataModel(num_partitions=4)).final_state().to_pandas(),
    )

    # an unrelated store with commits is refused
    other = CdcEngine(str(tmp_path / "other"), DataModel(num_partitions=2))
    other.apply_epoch(rd.from_arrow(tables[0]), 1)
    with pytest.raises(RuntimeError, match="_SYNC"):
        sync_snapshot(src.store, str(tmp_path / "other"))


def test_sync_after_the_source_vacuums_the_synced_epoch(tmp_path,
                                                        monkeypatch):
    """The last-synced source epoch is gone (vacuumed): the next sync
    has no base to diff against, so it re-copies in full, and the
    destination equals the source and deep-verifies. The source rewrites
    every partition whole (``FOLD_SEGMENTS`` 0): a chained partition
    would keep epoch 1's base reachable."""
    import ray.data as rd

    from arlas_proc_ray.cdc import generate_changelog_tables, sizing
    from arlas_proc_ray.cdc.clone import sync_snapshot

    monkeypatch.setattr(sizing, "FOLD_SEGMENTS", 0)

    cfg = ChangelogConfig(num_events=3000, num_keys=300, seed=62)

    def events(e):
        return rd.from_arrow(generate_changelog_tables(
            cfg, (e - 1) * 1000, e * 1000))

    src = CdcEngine(str(tmp_path / "src"), DataModel(num_partitions=8))
    src.apply_epoch(events(1), 1)
    dst_root = str(tmp_path / "dst")
    assert sync_snapshot(src.store, dst_root)["mode"] == "bootstrap"

    src.apply_epoch(events(2), 2)
    assert src.store.vacuum(keep_last=1) == [1]
    src.apply_epoch(events(3), 3)
    r = sync_snapshot(src.store, dst_root)
    assert r["mode"] == "full" and r["partitions_copied"] == 8

    dst = CdcEngine(dst_root, DataModel(num_partitions=8))
    pd.testing.assert_frame_equal(_state(dst), _state(src))
    deep = dst.store.verify_deep(recompute_hashes=True)
    assert deep["ok"], deep["failed"]
