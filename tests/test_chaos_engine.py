"""Chaos sequences over the whole engine surface.

A CDC engine's correctness claim is not per-feature but per-LIFETIME: any
interleaving of epoch applies (Dataset / staged / delta), fan-out
rewrites, optimizes, tags, vacuums and purges must converge to exactly
the state an independent oracle computes from the raw change log. Each
seed drives a different deterministic interleaving.
"""

import random

import pandas as pd
import pytest

from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import (
    ChangelogConfig,
    changelog_dataset,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.model import DataModel


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_lifetime_chaos(tmp_path, ray_session, seed):
    rng = random.Random(seed)
    cfg = ChangelogConfig(
        num_events=4000, num_keys=400, seed=100 + seed
    )

    # random epoch boundaries over the lsn domain
    n_epochs = rng.randint(2, 4)
    cuts = sorted(rng.sample(range(1, cfg.num_events), n_epochs - 1))
    bounds = [0] + cuts + [cfg.num_events]

    p = rng.choice([4, 8])
    snap = str(tmp_path / "snap")
    eng = CdcEngine(snap, DataModel(num_partitions=p))
    epoch = 0
    for i in range(n_epochs):
        epoch += 1
        ds = changelog_dataset(cfg, lo=bounds[i], hi=bounds[i + 1])
        mode = rng.choice(["dataset", "staged", "delta", "wap"])
        if mode == "staged":
            eng.apply_epoch_staged(ds, epoch)
        elif mode == "delta":
            eng.apply_epoch(ds, epoch, delta=True, delta_max_age=2)
        elif mode == "wap":
            # write-audit-publish: staged cut is invisible until the
            # audit passes, then publishes through the stage-time fence
            eng.apply_epoch(ds, epoch, publish=False)
            assert eng.audit_staged(
                epoch, min_rows=0, max_shrink_fraction=1.0
            )["ok"]
            eng.publish_epoch(epoch)
        else:
            eng.apply_epoch(ds, epoch)

        # interleave a random table-service op
        op = rng.choice(
            ["none", "tag", "repartition", "optimize", "vacuum", "sync"]
        )
        if op == "sync":
            from arlas_proc_ray.cdc.clone import sync_snapshot

            sync_snapshot(eng.store, str(tmp_path / "dr"))
        elif op == "tag":
            eng.store.tag(f"t{epoch}")
        elif op == "repartition":
            p = rng.choice([3, 6, 12])
            epoch = eng.repartition_snapshot(p)["epoch"]
            eng = CdcEngine(snap, DataModel(num_partitions=p))
        elif op == "optimize":
            eng2 = CdcEngine(
                snap, DataModel(num_partitions=p),
                cluster_by=["path"], row_group_rows=256,
            )
            epoch = eng2.repartition_snapshot(p)["epoch"]
            eng = CdcEngine(snap, DataModel(num_partitions=p))
        elif op == "vacuum":
            eng.store.vacuum(keep_last=1)

    got = eng.final_state().to_pandas()
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
    pd.testing.assert_frame_equal(got, exp)

    # end with a purge: expected = oracle minus the purged keys
    victims = exp[["repo", "path"]].sample(
        n=min(5, len(exp)), random_state=seed
    )
    eng.purge_keys(victims)
    got2 = eng.final_state().to_pandas()
    merged = exp.merge(victims, on=["repo", "path"], how="left", indicator=True)
    exp2 = (
        merged[merged["_merge"] == "left_only"]
        .drop(columns="_merge")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got2, exp2)

    # the store is still internally consistent end to end
    deep = eng.store.verify_deep(recompute_hashes=True)
    assert deep["ok"], deep["failed"]

    # a final DR sync converges the replica to the post-purge state,
    # whatever interleaving (incl. repartitions) happened before it
    from arlas_proc_ray.cdc.clone import sync_snapshot

    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    sync_snapshot(eng.store, str(tmp_path / "dr"))
    dr = CdcEngine(str(tmp_path / "dr"), eng.dm)
    pd.testing.assert_frame_equal(
        dr.final_state().to_pandas(), got2
    )
    assert SnapshotStore(str(tmp_path / "dr")).verify_deep(
        recompute_hashes=True
    )["ok"]


@pytest.mark.parametrize("seed", [7, 8])
def test_engine_chaos_with_crashes(tmp_path, ray_session, seed):
    """Same lifetime chaos, but every epoch first crashes mid-write on a
    seed-chosen partition subset, then resumes with a clean engine."""
    rng = random.Random(seed)
    cfg = ChangelogConfig(num_events=3000, num_keys=300, seed=200 + seed)
    n_epochs = rng.randint(2, 3)
    cuts = sorted(rng.sample(range(1, cfg.num_events), n_epochs - 1))
    bounds = [0] + cuts + [cfg.num_events]
    p = 6
    snap = str(tmp_path / "snap")

    for i in range(n_epochs):
        epoch = i + 1
        ds = changelog_dataset(cfg, lo=bounds[i], hi=bounds[i + 1])
        kill_mod = rng.randint(2, 4)

        def bomb(ep, part, _armed=set(), _kill=kill_mod, _e=epoch):
            # crash each chosen partition exactly once per epoch
            if ep == _e and part % _kill == 1 and (ep, part) not in _armed:
                _armed.add((ep, part))
                raise RuntimeError("chaos crash")

        faulty = CdcEngine(snap, DataModel(num_partitions=p), fault_hook=bomb)
        staged = rng.random() < 0.5
        try:
            if staged:
                faulty.apply_epoch_staged(ds, epoch)
            else:
                faulty.apply_epoch(ds, epoch)
        except Exception:
            pass  # mid-epoch crash; partial partitions are on disk
        # resume with a CLEAN engine (fresh process semantics)
        eng = CdcEngine(snap, DataModel(num_partitions=p))
        if eng.store.latest_committed_epoch() != epoch:
            if staged:
                eng.apply_epoch_staged(ds, epoch)
            else:
                eng.apply_epoch(ds, epoch)
        assert eng.store.latest_committed_epoch() == epoch

    got = CdcEngine(snap, DataModel(num_partitions=p)).final_state().to_pandas()
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
    pd.testing.assert_frame_equal(got, exp)
    deep = CdcEngine(snap, DataModel(num_partitions=p)).store.verify_deep(
        recompute_hashes=True
    )
    assert deep["ok"], deep["failed"]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_all_apply_paths_identical(tmp_path, ray_session, seed):
    """Cross-path equivalence: the Dataset, staged, two-level-staged,
    write-audit-publish and warm-cache-actor paths produce byte-identical
    final states and equal commit summaries for the same epochs. Every
    path through the shared partition kernel (all but warm-cache, which
    keeps its own merge) writes the same manifest metric keys and the
    same counts."""
    import ray.data as rd

    cfg = ChangelogConfig(num_events=3000, num_keys=300, seed=300 + seed)
    tables = generate_changelog_tables(cfg)

    def run(mode):
        snap = str(tmp_path / mode)
        eng = CdcEngine(snap, DataModel(num_partitions=4))
        summaries, metrics = [], []
        for i, t in enumerate(tables, start=1):
            ds = rd.from_arrow(t)
            if mode == "dataset":
                s = eng.apply_epoch(ds, i)
            elif mode == "staged":
                s = eng.apply_epoch_staged(ds, i, two_level=False)
            elif mode == "two_level":
                s = eng.apply_epoch_staged(ds, i, two_level=True)
            elif mode == "warm":
                s = eng.apply_epoch_staged(ds, i, warm_cache=True)
            else:  # wap
                eng.apply_epoch(ds, i, publish=False)
                s = eng.publish_epoch(i)
            summaries.append(
                {k: s[k] for k in ("row_count", "last_lsn", "rollup")}
            )
            metrics.append([
                eng.store.read_manifest(i, p).metrics for p in range(4)
            ])
        if mode == "warm":
            # epochs 2+ must have been served from the actor cache
            stats = eng.warm_cache_stats()
            assert sum(st["hits"] for st in stats) > 0
            eng.shutdown_warm_pool()
        return eng.final_state().to_pandas(), summaries, metrics

    def counts(metrics):
        # apply_s is a duration: its key must match, not its value
        return [[{**m, "apply_s": None} for m in ep] for ep in metrics]

    base_state, base_sum, base_metrics = run("dataset")
    exp = oracle_final_state(tables).to_pandas()
    pd.testing.assert_frame_equal(base_state, exp)
    assert {k for ep in base_metrics for m in ep for k in m} == {
        "events_in", "fence_dropped", "events_applied", "apply_s"
    }
    for mode in ("staged", "two_level", "wap", "warm"):
        state, summ, metrics = run(mode)
        pd.testing.assert_frame_equal(state, base_state)
        assert summ == base_sum, mode
        if mode != "warm":
            assert counts(metrics) == counts(base_metrics), mode
