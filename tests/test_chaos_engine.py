"""Chaos sequences over the whole engine surface.

A CDC engine's correctness claim is not per-feature but per-LIFETIME: any
interleaving of epoch applies (plain / staged / delta / WAP), fan-out
rewrites, optimizes, tags, vacuums and purges must converge to exactly
the state an independent oracle computes from the raw change log. Each
seed drives a different deterministic interleaving.
"""

import random

import pandas as pd
import pyarrow.parquet as pq
import pytest

from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import (
    ChangelogConfig,
    changelog_dataset,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.model import DataModel
from segment_reference import reference_apply_group


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
        mode = rng.choice(["apply_epoch", "staged", "delta", "wap"])
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
def test_all_apply_paths_identical(tmp_path, ray_session, monkeypatch, seed):
    """Cross-path equivalence: ``apply_epoch``, the staged one- and
    two-level exchanges, write-audit-publish and the in-process exchange
    of a one-group session, and the per-partition steps the group pass
    replaced (``segment_reference``), produce the oracle's final state,
    byte-identical, with equal commit summaries for the same epochs, and
    write the same manifest metric keys and the same counts (every one
    goes through the shared partition kernel); every path's epoch index
    equals the others' row for row, ``apply_s`` aside, and so do the
    delta segments' places (group file, row group), which follow the
    exchange's group layout. That is the chained leg; in the folded leg
    (``FOLD_SEGMENTS`` 0, so every touched partition is rewritten whole)
    every epoch writes bases only, the first on an empty store, and every
    path, the per-partition base step (``reference_bases``) among them,
    gives the same state, summaries, metric counts and index rows, and
    the in-process paths the same base file rows in the same order.
    ``merge_into`` and ``repartition_snapshot`` then give the same state,
    manifests and source maps on the one- and two-level and the
    in-process exchanges."""
    import dataclasses

    import ray.data as rd

    from arlas_proc_ray.cdc import sizing, staged
    from arlas_proc_ray.cdc.merge import merge_into
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    cfg = ChangelogConfig(num_events=3000, num_keys=300, seed=300 + seed)
    tables = generate_changelog_tables(cfg)

    def one_group(num_partitions):
        return staged.group_plan(num_partitions, 1)

    def run(mode):
        snap = str(tmp_path / mode)
        eng = CdcEngine(snap, DataModel(num_partitions=4))
        summaries, metrics, manifests, bases = [], [], [], []
        for i, t in enumerate(tables, start=1):
            ds = rd.from_arrow(t)
            if mode in ("apply_epoch", "apply_epoch_folded"):
                s = eng.apply_epoch(ds, i)
            elif mode in ("inline", "inline_folded", "reference",
                          "reference_bases"):
                with monkeypatch.context() as m:
                    m.setattr(staged, "session_groups", one_group)
                    if mode.startswith("reference"):  # per-partition steps
                        m.setattr(staged, "_apply_group", reference_apply_group)
                    s = eng.apply_epoch(ds, i)
            elif mode == "staged":
                s = eng.apply_epoch_staged(ds, i)
            elif mode == "two_level":
                s = staged.staged_apply_epoch_two_level(
                    eng, ds.materialize(), i
                )
            else:  # wap
                eng.apply_epoch(ds, i, publish=False)
                s = eng.publish_epoch(i)
            summaries.append(
                {k: s[k] for k in ("row_count", "last_lsn", "rollup")}
            )
            metrics.append([
                eng.store.read_manifest(i, p).metrics for p in range(4)
            ])
            manifests.append([  # the index as a fresh handle reads it
                vars(m) for m in SnapshotStore(snap).epoch_index(i)
            ])
            bases.append([  # the base files the epoch wrote, rows in order
                pq.read_table(eng.store.part_data_path(i, p))
                .replace_schema_metadata(None)
                for p in range(4) if eng.store.base_done(i, p)])
        return (eng.final_state().to_pandas(), summaries, metrics, manifests,
                bases)

    def counts(metrics):
        # apply_s is a duration: its key must match, not its value
        return [[{**m, "apply_s": None} for m in ep] for ep in metrics]

    def untimed(manifests):
        return [[{**m, "metrics": {**m["metrics"], "apply_s": None},
                  "chain": [{**dataclasses.asdict(s), "file": None,
                             "row_group": None} for s in m["chain"]]}
                 for m in ep] for ep in manifests]

    base_state, base_sum, base_metrics, base_manifests, _ = run("apply_epoch")
    exp = oracle_final_state(tables).to_pandas()
    pd.testing.assert_frame_equal(base_state, exp)
    assert {k for ep in base_metrics for m in ep for k in m} == {
        "events_in", "fence_dropped", "events_applied", "apply_s"
    }
    assert any(m["chain"] for m in base_manifests[-1])  # the chained leg
    for mode in ("staged", "two_level", "wap", "inline", "reference"):
        state, summ, metrics, manifests, _ = run(mode)
        pd.testing.assert_frame_equal(state, base_state)
        assert summ == base_sum, mode
        assert counts(metrics) == counts(base_metrics), mode
        assert untimed(manifests) == untimed(base_manifests), mode
    with monkeypatch.context() as m:  # the folded leg
        m.setattr(sizing, "FOLD_SEGMENTS", 0)
        folded = {mode: run(mode) for mode in (
            "apply_epoch_folded", "inline_folded", "reference_bases")}
    ref = folded["reference_bases"]
    assert not any(m["chain"] for ep in ref[3] for m in ep)
    assert all(len(ep) == 4 for ep in ref[4])  # every partition a base
    for mode, (state, summ, metrics, manifests, bases) in folded.items():
        pd.testing.assert_frame_equal(state, base_state)
        assert summ == base_sum, mode
        assert counts(metrics) == counts(ref[2]), mode
        assert untimed(manifests) == untimed(ref[3]), mode
    for got, want in zip(folded["inline_folded"][4], ref[4]):
        assert len(got) == len(want)
        assert all(g.equals(w) for g, w in zip(got, want))

    # MERGE (an update of every other key, a stale duplicate and an
    # insert) then a fan-out change, on the stores the two exchanges built
    e = len(tables)
    src = base_state.iloc[::2][["repo", "path", "commit", "language"]]
    src = src.assign(content="M:" + src["path"], lsn=10**6)
    src = pd.concat([
        src, src.iloc[:1].assign(content="stale", lsn=1),
        src.iloc[:1].assign(path="new/key", lsn=10**6 + 1),
    ], ignore_index=True)

    def writers(mode):
        eng = CdcEngine(str(tmp_path / mode), DataModel(num_partitions=4))
        with monkeypatch.context() as m:
            if mode == "two_level":  # every epoch past the object threshold
                m.setattr(staged, "TWO_LEVEL_OBJECTS", -1)
            if mode == "inline":
                m.setattr(staged, "session_groups", one_group)
            merge_into(eng, rd.from_pandas(src), e + 1)
            eng.repartition_snapshot(6, epoch=e + 2)
        out = [eng.final_state().to_pandas()]
        for ep, parts in ((e + 1, 4), (e + 2, 6)):
            out.append([m.epoch for m in eng.store.epoch_index(ep)])
            for p in range(parts):
                mf = eng.store.read_manifest(ep, p)
                out.append((mf.row_count, mf.last_lsn, mf.sha256_rollup,
                            {**mf.metrics, "apply_s": None}))
        return out

    one = writers("staged")
    assert len(one[0]) == len(base_state) + 1
    for mode in ("two_level", "inline"):
        other = writers(mode)
        pd.testing.assert_frame_equal(one[0], other[0])
        assert one[1:] == other[1:], mode
