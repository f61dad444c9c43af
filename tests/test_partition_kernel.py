"""The shared partition-apply kernel and the grouped staged exchange.

Every writer of the store (CDC epochs, ``merge_into``,
``repartition_snapshot``) runs the staged exchange, one- or two-level,
and ends in ``cdc.engine.apply_partition``, in one merge task per CPU
over a contiguous group of partitions. These tests pin the group plan,
the shape of the staged exchange objects, P > session CPUs on every
path, a crash in the middle of a group for every writer, the manifest
metrics under redelivery, that finalize hashes only the rows that have
no digest yet, and, read from the source, that ``apply_partition`` is
the only caller of ``write_partition``.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

from arlas_proc_ray import exchange
from arlas_proc_ray.cdc import replay, sizing, staged
from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import ChangelogConfig, generate_changelog_tables
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.snapshot import SnapshotStore
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
    monkeypatch.setattr(sizing, "INLINE_BYTES", -1)  # the remote exchange
    if one_group:
        monkeypatch.setattr(staged, "session_groups", one_group_plan)
    if two_level:  # every epoch past the object threshold
        monkeypatch.setattr(staged, "TWO_LEVEL_OBJECTS", -1)
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
    eng.apply_epoch_staged(rd.from_arrow(tables), 1)

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
            views = exchange.partition_views(inputs, p)
            want = pa.concat_tables([r[p] for r in routed])
            assert pa.concat_tables(views).equals(want), p
    pd.testing.assert_frame_equal(
        eng.final_state().to_pandas(), oracle_final_state(tables).to_pandas()
    )


def one_group_plan(num_partitions: int) -> list[range]:
    """A ``session_groups`` stand-in for a one-CPU session."""
    return group_plan(num_partitions, 1)


def test_in_process_rule():
    """A stage runs in the caller only as one task over a known size of
    at most ``INLINE_BYTES``; an unknown size keeps the tasks."""
    limit = sizing.INLINE_BYTES
    assert sizing.runs_in_process(1, 0) and sizing.runs_in_process(1, limit)
    assert not sizing.runs_in_process(1, limit + 1)
    assert not sizing.runs_in_process(2, 1)
    assert not sizing.runs_in_process(1, None)


def test_unknown_input_size_takes_the_remote_exchange(tmp_path, monkeypatch):
    """A one-group epoch whose ``size_bytes()`` is unknown (``None``) runs
    the split and merge tasks instead of pulling its input into the
    caller."""
    monkeypatch.setattr(staged, "session_groups", one_group_plan)
    remote = []
    run_groups = staged._run_groups
    monkeypatch.setattr(staged, "_run_groups",
                        lambda *a: remote.append(1) or run_groups(*a))
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=600, num_keys=60, seed=47))
    eng = CdcEngine(str(tmp_path), DataModel(num_partitions=4))
    small = rd.from_arrow(tables).materialize()
    staged.staged_apply_epoch(eng, small, 1)
    assert remote == []  # known and small: in process
    unknown = rd.from_arrow(tables).materialize()
    monkeypatch.setattr(unknown, "size_bytes", lambda: None)
    staged.staged_apply_epoch(eng, unknown, 2)
    assert remote == [1]
    pd.testing.assert_frame_equal(
        eng.final_state().to_pandas(), oracle_final_state(tables).to_pandas())


def untimed(manifest) -> dict:
    """A manifest's fields, its ``apply_s`` duration blanked, and its
    delta segments' places (group file, row group), which follow the
    exchange's group layout, blanked too."""
    import dataclasses

    if manifest is None:
        return None
    return {**vars(manifest),
            "metrics": {**manifest.metrics, "apply_s": None},
            "chain": [{**dataclasses.asdict(s), "file": None, "row_group": None}
                      for s in manifest.chain]}


def _apply(eng, mode, ds, epoch):
    if mode in ("apply_epoch", "inline"):
        return eng.apply_epoch(ds, epoch)
    if mode == "two_level":
        return staged.staged_apply_epoch_two_level(eng, ds.materialize(), epoch)
    return eng.apply_epoch_staged(ds, epoch)


def test_more_partitions_than_cpus_all_paths_identical(tmp_path, monkeypatch):
    """The remote exchange over 4 groups, the staged and two-level paths,
    and the in-process one-group exchange write the same store."""
    cfg = ChangelogConfig(num_events=3000, num_keys=300, seed=41)
    tables = generate_changelog_tables(cfg)
    exp = oracle_final_state(tables).to_pandas()

    def run(mode):
        eng = CdcEngine(str(tmp_path / mode), DataModel(num_partitions=P))
        with monkeypatch.context() as m:
            if mode == "inline":
                m.setattr(staged, "session_groups", one_group_plan)
            sums = [
                {k: s[k] for k in ("row_count", "last_lsn", "rollup")}
                for s in (
                    _apply(eng, mode, rd.from_arrow(t), i)
                    for i, t in enumerate(tables, start=1)
                )
            ]
        assert eng.store.verify_deep(recompute_hashes=True)["ok"]
        epochs = range(1, len(tables) + 1)
        manifests = [
            untimed(eng.store.read_manifest(i, p)) for i in epochs for p in range(P)
        ] + [  # the index rows, as a fresh handle reads them
            untimed(m) for i in epochs
            for m in SnapshotStore(eng.store.root).epoch_index(i)
        ]
        return eng.final_state().to_pandas(), sums, manifests

    base_state, base_sums, base_manifests = run("apply_epoch")
    pd.testing.assert_frame_equal(base_state, exp)
    for mode in ("staged", "two_level", "inline"):
        state, sums, manifests = run(mode)
        pd.testing.assert_frame_equal(state, base_state)
        assert sums == base_sums, mode
        assert manifests == base_manifests, mode


def crash_at(crash_epoch: int, crash_part: int):
    """Fault hook raising when one partition of one epoch is about to
    commit (a closure, so Ray workers unpickle it by value)."""

    def hook(epoch: int, part: int):
        if (epoch, part) == (crash_epoch, crash_part):
            raise RuntimeError(f"injected crash at epoch={epoch} part={part}")

    return hook


def assert_crashed_mid_group(store, epoch: int, fault: int, parts: int):
    """The crash at ``fault`` left ``epoch`` uncommitted; its merge group
    ran in order, so the partitions before the fault committed and the
    fault and the rest of the group never did."""
    assert store.latest_committed_epoch() == epoch - 1
    (group,) = [g for g in staged.session_groups(parts) if fault in g]
    assert group[0] < fault  # the fault is not first in its group
    for part in group:
        assert store.partition_done(epoch, part) == (part < fault), part


def assert_group_file_redone_whole(store, epoch: int, fault: int,
                                   parts: int, listed_before: set):
    """The crash at ``fault`` left no delta file that lists any partition
    of its group; the resume wrote one file that lists all of them."""
    (group,) = [g for g in staged.session_groups(parts) if fault in g]
    assert not listed_before & set(group)
    for part in group:
        assert store.partition_done(epoch, part)
    listing = store._delta_listing(epoch)
    (name,) = {listing[p][0] for p in group}
    assert name.startswith(f"delta-{epoch}-{group[0]:05d}-")
    assert sorted(p for p, (n, _, _) in listing.items() if n == name) == list(group)


@pytest.mark.parametrize("two_level", [False, True])
def test_crash_mid_group_resumes_to_oracle(tmp_path, monkeypatch, two_level):
    """Every store writer, a CDC epoch, ``merge_into`` and
    ``repartition_snapshot``, crashes in the middle of a merge group and
    is resumed by a fresh engine to the oracle's state. Base files resume
    per partition; a CDC epoch's delta group file is redone whole."""
    if two_level:  # every epoch past the object threshold
        monkeypatch.setattr(staged, "TWO_LEVEL_OBJECTS", -1)
    _crash_mid_group_and_resume(tmp_path, monkeypatch)


def test_crash_mid_group_resumes_to_oracle_inline(tmp_path, monkeypatch):
    """The same crashes in the in-process exchange of a one-group
    session: the crash raises in the caller, the partitions before the
    fault are committed and a fresh engine resumes to the oracle."""
    monkeypatch.setattr(staged, "session_groups", one_group_plan)
    _crash_mid_group_and_resume(tmp_path, monkeypatch)


def _crash_mid_group_and_resume(tmp_path, monkeypatch):
    from arlas_proc_ray.cdc.merge import merge_into

    cfg = ChangelogConfig(num_events=3000, num_keys=300, seed=43)
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
    snap = str(tmp_path / "snap")
    dm = DataModel(num_partitions=P)
    fault = 5  # second partition of group [4, 8)

    def epoch_ds(lo, hi):
        return rd.from_arrow(generate_changelog_tables(cfg, lo, hi))

    def check(eng, want):
        pd.testing.assert_frame_equal(eng.final_state().to_pandas(), want)
        deep = eng.store.verify_deep(recompute_hashes=True)
        assert deep["ok"], deep["failed"]

    CdcEngine(snap, dm).apply_epoch_staged(epoch_ds(0, 1000), 1)
    # base writes: every touched partition folds, so each is its own fence
    with monkeypatch.context() as m:
        m.setattr(sizing, "FOLD_SEGMENTS", 0)
        crashy = CdcEngine(snap, dm, fault_hook=crash_at(2, fault))
        with pytest.raises(Exception, match="injected crash"):
            crashy.apply_epoch_staged(epoch_ds(1000, 2000), 2)
        assert_crashed_mid_group(crashy.store, 2, fault, P)
        resumed = CdcEngine(snap, dm)
        resumed.apply_epoch_staged(epoch_ds(1000, 2000), 2)
    check(resumed, oracle_final_state(
        generate_changelog_tables(cfg, 0, 2000)).to_pandas())

    # delta segments: the fault's group writes no file, and is redone whole
    with pytest.raises(Exception, match="injected crash"):
        CdcEngine(snap, dm, fault_hook=crash_at(3, fault)).apply_epoch_staged(
            epoch_ds(2000, 3000), 3)
    listed = set(crashy.store._delta_listing(3))
    assert crashy.store.latest_committed_epoch() == 2
    resumed.apply_epoch_staged(epoch_ds(2000, 3000), 3)
    assert_group_file_redone_whole(resumed.store, 3, fault, P, listed)
    assert all(m.chain for m in resumed.store.epoch_index(3))
    check(resumed, exp)

    # merge_into: new content for every key, so every partition is written
    src = exp[["repo", "path", "commit", "language"]].assign(
        content="M:" + exp["path"], lsn=np.arange(len(exp)) + 10**6
    )
    want = exp.assign(
        content=src["content"], content_size=src["content"].str.len(),
        content_sha256=sha256_hex(
            pa.array(src["content"], pa.string())).to_pylist(),
        last_lsn=src["lsn"],
    )
    with pytest.raises(Exception, match="injected crash"):
        merge_into(CdcEngine(snap, dm, fault_hook=crash_at(4, fault)),
                   rd.from_pandas(src), 4)
    assert_crashed_mid_group(crashy.store, 4, fault, P)
    merge_into(CdcEngine(snap, dm), rd.from_pandas(src), 4)
    check(CdcEngine(snap, dm), want)

    # repartition_snapshot to P/2: groups of two, the fault second in one
    with pytest.raises(Exception, match="injected crash"):
        CdcEngine(snap, dm, fault_hook=crash_at(5, fault)).repartition_snapshot(
            P // 2, epoch=5
        )
    assert_crashed_mid_group(crashy.store, 5, fault, P // 2)
    CdcEngine(snap, dm).repartition_snapshot(P // 2, epoch=5)
    check(CdcEngine(snap, DataModel(num_partitions=P // 2)), want)


@pytest.mark.parametrize("mode", ["staged", "two_level"])
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
    eng = CdcEngine(str(tmp_path / mode), DataModel(num_partitions=P))
    _apply(eng, mode, rd.from_arrow(old), 1)
    _apply(eng, mode, rd.from_arrow(both), 2)

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


def _calls(root: str, attr: str) -> set[tuple[str, str]]:
    """``(file, enclosing function)`` of every call of a function or
    method named ``attr`` in the Python sources under ``root``, read
    with ``ast``."""
    import ast
    import os

    found = set()
    for dirpath, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                tree = ast.parse(f.read(), path)

            def visit(node, scope):
                for child in ast.iter_child_nodes(node):
                    inner = scope
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        inner = f"{scope}.{child.name}" if scope else child.name
                    func = getattr(child, "func", None)
                    if isinstance(child, ast.Call) and attr in (
                        getattr(func, "attr", None), getattr(func, "id", None)
                    ):
                        found.add((os.path.relpath(path, root), scope))
                    visit(child, inner)

            visit(tree, "")
    return found


def _exchange_params(root: str) -> set[tuple[str, str]]:
    """``(file, function)`` of every ``def`` under ``root`` that takes a
    parameter named ``exchange``."""
    import ast
    import os

    found = set()
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    tree = ast.parse(f.read(), path)
                for node in ast.walk(tree):
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        a = node.args
                        params = a.posonlyargs + a.args + a.kwonlyargs
                        if any(x.arg == "exchange" for x in params):
                            found.add((os.path.relpath(path, root),
                                       node.name))
    return found


def _defined(root: str, names: set[str]) -> list[tuple[str, str]]:
    """``(file, name)`` of every ``def`` under ``root`` of one of
    ``names``, sorted (a name defined twice is listed twice)."""
    import ast
    import os

    found = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    tree = ast.parse(f.read(), path)
                found += [(os.path.relpath(path, root), n.name)
                          for n in ast.walk(tree)
                          if isinstance(n, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                          and n.name in names]
    return sorted(found)


def test_one_kernel_writes_and_one_exchange_routes_the_store():
    """Every writer of the snapshot store ends in ``apply_partition`` or
    in the group body ``staged._apply_group`` (a CDC epoch's group pass):
    they are the only callers of ``SnapshotStore.write_partition`` in the
    package, and the group body the only caller of
    ``SnapshotStore.write_delta_group``. No module reads a base file
    without its chain: the raw ``read_partition`` is called only inside
    the store's resolving readers. No Ray Data ``map_groups`` exchange
    is left in the package, and no function offers a choice of exchange:
    every keyed step runs ``arlas_proc_ray/exchange.py``.

    One reader knows an epoch's layout: the epoch index, behind
    ``SnapshotStore``. No module reads the ``_COMMITTED`` marker's
    summary, and nothing is left of the readers of older layouts (JSON
    manifests, untagged blooms). Outside ``cdc/snapshot.py`` a partition
    file's path is built only to copy a file (clone) or to list the
    files of an uncommitted ``_STAGED`` cut.

    One kernel classifies I/U/D rows: ``diff_state_tables`` (and its
    null-safe compare) is defined once, in ``cdc/diff.py``, and called
    only there (``snapshot_diff``) and in the change feed, the one
    reader that diffs two epochs; the publish keeps no diff of its own."""
    import os

    import arlas_proc_ray

    pkg = os.path.dirname(arlas_proc_ray.__file__)
    snapshot_py = os.path.join("cdc", "snapshot.py")
    assert _calls(pkg, "write_partition") == {
        (os.path.join("cdc", "engine.py"), "apply_partition"),
        (os.path.join("cdc", "staged.py"), "_apply_group"),
    }
    assert _calls(pkg, "write_delta_group") == {
        (os.path.join("cdc", "staged.py"), "_apply_group")
    }
    assert _calls(pkg, "read_partition") == {
        (snapshot_py, "read_resolved"), (snapshot_py, "lookup_rows"),
        (snapshot_py, "write_delta_group"),
    }
    assert _calls(pkg, "map_groups") == set()
    assert _exchange_params(pkg) == set()
    assert _calls(pkg, "read_epoch_summary") == set()
    assert _defined(pkg, {"part_manifest_path", "_bloom_bytes",
                          "_scheme"}) == []
    assert _calls(pkg, "resolve_sources") == set()
    assert {c for c in _calls(pkg, "part_data_path")
            if c[0] != snapshot_py} == {
        (os.path.join("cdc", "clone.py"), "_copy_partition"),
        (os.path.join("cdc", "engine.py"), "_staged_files"),
    }
    # one I/U/D kernel, and the change feed the only reader that diffs
    # two epochs with it
    diff_py = os.path.join("cdc", "diff.py")
    assert _defined(pkg, {"diff_state_tables", "_null_safe_neq"}) == [
        (diff_py, "_null_safe_neq"), (diff_py, "diff_state_tables"),
    ]
    assert {f for f, _ in _calls(pkg, "diff_state_tables")} == {
        diff_py, os.path.join("cdc", "feed.py"),
    }
    assert _defined(pkg, {"_publish_global_diff"}) == []
