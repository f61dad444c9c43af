"""One base file per partition, one delta file per exchange group, one
index per epoch (cdc/snapshot.py).

Pins: an epoch directory holds its base files or its delta group files,
``_index.arrow`` and ``_COMMITTED`` and nothing else; the index a commit
writes equals the manifests rebuilt from the files' footers; the write
path reads no metadata back (the commit takes the kernels' manifests,
the next epoch the cached index); the cache keeps two indexes, follows
the marker and stays out of pickles; footer zone maps prune exactly as
the Arrow ``min_max`` zone maps did; a crash at every step of the fence
(a base file, a delta group file, a fold, a resume under another group
layout) resumes to the oracle for every writer, and ``gc_orphans``
removes the file a late group task leaves beside the index's; a store in
an older layout (an epoch without an index, an index without chains, a
bloom of another value hash) raises ``StoreLayoutError`` on its first
read and is left as it was.
"""

import dataclasses
import io
import os
import pickle
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from arlas_proc_ray.cdc import sizing, snapshot, staged
from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import ChangelogConfig, generate_changelog_tables
from arlas_proc_ray.cdc.feed import change_feed
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.snapshot import SnapshotStore, _stats_may_match, _zone_maps
from arlas_proc_ray.functions.hashing import sha256_hex
from arlas_proc_ray.model import DataModel


def one_group_plan(num_partitions: int) -> list[range]:
    return staged.group_plan(num_partitions, 1)


def _events(cfg, lo, hi):
    return rd.from_arrow(generate_changelog_tables(cfg, lo, hi))


def test_an_epoch_is_its_files_an_index_and_a_marker(tmp_path, monkeypatch):
    """The first epoch writes a base file per partition (66 files at
    P=64); the next, touching every partition, one delta group file per
    exchange group: 3 files in a one-group session."""
    monkeypatch.setattr(staged, "session_groups", one_group_plan)
    cfg = ChangelogConfig(num_events=2000, num_keys=1500, seed=61)
    eng = CdcEngine(str(tmp_path), DataModel(num_partitions=64))
    eng.apply_epoch(_events(cfg, 0, 1000), 1)
    eng.apply_epoch(_events(cfg, 1000, 2000), 2)
    names = sorted(os.listdir(eng.store.epoch_dir(1)))
    assert len(names) == 66
    assert names == ["_COMMITTED", "_index.arrow"] + [
        f"part-{p:05d}.parquet" for p in range(64)]
    names = sorted(os.listdir(eng.store.epoch_dir(2)))
    assert names == ["_COMMITTED", "_index.arrow", snapshot._delta_name(
        2, list(range(64)))]
    assert names[2].startswith("delta-2-00000-")
    index = eng.store.epoch_index(2)
    assert [(m.epoch, [(s.epoch, s.row_group) for s in m.chain])
            for m in index] == [(1, [(2, p)]) for p in range(64)]


def test_sql_reads_the_resolved_state_lazily(tmp_path, monkeypatch):
    """``sql`` over chained, partly chained, time-travelled and folded
    epochs returns ``read_state``'s rows, and a ``count(*)`` reads no
    ``content`` column: DuckDB overlays the chains itself."""
    monkeypatch.setattr(sizing, "FOLD_SEGMENTS", 3)
    cfg = ChangelogConfig(num_events=3000, num_keys=400, seed=67)
    eng = CdcEngine(str(tmp_path), DataModel(num_partitions=8))
    # epoch 3 touches a few partitions, so the others keep one segment;
    # epoch 5 folds every partition that reached three segments
    for e, (lo, hi) in enumerate([(0, 1000), (1000, 1800), (1800, 1803),
                                  (1803, 2400), (2400, 3000)], 1):
        eng.apply_epoch(_events(cfg, lo, hi), e, delta=True)
    store = SnapshotStore(str(tmp_path))
    chains = {e: [len(m.chain) for m in store.epoch_index(e)]
              for e in (3, 4, 5)}
    assert 1 in chains[3] and 2 in chains[3] and 0 in chains[5]
    key = ["repo", "path"]
    for e in range(1, 6):
        want = store.read_state(e).to_pandas().sort_values(key)
        got = store.sql("SELECT * FROM snapshot", epoch=e).to_pandas()
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True),
            want.reset_index(drop=True))
    plan = store.sql("EXPLAIN SELECT count(*) FROM snapshot", epoch=4)
    assert "content" not in "".join(plan.column(1).to_pylist()).replace(
        "content_", "")


def test_index_equals_the_manifests_in_the_footers(tmp_path):
    """The index a commit writes (and caches) is the manifests its
    kernels returned; a fresh handle reads the same rows from disk, and
    each equals the manifest rebuilt from its file's footer."""
    cfg = ChangelogConfig(num_events=3000, num_keys=400, seed=62)
    P = 8
    eng = CdcEngine(str(tmp_path), DataModel(num_partitions=P))
    eng.apply_epoch(_events(cfg, 0, 1500), 1)
    eng.apply_epoch(_events(cfg, 1500, 1503), 2, delta=True)
    cached = eng.store.epoch_index(2)
    fresh = SnapshotStore(eng.store.root)
    on_disk = fresh.epoch_index(2)
    assert [vars(m) for m in on_disk] == [vars(m) for m in cached]
    # each row names the newest epoch that wrote its partition, its base
    # file's rows, and the rows of the base with its chain overlaid
    assert [m.written_in() for m in on_disk] == [
        max(e for e in (1, 2) if fresh.partition_done(e, p)) for p in range(P)]
    assert [m.base_rows for m in on_disk] == [
        pq.read_metadata(fresh.part_data_path(m.epoch, p)).num_rows
        for p, m in enumerate(on_disk)]
    assert [m.row_count for m in on_disk] == [
        fresh.read_partition_resolved(2, p).num_rows for p in range(P)]
    assert any(m.written_in() == 1 for m in on_disk)  # the delta referenced some
    assert any(m.chain for m in on_disk)  # and added a segment to others
    for p, m in enumerate(on_disk):
        rebuilt = fresh.read_manifest(m.written_in(), p)
        if m.chain:  # what it inherits is the previous index's
            assert rebuilt.chain[-1] == m.chain[-1]
            rebuilt = dataclasses.replace(
                rebuilt, col_stats=m.col_stats, blooms=m.blooms,
                chain=m.chain)
        assert vars(rebuilt) == vars(m)
        assert set(m.blooms) == {"repo", "path"} or m.row_count == 0
    assert fresh.read_manifest(2, P) is None


def test_write_path_reads_no_metadata(tmp_path, monkeypatch):
    """After the first commit, further epochs, lookups and scans on the
    same engine read no manifest, summary or index file: the commit
    takes its manifests from the kernels and primes the cache."""
    monkeypatch.setattr(staged, "session_groups", one_group_plan)
    cfg = ChangelogConfig(num_events=3000, num_keys=400, seed=63)
    state = oracle_final_state(generate_changelog_tables(cfg))
    key = (state.column("repo")[0].as_py(), state.column("path")[0].as_py())
    eng = CdcEngine(str(tmp_path), DataModel(num_partitions=8))
    eng.apply_epoch(_events(cfg, 0, 1000), 1)
    reads = []
    for name in ("read_manifest", "read_epoch_summary", "_load_index"):
        fn = getattr(SnapshotStore, name)
        monkeypatch.setattr(
            SnapshotStore, name,
            lambda self, *a, _fn=fn, _name=name: reads.append(_name) or _fn(self, *a))
    eng.apply_epoch(_events(cfg, 1000, 2000), 2)
    eng.apply_epoch(_events(cfg, 2000, 3000), 3, delta=True)
    assert eng.lookup([key]).num_rows == 1
    assert eng.scan(predicate=[("repo", "==", key[0])]).count() >= 1
    eng.store.table_stats()
    assert reads == []


def test_index_cache_follows_the_marker_and_stays_out_of_pickles(tmp_path):
    store = SnapshotStore(str(tmp_path))
    t = oracle_final_state(generate_changelog_tables(
        ChangelogConfig(num_events=500, num_keys=100, seed=64)))
    store.write_partition(1, 0, t)
    store.commit_epoch(1, 1)
    first = store.epoch_index(1)
    assert store.epoch_index(1) is first  # cached
    assert pickle.loads(pickle.dumps(store))._index is None
    # the epoch rewritten under the same number (a new marker inode)
    store.write_partition(1, 0, t.slice(0, 10))
    SnapshotStore(store.root).commit_epoch(1, 1)
    assert store.epoch_index(1)[0].row_count == 10
    with pytest.raises(RuntimeError, match="not committed"):
        store.epoch_index(2)


def test_a_diff_loads_each_index_once(tmp_path, monkeypatch):
    """The handle keeps two indexes, so a change feed between two epochs
    on a fresh handle loads each epoch's index exactly once."""
    cfg = ChangelogConfig(num_events=2000, num_keys=300, seed=69)
    eng = CdcEngine(str(tmp_path), DataModel(num_partitions=8))
    eng.apply_epoch(_events(cfg, 0, 1000), 1)
    eng.apply_epoch(_events(cfg, 1000, 2000), 2)
    loads = []
    load = SnapshotStore._load_index
    monkeypatch.setattr(SnapshotStore, "_load_index",
                        lambda self, e: loads.append(e) or load(self, e))
    fresh = SnapshotStore(eng.store.root)
    feed = change_feed(fresh, base=1, target=2).to_pandas()
    assert len(feed) and loads == [1, 2]


# ---------------------------------------------------------------- zone maps
def _column_stats_reference(table: pa.Table) -> dict:
    """The zone maps manifests carried before they came from the footer:
    the Arrow ``min_max`` kernel over every int, float and string column,
    NaN bounds dropped, strings only when both bounds have ≤ 64 chars."""
    import pyarrow.compute as pc
    import pyarrow.types as pt

    stats = {}
    if table.num_rows == 0:
        return stats
    for name in table.column_names:
        t = table.column(name).type
        if not (pt.is_integer(t) or pt.is_floating(t) or pt.is_string(t)):
            continue
        mm = pc.min_max(table.column(name))
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is None or hi is None:
            continue
        if isinstance(lo, str) and (len(lo) > 64 or len(hi) > 64):
            continue
        if isinstance(lo, float) and (lo != lo or hi != hi):
            continue
        stats[name] = [lo, hi]
    return stats


def _random_table(rng, n: int) -> pa.Table:
    def maybe_null(vals, frac):
        return [None if rng.random() < frac else v for v in vals]

    ints = rng.integers(-50, 50, n)
    floats = rng.normal(0, 10, n).round(1)
    floats[rng.random(n) < rng.choice([0.0, 0.3, 1.0])] = np.nan
    alphabet = list("abcé")
    short = ["".join(rng.choice(alphabet, rng.integers(0, 4))) for _ in range(n)]
    long_ = ["x" * int(rng.choice([1, 40, 70, 5000])) + str(i) for i in range(n)]
    return pa.table({
        "i": pa.array(maybe_null(ints.tolist(), rng.choice([0.0, 0.2, 1.0])),
                      pa.int64()),
        "f": pa.array(maybe_null(floats.tolist(), rng.choice([0.0, 0.2])),
                      pa.float64()),
        "s": pa.array(maybe_null(short, rng.choice([0.0, 0.2])), pa.string()),
        "l": pa.array(long_, pa.string()),
    })


def _random_predicate(rng, table: pa.Table) -> list:
    col = str(rng.choice(table.column_names))
    op = str(rng.choice(["==", "!=", "<", "<=", ">", ">="]))
    vals = [v for v in table.column(col).to_pylist() if v is not None]
    if col == "i":
        val = int(rng.integers(-60, 60))
    elif col == "f":
        val = round(float(rng.normal(0, 12)), 1)
    elif vals and rng.random() < 0.5:
        val = vals[int(rng.integers(len(vals)))]
    else:
        val = "".join(rng.choice(list("abcéxz"), rng.integers(0, 5)))
    return [(col, op, val)]


@pytest.mark.parametrize("seed", range(12))
def test_footer_zone_maps_prune_as_min_max_did(seed):
    """Over random tables of several row groups and random predicates on
    int, float (with NaN), short- and long-string columns, the zone maps
    taken from the writer's row-group statistics prune exactly where the
    ``min_max`` zone maps did."""
    rng = np.random.default_rng(seed)
    for _ in range(4):
        t = _random_table(rng, int(rng.integers(1, 60)))
        written = []
        pq.write_table(t, io.BytesIO(), row_group_size=int(rng.integers(3, 9)),
                       metadata_collector=written)
        assert written[0].num_row_groups > 1 or t.num_rows < 9
        ref, got = _column_stats_reference(t), _zone_maps(written[0], t.schema)
        assert set(got) == set(ref)
        for _ in range(40):
            pred = _random_predicate(rng, t)
            assert _stats_may_match(got, pred) == _stats_may_match(ref, pred), (
                pred, got, ref)


def test_footer_zone_maps_skip_bounds_the_writer_dropped():
    """A string longer than the writer keeps in its statistics reads back
    as "" — never as a bound, also next to a real empty string."""
    for vals in (["", "y" * 5000], ["a", "y" * 5000], ["y" * 5000]):
        t = pa.table({"s": vals})
        written = []
        pq.write_table(t, io.BytesIO(), metadata_collector=written)
        assert _zone_maps(written[0], t.schema) == {}
    t = pa.table({"s": ["", ""]})
    written = []
    pq.write_table(t, io.BytesIO(), metadata_collector=written)
    assert _zone_maps(written[0], t.schema) == {"s": ["", ""]}


# ------------------------------------------------------------- crash matrix
P = 8


def _fail_on_index(monkeypatch):
    """Crash after the last partition, before the index is written."""
    def boom(manifests):
        raise RuntimeError("injected crash before the index")
    monkeypatch.setattr(snapshot, "_index_bytes", boom)


def _fail_on_marker(monkeypatch):
    """Crash after the index is written, before ``_COMMITTED``."""
    write = snapshot._atomic_write_bytes

    def guarded(path, payload):
        if path.endswith("_COMMITTED"):
            raise RuntimeError("injected crash before the marker")
        write(path, payload)
    monkeypatch.setattr(snapshot, "_atomic_write_bytes", guarded)


def _tear_index(monkeypatch):
    """Crash halfway through the index write, leaving a torn ``.tmp``."""
    write = snapshot._atomic_write_bytes

    def torn(path, payload):
        if not path.endswith(snapshot.INDEX_NAME):
            return write(path, payload)
        with open(path + ".tmp", "wb") as f:
            f.write(bytes(payload)[: len(payload) // 2])
        raise RuntimeError("injected crash mid-index")
    monkeypatch.setattr(snapshot, "_atomic_write_bytes", torn)


def _crash_at_partition(*parts):
    def hook(epoch, p):
        if p in parts:
            raise RuntimeError("injected crash at a partition")
    return hook


def _writers(cfg, exp):
    """(name, run(engine, epoch), expected state after it) per writer,
    each applied on top of a committed first epoch and writing every
    partition."""
    from arlas_proc_ray.cdc.merge import merge_into

    src = exp[["repo", "path", "commit", "language"]].assign(
        content="M:" + exp["path"], lsn=np.arange(len(exp)) + 10**6
    )
    merged = exp.assign(
        content=src["content"], content_size=src["content"].str.len(),
        content_sha256=sha256_hex(pa.array(src["content"], pa.string())).to_pylist(),
        last_lsn=src["lsn"],
    )
    return {
        "apply_epoch": (lambda eng, e: eng.apply_epoch(
            _events(cfg, 600, 1200), e), exp, P),
        "merge_into": (lambda eng, e: merge_into(
            eng, rd.from_pandas(src), e), merged, P),
        "repartition_snapshot": (lambda eng, e: eng.repartition_snapshot(
            P // 2, epoch=e), exp, P // 2),
    }


def _fail_after_group_file(monkeypatch):
    """Crash after a delta group file's rename, before the commit."""
    write = SnapshotStore.write_delta_group

    def renamed_then_crash(self, *args):
        write(self, *args)
        raise RuntimeError("injected crash after the group file")
    monkeypatch.setattr(SnapshotStore, "write_delta_group", renamed_then_crash)


def _two_group_plan(num_partitions: int) -> list[range]:
    return staged.group_plan(num_partitions, 2)


def _wait_for_listing(store, epoch: int, parts: list[int]) -> None:
    """Wait until the delta group files of ``epoch`` list ``parts``: a
    group task of a failed attempt outlives the attempt."""
    deadline = time.monotonic() + 60
    while (sorted(store._delta_listing(epoch)) != parts
           and time.monotonic() < deadline):
        time.sleep(0.05)


def _late_group_file(snap: str, twin: str, dm, epoch: int, run) -> str:
    """The delta group file that group [0, 4) of an attempt at two groups
    writes when the attempt fails at partition 5, made on a copy of the
    store: what a group task of a failed attempt renames late."""
    shutil.copytree(snap, twin)
    with pytest.raises(Exception, match="injected crash"):
        run(CdcEngine(twin, dm, fault_hook=_crash_at_partition(5)), epoch)
    store = SnapshotStore(twin)
    _wait_for_listing(store, epoch, [0, 1, 2, 3])
    (name,) = store._delta_files(epoch)
    return os.path.join(store.epoch_dir(epoch), name)


def _land_before_commit(monkeypatch, late: str) -> None:
    """Rename ``late`` into its epoch's directory just before the commit:
    after the resume wrote its own group file."""
    commit = SnapshotStore.commit_epoch

    def land_then_commit(self, epoch, *args, **kwargs):
        dst = os.path.join(self.epoch_dir(epoch), os.path.basename(late))
        shutil.copyfile(late, dst + ".tmp")
        os.replace(dst + ".tmp", dst)
        return commit(self, epoch, *args, **kwargs)
    monkeypatch.setattr(SnapshotStore, "commit_epoch", land_then_commit)


def _written_file(store, epoch: int, part: int) -> str:
    """The file ``epoch`` wrote ``part`` into: its base file, or the
    delta group file that lists it."""
    if store.base_done(epoch, part):
        return store.part_data_path(epoch, part)
    return os.path.join(store.epoch_dir(epoch),
                        store._delta_listing(epoch)[part][0])


_MATRIX = [
    (w, x, f) for w, x in [
        ("apply_epoch", "inline"), ("apply_epoch", "remote"),
        ("merge_into", "remote"), ("repartition_snapshot", "remote")]
    for f in ["partition", "index", "marker", "torn_index"]
] + [("apply_epoch", "inline", "group_file"),
     ("apply_epoch", "inline", "bootstrap"),
     ("apply_epoch", "inline", "fold"), ("apply_epoch", "remote", "fold"),
     ("apply_epoch", "remote", "layout"),
     ("apply_epoch", "remote", "late_layout")]


@pytest.mark.parametrize("writer,exchange,fault", _MATRIX)
def test_crash_matrix_resumes_to_oracle(tmp_path, monkeypatch, writer,
                                        exchange, fault):
    """A crash at each step of the fence — k of P base files renamed or
    no delta group file of the fault's group, all renamed but no index,
    the index but no marker, a torn index ``.tmp``, a group file renamed
    but no commit, a fold of every chain stopped midway, a crash under
    two exchange groups resumed in one, and the same where the failed
    attempt's first group renames its file after the resume wrote its
    own (it names its own file, so the index's file stays whole), and a
    crash between two bases of a first epoch on an empty store — leaves
    the epoch invisible; a fresh engine resumes it to the oracle, drops
    no event at the fence and rewrites no finished file (same mtime and
    inode). A CDC epoch writes delta segments here, except in the fold
    (``FOLD_SEGMENTS`` 1 over chains of one segment) and the first epoch,
    whose partitions are base files."""
    cfg = ChangelogConfig(num_events=1200, num_keys=200, seed=65)
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
    run, want, parts = _writers(cfg, exp)[writer]
    if exchange == "inline":
        monkeypatch.setattr(staged, "session_groups", one_group_plan)
    else:
        monkeypatch.setattr(sizing, "INLINE_BYTES", -1)
    snap = str(tmp_path / "snap")
    dm = DataModel(num_partitions=P)
    # the CDC epoch applies the second half; MERGE and the repartition
    # run on the whole changelog; a first epoch applies it all
    epoch = 2
    if fault == "bootstrap":
        epoch = 1

        def run(eng, e):
            return eng.apply_epoch(_events(cfg, 0, 1200), e)
    else:
        CdcEngine(snap, dm).apply_epoch(
            _events(cfg, 0, 600 if writer == "apply_epoch" else 1200), 1)
    if fault == "fold":  # a chain under every partition, then fold them
        CdcEngine(snap, dm).apply_epoch(_events(cfg, 600, 900), 2)
        assert all(m.chain for m in SnapshotStore(snap).epoch_index(2))
        monkeypatch.setattr(sizing, "FOLD_SEGMENTS", 1)
        epoch = 3

        def run(eng, e):
            return eng.apply_epoch(_events(cfg, 900, 1200), e)
    layout = fault in ("layout", "late_layout")
    if layout:
        monkeypatch.setattr(staged, "session_groups", _two_group_plan)

    crash_part = 1 if exchange == "remote" else 5  # mid-group either way
    if layout:
        crash_part = 5  # second partition of group [4, 8)
    if fault == "late_layout":
        late = _late_group_file(snap, str(tmp_path / "twin"), dm, epoch, run)
    with monkeypatch.context() as m:
        hook = None
        if fault == "late_layout":  # neither group's file lands yet
            hook = _crash_at_partition(1, crash_part)
        elif fault in ("partition", "fold", "layout", "bootstrap"):
            hook = _crash_at_partition(crash_part)
        else:
            {"index": _fail_on_index, "marker": _fail_on_marker,
             "torn_index": _tear_index,
             "group_file": _fail_after_group_file}[fault](m)
        with pytest.raises(Exception, match="injected crash"):
            run(CdcEngine(snap, dm, fault_hook=hook), epoch)
    store = SnapshotStore(snap)
    assert store.latest_committed_epoch() == (epoch - 1 or None)
    if fault == "layout":  # the other group's task outlives the failed one
        _wait_for_listing(store, epoch, [0, 1, 2, 3])

    def version(p):
        st = os.stat(_written_file(store, epoch, p))
        return st.st_mtime_ns, st.st_ino

    done = {p: version(p) for p in range(parts)
            if store.partition_done(epoch, p)}
    segments = writer == "apply_epoch" and fault not in ("fold", "bootstrap")
    if fault in ("partition", "fold", "bootstrap") or layout:
        assert crash_part not in done and len(done) < parts
        if exchange == "inline" and segments:  # one group file, not written
            assert done == {}
        elif exchange == "inline":  # one group, in order: k = 5 renamed
            assert sorted(done) == list(range(crash_part))
        if fault == "layout":  # group [0, 4) wrote its file, [4, 8) did not
            assert sorted(done) == [0, 1, 2, 3]
        if fault == "late_layout":
            assert done == {}
            _land_before_commit(monkeypatch, late)
        if layout:
            monkeypatch.setattr(staged, "session_groups", one_group_plan)
    else:
        assert sorted(done) == list(range(parts))
        assert os.path.exists(store.index_path(epoch)) == (fault == "marker")
    if fault == "torn_index":
        assert any(f.endswith(".tmp") for f in os.listdir(store.epoch_dir(epoch)))

    resumed = CdcEngine(snap, DataModel(num_partitions=P))
    run(resumed, epoch)
    after = CdcEngine(snap, DataModel(num_partitions=parts))
    pd.testing.assert_frame_equal(after.final_state().to_pandas(), want)
    assert {p: version(p) for p in done} == done
    index = SnapshotStore(snap).epoch_index(epoch)
    assert [m.written_in() for m in index] == [epoch] * parts
    assert all(bool(m.chain) == segments for m in index)
    assert sum(m.metrics["fence_dropped"] for m in index) == 0
    named = {s.file for m in index for s in m.chain if s.epoch == epoch}
    if fault == "layout":  # the resume wrote the rest as one more file
        listing = store._delta_listing(epoch)
        assert named == set(store._delta_files(epoch))
        assert sorted(sorted(p for p in listing if listing[p][0] == n)
                      for n in named) == [[0, 1, 2, 3], [4, 5, 6, 7]]
    if fault == "late_layout":  # the late file sits beside the index's
        assert named == set(store._delta_files(epoch)) - {
            os.path.basename(late)} and len(named) == 1
    assert after.store.verify_deep()["ok"]
    if fault == "late_layout":  # gc takes the late file, and nothing else
        late = os.path.join(store.epoch_dir(epoch), os.path.basename(late))
        assert store.gc_orphans()["removed"] == []  # younger than an hour
        gc = store.gc_orphans(min_age_s=0, dry_run=True)
        assert gc["removed"] == [os.path.relpath(late, snap)]
        assert os.path.exists(late)
        assert store.gc_orphans(min_age_s=0)["removed"] == gc["removed"]
        assert set(store._delta_files(epoch)) == named
        pd.testing.assert_frame_equal(
            CdcEngine(snap, DataModel(num_partitions=parts))
            .final_state().to_pandas(), want)
        assert SnapshotStore(snap).verify_deep()["ok"]


# ------------------------------------------------------------ older layouts
def _rewrite_index(store, epoch: int, edit) -> None:
    """Rewrite ``epoch``'s index as ``edit(table)`` returns it (``None``:
    no index at all), and its marker with the same bytes (a new inode, so
    an index cached from it goes stale)."""
    path = store.index_path(epoch)
    with pa.OSFile(path) as f:
        table = edit(pa.ipc.open_file(f).read_all())
    if table is None:
        os.unlink(path)
    else:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_file(sink, table.schema) as w:
            w.write_table(table)
        snapshot._atomic_write_bytes(path, sink.getvalue())
    marker = store.commit_marker_path(epoch)
    with open(marker, "rb") as f:
        payload = f.read()
    os.unlink(marker)
    snapshot._atomic_write_bytes(marker, payload)


def _untag_blooms(table: pa.Table) -> pa.Table:
    """Every bloom, the base's and each segment's, listed with the hash
    ``"sha256"``, as an index written before the siphash tag had it."""
    def untag(blooms):
        return [{**b, "h": "sha256"} for b in blooms]

    blooms = [untag(row) for row in table.column("blooms").to_pylist()]
    chains = [[{**s, "blooms": untag(s["blooms"])} for s in row]
              for row in table.column("chain").to_pylist()]
    table = table.set_column(table.schema.get_field_index("blooms"),
                             "blooms", pa.array(blooms, snapshot._BLOOM_TYPE))
    return table.set_column(table.schema.get_field_index("chain"),
                            "chain", pa.array(chains, snapshot._CHAIN_TYPE))


_OLDER_LAYOUTS = {
    "no_index": lambda table: None,
    "no_chain": lambda table: table.drop_columns(["base_rows", "chain"]),
    "untagged_bloom": _untag_blooms,
}


def _tree(root: str) -> dict:
    """Every file under ``root`` with its size and mtime."""
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            st = os.stat(os.path.join(base, f))
            out[os.path.join(base, f)] = (st.st_size, st.st_mtime_ns)
    return out


@pytest.mark.parametrize("layout", sorted(_OLDER_LAYOUTS))
def test_older_store_layouts_are_refused(tmp_path, monkeypatch, layout):
    """A store whose latest epoch has no index (written before the epoch
    index), an index without chains (written before delta chains), or a
    bloom of another value hash (written before the siphash tag) raises
    ``StoreLayoutError`` on its first read. ``epoch_index``, ``lookup``,
    ``scan`` and a delta epoch on top each raise, none of them reads a
    data file, and nothing in the store changes."""
    cfg = ChangelogConfig(num_events=2000, num_keys=300, seed=66)
    dm = DataModel(num_partitions=P)
    snap = str(tmp_path / "snap")
    eng = CdcEngine(snap, dm)
    eng.apply_epoch(_events(cfg, 0, 1000), 1)
    eng.apply_epoch(_events(cfg, 1000, 1500), 2)
    assert all(m.chain for m in eng.store.epoch_index(2))
    key = eng.final_state().select(["repo", "path"]).to_pylist()[0]
    _rewrite_index(eng.store, 2, _OLDER_LAYOUTS[layout])
    before = _tree(snap)
    reads = []
    for name in ("read_partition", "_segment_rows", "_read_segments"):
        fn = getattr(SnapshotStore, name)
        monkeypatch.setattr(
            SnapshotStore, name, lambda self, *a, _fn=fn, _name=name, **kw:
            reads.append(_name) or _fn(self, *a, **kw))

    old = CdcEngine(snap, dm)
    attempts = {
        "epoch_index": lambda: old.store.epoch_index(2),
        "lookup": lambda: old.lookup([(key["repo"], key["path"])]),
        "scan": lambda: old.scan(predicate=[("repo", "==", key["repo"])]),
        "delta": lambda: old.apply_epoch(_events(cfg, 1500, 2000), 3,
                                         delta=True),
    }
    for name, attempt in attempts.items():
        with pytest.raises(snapshot.StoreLayoutError, match="f13d266"):
            attempt()
    assert reads == []
    assert _tree(snap) == before
