"""Time the kernels of one staged CDC epoch against their library floors.

    python tools/layer_bench.py                          # 40k events, P=64
    python tools/layer_bench.py --events 200000 --partitions 256 --groups 8
    python tools/layer_bench.py --smoke                  # toy sizes, seconds

Each row is one kernel run on the same input as its floor, the cheapest
library call that does the same job on the same bytes:

  split.per_partition   P ``take``s, one per partition (``_split_block``)
  split.exchange        the engine's cut: one ``take`` per merge group
                        (``(first_partition, table, bounds)`` objects)
      floor: one ``take`` of the whole table in partition order
  exchange.dict         ``ray.put`` + ``ray.get`` of G ``{partition: table}``
                        dicts (the exchange shape the engine used to ship)
  exchange.object       ``ray.put`` + ``ray.get`` of G exchange objects
      floor: ``ray.put`` + ``ray.get`` of the G group tables, bare
  read.read_partition   ``SnapshotStore.read_partition`` of P files
  read.read_table       ``pq.read_table`` of the same files
      floor: ``pq.ParquetFile(path).read()``
  write.write_partition ``SnapshotStore.write_partition`` of P partitions
                        (blooms, rollup, zone maps from the writer's
                        statistics, fsynced file with its manifest footer)
      floor: ``pq.write_table`` of the same tables
  write.partition       ``SnapshotStore.write_partition`` of one tail-sized
                        partition (``TAIL_ROWS`` rows), P times
  write.floor           the durable floor of that write: ``pq.write_table``
                        to a temporary file, fsync, rename, P times
      floor: ``pq.write_table`` of the same partition, P times
  write.delta_group     ``SnapshotStore.write_delta_group`` of one tail
                        epoch's P segments (``TAIL_SEGMENT_ROWS`` rows
                        each) over those P partitions: one group file,
                        its key reads of the bases, rollups and blooms
      floor: ``write.partition``, the P whole-partition writes it
                        replaces
  plan_scan.index       ``plan_scan`` of one ``==`` predicate over the P
                        partitions, from a fresh store handle: the epoch
                        index read, decoded and pruned
      floor: the bare Arrow IPC read of the index file
  lookup.engine         ``CdcEngine.lookup`` of one stored key per partition
      floor: ``pq.ParquetFile(path).read()`` of the P files it opens
  scan.engine           ``CdcEngine.scan(predicate=[("repo", "==", r)])``
                        ``.count()`` of four repos, read in process
  scan.engine.lazy      the same scans through ``ray.data.read_parquet``
                        (``SMALL_SCAN_BYTES`` set to 0)
      floor: ``pq.ParquetFile(path).read()`` of the files the plans keep
  bloom.build           the store's bloom build over the key columns
      floor: the keyed siphash value hash the build needs
                        (``_bloom_hashes``)

Merge-on-read chains (``sizing.FOLD_SEGMENTS``, ``FOLD_ROWS_RATIO``), on
a store of ``TAIL_BASE_EVENTS`` events over P=64 (``--smoke``: smaller):

  epoch.chain           per-epoch time over ``CHAIN_EPOCHS`` tail-sized
                        (2k-event) epochs through ``apply_epoch`` in one
                        merge group, chained, folds included (their count
                        is printed)
      floor: the same epochs with every partition rewritten whole
                        (``FOLD_SEGMENTS`` 0)
  lookup.chain          ``CdcEngine.lookup`` of one stored key per
                        partition on a store whose chains hold
                        ``CHAIN_LENGTH`` segments
  scan.chain            four repo scans (``scan(...).count()``) on it
      floor: the same reads of the same state folded (``jobs
                        optimize``'s rewrite)

The delta epoch in one pass per group, at P = 16, 64 and 256 (the sweep
shape of SNIPPETS [1]/[3], over fan-out instead of batch size):

  epoch.segment.P<P>    one tail-sized (2k-event) delta epoch on a
                        chained store of ``TAIL_BASE_EVENTS`` events,
                        from a fresh store handle (cold: each touched
                        partition's base and chain read)
      floor: the same epoch from the handle that wrote the previous
                        one (warm: its live key columns cached)

Both sides of the one-task rule (``sizing.runs_in_process``), at 2k, 20k
and 40k events (2k alone with ``--smoke``), ``<n>`` in thousands:

  read.inline.<n>k      ``read_changelog_jsonl`` of one n-event JSONL
                        segment, a held read decoded in process
                        (``sizing.held``, as an epoch takes it)
  read.remote.<n>k      the same read through Ray Data tasks, its
                        blocks fetched to the caller (``to_arrow_refs``)
      floor: the decode function over the segment's lines, bare
  read.parquet.inline.union.<n>k
                        ``sources.io.read_parquet`` of the n events as
                        Parquet, one file per schema version, the held
                        reads unioned as ``jobs replay`` and perfbench's
                        ``bootstrap`` feed an epoch, the union's tables
                        taken with ``sizing.held``
  read.parquet.remote.<n>k
                        the union through Ray's read tasks, its blocks
                        fetched to the caller
      floor: ``pq.read_table`` of the files

Each read row ends with the decoded tables in the caller.
  epoch.inline.<n>k     one n-event epoch (P=64) through
                        ``staged_apply_epoch`` in one merge group, its
                        exchange in process, into a fresh store
  epoch.remote.<n>k     the same epoch as split and merge tasks
      floor: ``pq.write_table`` of the epoch's 64 partition files

Each inline row runs whatever its size (``sizing.INLINE_BYTES`` raised
past it) and each remote row with ``INLINE_BYTES`` set to -1; MB/s is of
the JSONL bytes for JSONL reads and of the Arrow input for Parquet reads
and epochs.

The routing (align, combine, partition ids) and the argsort run once,
outside every timed region. Times are medians over ``--repeats`` runs;
rows/s and MB/s are of the kernel's input rows and Arrow bytes. Uses the
current Ray session, or starts a one-CPU local one.
"""

from __future__ import annotations

import argparse
import itertools
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402


# input sizes of the read.* and epoch.* rows, and the epochs' partitions
EPOCH_EVENTS, EPOCH_PARTITIONS = (2000, 20_000, 40_000), 64
# rows of a tail-sized partition: the median partition of the perfbench
# tail workload's snapshot
TAIL_ROWS = 175
# rows of one partition's segment in a 2k-event tail epoch at P=64
TAIL_SEGMENT_ROWS = 25
# the chain rows: base events, tail epochs run, and the chain length the
# read rows are measured on
TAIL_BASE_EVENTS, CHAIN_EPOCHS, CHAIN_LENGTH = 20_000, 24, 6
# the fan-outs of the epoch.segment rows
SEGMENT_PARTITIONS = (16, 64, 256)


def _median_s(fn, repeats: int) -> float:
    fn()  # warm-up: first-call costs are not the kernel's
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _routed(events: int, partitions: int, seed: int):
    """One combined, routed block: ``(dm, table, order, bounds)``."""
    from arlas_proc_ray.cdc.constraints import make_ingest_head
    from arlas_proc_ray.cdc.events import (
        ChangelogConfig,
        default_registry,
        generate_changelog_tables,
    )
    from arlas_proc_ray.cdc.staged import _route
    from arlas_proc_ray.exchange import partition_order
    from arlas_proc_ray.model import DataModel

    dm = DataModel(num_partitions=partitions)
    cfg = ChangelogConfig(num_events=events, num_keys=events, seed=seed)
    block = pa.concat_tables(generate_changelog_tables(cfg),
                             promote_options="default")
    align = make_ingest_head(default_registry(), dm, epoch=1,
                             dead_letter_dir=None, constraints=None)
    table, pids = _route(block, dm, align)
    order, bounds = partition_order(pids, 0, partitions)
    return dm, table, order, bounds


def measure(events: int, partitions: int, groups: int, repeats: int,
            seed: int, epoch_events=EPOCH_EVENTS) -> list[dict]:
    import ray

    from arlas_proc_ray.cdc.engine import CdcEngine, _events_as_merge_rows
    from arlas_proc_ray.cdc.replay import finalize_partition_table
    from arlas_proc_ray.cdc.snapshot import (
        SnapshotStore,
        _bloom_build,
        _bloom_hashes,
    )
    from arlas_proc_ray.exchange import exchange_object, group_plan

    dm, table, order, bounds = _routed(events, partitions, seed)
    plan = group_plan(partitions, groups)
    rows, nbytes = table.num_rows, table.nbytes

    def per_partition():
        return [table.take(order[bounds[p]: bounds[p + 1]])
                for p in range(partitions)]

    def exchange_objects():
        return [exchange_object(g[0], table, order,
                                bounds[g.start: g.stop + 1]) for g in plan]

    def put_get(objs):
        return lambda: ray.get([ray.put(o) for o in objs])

    parts = per_partition()
    objects = exchange_objects()
    dicts = [{p: parts[p] for p in g if parts[p].num_rows} for g in plan]
    rows_out = []

    def row(kernel, floor, kernel_s, floor_s, n_rows, n_bytes, note=""):
        rows_out.append({
            "kernel": kernel, "floor": floor,
            "s": kernel_s, "floor_s": floor_s, "ratio": kernel_s / floor_s,
            "rows_per_s": n_rows / kernel_s, "mb_per_s": n_bytes / kernel_s / 1e6,
            "note": note,
        })

    take_all = _median_s(lambda: table.take(order), repeats)
    row("split.per_partition", "one take", _median_s(per_partition, repeats),
        take_all, rows, nbytes)
    row("split.exchange", "one take", _median_s(exchange_objects, repeats),
        take_all, rows, nbytes)

    bare = _median_s(put_get([t for _, t, _ in objects]), repeats)
    row("exchange.dict", "put/get bare", _median_s(put_get(dicts), repeats),
        bare, rows, nbytes)
    row("exchange.object", "put/get bare", _median_s(put_get(objects), repeats),
        bare, rows, nbytes)

    # the partitions' final state, as the merge kernel would write it
    states = [finalize_partition_table(_events_as_merge_rows(t), dm)
              for t in parts]
    s_rows = sum(t.num_rows for t in states)
    s_bytes = sum(t.nbytes for t in states)
    with tempfile.TemporaryDirectory() as d:
        store = SnapshotStore(os.path.join(d, "store"), bloom_cols=dm.key_list)
        floor_dir = os.path.join(d, "floor")
        os.makedirs(floor_dir)

        def write_store():
            for p, t in enumerate(states):
                store.write_partition(1, p, t)

        def write_floor():
            for p, t in enumerate(states):
                pq.write_table(t, os.path.join(floor_dir, f"{p}.parquet"),
                               compression=store.compression)

        row("write.write_partition", "pq.write_table",
            _median_s(write_store, repeats), _median_s(write_floor, repeats),
            s_rows, s_bytes)
        _tail_write_rows(row, store, states, partitions, repeats, d, dm)

        paths = [store.part_data_path(1, p) for p in range(partitions)]
        floor_read = _median_s(
            lambda: [pq.ParquetFile(f).read() for f in paths], repeats)
        row("read.read_partition", "ParquetFile.read",
            _median_s(lambda: [store.read_partition(1, p)
                               for p in range(partitions)], repeats),
            floor_read, s_rows, s_bytes)
        row("read.read_table", "ParquetFile.read",
            _median_s(lambda: [pq.read_table(f) for f in paths], repeats),
            floor_read, s_rows, s_bytes)

        store.commit_epoch(1, partitions)
        _plan_rows(row, store, states, repeats)
        _serving_rows(row, CdcEngine(store.root, dm), states, repeats)

    keys = [(t.column(c), t.num_rows) for t in states if t.num_rows
            for c in dm.key_list]
    k_bytes = sum(col.nbytes for col, _ in keys)
    row("bloom.build", "siphash hash",
        _median_s(lambda: [_bloom_build(c, n) for c, n in keys], repeats),
        _median_s(lambda: [_bloom_hashes(c) for c, _ in keys], repeats),
        s_rows * len(dm.key_list), k_bytes)
    for n in epoch_events:
        _one_task_rows(row, n, repeats, seed)
    _chain_rows(row, repeats, seed, smoke=epoch_events != EPOCH_EVENTS)
    _segment_rows(row, repeats, seed, smoke=epoch_events != EPOCH_EVENTS)
    return rows_out


def _tail_write_rows(row, store, states, partitions: int, repeats: int,
                     d: str, dm) -> None:
    """One tail-sized partition written P times by the store, and by the
    durable floor the store's write keeps (write, fsync, rename), each
    against bare ``pq.write_table``; then one tail epoch's P segments over
    those partitions as one delta group file, against the P writes."""
    import pyarrow.compute as pc

    import numpy as np

    from arlas_proc_ray.cdc.snapshot import DELETED, DeltaGroup, SnapshotStore

    tail = pa.concat_tables(states).slice(0, TAIL_ROWS).combine_chunks()
    tail_store = SnapshotStore(os.path.join(d, "tail"),
                               bloom_cols=store.bloom_cols)
    floor_dir = os.path.join(d, "tail-floor")
    os.makedirs(floor_dir)

    def store_write():
        for p in range(partitions):
            tail_store.write_partition(1, p, tail)

    def durable():
        for p in range(partitions):
            tmp = os.path.join(floor_dir, f"{p}.tmp")
            with open(tmp, "wb") as f:
                pq.write_table(tail, f, compression=store.compression)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, os.path.join(floor_dir, f"{p}.parquet"))

    def bare():
        for p in range(partitions):
            pq.write_table(tail, os.path.join(floor_dir, f"{p}.bare"),
                           compression=store.compression)

    floor_s = _median_s(bare, repeats)
    n_rows, n_bytes = partitions * tail.num_rows, partitions * tail.nbytes
    partition_s = _median_s(store_write, repeats)
    row("write.partition", "pq.write_table", partition_s,
        floor_s, n_rows, n_bytes)
    row("write.floor", "pq.write_table", _median_s(durable, repeats),
        floor_s, n_rows, n_bytes)

    # a segment: the first rows of the partition, updated above its fence
    tail_store.commit_epoch(1, partitions)
    seg = tail.slice(0, TAIL_SEGMENT_ROWS)
    seg = seg.set_column(
        seg.schema.get_field_index("last_lsn"), "last_lsn",
        pc.add(seg.column("last_lsn"), 10**9),
    ).append_column(DELETED, pa.repeat(pa.scalar(False), seg.num_rows))
    index = tail_store.epoch_index(1)
    group = DeltaGroup(
        parts=list(range(partitions)),
        rows=pa.concat_tables([seg] * partitions).combine_chunks(),
        bounds=np.arange(partitions + 1) * seg.num_rows, priors=index,
        last_lsn=[10**9 + p for p in range(partitions)],
        metrics=[{}] * partitions)
    row("write.delta_group", "write.partition",
        _median_s(lambda: tail_store.write_delta_group(2, dm.key_list, group),
                  repeats),
        partition_s, partitions * seg.num_rows, partitions * seg.nbytes)


def _plan_rows(row, store, states, repeats: int) -> None:
    """``plan_scan`` of one repo over every partition from a fresh handle,
    against the bare read of the index it plans from."""
    from arlas_proc_ray.cdc.snapshot import SnapshotStore

    repo = next(t for t in states if t.num_rows).column("repo")[0].as_py()
    path = store.index_path(1)

    def plan():
        return SnapshotStore(store.root).plan_scan(
            epoch=1, predicate=[("repo", "==", repo)])

    def read_index():
        with pa.OSFile(path) as f:
            return pa.ipc.open_file(f).read_all()

    row("plan_scan.index", "IPC read", _median_s(plan, repeats),
        _median_s(read_index, repeats), len(states), os.path.getsize(path))


def _one_task_rows(row, n: int, repeats: int, seed: int) -> None:
    """An n-event JSONL segment read, the same events' Parquet read, and
    an n-event epoch applied through ``staged_apply_epoch`` with one merge
    group into a fresh store each repeat, each once in process and once as
    Ray tasks."""
    import ray
    import ray.data as rd

    from arlas_proc_ray.cdc import sizing, staged
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import (
        ChangelogConfig,
        generate_changelog_tables,
    )
    from arlas_proc_ray.cdc.wire import (
        _range_bytes,
        _split_lines,
        make_decode_fn,
        make_encode_fn,
        read_changelog_jsonl,
    )
    from arlas_proc_ray.model import DataModel
    from arlas_proc_ray.sources.io import read_parquet

    dm = DataModel(num_partitions=EPOCH_PARTITIONS)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=n, num_keys=n, seed=seed))
    events = rd.from_arrow(tables).materialize()
    tag = f"{n // 1000}k"
    groups, inline_bytes = staged.session_groups, sizing.INLINE_BYTES
    staged.session_groups = lambda p: staged.group_plan(p, 1)
    try:
        with tempfile.TemporaryDirectory() as d:
            seg = os.path.join(d, "seg.jsonl")
            encode = make_encode_fn()
            with open(seg, "w") as f:
                for t in tables:
                    f.write("\n".join(encode(t).column("value").to_pylist()))
                    f.write("\n")
            seg_bytes = os.path.getsize(seg)
            pq_files = [os.path.join(d, f"events-{i}.parquet")
                        for i in range(len(tables))]
            for f, t in zip(pq_files, tables):
                pq.write_table(t, f)

            def read_pq():
                ds = read_parquet(pq_files[0])
                for f in pq_files[1:]:
                    ds = ds.union(read_parquet(f))
                return ds

            def fetched(ds):
                return ray.get(ds.to_arrow_refs())

            read_pq_floor_s = _median_s(
                lambda: [pq.read_table(f) for f in pq_files], repeats)
            decode = make_decode_fn(json_col="text")
            decode_s = _median_s(lambda: list(decode(pa.table(
                {"text": _split_lines(_range_bytes(seg, 0, seg_bytes))}))),
                repeats)
            runs = itertools.count()

            def epoch():
                eng = CdcEngine(os.path.join(d, str(next(runs))), dm)
                staged.staged_apply_epoch(eng, events, 1)
                return eng

            sizing.INLINE_BYTES = 1 << 62
            store = epoch().store
            files = [store.read_partition(1, p) for p in range(dm.num_partitions)]

            def write_floor():
                for p, t in enumerate(files):
                    pq.write_table(t, os.path.join(d, f"floor-{p}.parquet"),
                                   compression=store.compression)

            floor_s = _median_s(write_floor, repeats)
            nbytes = events.size_bytes()
            sizing.INLINE_BYTES = 1 << 62
            row(f"read.inline.{tag}", "decode, bare",
                _median_s(lambda: sizing.held(read_changelog_jsonl(seg)),
                          repeats), decode_s, n, seg_bytes)
            row(f"read.parquet.inline.union.{tag}", "pq.read_table",
                _median_s(lambda: sizing.held(read_pq()), repeats),
                read_pq_floor_s, n, nbytes)
            row(f"epoch.inline.{tag}", "pq.write_table",
                _median_s(epoch, repeats), floor_s, n, nbytes)
            sizing.INLINE_BYTES = -1
            row(f"read.remote.{tag}", "decode, bare",
                _median_s(lambda: fetched(read_changelog_jsonl(seg)),
                          repeats), decode_s, n, seg_bytes)
            row(f"read.parquet.remote.{tag}", "pq.read_table",
                _median_s(lambda: fetched(read_pq()), repeats),
                read_pq_floor_s, n, nbytes)
            row(f"epoch.remote.{tag}", "pq.write_table",
                _median_s(epoch, repeats), floor_s, n, nbytes)
    finally:
        staged.session_groups, sizing.INLINE_BYTES = groups, inline_bytes


def _chain_rows(row, repeats: int, seed: int, smoke: bool = False) -> None:
    """Tail-sized epochs on one store, chained and rewritten whole, and
    lookups and scans on a store with ``CHAIN_LENGTH``-segment chains
    against the same state folded. All in one merge group, in process."""
    import shutil

    import ray.data as rd

    from arlas_proc_ray.cdc import sizing, staged
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import (
        ChangelogConfig,
        generate_changelog_tables,
    )
    from arlas_proc_ray.model import DataModel

    parts, base_n, step, n_epochs, length = (
        (8, 2000, 200, 6, 3) if smoke
        else (EPOCH_PARTITIONS, TAIL_BASE_EVENTS, 2000, CHAIN_EPOCHS,
              CHAIN_LENGTH))
    dm = DataModel(num_partitions=parts)
    total = base_n + step * n_epochs
    cfg = ChangelogConfig(num_events=total, num_keys=base_n * 3 // 4,
                          seed=seed)
    epochs = [rd.from_arrow(generate_changelog_tables(cfg, lo, lo + step))
              .materialize() for lo in range(base_n, total, step)]
    base = rd.from_arrow(generate_changelog_tables(cfg, 0, base_n)).materialize()
    saved = (staged.session_groups, sizing.INLINE_BYTES,
             sizing.FOLD_SEGMENTS, sizing.FOLD_ROWS_RATIO)
    staged.session_groups = lambda p: staged.group_plan(p, 1)
    sizing.INLINE_BYTES = 1 << 62
    try:
        with tempfile.TemporaryDirectory() as d:
            def run(name: str, fold_segments: int) -> tuple[float, int]:
                sizing.FOLD_SEGMENTS = fold_segments
                eng = CdcEngine(os.path.join(d, name), dm)
                eng.apply_epoch(base, 1)
                t0 = time.perf_counter()
                for e, ds in enumerate(epochs, start=2):
                    eng.apply_epoch(ds, e)
                per_epoch = (time.perf_counter() - t0) / len(epochs)
                store = eng.store
                folds = sum(
                    1 for e in range(2, len(epochs) + 2)
                    for p, m in enumerate(store.epoch_index(e))
                    if not m.chain and m.epoch == e
                    and store.epoch_index(e - 1)[p].chain)
                return per_epoch, folds

            chained_s, folds = run("chained", saved[2])
            full_s, _ = run("full", 0)
            n_rows = sum(ds.count() for ds in epochs) // len(epochs)
            n_bytes = sum(ds.size_bytes() for ds in epochs) // len(epochs)
            row("epoch.chain", "full rewrite", chained_s, full_s, n_rows,
                n_bytes, note=f"{folds} folds in {len(epochs)} epochs")

            # chains of ``length`` segments, then the same state folded
            sizing.FOLD_SEGMENTS, sizing.FOLD_ROWS_RATIO = 1 << 30, float("inf")
            eng = CdcEngine(os.path.join(d, "long"), dm)
            eng.apply_epoch(base, 1)
            for e, ds in enumerate(epochs[:length], start=2):
                eng.apply_epoch(ds, e)
            assert all(len(m.chain) == length
                       for m in eng.store.epoch_index(length + 1))
            shutil.copytree(eng.store.root, os.path.join(d, "folded"))
            folded = CdcEngine(os.path.join(d, "folded"), dm)
            folded.repartition_snapshot(parts)
            state = folded.final_state()
            keys = list(zip(state.column("repo").to_pylist()[:: max(
                1, state.num_rows // parts)], state.column("path").to_pylist()[
                :: max(1, state.num_rows // parts)]))[:parts]
            repos = sorted(set(state.column("repo").to_pylist()))
            preds = [[("repo", "==", r)]
                     for r in repos[:: max(1, len(repos) // 4)][:4]]

            def lookups(engine):
                return lambda: [engine.lookup([k]) for k in keys]

            def scans(engine):
                return lambda: [engine.scan(predicate=p).count() for p in preds]

            row("lookup.chain", "lookup folded",
                _median_s(lookups(eng), repeats),
                _median_s(lookups(folded), repeats), len(keys), 1)
            row("scan.chain", "scan folded", _median_s(scans(eng), repeats),
                _median_s(scans(folded), repeats), len(preds), 1)
    finally:
        (staged.session_groups, sizing.INLINE_BYTES, sizing.FOLD_SEGMENTS,
         sizing.FOLD_ROWS_RATIO) = saved


def _segment_rows(row, repeats: int, seed: int, smoke: bool = False) -> None:
    """One tail-sized delta epoch (``delta=True``) on a chained store at
    P = 16, 64 and 256, through ``apply_epoch`` in one merge group, in
    process: from a
    fresh handle (cold: every touched partition's base and chain read)
    and from the handle that wrote the previous epoch (warm: the live key
    columns cached). Each run starts from a copy of the same store."""
    import shutil

    import ray.data as rd

    from arlas_proc_ray.cdc import sizing, staged
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import (
        ChangelogConfig,
        generate_changelog_tables,
    )
    from arlas_proc_ray.model import DataModel

    base_n, step = (2000, 200) if smoke else (TAIL_BASE_EVENTS, 2000)
    cfg = ChangelogConfig(num_events=base_n + 2 * step,
                          num_keys=base_n * 3 // 4, seed=seed)
    base, second, third = (
        rd.from_arrow(generate_changelog_tables(cfg, lo, hi)).materialize()
        for lo, hi in ((0, base_n), (base_n, base_n + step),
                       (base_n + step, base_n + 2 * step)))
    saved = staged.session_groups, sizing.INLINE_BYTES
    staged.session_groups = lambda p: staged.group_plan(p, 1)
    sizing.INLINE_BYTES = 1 << 62
    try:
        with tempfile.TemporaryDirectory() as d:
            for parts in SEGMENT_PARTITIONS:
                dm = DataModel(num_partitions=parts)
                seed_dir = os.path.join(d, f"P{parts}")
                CdcEngine(seed_dir, dm).apply_epoch(base, 1)
                work = os.path.join(d, "work")

                def fresh():
                    shutil.rmtree(work, ignore_errors=True)
                    shutil.copytree(seed_dir, work)
                    return CdcEngine(work, dm)

                def timed(warm: bool) -> float:
                    times = []
                    for _ in range(repeats + 1):  # the first is a warm-up
                        eng = fresh()
                        eng.apply_epoch(second, 2, delta=True)
                        if not warm:
                            eng = CdcEngine(work, dm)
                        t0 = time.perf_counter()
                        eng.apply_epoch(third, 3, delta=True)
                        times.append(time.perf_counter() - t0)
                        assert any(m.chain for m in eng.store.epoch_index(3))
                    return statistics.median(times[1:])

                cold_s, warm_s = timed(False), timed(True)
                row(f"epoch.segment.P{parts}", "warm handle", cold_s, warm_s,
                    step, third.size_bytes(),
                    note=f"cold {cold_s:.4f}s, warm {warm_s:.4f}s")
    finally:
        staged.session_groups, sizing.INLINE_BYTES = saved


def _serving_rows(row, engine, states, repeats: int) -> None:
    """``lookup`` of one stored key per partition, and pruned ``scan``s of
    four repos on both scan paths, each against ``ParquetFile.read`` of
    the files it opens."""
    from arlas_proc_ray.cdc import snapshot

    store = engine.store
    live = [(p, t) for p, t in enumerate(states) if t.num_rows]

    def floor_of(files):
        def read():
            return [pq.ParquetFile(f).read() for f in files]
        tables = read()
        return (_median_s(read, repeats), sum(t.num_rows for t in tables),
                sum(t.nbytes for t in tables))

    keys = [tuple(t.select(engine.dm.key_list).slice(0, 1).to_pylist()[0].values())
            for _, t in live]
    floor_s, n_rows, n_bytes = floor_of(
        [store.part_data_path(1, p) for p, _ in live])
    row("lookup.engine", "ParquetFile.read",
        _median_s(lambda: [engine.lookup([k]) for k in keys], repeats),
        floor_s, n_rows, n_bytes)

    preds = [[("repo", "==", t.column("repo")[0].as_py())]
             for _, t in live[:: max(1, len(live) // 4)][:4]]
    floor_s, n_rows, n_bytes = floor_of(
        [f for pred in preds for f in store.plan_scan(predicate=pred)["files"]])

    def scans():
        return [engine.scan(predicate=pred).count() for pred in preds]

    row("scan.engine", "ParquetFile.read", _median_s(scans, repeats),
        floor_s, n_rows, n_bytes)
    small = snapshot.SMALL_SCAN_BYTES
    snapshot.SMALL_SCAN_BYTES = 0  # every plan takes the read_parquet path
    try:
        row("scan.engine.lazy", "ParquetFile.read", _median_s(scans, repeats),
            floor_s, n_rows, n_bytes)
    finally:
        snapshot.SMALL_SCAN_BYTES = small


def render(rows: list[dict]) -> str:
    head = (f"{'kernel':<22} {'s':>9} {'rows/s':>11} {'MB/s':>8}  "
            f"{'floor':<17} {'floor_s':>9} {'ratio':>6}")
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r['kernel']:<22} {r['s']:>9.4f} {r['rows_per_s']:>11.0f} "
            f"{r['mb_per_s']:>8.1f}  {r['floor']:<17} {r['floor_s']:>9.4f} "
            f"{r['ratio']:>6.2f}" + (f"  {r['note']}" if r["note"] else "")
        )
    return "\n".join(lines)


def main(argv=None) -> list[dict]:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--events", type=int, default=40_000)
    ap.add_argument("--partitions", type=int, default=64)
    ap.add_argument("--groups", type=int, default=1,
                    help="merge groups (the engine uses one per CPU)")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes: 2k events, P=8, G=2, 2 repeats, "
                         "one-task rows at 2k events only")
    args = ap.parse_args(argv)
    if args.smoke:
        args.events, args.partitions, args.groups, args.repeats = 2000, 8, 2, 2

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
    rows = measure(args.events, args.partitions, args.groups, args.repeats,
                   args.seed, EPOCH_EVENTS[:1] if args.smoke else EPOCH_EVENTS)
    print(f"events={args.events} partitions={args.partitions} "
          f"groups={args.groups} repeats={args.repeats} seed={args.seed}")
    print(render(rows))
    return rows


if __name__ == "__main__":
    main()
