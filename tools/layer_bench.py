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
                        (stats, blooms, rollup, fsynced file + manifest)
      floor: ``pq.write_table`` of the same tables
  lookup.engine         ``CdcEngine.lookup`` of one stored key per partition
      floor: ``pq.ParquetFile(path).read()`` of the P files it opens
  scan.engine           ``CdcEngine.scan(predicate=[("repo", "==", r)])``
                        ``.count()`` of four repos, read in process
  scan.engine.lazy      the same scans through ``ray.data.read_parquet``
                        (``SMALL_SCAN_BYTES`` set to 0)
      floor: ``pq.ParquetFile(path).read()`` of the files the plans keep
  bloom.build           the store's bloom build over the key columns
      floor: the sha256 prefix hash it needs per value

The routing (align, combine, partition ids) and the argsort run once,
outside every timed region. Times are medians over ``--repeats`` runs;
rows/s and MB/s are of the kernel's input rows and Arrow bytes. Uses the
current Ray session, or starts a one-CPU local one.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402


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
    from arlas_proc_ray.cdc.staged import _partition_order, _route
    from arlas_proc_ray.model import DataModel

    dm = DataModel(num_partitions=partitions)
    cfg = ChangelogConfig(num_events=events, num_keys=events, seed=seed)
    block = pa.concat_tables(generate_changelog_tables(cfg),
                             promote_options="default")
    align = make_ingest_head(default_registry(), dm, epoch=1,
                             dead_letter_dir=None, constraints=None)
    table, pids = _route(block, dm, align)
    order, bounds = _partition_order(pids, 0, partitions)
    return dm, table, order, bounds


def measure(events: int, partitions: int, groups: int, repeats: int,
            seed: int) -> list[dict]:
    import ray

    from arlas_proc_ray.cdc.engine import CdcEngine, _events_as_merge_rows
    from arlas_proc_ray.cdc.replay import finalize_partition_table
    from arlas_proc_ray.cdc.snapshot import SnapshotStore, _bloom_build
    from arlas_proc_ray.cdc.staged import _exchange_object, group_plan
    from arlas_proc_ray.functions.hashing import sha256_prefix_int

    dm, table, order, bounds = _routed(events, partitions, seed)
    plan = group_plan(partitions, groups)
    rows, nbytes = table.num_rows, table.nbytes

    def per_partition():
        return [table.take(order[bounds[p]: bounds[p + 1]])
                for p in range(partitions)]

    def exchange_objects():
        return [_exchange_object(g[0], table, order,
                                 bounds[g.start: g.stop + 1]) for g in plan]

    def put_get(objs):
        return lambda: ray.get([ray.put(o) for o in objs])

    parts = per_partition()
    objects = exchange_objects()
    dicts = [{p: parts[p] for p in g if parts[p].num_rows} for g in plan]
    rows_out = []

    def row(kernel, floor, kernel_s, floor_s, n_rows, n_bytes):
        rows_out.append({
            "kernel": kernel, "floor": floor,
            "s": kernel_s, "floor_s": floor_s, "ratio": kernel_s / floor_s,
            "rows_per_s": n_rows / kernel_s, "mb_per_s": n_bytes / kernel_s / 1e6,
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
        _serving_rows(row, CdcEngine(store.root, dm), states, repeats)

    keys = [(t.column(c), t.num_rows) for t in states if t.num_rows
            for c in dm.key_list]
    k_bytes = sum(col.nbytes for col, _ in keys)
    row("bloom.build", "sha256 prefix",
        _median_s(lambda: [_bloom_build(c, n) for c, n in keys], repeats),
        _median_s(lambda: [sha256_prefix_int(c) for c, _ in keys], repeats),
        s_rows * len(dm.key_list), k_bytes)
    return rows_out


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
            f"{r['ratio']:>6.2f}"
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
                    help="toy sizes: 2k events, P=8, G=2, 2 repeats")
    args = ap.parse_args(argv)
    if args.smoke:
        args.events, args.partitions, args.groups, args.repeats = 2000, 8, 2, 2

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
    rows = measure(args.events, args.partitions, args.groups, args.repeats,
                   args.seed)
    print(f"events={args.events} partitions={args.partitions} "
          f"groups={args.groups} repeats={args.repeats} seed={args.seed}")
    print(render(rows))
    return rows


if __name__ == "__main__":
    main()
