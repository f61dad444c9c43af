"""Staged shuffle for high-volume epochs — raw Ray tasks, no sort machinery.

At tens of millions of events per epoch, `groupby(_part_id).map_groups`
becomes the wall: Ray Data's sort-based exchange sorts and re-blocks the
full payload (and the hash-shuffle aggregator actors serialize on hot
aggregation paths) — measured ~56 MB/s end-to-end at 20M events where the
map phase alone runs at >1 GB/s. The fix is the classic two-phase external
shuffle expressed directly in Ray Core (the justified "raw tasks" escape
hatch: a fixed-fan-out exchange needs no ordering, no sampling, no
aggregation — exactly what the Dataset groupby cannot skip).

The exchange is sized to the session, not to the key space (the
FP-Hadoop move: group the reduce work into units sized to the cluster).
The P partitions are cut into G = min(P, CPUs in
``ray.cluster_resources()``) contiguous groups (:func:`group_plan`):

  phase 1  split:  one task per input block routes its rows (ONE stable
                   argsort by ``_part_id``) and returns G objects
                   (``num_returns=G``), one per group: ``(first_partition,
                   table, bounds)`` — the group's rows as ONE contiguous
                   table sorted by partition, and the row offsets where
                   each of its partitions starts (``len(group) + 1``
                   ints) — B×G objects, not B×P;
  phase 2  merge:  one task per group (G tasks, not P) cuts each
                   partition's rows out of its inputs as zero-copy views
                   and runs the engine's per-partition kernel
                   (``cdc.engine.apply_partition``: fence, watermark,
                   dedup, finalize, fenced write + manifest) over its
                   partitions in turn.

An exchange object is one table plus bounds, not a ``{partition: table}``
dict, because Ray pays a fixed cost for every Arrow table it serializes:
on one CPU, the two split outputs of a 27 MB bootstrap epoch took 195 ms
to ``ray.put`` + ``ray.get`` as two dicts of 64 tables and 17 ms as two
contiguous tables with bounds. The per-partition views are cut inside the
merge task and never pass through the object store. The group table is a
``take`` (a copy), never a ``slice()`` of the block: a pyarrow slice
pickles its whole parent buffer, a G× blow-up when G > 1.

Within a group the partitions apply sequentially, in ascending order;
across groups they run in parallel. Fences, watermarks and manifests stay
per partition, so a crash inside a group leaves the group's earlier
partitions committed and resume skips them. Partition routing is the same
stable hash as the Dataset path; the paths are interchangeable per epoch
on one store.

Past ~10 000 exchange objects (B×G) per-object overhead dominates and
``CdcEngine.apply_epoch_staged`` switches to the two-level exchange below.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray

from arlas_proc_ray.cdc.engine import apply_partition, open_epoch
from arlas_proc_ray.cdc.replay import lww_reduce_table
from arlas_proc_ray.functions.hashing import partition_ids
from arlas_proc_ray.model import DataModel

# object count (blocks × groups) above which the one-level exchange's
# per-object overhead dominates and the two-level exchange wins
TWO_LEVEL_OBJECTS = 10_000


def group_plan(num_partitions: int, num_groups: int) -> list[range]:
    """Cut partitions ``0..P-1`` into ``min(P, G)`` contiguous ranges whose
    sizes differ by at most one."""
    P = num_partitions
    G = max(1, min(P, num_groups))
    return [range(g * P // G, (g + 1) * P // G) for g in range(G)]


def session_groups(num_partitions: int) -> list[range]:
    """The merge groups for this Ray session: one per CPU, at most P."""
    cpus = int(ray.cluster_resources().get("CPU", 1))
    return group_plan(num_partitions, cpus)


def _route(table: pa.Table, dm: DataModel, align) -> tuple[pa.Table, np.ndarray]:
    """normalize → combine → partition id per row."""
    table = align(table)
    table = lww_reduce_table(table, dm.key_cols, dm.order_col)
    return table, partition_ids(table, dm.key_list, dm.num_partitions)


def _partition_order(pids: np.ndarray, lo: int, hi: int):
    """ONE stable argsort of ``pids`` (all in ``[lo, hi)``) → the row
    order and the ``hi - lo + 1`` offsets where each partition starts."""
    order = np.argsort(pids, kind="stable")
    return order, np.searchsorted(pids[order], np.arange(lo, hi + 1))


def _split_block(table: pa.Table, dm: DataModel, align) -> list[pa.Table]:
    """normalize → combine → ONE argsort by partition → P tables, each a
    copy (``take``) of exactly its partition's rows."""
    table, pids = _route(table, dm, align)
    order, bounds = _partition_order(pids, 0, dm.num_partitions)
    return [
        table.take(order[bounds[p] : bounds[p + 1]])
        for p in range(dm.num_partitions)
    ]


def _exchange_object(first: int, table: pa.Table, order: np.ndarray,
                     bounds: np.ndarray) -> tuple:
    """``(first, rows, offsets)`` for partitions ``first .. first +
    len(bounds) - 2``: ONE ``take`` of their rows (a copy, never a slice
    of ``table``) in partition order, and offsets rebased to it."""
    rows = table.take(order[bounds[0] : bounds[-1]])
    return first, rows, bounds - bounds[0]


def _partition_views(inputs, p: int) -> list[pa.Table]:
    """Partition ``p``'s rows in every exchange object that covers it, as
    zero-copy slices."""
    return [
        t.slice(b[p - lo], b[p - lo + 1] - b[p - lo])
        for lo, t, b in inputs
        if lo <= p < lo + len(b) - 1
    ]


class _Epoch:
    """What every exchange task of one staged epoch needs to know."""

    def __init__(self, engine, epoch: int, dead_letter_dir, delta: bool):
        self.store, self.dm, self.epoch, self.delta = (
            engine.store, engine.dm, epoch, delta
        )
        self.fault_hook = engine.fault_hook
        self.prev_epoch, self.prior_src = open_epoch(self.store, self.dm, epoch)
        # shared ingest head: structural validity (DLQ) or alignment, then
        # table-constraint enforcement (engine._ingest_fn / cdc/constraints.py)
        self.align = engine._ingest_fn(epoch, dead_letter_dir)

    def finish(self, engine, results: list, publish: bool) -> dict:
        # a kernel returns an int source epoch for a referenced partition
        sources = {
            p: r for p, r in enumerate(results) if isinstance(r, int)
        } or None
        if not publish:
            return engine._stage_epoch(self.epoch, sources, self.prev_epoch)
        return self.store.commit_epoch(
            self.epoch, self.dm.num_partitions, sources=sources,
            expected_prev=self.prev_epoch,
        )


@ray.remote
def _merge_group(ctx: _Epoch, parts: range, *inputs: tuple) -> list:
    """Apply partitions ``parts`` in order; ``inputs`` are the
    ``(first_partition, table, bounds)`` exchange objects routed to this
    group."""
    return [
        apply_partition(
            ctx.store, ctx.dm, ctx.epoch, p, _partition_views(inputs, p),
            ctx.prior_src(p), delta=ctx.delta, fault_hook=ctx.fault_hook,
        )
        for p in parts
    ]


def _run_groups(ctx: _Epoch, groups: list[range], inputs_of) -> list:
    """One merge task per group; ``inputs_of(g)`` lists group g's refs.
    Returns the kernels' results in partition order."""
    ctx_ref = ray.put(ctx)
    out = ray.get([
        _merge_group.remote(ctx_ref, grp, *inputs_of(g))
        for g, grp in enumerate(groups)
    ])
    return [r for group_results in out for r in group_results]


def staged_apply_epoch(engine, events_ds, epoch: int, *,
                      dead_letter_dir: str | None = None,
                      publish: bool = True, delta: bool = False) -> dict:
    """Apply one epoch with the staged shuffle; same guarantees as
    ``CdcEngine.apply_epoch`` (idempotent, resumable, exactly-once).
    ``publish=False`` stages the cut for write-audit-publish exactly as
    the Dataset path does (engine._stage_epoch).

    ``delta=True``: a partition that received NO surviving events this
    epoch is not rewritten — the commit marker's source map references
    the epoch that last wrote it (the same metadata chain as the Dataset
    path's ``delta``). A re-delivered duplicate (every event ≤ the
    partition fence) also references: the state AND watermark are
    provably unchanged. At low change rates this removes the dominant
    copy-forward cost from the staged path too.
    """
    ctx = _Epoch(engine, epoch, dead_letter_dir, delta)
    dm, align = ctx.dm, ctx.align
    groups = session_groups(dm.num_partitions)
    G = len(groups)

    @ray.remote(num_returns=G)
    def split(block: pa.Table):
        table, pids = _route(block, dm, align)
        order, bounds = _partition_order(pids, 0, dm.num_partitions)
        out = [
            _exchange_object(grp[0], table, order,
                             bounds[grp.start : grp.stop + 1])
            for grp in groups
        ]
        return tuple(out) if G > 1 else out[0]

    # phase 1: one split task per input block (refs, never driver-local);
    # num_returns=1 hands back a bare ObjectRef, not a 1-list
    split_out = [split.remote(ref) for ref in events_ds.to_arrow_refs()]
    if G == 1:
        split_out = [[r] for r in split_out]
    # phase 2: one merge task per group over the transposed ref matrix
    results = _run_groups(ctx, groups, lambda g: [s[g] for s in split_out])
    return ctx.finish(engine, results, publish)


def staged_apply_epoch_two_level(
    engine, events_ds, epoch: int, *, groups: int | None = None,
    dead_letter_dir: str | None = None,
    publish: bool = True, delta: bool = False,
) -> dict:
    """Two-level staged exchange for LARGE block counts.

    The one-level exchange creates ``blocks × G`` objects; past ~10k
    objects the per-object overhead dominates (measured in round 1:
    400×128 spent 116 s in the split wave alone). Two levels cut that to
    ``blocks × S + S`` objects (S ≈ √P super-groups, or ``groups``):

      level 1  split:    one task per block → S super-group slices
                         (partition_id // ⌈P/S⌉ buckets), num_returns=S;
      level 2  sub-split: one task per super-group gathers its B slices,
                         concats, ONE argsort → one ``(first_partition,
                         table, bounds)`` exchange object, the one-level
                         shape over the super-group's partitions;
      level 3  merge:    the one-level path's merge groups (one task per
                         CPU, :func:`session_groups`), each fed the level-2
                         objects that hold its partitions.

    For P=512, B=400: one-level at 32 CPUs 12 800 objects; two-level
    400×23 + 23 ≈ 9 200. Same guarantees (idempotent, resumable,
    exactly-once) — the merge phase is the same kernel.
    """
    ctx = _Epoch(engine, epoch, dead_letter_dir, delta)
    dm, align = ctx.dm, ctx.align
    P = dm.num_partitions
    S = min(groups or max(1, math.isqrt(P)), P)
    per_super = math.ceil(P / S)
    S = math.ceil(P / per_super)  # no empty trailing super-group

    @ray.remote(num_returns=S)
    def split_l1(block: pa.Table):
        table, pids = _route(block, dm, align)
        sids = pids // per_super
        order = np.argsort(sids, kind="stable")
        bounds = np.searchsorted(sids[order], np.arange(S + 1))
        # append _pid so level 2 need not re-hash
        table = table.append_column("_pid", pa.array(pids, type=pa.int32()))
        parts = [
            table.take(pa.array(order[bounds[s] : bounds[s + 1]]))
            for s in range(S)
        ]
        return tuple(parts) if S > 1 else parts[0]

    @ray.remote
    def split_l2(s: int, *slices: pa.Table) -> tuple:
        t = pa.concat_tables(
            [b for b in slices if b.num_rows] or slices[:1],
            promote_options="default",
        )
        pids = t.column("_pid").to_numpy()
        lo, hi = s * per_super, min(P, (s + 1) * per_super)
        order, bounds = _partition_order(pids, lo, hi)
        return _exchange_object(lo, t.drop_columns(["_pid"]), order, bounds)

    l1 = [split_l1.remote(ref) for ref in events_ds.to_arrow_refs()]
    if S == 1:
        l1 = [[r] for r in l1]
    l2 = [split_l2.remote(s, *[b[s] for b in l1]) for s in range(S)]

    merge_groups = session_groups(P)
    results = _run_groups(ctx, merge_groups, lambda g: l2[
        merge_groups[g][0] // per_super : merge_groups[g][-1] // per_super + 1
    ])
    return ctx.finish(engine, results, publish)
