"""The staged exchange — the one shuffle of every writer of the store.

Every writer runs it: CDC epochs (``CdcEngine.apply_epoch``,
``apply_epoch_staged`` and ``purge_keys``), ``merge_into`` and
``repartition_snapshot``. A writer is an :class:`_Epoch`: an optional
per-block route (a CDC epoch's ingest head and LWW combiner, whose kept
rows the split's one ``take`` gathers; the plain key route for MERGE or
a repartition), the fan-out, where prior state lives (none for a
repartition) and its per-partition fold, which
``cdc.engine.apply_partition`` runs between the fence and the write.

The exchange itself is the package's one keyed exchange
(``arlas_proc_ray/exchange.py``: :func:`group_plan`,
:func:`session_groups`, the split into B×G contiguous
``(first_partition, table, bounds)`` objects and one task per group,
where the per-partition views are cut). A store writer's route is
:meth:`_Epoch.route` and its group body is :func:`_apply_group`. A CDC
epoch's work runs there ONCE over the group's rows (:func:`_segments`:
one fence against the partitions' watermarks, one LWW, one hash pass,
one gather), for delta segments and bases alike. The group's segments
are written as one delta file whose manifest fields are computed over
the group's columns at once (``SnapshotStore.write_delta_group``). A
partition with no base yet (every partition of a first epoch) or whose
fold is due writes its base as a slice of the pass's rows, a fold's
laid over its prior resolved rows by ``_group_overlay``, every manifest
field computed over a batch's columns at once
(``SnapshotStore.base_fields``); a batch of folds holds about
``sizing.BASE_BATCH_BYTES`` of prior rows. One file per partition
(``SnapshotStore.write_partition``). The bases left (a PATCH, every
event fenced without ``delta``, MERGE, a repartition) go through the
per-partition kernel (``cdc.engine.apply_partition``: fence, prior read,
the writer's fold, fenced write) in turn. The manifests go back to the
driver, which commits the epoch index.

Within a group the partitions apply in ascending order (``fault_hook``
fires per partition in that order, before its base file's rename or
the group file's);
across groups they run in parallel. Fences, watermarks and manifests stay
per partition, so a crash inside a group leaves the group's earlier base
partitions committed and resume skips them; the group file is redone
whole. Partition routing is the stable hash (``partition_ids``) that
point lookups route by too; the one- and two-level exchanges are
interchangeable per epoch on one store.

One group in the session (G = 1: one CPU, or P = 1) and an input of at
most ``sizing.INLINE_BYTES`` (64 MiB, by ``size_bytes()``, which a held
input the engine passes answers from its tables; an unknown size stays
remote): the exchange runs in the calling process
(:func:`_inline_exchange`). Each block goes through the same split step
a split task runs, then the group's body applies every partition. One
task buys no parallelism there, only two task round trips, which
dominate a tail-sized epoch. Larger inputs, G > 1 and the two-level
exchange keep the remote tasks; a held input then has its tables put in
the object store once (``sizing.stored``).

Past ~10 000 exchange objects (B×G) per-object overhead dominates and
``CdcEngine._staged_exchange`` switches to the two-level exchange below,
a store-writer concern.
"""

from __future__ import annotations

import copy
import math
import time
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from arlas_proc_ray.cdc import sizing
from arlas_proc_ray.cdc.engine import (
    apply_metrics,
    apply_partition,
    cdc_fold,
    cdc_segments,
    open_epoch,
)
from arlas_proc_ray.cdc.events import CANONICAL_EVENT_SCHEMA
from arlas_proc_ray.cdc.patch import PATCH_OP, table_has_patches
from arlas_proc_ray.cdc.replay import lww_combine
from arlas_proc_ray.cdc.sizing import runs_in_process
from arlas_proc_ray.cdc.snapshot import DELETED, DeltaGroup, _group_overlay
from arlas_proc_ray.exchange import (  # noqa: F401 (group_plan re-exported)
    group_plan,
    partition_order,
    partition_views,
    run_groups,
    session_groups,
    split_block,
    split_blocks,
)
from arlas_proc_ray.functions.hashing import partition_ids
from arlas_proc_ray.model import DataModel

# object count (blocks × groups) above which the one-level exchange's
# per-object overhead dominates and the two-level exchange wins
TWO_LEVEL_OBJECTS = 10_000


def _route(table: pa.Table, dm: DataModel, align) -> tuple[pa.Table, np.ndarray]:
    """A CDC epoch's per-block route: normalize → combine → partition id
    per row. The LWW combiner's kept rows are not copied out: a row it
    drops gets partition id -1, so the split's one argsort and one
    ``take`` per group leave it out (``exchange.split_block``). A block
    holding a PATCH is pruned by the combiner-safe
    ``patch_prune_table`` (``lww_combine``)."""
    table, kept = lww_combine(align(table), dm.key_cols, dm.order_col)
    if kept is None:
        return table, partition_ids(table, dm.key_list, dm.num_partitions)
    pids = np.full(table.num_rows, -1, dtype=np.int32)
    pids[kept] = partition_ids(table.select(dm.key_list).take(pa.array(kept)),
                               dm.key_list, dm.num_partitions)
    return table, pids


def _split_block(table: pa.Table, dm: DataModel, align) -> list[pa.Table]:
    """normalize → combine → ONE argsort by partition → P tables, each a
    copy (``take``) of exactly its partition's kept rows."""
    table, pids = _route(table, dm, align)
    table = table.combine_chunks()  # P takes of a chunked column: P concats
    order, bounds = partition_order(pids, 0, dm.num_partitions)
    return [
        table.take(order[bounds[p] : bounds[p + 1]])
        for p in range(dm.num_partitions)
    ]


class _Epoch:
    """What every exchange task of one epoch of one writer needs to know.

    The writer supplies ``fold`` (its per-partition step, see
    ``cdc.engine.apply_partition``), and optionally ``head`` (its own
    per-block route, which the split tasks run in place of the plain
    key route: ``block → (rows, partition id per row)``, -1 for a row
    it drops), ``segment`` (a group step over a group's rows,
    ``cdc_segments``: a touched partition whose fold is not due is
    written as a delta segment, and every other partition that writes
    a base from events or a fold is made in the same pass, see
    :func:`_segments`), the fan-out ``num_partitions`` (the engine's by
    default) and ``prior`` (partition → its manifest in the previous
    index, as ``open_epoch`` returns it; ``None`` reads no prior state).
    ``prev_epoch`` is the commit's ``expected_prev``.
    """

    def __init__(self, engine, epoch: int, fold, *, head=None, segment=None,
                 num_partitions: int | None = None, prev_epoch=None,
                 prior=None, delta: bool = False,
                 delta_max_age: int | None = None):
        self.store, self.epoch, self.fold, self.head = (
            engine.store, epoch, fold, head
        )
        self.segment = segment
        self.key_list = engine.dm.key_list
        self.num_partitions = num_partitions or engine.dm.num_partitions
        self.prev_epoch = prev_epoch
        self.prior = prior or {}
        self.delta, self.delta_max_age = delta, delta_max_age
        self.fault_hook = engine.fault_hook
        # each exchange object holds a key once: a split task's block,
        # which the per-block step combined (a two-level exchange's merged
        # objects do not)
        self.reduced = True
        # decided here, in the driver, so every group task applies one rule
        self.folds = frozenset(p for p in self.prior if self._fold_due(p))

    def __getstate__(self):
        # a group task needs each prior's layout, counts and zone maps; the
        # blooms a segment inherits are filled in by the commit
        return {**self.__dict__, "prior": {
            p: m.without_blooms() for p, m in self.prior.items()}}

    def route(self, table: pa.Table) -> tuple[pa.Table, np.ndarray]:
        """The writer's per-block route, or the partition id of every
        row."""
        if self.head is not None:
            return self.head(table)
        return table, partition_ids(table, self.key_list, self.num_partitions)

    def _fold_due(self, part: int) -> bool:
        """The fold rule, a property of the partition: its chain holds
        ``sizing.FOLD_SEGMENTS`` segments, or its chain's rows reach
        ``sizing.FOLD_ROWS_RATIO`` × its base's rows, or its base is older
        than ``epoch - delta_max_age``. A partition whose fold is due is
        rewritten as a base: touched, it folds the events into its
        resolved state; untouched, it is carried forward (compaction)."""
        m = self.prior.get(part)
        if m is None:
            return False
        if (self.delta_max_age is not None
                and m.epoch < self.epoch - self.delta_max_age):
            return True
        return len(m.chain) >= sizing.FOLD_SEGMENTS or bool(m.chain) and (
            sum(s.rows for s in m.chain) >= sizing.FOLD_ROWS_RATIO * m.base_rows)

    def delta_for(self, part: int) -> bool:
        """Whether ``part`` may be referenced instead of rewritten when it
        is unchanged: with ``delta``, unless its fold is due."""
        return self.delta and part not in self.folds

    def segments(self, part: int) -> bool:
        """Whether ``part``, when touched, is written as a delta segment
        rather than as a base: the writer has a delta step, and the
        partition has a non-empty base whose fold is not due."""
        m = self.prior.get(part)
        return (self.segment is not None and m is not None
                and bool(m.base_rows) and part not in self.folds)

    def finish(self, engine, results: list, publish: bool) -> dict:
        # a kernel returns an int source epoch for a referenced partition,
        # and the manifest of what it wrote otherwise
        sources = {
            p: r for p, r in enumerate(results) if isinstance(r, int)
        } or None
        if not publish:
            return engine._stage_epoch(self.epoch, sources, self.prev_epoch)
        return self.store.commit_epoch(
            self.epoch, self.num_partitions, sources=sources,
            expected_prev=self.prev_epoch,
            _manifests={p: self.prior[p] if isinstance(r, int) else r
                        for p, r in enumerate(results)},
        )


def cdc_epoch(engine, epoch: int, dead_letter_dir=None, delta: bool = False,
              delta_max_age: int | None = None, opened=None) -> _Epoch:
    """A CDC epoch: the engine's ingest head and LWW combiner per block
    (:func:`_route`), then one group pass per exchange group
    (``cdc.engine.cdc_segments``), and the fence and finalize per
    partition (``cdc.engine.cdc_fold``) for the partitions it leaves.
    ``opened`` is ``open_epoch``'s result when the caller has already
    validated the epoch; it is opened here otherwise."""
    prev_epoch, prior = opened or open_epoch(engine.store, engine.dm, epoch)
    # shared ingest head: structural validity (DLQ) or alignment, then
    # table-constraint enforcement (engine._ingest_fn / cdc/constraints.py)
    align = engine._ingest_fn(epoch, dead_letter_dir)
    return _Epoch(
        engine, epoch, partial(cdc_fold, engine.dm),
        head=partial(_route, dm=engine.dm, align=align),
        segment=partial(cdc_segments, engine.dm), prev_epoch=prev_epoch,
        prior=prior, delta=delta, delta_max_age=delta_max_age,
    )


class _Bases(NamedTuple):
    """One exchange group's bases, made by its group pass: ``parts`` in
    ascending order, and ``made`` yielding each one's ``(rows, metrics,
    SnapshotStore.base_fields)`` in that order (:func:`_made_bases`)."""
    parts: list
    last_lsn: list
    made: Iterator


def _apply_group(ctx: _Epoch, parts: range, *inputs: tuple) -> list:
    """Apply partitions ``parts`` in order; ``inputs`` are the
    ``(first_partition, table, bounds)`` exchange objects routed to this
    group. The body of a group task, of the two-level exchange's merge
    tasks and of the in-process exchange.

    A CDC epoch's work runs once over the group's rows, not once per
    partition (:func:`_segments`): one fence, one LWW, one hash pass make
    every touched partition's delta segment and every base it writes
    from events or a fold (no base yet, or a fold due).
    ``SnapshotStore.write_delta_group`` writes the segments together as
    one file after the group's last partition, every manifest field
    computed over the whole group's columns; each base is a slice of the
    pass's rows, written by ``SnapshotStore.write_partition`` with the
    manifest fields computed for its batch (:func:`_made_bases`). The
    partitions left (a PATCH, a carry-forward, MERGE, a repartition) go through
    ``apply_partition`` in turn. ``fault_hook`` fires per partition in
    ascending order either way, before its base file's rename or the
    group file's, so a crash leaves the bases of the partitions before
    it and no segment: resume skips those bases (``base_done``), redoes
    every segment of the group, and skips the partitions any delta file
    of this epoch lists, under whatever group layout wrote it."""
    resumed = ctx.store.delta_manifests(ctx.epoch, ctx.prior)
    group, bases, referenced = _segments(ctx, parts, inputs, resumed,
                                         ctx.reduced and len(inputs) == 1)
    written = set(group.parts) if group is not None else ()
    based = {p: i for i, p in enumerate(bases.parts)} if bases else {}
    made = bases.made if bases else None
    results = []
    for p in parts:
        if p in written or p in based:
            if ctx.fault_hook is not None:
                ctx.fault_hook(ctx.epoch, p)
        if p in written:
            results.append(None)
        elif p in based:
            rows, metrics, fields = next(made)
            results.append(ctx.store.write_partition(
                ctx.epoch, p, rows, last_lsn=bases.last_lsn[based[p]],
                metrics=metrics, fields=fields))
        elif p in referenced:
            results.append(int(ctx.prior[p].epoch))
        else:
            results.append(apply_partition(
                ctx.store, ctx.epoch, p, partition_views(inputs, p),
                ctx.prior.get(p), ctx.fold, delta=ctx.delta_for(p),
                fault_hook=ctx.fault_hook, resumed=resumed,
            ))
    if group is None:
        return results
    manifests = iter(ctx.store.write_delta_group(ctx.epoch, ctx.key_list, group))
    return [next(manifests) if r is None else r for r in results]


def _picked(rows: pa.Table, bounds: np.ndarray, pick: np.ndarray):
    """The rows of the partitions ``pick`` marks (one bool per partition
    of ``bounds``) and their offsets; no copy when the others hold no
    rows."""
    sizes = np.diff(bounds)
    mask = np.repeat(pick, sizes)
    if not mask.all():
        rows = rows.filter(pa.array(mask))
    return rows, np.concatenate([[0], np.cumsum(sizes[pick])])


def _segments(ctx: _Epoch, parts: range, inputs: tuple, resumed: dict,
              reduced: bool):
    """The group pass: every partition of the group that the writer's
    group step (``cdc_segments``) writes, made once over the group's
    rows. Returns ``(DeltaGroup or None, _Bases or None, partitions to
    reference)``.

    A partition takes part when it received events or its fold is due,
    none of its events is a PATCH (a patch folds into the resolved
    state), and no file of this epoch holds it yet (resume). One with a
    non-empty base whose fold is not due (``ctx.segments``) becomes a
    delta segment. Every other writes a base: the pass's rows laid over
    its prior resolved rows (a fold's) by ``_group_overlay``, tombstones
    dropped, in the row order ``cdc_fold``'s finalize gives, in batches
    bounded by the prior bytes they read (:func:`_made_bases`, run as
    ``_apply_group`` writes the bases); a partition with no prior rows
    drops its DELETEs in the pass and is overlaid on nothing. Of the
    partitions that take part, one whose events all fall at or below its
    fence and whose fold is not due writes nothing: with ``delta`` it is
    referenced, otherwise ``apply_partition`` carries it forward. A
    written partition's ``apply_s`` is this pass's seconds ÷ the
    partitions it wrote (plus its batch's share for a base), so the
    epoch's sum still adds up."""
    if ctx.segment is None:
        return None, None, set()
    t0 = time.perf_counter()
    n = len(parts)
    counts = np.zeros(n, dtype=np.int64)
    patched = np.zeros(n, dtype=bool)
    tagged = []
    for lo, t, b in inputs:
        tags = np.repeat(np.arange(lo - parts.start, lo - parts.start + len(b) - 1),
                         np.diff(b))
        mine = (tags >= 0) & (tags < n)
        tagged.append((t, tags, mine))
        counts += np.bincount(tags[mine], minlength=n)
        if table_has_patches(t):
            is_patch = pc.fill_null(pc.equal(t.column("op"), PATCH_OP), False)
            patched[tags[mine & is_patch.to_numpy(zero_copy_only=False)]] = True
    fold = np.array([p in ctx.folds for p in parts], dtype=bool)
    eligible = np.array([
        (counts[i] > 0 or fold[i]) and not patched[i] and p not in resumed
        and not ctx.store.base_done(ctx.epoch, p)
        for i, p in enumerate(parts)], dtype=bool)
    if not eligible.any():
        return None, None, set()
    # rows of eligible partitions only, each partition's in input order
    tables, tags = [], []
    for t, tag, mine in tagged:
        keep = mine & eligible[np.where(mine, tag, 0)]
        if keep.any():
            tables.append(t if keep.all() else t.filter(pa.array(keep)))
            tags.append(tag[keep])
    if not tables:  # folds alone: no events
        tables, tags = [CANONICAL_EVENT_SCHEMA.empty_table()], [np.zeros(0, int)]
    ev = (tables[0] if len(tables) == 1
          else pa.concat_tables(tables, promote_options="default"))
    tag = np.concatenate(tags)
    which = np.flatnonzero(eligible)  # group index of each taking part
    compact = np.cumsum(eligible) - 1
    priors = [ctx.prior.get(parts[i]) for i in which]
    prior_last = np.array([-1 if m is None else m.last_lsn for m in priors],
                          dtype=np.int64)
    base = np.array([not ctx.segments(parts[i]) for i in which], dtype=bool)
    overlaid = base & np.array([m is not None and m.row_count > 0
                                for m in priors], dtype=bool)
    rows, row_tags, watermark, events_in, applied = ctx.segment(
        ev, compact[tag], prior_last, reduced, base & ~overlaid)
    wrote = (applied > 0) | fold[which]
    referenced = {parts[i] for i in which[~wrote]
                  if ctx.delta_for(parts[i])}
    if not wrote.any():
        return None, None, referenced
    bounds = np.searchsorted(row_tags, np.arange(len(which) + 1))
    seg, on = wrote & ~base, wrote & base
    if seg.any():
        seg_rows, seg_bounds = _picked(rows, bounds, seg)
    if on.any():
        live, cuts = _picked(rows, bounds, on)
    seconds = (time.perf_counter() - t0) / int(wrote.sum())

    def made(pick):
        return ([parts[i] for i in which[pick]],
                [int(w) for w in watermark[pick]],
                [(e, e - a, a) for e, a in zip(events_in[pick], applied[pick])])

    group = bases = None
    if seg.any():
        done, last_lsn, counts = made(seg)
        group = DeltaGroup(
            rows=seg_rows, bounds=seg_bounds, parts=done, last_lsn=last_lsn,
            metrics=[apply_metrics(c, seconds) for c in counts],
            priors=[ctx.prior[p] for p in done])
    if on.any():
        done, last_lsn, counts = made(on)
        bases = _Bases(done, last_lsn, _made_bases(
            ctx, done, live, cuts, overlaid[on], counts, seconds))
    return group, bases, referenced


def _made_bases(ctx: _Epoch, parts: list, rows: pa.Table, bounds: np.ndarray,
                overlaid: np.ndarray, counts: list, seconds: float) -> Iterator:
    """Each base of ``parts`` in order, as ``(rows, metrics, fields)``:
    base ``i`` is the pass's rows ``rows[bounds[i]:bounds[i + 1]]``,
    laid over its prior resolved rows when it folds (``overlaid[i]``),
    tombstones dropped. Made in batches of consecutive bases, each by one
    ``_group_overlay`` and one ``SnapshotStore.base_fields``: a batch
    ends once the prior rows it read reach ``sizing.BASE_BATCH_BYTES``,
    so a group holds about that much prior state at once however much
    of the store folds in one epoch. ``counts[i]`` and ``seconds`` are
    base ``i``'s apply counts and its share of the pass; a batch's own
    seconds are spread over its bases' ``apply_s``."""
    lo = 0
    while lo < len(parts):
        t0 = time.perf_counter()
        pieces, tags, held, hi = [], [], 0, lo
        while hi < len(parts) and held < sizing.BASE_BATCH_BYTES:
            if overlaid[hi]:
                prior = ctx.store.read_resolved(ctx.prior[parts[hi]], parts[hi])
                pieces.append(prior)
                tags.append(np.full(prior.num_rows, hi - lo))
                held += prior.nbytes
            hi += 1
        live = rows.slice(bounds[lo], bounds[hi] - bounds[lo])
        if pieces:  # a fold: its events over its resolved rows
            live, cuts = _group_overlay(
                [live, *pieces],
                [np.repeat(np.arange(hi - lo), np.diff(bounds[lo:hi + 1])), *tags],
                ctx.key_list, hi - lo)
        else:
            live, cuts = live.drop_columns([DELETED]), bounds[lo:hi + 1] - bounds[lo]
        fields = ctx.store.base_fields(live, cuts)
        share = seconds + (time.perf_counter() - t0) / (hi - lo)
        for i in range(hi - lo):
            yield (live.slice(cuts[i], cuts[i + 1] - cuts[i]),
                   apply_metrics(counts[lo + i], share), fields[i])
        lo = hi


def _inline_exchange(ctx: _Epoch, events_ds) -> list:
    """The one-group exchange as plain calls in this process: each block
    is routed and cut into one exchange object, as a split task would,
    and the group's body applies every partition. A held read, or a
    union of held reads (``sizing.held``), gives its tables, decoded
    here: nothing is put in the object store or read back from it. Any
    other Dataset's blocks are fetched from the object store. Returns the
    kernels' results in partition order."""
    whole = [range(ctx.num_partitions)]
    blocks = sizing.held(events_ds)
    if blocks is None:
        blocks = ray.get(events_ds.to_arrow_refs())
    inputs = [split_block(block, ctx.route, whole)[0] for block in blocks]
    return _apply_group(ctx, whole[0], *inputs)


def _run_groups(ctx: _Epoch, groups: list[range], inputs_of) -> list:
    """One group task per group; ``inputs_of(g)`` lists group g's refs.
    Returns the kernels' results in partition order."""
    inputs = [inputs_of(g) for g in range(len(groups))]
    out = ray.get(run_groups(partial(_apply_group, ctx), groups, inputs))
    return [r for group_results in out for r in group_results]


def staged_apply_epoch(engine, events_ds, epoch: int, *, writer=None,
                      dead_letter_dir: str | None = None,
                      publish: bool = True, delta: bool = False,
                      delta_max_age: int | None = None) -> dict:
    """Apply and commit one epoch with the one-level staged exchange
    (idempotent, resumable, exactly-once). ``publish=False`` stages the
    cut for write-audit-publish (engine._stage_epoch). A one-group
    epoch of at most ``sizing.INLINE_BYTES`` runs in this process
    (:func:`_inline_exchange`).

    ``delta=True``: a partition that received NO surviving events this
    epoch is not rewritten — its row in the epoch index references the
    epoch that last wrote it. A re-delivered duplicate (every event
    ≤ the partition fence) also references: the state AND watermark are
    provably unchanged. ``delta_max_age`` carries forward a partition
    whose file is older than ``epoch - delta_max_age`` instead
    (:meth:`_Epoch.delta_for`).

    ``writer``: the epoch's :class:`_Epoch` when it is not a CDC epoch
    (``merge_into``, ``repartition_snapshot``); the CDC options are then
    unused.
    """
    ctx = writer or cdc_epoch(engine, epoch, dead_letter_dir, delta,
                              delta_max_age)
    groups = session_groups(ctx.num_partitions)
    if runs_in_process(len(groups), events_ds.size_bytes()):
        return ctx.finish(engine, _inline_exchange(ctx, events_ds), publish)
    # phase 1: one split task per input block (refs, never driver-local);
    # phase 2: one group task per group over the transposed ref matrix
    refs = sizing.stored(events_ds).to_arrow_refs()
    split = split_blocks(refs, ctx.route, groups)
    results = _run_groups(ctx, groups, lambda g: [s[g] for s in split])
    return ctx.finish(engine, results, publish)


def _pid_route(table: pa.Table) -> tuple[pa.Table, np.ndarray]:
    """Level 2's route: the partition ids level 1 appended as ``_pid``."""
    return table.drop_columns(["_pid"]), table.column("_pid").to_numpy()


def staged_apply_epoch_two_level(
    engine, events_ds, epoch: int, *, writer=None, groups: int | None = None,
    dead_letter_dir: str | None = None,
    publish: bool = True, delta: bool = False,
    delta_max_age: int | None = None,
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
    ctx = writer or cdc_epoch(engine, epoch, dead_letter_dir, delta,
                              delta_max_age)
    P, route = ctx.num_partitions, ctx.route
    S = min(groups or max(1, math.isqrt(P)), P)
    per_super = math.ceil(P / S)
    S = math.ceil(P / per_super)  # no empty trailing super-group

    @ray.remote(num_returns=S)
    def split_l1(block: pa.Table):
        table, pids = route(block)
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
        parts = range(s * per_super, min(P, (s + 1) * per_super))
        return split_block(t, _pid_route, [parts])[0]

    l1 = [split_l1.remote(ref)
          for ref in sizing.stored(events_ds).to_arrow_refs()]
    if S == 1:
        l1 = [[r] for r in l1]
    l2 = [split_l2.remote(s, *[b[s] for b in l1]) for s in range(S)]

    merge_groups = session_groups(P)
    ctx = copy.copy(ctx)
    ctx.reduced = False  # a level-2 object merges many blocks
    results = _run_groups(ctx, merge_groups, lambda g: l2[
        merge_groups[g][0] // per_super : merge_groups[g][-1] // per_super + 1
    ])
    return ctx.finish(engine, results, publish)
