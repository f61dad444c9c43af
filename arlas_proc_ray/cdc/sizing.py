"""Epoch sizing against the object-store budget — the ~4×-bytes rule.

Measured on this class of box (BASELINE.md round-3 high-volume addendum):
the staged exchange holds ≈4× the epoch's byte volume in flight
(generation blocks + L1 slices + L2 slices + merge inputs). Once that
passes the plasma budget Ray spills to disk and throughput falls off a
cliff, not a slope — 40M events (~10 GB) ran 162 s where 2×20M ran
37.7 s on a 37.6 GB store. The operative rule:

    size epochs so  AMPLIFICATION × epoch_bytes ≤ HEADROOM × object_store

This module makes the rule executable instead of documentation:

  * ``plan_epoch_chunks(epoch_bytes)`` — decide whether an epoch fits,
    and if not, how to split it (strategy + chunk count). Pure function
    of (bytes, budget) so the decision is unit-testable.
  * ``lsn_cutpoints(refs, k)`` — block-strided LSN quantiles (the same
    sampling shape as stages/joins.py's global range-join bounds: every
    block contributes, never a ``limit()`` prefix) giving k-1 cut values
    whose half-open ranges ``(lo, hi]`` partition the LSN domain. Chunk
    boundaries MUST be LSN-valued: the per-partition fence drops
    ``lsn <= watermark``, so a later chunk may only carry strictly
    higher LSNs or its events would be dropped as already-applied.

Used by ``CdcEngine.apply_epoch_staged`` (cdc/engine.py) to auto-split
oversized epochs into LSN-range sub-epochs.

The other end of the scale: ``runs_in_process(tasks, bytes)`` is the one
rule by which a stage that would be a single task (a one-group staged
exchange, a one-range jsonl read, a one-task local Parquet read) runs in
the calling process instead. Such a read returns a lazy plan over a
:class:`Held` source (``hold``); ``held`` decodes it here, also through a
``union`` of held reads, so a one-group epoch over it puts nothing in the
object store. Only an exchange run as tasks puts its tables (``stored``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import pyarrow as pa
from ray.data import Dataset
from ray.data.datasource import Datasource

from arlas_proc_ray.exchange import session_cpus  # noqa: F401 (re-exported)

# In-flight byte amplification of the staged exchange, measured
# (BASELINE.md round-3 high-volume addendum).
AMPLIFICATION = 4.0
# Fraction of the object store the engine lets one epoch's exchange
# occupy — the rest is everybody else (snapshot reads, other datasets).
HEADROOM = 0.85
# In-memory chunked apply additionally pins the full materialized input
# (1×) plus one chunk's filtered copy (1/K) on top of the exchange's
# AMPLIFICATION/K — see plan_epoch_chunks.
_INMEM_PER_CHUNK = AMPLIFICATION + 1.0
# Input bytes up to which a stage that would run as one task runs in the
# calling process (``runs_in_process``). One task buys no parallelism,
# only its round trips: on one CPU the in-process jsonl read and exchange
# were no slower than the tasks at any size measured, 2k to 40k events
# (2-40 MB of JSONL, 1.7-33 MiB of Arrow; tools/layer_bench.py's read.*
# and epoch.* rows). So this is no speed crossover but a bound on the
# caller's heap: past it the input stays in the object store, which can
# spill. At 64 MiB it covers a 40k-event Parquet load (33.6 MB decoded)
# and its exchange. Driver peak RSS (``resource.getrusage`` ru_maxrss) for
# an in-process read of two Parquet files stating 60 MiB decoded plus its
# one-group epoch (76k events, P=64, one CPU): 399 MiB against 187 MiB
# before the read, +212 MiB (3.4x the input); with the read and exchange
# as tasks (INLINE_BYTES = -1) the driver grew 3 MiB.
INLINE_BYTES = 64 << 20
# The fold rule of a chained partition (``staged._Epoch._fold_due``): a
# touched partition is written as a delta segment over its base until its
# chain holds FOLD_SEGMENTS segments or the chain's rows reach
# FOLD_ROWS_RATIO × the base's rows; then the epoch folds it into a new
# base. Measured with tools/layer_bench.py on one vCPU (2k-event epochs
# at P=64): a lookup through 6-segment chains costs what it costs on the
# folded state (``lookup.chain`` 1.01×), a repo scan hitting every
# partition twice as much (``scan.chain`` 2.17×), and the write side gains
# 13-27% amortized over 24 epochs at every threshold pair tried (8/1.0,
# 8/2.0, 4/1.0, 16/4.0; ``epoch.chain``), within run-to-run noise of each
# other. So reads set the rule: fold once a partition's segments hold as
# many rows as its base, and after 8 segments of tiny epochs.
FOLD_SEGMENTS = 8
FOLD_ROWS_RATIO = 1.0
# Rows of live key, content_sha256 and last_lsn columns a store handle
# keeps between delta epochs (``SnapshotStore.write_delta_group``), so an
# in-process tailer's next segment reads no base or chain. A row of two
# short string keys, a hex digest and an LSN is ~150 bytes, so this
# bounds the cache near 80 MB of the caller's heap.
LIVE_CACHE_ROWS = 1 << 19


def runs_in_process(tasks: int, nbytes: int | None) -> bool:
    """Whether a stage of ``tasks`` parallel tasks over ``nbytes`` of input
    runs in the caller: only a single task's worth of a known size of at
    most ``INLINE_BYTES``. An unknown size (``None``) keeps the tasks."""
    return tasks == 1 and nbytes is not None and nbytes <= INLINE_BYTES


class Held(Datasource):
    """The source of an in-process read (``hold``): one part per block,
    each a zero-argument callable (a ``functools.partial`` of a module
    function) that decodes its block from where it lives, a file or a
    byte range. This process decodes the parts once, on first use
    (``tables``), and keeps them; a read task that Ray runs calls its own
    part, so no decoded table rides in a task or in a pickled source."""

    def __init__(self, parts: list, nbytes: int | None):
        self._parts = list(parts)
        self._nbytes = nbytes
        self._tables = None

    def tables(self) -> list:
        """The decoded blocks: every part that has rows, or the first
        part's typed empty table when none has."""
        if self._tables is None:
            tables = [part() for part in self._parts]
            self._tables = [t for t in tables if t.num_rows] or tables[:1]
        return self._tables

    def __getstate__(self):
        return {**self.__dict__, "_tables": None}

    def get_name(self) -> str:
        return "Held"

    def estimate_inmemory_data_size(self) -> int | None:
        return self._nbytes

    @property
    def supports_distributed_reads(self) -> bool:
        return False  # the parts read files of this node

    def get_read_tasks(self, parallelism: int) -> list:
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask

        meta = BlockMetadata(num_rows=None, size_bytes=None,
                             input_files=None, exec_stats=None)
        return [ReadTask(partial(_read_part, part), meta)
                for part in self._parts]


def _read_part(part) -> list:
    return [part()]


def hold(parts: list, nbytes: int | None):
    """A lazy Dataset of an in-process read (``read_changelog_jsonl``,
    ``sources.io.read_parquet``): ``ray.data.read_datasource`` over a
    :class:`Held` source of ``parts``, one block each, ``nbytes`` its
    estimated decoded size. Building it puts nothing in the object store
    and runs nothing; ``held`` decodes it in this process, and anything
    else that runs it (a query, ``take_all``, ``to_arrow_refs``) runs one
    Ray read task per part and gets the same rows."""
    import ray.data as rd

    return rd.read_datasource(Held(parts, nbytes),
                              override_num_blocks=max(1, len(parts)))


def held(ds) -> list | None:
    """The tables of a held read (``hold``), decoded in this process, or
    of a ``union`` whose every input is one; None for any other plan,
    read from ``ds``'s logical plan without running it. A one-group
    exchange in process takes them as its blocks
    (``staged._inline_exchange``), so the epoch puts nothing in the
    object store and runs no Ray Data executor."""
    sources = _held_sources(getattr(getattr(ds, "_logical_plan", None), "dag", None))
    if sources is None:
        return None
    return [t for source in sources for t in source.tables()]


def _held_sources(op) -> list | None:
    from ray.data._internal.logical.operators.n_ary_operator import Union

    source = getattr(op, "_datasource", None)
    if isinstance(source, Held):
        return [source]
    if isinstance(op, Union):
        inputs = [_held_sources(i) for i in op.input_dependencies]
        if all(i is not None for i in inputs):
            return [s for i in inputs for s in i]
    return None


class HeldDataset(Dataset):
    """A Dataset over a plan that ``held`` reads, as ``CdcEngine`` takes
    an epoch's input: its block count and size are its tables', decoded
    in this process, so neither runs the plan."""

    def num_blocks(self) -> int:
        return len(held(self))

    def size_bytes(self) -> int:
        return sum(t.nbytes for t in held(self))


def stored(ds):
    """``ds`` with its blocks in the object store: a held read's tables
    are put there once (``from_blocks``), for an exchange run as tasks;
    any other Dataset is returned as it is."""
    import ray.data as rd

    tables = held(ds)
    return ds if tables is None else rd.from_blocks(tables)


def object_store_bytes(default: int = 2 * 1024**3) -> int:
    """Total object-store bytes of the current Ray cluster (all nodes).

    ``ray.cluster_resources()['object_store_memory']`` is the cluster-wide
    plasma capacity in bytes. Falls back to ``default`` when Ray is not
    initialised (pure-local unit tests).
    """
    try:
        import ray

        if ray.is_initialized():
            v = ray.cluster_resources().get("object_store_memory")
            if v:
                return int(v)
    except Exception:
        pass
    return int(default)


@dataclass(frozen=True)
class EpochPlan:
    """Sizing decision for one epoch. ``strategy``:

    * ``"single"``  — fits; apply as-is (chunks == 1).
    * ``"inmem"``   — split into ``chunks`` LSN ranges filtered out of the
      pinned materialized input (fast path: no extra I/O). Budget model:
      pinned input (1×) + one chunk copy (1/K) + exchange (4×/K) must fit,
      i.e. ``bytes·(1 + 5/K) ≤ HEADROOM·budget`` — solvable iff
      ``2·bytes ≤ HEADROOM·budget``.
    * ``"scratch"`` — input too large to stay pinned during the applies:
      stream it to a chunk-partitioned parquet scratch once, release the
      input, then apply each chunk from disk (only ``4×/K`` in flight).
    """

    strategy: str
    chunks: int
    epoch_bytes: int
    budget_bytes: int


def plan_epoch_chunks(
    epoch_bytes: int, budget_bytes: int | None = None
) -> EpochPlan:
    """Pure sizing decision — unit-tested against canned numbers."""
    budget = budget_bytes if budget_bytes is not None else object_store_bytes()
    allow = budget * HEADROOM
    if AMPLIFICATION * epoch_bytes <= allow:
        return EpochPlan("single", 1, epoch_bytes, budget)
    if 2 * epoch_bytes <= allow:
        # pinned(1) + chunk(1/K) + exchange(4/K) ≤ allow
        k = math.ceil(
            _INMEM_PER_CHUNK * epoch_bytes / (allow - epoch_bytes)
        )
        return EpochPlan("inmem", max(2, k), epoch_bytes, budget)
    k = math.ceil(AMPLIFICATION * epoch_bytes / allow)
    return EpochPlan("scratch", max(2, k), epoch_bytes, budget)


# ---------------------------------------------------------------- LSN chunks


def lsn_cutpoints(
    block_refs, k: int, *, samples_per_block: int = 512
) -> list[int]:
    """k-1 LSN cut values from block-strided samples of every block.

    Each block contributes an evenly-strided sample of its ``lsn`` column
    (every block, never a prefix — skewed block order must not bias the
    cuts), the driver takes global quantiles, and the resulting integer
    cutpoints define half-open chunk ranges ``(c[i-1], c[i]]``. Degenerate
    quantiles (heavy ties) are deduplicated, so fewer than k-1 cuts — and
    thus fewer, larger chunks — are possible on pathological LSN
    distributions; callers must iterate over ``len(cuts)+1`` chunks.
    """
    import ray

    @ray.remote(num_cpus=0.25)
    def sample(t: pa.Table) -> np.ndarray:
        a = t.column("lsn").to_numpy(zero_copy_only=False)
        if len(a) <= samples_per_block:
            return a.astype(np.int64)
        stride = len(a) // samples_per_block
        return a[::stride].astype(np.int64)

    parts = [p for p in ray.get([sample.remote(r) for r in block_refs]) if len(p)]
    if not parts or k <= 1:
        return []  # empty input (or no split): one chunk covers everything
    allv = np.concatenate(parts)
    qs = np.quantile(allv.astype(np.float64), np.linspace(0, 1, k + 1)[1:-1])
    cuts = np.unique(np.floor(qs).astype(np.int64))
    return [int(c) for c in cuts]


def lsn_range_refs(block_refs, lo: int | None, hi: int | None) -> list:
    """One filter task per block → refs of the rows with
    ``lo < lsn <= hi`` (None = unbounded). Empty slices are kept (typed),
    so the chunk dataset always has ≥1 block per input block."""
    import pyarrow.compute as pc
    import ray

    @ray.remote
    def cut(t: pa.Table) -> pa.Table:
        mask = None
        if lo is not None:
            mask = pc.greater(t.column("lsn"), pa.scalar(lo, pa.int64()))
        if hi is not None:
            m2 = pc.less_equal(t.column("lsn"), pa.scalar(hi, pa.int64()))
            mask = m2 if mask is None else pc.and_(mask, m2)
        out = t if mask is None else t.filter(mask)
        return out.combine_chunks()

    return [cut.remote(r) for r in block_refs]
