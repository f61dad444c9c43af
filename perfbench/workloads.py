"""The two workloads: cycles of timed operations on the public CDC API.

A workload is a fixed script of operations, a *cycle*, that starts from a
fixed store state: empty for ``bootstrap``, a copy of the base snapshot
for ``tail``. Cycles repeat until the run's seconds are spent, so every
cycle sees the same states and the oracle is computed once per seed.
Each operation (an epoch, a lookup, a scan) is timed on its own and
checked against the oracle before the next one starts (closed loop, one
client). A host-speed probe (hostspeed.py) runs before each timed
operation, outside its timing.

- ``bootstrap``: one large low-duplication epoch from Parquet into an
  empty store through ``apply_epoch_staged``, then a read probe.
- ``tail``: Debezium JSON-lines segments land one at a time and
  ``SegmentTailer.poll`` applies each with its default ``apply_epoch``;
  a read probe follows every epoch.

A read probe is single-key ``CdcEngine.lookup`` calls and pruned
``CdcEngine.scan(predicate=...).count()`` calls.
"""

from __future__ import annotations

import os
import shutil
import time

from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.tailer import SegmentTailer
from arlas_proc_ray.model import DataModel
from arlas_proc_ray.sources.io import read_parquet

from perfbench import hostspeed, tracer
from perfbench.inputs import Inputs

FINAL_COLS = ["repo", "path", "commit", "language", "content",
              "content_size", "content_sha256", "last_lsn"]


def dir_bytes(root: str) -> int:
    total = 0
    for base, _, files in os.walk(root):
        for f in files:
            total += os.path.getsize(os.path.join(base, f))
    return total


def events_dataset(paths: list):
    """The ``jobs replay`` read path, one file per schema version."""
    ds = read_parquet(paths[0])
    for p in paths[1:]:
        ds = ds.union(read_parquet(p))
    return ds


class Workload:
    """Runs cycles of one workload and keeps their samples."""

    def __init__(self, name: str, inputs: Inputs, work_dir: str):
        self.name = name
        self.meter = hostspeed.Meter()
        self.inp = inputs
        self.dm = DataModel(num_partitions=inputs.sizes.partitions)
        self.store_dir = os.path.join(work_dir, "store")
        self.base_dir = os.path.join(work_dir, "base")
        self.seg_dir = os.path.join(work_dir, "segments")
        self.reset_samples()
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def reset_samples(self) -> None:
        self.epoch_s: list = []
        self.epoch_rate: list = []
        self.lookup_s: list = []
        self.scan_s: list = []
        self.write_amp: list = []
        self.windows: list = []

    # ---- bookkeeping -------------------------------------------------
    def _timed(self, fn):
        """Probe the host's speed, then run and time ``fn``; returns its
        output and its wall seconds less the seconds stolen from it."""
        out, t0, t1, stolen = self.meter.timed(fn)
        self.windows.append((t0, t1))
        return out, (t1 - t0) / 1e9 - stolen

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def _check_commit(self, summary: dict, state) -> None:
        self._check(
            summary["rollup"] == state.rollup
            and summary["row_count"] == state.table.num_rows,
            f"{self.name}: epoch {summary['epoch']} rollup/row count "
            f"differs from the oracle",
        )

    # ---- setup -------------------------------------------------------
    def build_base(self) -> float:
        """Load the base snapshot into a fresh store; returns its seconds
        (steal excluded)."""
        shutil.rmtree(self.base_dir, ignore_errors=True)
        eng = CdcEngine(self.base_dir, self.dm)
        summary, dt = hostspeed.unstolen(
            lambda: eng.apply_epoch_staged(events_dataset(self.inp.base_files), epoch=1)
        )
        self._check_commit(summary, self.inp.base_state)
        return dt

    def _fresh_store(self) -> CdcEngine:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        if self.name != "bootstrap":
            shutil.copytree(self.base_dir, self.store_dir)
        return CdcEngine(self.store_dir, self.dm)

    # ---- cycles ------------------------------------------------------
    def cycle(self, index: int) -> None:
        getattr(self, f"_cycle_{self.name}")(index)

    def _epoch_done(self, summary: dict, k: int, dt: float) -> None:
        self.epoch_s.append(dt)
        self.epoch_rate.append(self.inp.epoch_events[k] / dt)
        self._check_commit(summary, self.inp.states[k])

    def _cycle_bootstrap(self, index: int) -> None:
        eng = self._fresh_store()
        files = self.inp.epoch_files[0]
        summary, dt = self._timed(
            lambda: eng.apply_epoch_staged(events_dataset(files), epoch=1)
        )
        self._check("auto_split" not in summary,
                    "bootstrap: epoch was auto-split")
        self._epoch_done(summary, 0, dt)
        self.write_amp.append(dir_bytes(self.store_dir) / self.inp.epoch_bytes[0])
        self._probe(eng, self.inp.states[0], index)

    def _cycle_tail(self, index: int) -> None:
        eng = self._fresh_store()
        before = dir_bytes(self.store_dir)
        shutil.rmtree(self.seg_dir, ignore_errors=True)
        os.makedirs(self.seg_dir)
        tailer = SegmentTailer(eng, self.seg_dir)
        first = eng.store.latest_committed_epoch() + 1
        for k, payload in enumerate(self.inp.payloads):
            final = os.path.join(self.seg_dir, f"seg-{k:05d}.jsonl")
            with open(final + ".tmp", "wb") as f:
                f.write(payload)

            def land_and_poll():
                os.replace(final + ".tmp", final)
                return tailer.poll()

            r, dt = self._timed(land_and_poll)
            self._check(r["applied"] and r["epoch"] == first + k,
                        f"tail: poll {k} returned {r}")
            self._epoch_done(eng.store.read_epoch_summary(r["epoch"]), k, dt)
            self._probe(eng, self.inp.states[k], index * len(self.inp.payloads) + k)
        self.write_amp.append(
            (dir_bytes(self.store_dir) - before) / sum(self.inp.epoch_bytes)
        )

    def _probe(self, eng: CdcEngine, state, probe: int) -> None:
        for key in self.inp.lookup_keys(probe):
            got, dt = self._timed(lambda: eng.lookup([key]))
            self.lookup_s.append(dt)
            want = state.rows.get(key)
            rows = got.select(FINAL_COLS).to_pylist()
            self._check(
                rows == ([] if want is None else [want]),
                f"{self.name}: lookup {key} differs from the oracle",
            )
        for pred in self.inp.scan_predicates(probe):
            def count():
                with tracer.harness_span("scan"):
                    return eng.scan(predicate=pred).count()

            got, dt = self._timed(count)
            self.scan_s.append(dt)
            want = state.repo_rows.get(pred[0][2], 0)
            self._check(got == want,
                        f"{self.name}: scan {pred} counted {got}, oracle {want}")

    # ---- the measurement loop -----------------------------------------
    def measure(self, seconds: float, cycles: int | None = None) -> int:
        """Whole cycles until ``seconds`` pass (or exactly ``cycles``)."""
        start = time.monotonic()
        n = 0
        while True:
            self.cycle(n)
            n += 1
            if cycles is not None:
                if n >= cycles:
                    return n
            elif time.monotonic() - start >= seconds:
                return n

    def staged_inputs(self) -> list:
        """Input file lists of the staged epochs of one cycle."""
        return [] if self.name == "tail" else list(self.inp.epoch_files)
