"""Binlog-segment directory tailer: files arrive, epochs happen.

A real WAL/binlog tail is a directory (or bucket prefix) that segment
files keep landing in — Debezium JSON lines, or Parquet event segments.
``SegmentTailer`` turns that into the engine's epoch loop:

  poll() → list the directory → diff against the consumed-file cursor →
  decode the NEW segments (cdc/wire.py for jsonl, pruned parquet read
  otherwise) → ``apply_epoch(next_epoch)`` → advance the cursor.

Exactly-once file accounting is two-phase, piggybacking on the store's
epoch fences:

1. an INTENT record ``{epoch, files}`` is written atomically BEFORE the
   apply — a crash mid-apply leaves the intent, and the next poll
   re-applies exactly that file set under exactly that epoch (the
   engine's per-partition fences make the re-apply idempotent);
2. the cursor advances (consumed ∪ files, atomic rename) only AFTER the
   epoch commit; a crash between commit and cursor just means the next
   poll sees the committed epoch, fast-forwards the cursor, and moves
   on. Segment files are never mutated, only listed.

Even without the accounting, LWW + applied-LSN fences absorb duplicate
deliveries — the cursor exists so a 10^10-event tail doesn't RE-READ
terabytes of already-applied segments, not for correctness.

Reference parity note: ARLAS-proc's batch CLI reads a fixed input path
per run (``app/``); continuous segment consumption is part of the CDC
reimagining, not the reference.
"""

from __future__ import annotations

import json
import os

from arlas_proc_ray.cdc.snapshot import _atomic_write_bytes


class SegmentTailer:
    """Consume a growing directory of change-event segment files.

    ``fmt``: ``"jsonl"`` (Debezium envelopes via cdc/wire.py) or
    ``"parquet"`` (native event-schema segments, column-pruned read).
    ``apply``: optional override ``(engine, ds, epoch) -> dict`` for a
    different apply path (e.g. ``staged_apply_epoch``); defaults to
    ``engine.apply_epoch``.
    """

    def __init__(
        self,
        engine,
        segment_dir: str,
        *,
        fmt: str = "jsonl",
        dead_letter_dir: str | None = None,
        apply=None,
        suffixes: tuple = (".jsonl", ".json", ".parquet"),
        decode_kwargs: dict | None = None,
        committed_fn=None,
    ):
        if fmt not in ("jsonl", "parquet"):
            raise ValueError(f"unknown fmt: {fmt!r}")
        self.engine = engine
        self.segment_dir = segment_dir
        self.fmt = fmt
        self.dead_letter_dir = dead_letter_dir
        self.apply = apply
        self.suffixes = suffixes
        # extra decode_debezium kwargs (e.g. table_col="table" for a
        # multiplexed topic feeding a demux `apply` override)
        self.decode_kwargs = dict(decode_kwargs or {})
        # committed_fn: the "is epoch e fully applied?" probe, defaulting
        # to this engine's store. A multi-engine `apply` (demux) MUST
        # pass the MIN over all its engines — with the single-engine
        # default, a crash after the first table committed but before
        # the last would fast-forward the cursor and silently drop the
        # lagging tables' events (found by the composed chaos test).
        self.committed_fn = committed_fn

    def _committed(self):
        if self.committed_fn is not None:
            return self.committed_fn()
        return self.engine.store.latest_committed_epoch()

    # ---- state -----------------------------------------------------------

    @property
    def _state_dir(self) -> str:
        return os.path.join(self.engine.store.root, "_tailer")

    @property
    def _cursor_path(self) -> str:
        return os.path.join(self._state_dir, "cursor.json")

    @property
    def _intent_path(self) -> str:
        return os.path.join(self._state_dir, "intent.json")

    def _read(self, path: str) -> dict | None:
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    def consumed(self) -> set:
        c = self._read(self._cursor_path)
        return set(c["files"]) if c else set()

    # ---- one cadence -----------------------------------------------------

    def _list_segments(self) -> list[str]:
        if not os.path.isdir(self.segment_dir):
            return []
        return sorted(
            f
            for f in os.listdir(self.segment_dir)
            if f.endswith(self.suffixes) and not f.endswith(".tmp")
        )

    def _dataset_for(self, files: list[str]):
        paths = [os.path.join(self.segment_dir, f) for f in files]
        if self.fmt == "jsonl":
            from arlas_proc_ray.cdc.wire import read_changelog_jsonl

            kw = dict(self.decode_kwargs)
            if self.dead_letter_dir is not None:
                kw["dead_letter_dir"] = self.dead_letter_dir
            return read_changelog_jsonl(paths, **kw)
        import ray.data as rd

        return rd.read_parquet(paths)

    def _apply(self, ds, epoch: int) -> dict:
        if self.apply is not None:
            return self.apply(self.engine, ds, epoch)
        kw = {}
        if self.dead_letter_dir is not None:
            kw["dead_letter_dir"] = self.dead_letter_dir
        return self.engine.apply_epoch(ds, epoch, **kw)

    def poll(self) -> dict:
        """One cadence. Returns ``{epoch, files, applied}`` —
        ``applied=False`` means nothing new arrived."""
        committed = self._committed()

        intent = self._read(self._intent_path)
        if intent is not None:
            e, files = int(intent["epoch"]), list(intent["files"])
            if committed is not None and committed >= e:
                # crashed AFTER commit, before cursor advance: fast-forward
                self._advance_cursor(files)
            else:
                # crashed mid-apply: resume the SAME file set as the SAME
                # epoch (partition fences skip finished partitions)
                self._apply(self._dataset_for(files), e)
                self._advance_cursor(files)
            os.unlink(self._intent_path)
            return {"epoch": e, "files": files, "applied": True, "resumed": True}

        seen = self.consumed()
        fresh = [f for f in self._list_segments() if f not in seen]
        if not fresh:
            return {"epoch": committed, "files": [], "applied": False}

        epoch = (committed or 0) + 1
        _atomic_write_bytes(
            self._intent_path,
            json.dumps({"epoch": epoch, "files": fresh}).encode(),
        )
        self._apply(self._dataset_for(fresh), epoch)
        self._advance_cursor(fresh)
        os.unlink(self._intent_path)
        return {"epoch": epoch, "files": fresh, "applied": True}

    def _advance_cursor(self, files: list[str]) -> None:
        merged = sorted(self.consumed() | set(files))
        _atomic_write_bytes(self._cursor_path,
                           json.dumps({"files": merged}).encode())

    def run_until_idle(self, max_polls: int = 1_000_000) -> list[dict]:
        """Poll until a cadence applies nothing; returns all results."""
        out = []
        for _ in range(max_polls):
            r = self.poll()
            out.append(r)
            if not r["applied"]:
                break
        return out
