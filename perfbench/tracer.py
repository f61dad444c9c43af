"""Span tracing for the traced benchmark run, from outside the engine.

The engine is not modified. Its public layer functions are wrapped in the
driver and, through Ray's ``worker_process_setup_hook`` (``worker_setup``),
in every Ray worker. Each wrapped call records a span ``(layer, start,
end, counts)`` in process memory. A background thread in each process
watches a control file in the trace directory: the driver bumps its
generation to switch tracing on or off and to make every process write its
buffered spans out. A process also writes its buffer when it has been idle
for a while, so a worker that Ray retires between cycles loses nothing.

Self time: inside the measured windows, every instant belongs to the most
recently started span that is active at that instant, in any process (all
processes share ``CLOCK_MONOTONIC``). Time that no span covers is
``unattributed``: Ray scheduling, exchange slicing, object transfer and Ray
Data overhead. Library floors run inline in ``_floor`` spans, whose time
is removed from the measured wall.

A call nested in a layer that owns it (the final LWW inside ``finalize``,
partition reads inside ``lookup``, manifest reads inside ``commit``) does
not open a span of its own; it adds its counts to the enclosing span.
"""

from __future__ import annotations

import contextlib
import heapq
import hashlib
import importlib
import json
import os
import tempfile
import threading
import time
import types

ENV_DIR = "PERFBENCH_TRACE_DIR"
CONTROL = "control.json"
POLL_S = 0.02
IDLE_FLUSH_S = 0.25
FLOOR = "_floor"

# (module, attribute, layer, kind). ``call`` wraps the function itself,
# ``factory`` wraps the per-batch function it returns, ``mark`` only
# counts the call (no span: it would cover the whole epoch).
TARGETS = [
    ("arlas_proc_ray.cdc.wire", "read_changelog_jsonl", "wire", "call"),
    ("arlas_proc_ray.cdc.wire", "make_decode_fn", "wire", "factory"),
    ("arlas_proc_ray.cdc.tailer", "SegmentTailer.poll", "tailer", "call"),
    ("arlas_proc_ray.cdc.constraints", "make_ingest_head", "ingest", "factory"),
    ("arlas_proc_ray.cdc.replay", "make_align_fn", "ingest", "factory"),
    ("arlas_proc_ray.cdc.replay", "lww_reduce_table", "combine", "call"),
    ("arlas_proc_ray.functions.hashing", "partition_ids", "route", "call"),
    ("arlas_proc_ray.cdc.snapshot", "SnapshotStore.read_partition", "prior_read", "call"),
    ("arlas_proc_ray.cdc.snapshot", "SnapshotStore.read_manifest", "prior_read", "call"),
    ("arlas_proc_ray.cdc.replay", "finalize_partition_table", "finalize", "call"),
    ("arlas_proc_ray.functions.hashing", "sha256_hex", "sha256", "call"),
    ("arlas_proc_ray.cdc.snapshot", "SnapshotStore.write_partition", "write", "call"),
    ("arlas_proc_ray.cdc.snapshot", "SnapshotStore.commit_epoch", "commit", "call"),
    ("arlas_proc_ray.cdc.engine", "CdcEngine.lookup", "lookup", "call"),
    ("arlas_proc_ray.cdc.snapshot", "SnapshotStore.read_partition_resolved", "lookup", "call"),
    ("arlas_proc_ray.cdc.snapshot", "SnapshotStore.read_epoch_summary", "lookup", "call"),
    ("arlas_proc_ray.cdc.snapshot", "SnapshotStore.plan_scan", "scan_plan", "call"),
    ("arlas_proc_ray.cdc.staged", "staged_apply_epoch", "exchange", "mark"),
    ("arlas_proc_ray.cdc.staged", "staged_apply_epoch_two_level", "exchange", "mark"),
]

# layer -> enclosing layers that own its calls (no span of its own there)
ABSORBED_BY = {
    "combine": {"finalize"},
    "route": {"lookup"},
    "prior_read": {"lookup", "commit", "scan_plan"},
}
# these only mean something inside a lookup; elsewhere they pass through
LOOKUP_ONLY = {"read_partition_resolved", "read_epoch_summary"}


def _now() -> int:
    return time.perf_counter_ns()


def _atomic_write(path: str, payload: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        f.write(payload)
    os.replace(tmp, path)


class Span:
    __slots__ = ("layer", "t0", "t1", "counts")

    def __init__(self, layer: str):
        self.layer = layer
        self.t0 = _now()
        self.t1 = 0
        self.counts: dict = {}

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class Recorder:
    """One per process: the span buffer and the control-file watcher."""

    def __init__(self, trace_dir: str, *, watch: bool):
        self.dir = trace_dir
        self.pid = os.getpid()
        self.enabled = False
        self.gen = -1
        self._spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._active = 0
        self._idle_since = time.monotonic()
        self._control_version = None
        self.scratch = os.path.join(trace_dir, f"floor-{self.pid}.parquet")
        self._poll_control()
        if watch:
            threading.Thread(target=self._watch, daemon=True).start()

    # ---- spans ---------------------------------------------------------
    def stack(self) -> list:
        s = getattr(self._local, "stack", None)
        if s is None:
            s = self._local.stack = []
        return s

    def open(self, layer: str) -> Span:
        span = Span(layer)
        self.stack().append(span)
        with self._lock:
            self._active += 1
        return span

    def close(self, span: Span) -> None:
        span.t1 = _now()
        self.stack().pop()
        with self._lock:
            self._active -= 1
            self._spans.append((span.layer, span.t0, span.t1, span.counts))
            if self._active == 0:
                self._idle_since = time.monotonic()

    def point(self, layer: str, counts: dict) -> None:
        """A zero-length span that only carries counts."""
        t = _now()
        with self._lock:
            self._spans.append((layer, t, t, counts))

    # ---- control -------------------------------------------------------
    def _poll_control(self) -> None:
        path = os.path.join(self.dir, CONTROL)
        try:
            st = os.stat(path)
        except FileNotFoundError:
            return
        version = (st.st_ino, st.st_mtime_ns)
        if version == self._control_version:
            return
        with open(path) as f:
            ctl = json.load(f)
        self._control_version = version
        if ctl["gen"] != self.gen:
            self.enabled = bool(ctl["enabled"])
            self.flush()
            self.gen = ctl["gen"]
            _atomic_write(os.path.join(self.dir, f"ack-{self.pid}"), str(self.gen))

    def _watch(self) -> None:
        while True:
            time.sleep(POLL_S)
            try:
                self._poll_control()
                if (self._spans and self._active == 0
                        and time.monotonic() - self._idle_since > IDLE_FLUSH_S):
                    self.flush()
            except (OSError, ValueError):
                pass  # a half-written control file: read it next tick

    def flush(self) -> None:
        with self._lock:
            spans, self._spans = self._spans, []
        if not spans:
            return
        with open(os.path.join(self.dir, f"spans-{self.pid}.jsonl"), "a") as f:
            f.write("".join(json.dumps(s) + "\n" for s in spans))


_REC: Recorder | None = None


def _recorder() -> Recorder | None:
    r = _REC
    return r if r is not None and r.enabled else None


@contextlib.contextmanager
def harness_span(layer: str):
    """A span opened by the benchmark itself around a call it times."""
    rec = _recorder()
    if rec is None:
        yield
        return
    span = rec.open(layer)
    try:
        yield
    finally:
        rec.close(span)


# ---------------------------------------------------------------- wrappers
def _resolve(module: str, attr: str):
    """Unpickle a wrapper as whatever the receiving process has bound."""
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


class Traced:
    """Wraps one library function or method; pickles by name."""

    def __init__(self, module: str, attr: str, layer: str, kind: str, fn):
        self.module, self.attr, self.layer, self.kind = module, attr, layer, kind
        self.name = attr.rsplit(".", 1)[-1]
        self.fn = fn

    def __reduce__(self):
        return (_resolve, (self.module, self.attr))

    def __get__(self, obj, owner=None):
        return self if obj is None else types.MethodType(self, obj)

    def __call__(self, *args, **kwargs):
        rec = _recorder()
        if rec is None:
            return self.fn(*args, **kwargs)
        if self.kind == "factory":
            return TracedFn(self.layer, self.fn(*args, **kwargs))
        stack = rec.stack()
        parent = stack[-1] if stack else None
        if self.kind == "mark":
            if parent is not None:  # never nested in practice
                return self.fn(*args, **kwargs)
            return self._mark(rec, args, kwargs)
        if self.name in LOOKUP_ONLY:
            if parent is not None and parent.layer == "lookup":
                if self.name == "read_epoch_summary":
                    parent.add("summary_reads", 1)
            return self.fn(*args, **kwargs)
        if parent is not None and parent.layer in ABSORBED_BY.get(self.layer, ()):
            out = self.fn(*args, **kwargs)
            _absorb(parent, self.name, args, out)
            return out
        span = rec.open(self.layer)
        try:
            out = self.fn(*args, **kwargs)
        finally:
            rec.close(span)
        bookkeeping = rec.open(FLOOR)
        try:
            _count(rec, span, self.name, args, out)
        finally:
            rec.close(bookkeeping)
        return out

    def _mark(self, rec: Recorder, args, kwargs):
        # (engine, events_ds, epoch): the materialized input's block count
        # and the chosen variant, counted but not timed
        rec.point("exchange", {
            "blocks": args[1].num_blocks(),
            "two_level": int(self.name.endswith("two_level")),
        })
        return self.fn(*args, **kwargs)


class TracedFn:
    """A per-batch function returned by a factory (ingest head, decoder)."""

    def __init__(self, layer: str, fn):
        self.layer = layer
        self.fn = fn

    def __call__(self, batch):
        rec = _recorder()
        if rec is None:
            return self.fn(batch)
        stack = rec.stack()
        if stack and stack[-1].layer == self.layer:
            return self.fn(batch)
        span = rec.open(self.layer)
        try:
            out = self.fn(batch)
            if isinstance(out, types.GeneratorType):
                out = list(out)
        finally:
            rec.close(span)
        if isinstance(out, list):
            span.add("rows", sum(t.num_rows for t in out))
            return _generate(out)
        span.add("rows", batch.num_rows)
        return out


def _generate(items: list):
    yield from items


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _absorb(parent: Span, name: str, args, out) -> None:
    if name == "read_partition" and parent.layer == "lookup":
        store, epoch, part = args[0], args[1], args[2]
        parent.add("files_read", 1)
        parent.add("bytes_read", _file_size(store.part_data_path(epoch, part)))
    elif name == "read_manifest" and parent.layer == "commit":
        parent.add("manifests_read", 1)


def _count(rec: Recorder, span: Span, name: str, args, out) -> None:
    if name == "read_changelog_jsonl":
        paths = [args[0]] if isinstance(args[0], str) else list(args[0])
        span.add("bytes_in", sum(_file_size(p) for p in paths))
    elif name in ("lww_reduce_table", "finalize_partition_table"):
        span.add("rows_in", args[0].num_rows)
        span.add("rows_out", out.num_rows)
    elif name == "read_partition":
        store, epoch, part = args[0], args[1], args[2]
        span.add("calls", 1)
        span.add("bytes", _file_size(store.part_data_path(epoch, part)))
    elif name == "read_manifest":
        span.add("calls", 1)
    elif name == "sha256_hex":
        _sha256_floor(rec, span, args[0])
    elif name == "write_partition":
        _write_floor(rec, span, args, out)
    elif name == "plan_scan":
        span.add("files_total", out["partitions_total"])
        span.add("files_read", len(out["files"]))


def _sha256_floor(rec: Recorder, span: Span, col) -> None:
    """Bare hashlib over exactly the bytes ``sha256_hex`` hashed."""
    import numpy as np
    import pyarrow as pa

    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    views = []
    for arr in chunks:
        if len(arr) == 0:
            continue
        if not pa.types.is_string(arr.type):
            arr = arr.cast(pa.string())
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int32,
                             count=len(arr) + 1, offset=arr.offset * 4)
        data = memoryview(arr.buffers()[2])
        valid = arr.is_valid().to_numpy(zero_copy_only=False)
        views.extend(
            data[offs[i]:offs[i + 1]] for i in range(len(arr)) if valid[i]
        )
    span.add("rows", len(views))
    span.add("bytes", sum(len(v) for v in views))
    sha = hashlib.sha256
    t0 = _now()
    for v in views:
        sha(v).hexdigest()
    span.add("floor_ns", _now() - t0)


def _write_floor(rec: Recorder, span: Span, args, manifest) -> None:
    """Bare ``pq.write_table`` of the same table with the store's options."""
    import pyarrow.parquet as pq

    store, epoch, part, table = args[0], args[1], args[2], args[3]
    span.add("files", 1)
    span.add("rows", table.num_rows)
    span.add("bytes", _file_size(store.part_data_path(epoch, part)))
    span.add("carried_files", int(manifest.metrics.get("events_applied") == 0))
    t0 = _now()
    pq.write_table(table, rec.scratch, compression=store.compression,
                   row_group_size=store.row_group_rows)
    span.add("floor_ns", _now() - t0)
    os.unlink(rec.scratch)


# ---------------------------------------------------------------- install
def install() -> None:
    """Patch every loaded ``arlas_proc_ray`` module binding of each target."""
    import sys

    for module, attr, layer, kind in TARGETS:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            if isinstance(orig, Traced):
                continue
            setattr(cls, meth, Traced(module, attr, layer, kind, orig))
            continue
        orig = getattr(mod, attr)
        if isinstance(orig, Traced):
            continue
        wrapper = Traced(module, attr, layer, kind, orig)
        # every module that imported the function by name holds its own
        # binding: patch them all, not only the defining module
        for name, m in list(sys.modules.items()):
            if not name.startswith("arlas_proc_ray") or m is None:
                continue
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapper)


def _import_engine_modules() -> None:
    for module in sorted({t[0] for t in TARGETS}):
        importlib.import_module(module)


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: start recording in this worker."""
    global _REC
    trace_dir = os.environ.get(ENV_DIR)
    if not trace_dir or _REC is not None:
        return
    _import_engine_modules()
    install()
    _REC = Recorder(trace_dir, watch=True)


class TraceSession:
    """Driver side: owns the trace directory and the control generation."""

    def __init__(self, trace_dir: str):
        global _REC
        os.makedirs(trace_dir, exist_ok=True)
        self.dir = trace_dir
        self.gen = 0
        _atomic_write(os.path.join(trace_dir, CONTROL),
                      json.dumps({"gen": 0, "enabled": False}))
        _import_engine_modules()
        install()
        _REC = self.rec = Recorder(trace_dir, watch=False)
        self._offsets: dict = {}
        self.spans: list = []

    def set_enabled(self, on: bool, timeout_s: float = 20.0) -> None:
        """Switch every process; returns once each live one has flushed
        and its spans are in ``self.spans``."""
        self.gen += 1
        _atomic_write(os.path.join(self.dir, CONTROL),
                      json.dumps({"gen": self.gen, "enabled": on}))
        self.rec._poll_control()
        deadline = time.monotonic() + timeout_s
        for name in os.listdir(self.dir):
            if not name.startswith("ack-") or name.endswith(".tmp"):
                continue
            pid = int(name[4:])
            while alive(pid):
                try:
                    with open(os.path.join(self.dir, name)) as f:
                        if int(f.read() or -1) >= self.gen:
                            break
                except (OSError, ValueError):
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError(f"trace: worker {pid} did not flush")
                time.sleep(POLL_S / 2)
        self._collect()

    def _collect(self) -> None:
        """Read every span written since the last call, from every process."""
        self.rec.flush()
        for name in sorted(os.listdir(self.dir)):
            if not name.startswith("spans-"):
                continue
            path = os.path.join(self.dir, name)
            with open(path) as f:
                f.seek(self._offsets.get(path, 0))
                data = f.read()
                self._offsets[path] = f.tell()
            self.spans.extend(json.loads(line) for line in data.splitlines())


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ------------------------------------------------------------- attribution
def attribute(spans: list, windows: list) -> dict:
    """Per-layer self seconds and counts inside the measured windows.

    Returns ``{"self_s": {layer: s}, "counts": {layer: {name: n}},
    "wall_s": window time minus floor time, "unattributed_s": s}``.
    """
    windows = sorted(windows)
    w_starts = [w[0] for w in windows]

    def in_window(t: int) -> bool:
        import bisect

        i = bisect.bisect_right(w_starts, t) - 1
        return i >= 0 and t <= windows[i][1]

    counts: dict = {}
    events = []
    for i, (layer, t0, t1, c) in enumerate(spans):
        if c and in_window(t0):
            d = counts.setdefault(layer, {})
            for k, v in c.items():
                d[k] = d.get(k, 0) + v
        if t1 > t0:
            events.append((t0, 1, i))
            events.append((t1, 0, i))
    for w0, w1 in windows:
        events.append((w0, 2, -1))
        events.append((w1, -1, -1))
    events.sort()

    self_ns: dict = {}
    heap: list = []  # (-start, idx) of active spans, lazily pruned
    active: set = set()
    in_win = 0
    wall = unattributed = 0
    prev = None
    for t, kind, i in events:
        if prev is not None and in_win and t > prev:
            while heap and heap[0][1] not in active:
                heapq.heappop(heap)
            dt = t - prev
            if heap:
                layer = spans[heap[0][1]][0]
                self_ns[layer] = self_ns.get(layer, 0) + dt
                if layer != FLOOR:
                    wall += dt
            else:
                unattributed += dt
                wall += dt
        prev = t
        if kind == 2:
            in_win += 1
        elif kind == -1:
            in_win -= 1
        elif kind == 1:
            active.add(i)
            heapq.heappush(heap, (-spans[i][1], i))
        else:
            active.discard(i)
    self_s = {k: v / 1e9 for k, v in self_ns.items() if k != FLOOR}
    return {
        "self_s": self_s,
        "counts": counts,
        "wall_s": wall / 1e9,
        "unattributed_s": unattributed / 1e9,
    }
