"""CDC ingest benchmark: one workload, one seed, one Ray session.

    python3 perfbench/run.py --workload bootstrap|tail --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # toy sizes, every workload, both modes

Run from the repository root. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines
before it carry the host stamp and details (sample counts, percentiles,
generation time). The exit code is non-zero when any output differs from
the oracle. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time


def nproc() -> int:
    """What ``nproc`` prints: it honours OMP_NUM_THREADS and CPU affinity."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10).stdout)
    except (OSError, ValueError):
        return len(os.sched_getaffinity(0))


def pin_cpus() -> None:
    """Run this process, and every process and thread it starts, on the
    last ``nproc`` CPUs it may use.

    The host may have more CPUs than ``nproc`` grants the benchmark. Ray's
    processes spread over all of them would wait on each other's vCPUs,
    and the host-speed probe would sample only the driver's (hostspeed.py).
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[-min(nproc(), len(cpus)):])


if __name__ == "__main__":
    pin_cpus()  # before any import starts a thread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import arlas_proc_ray  # noqa: E402,F401  (fail fast outside a checkout)
import ray  # noqa: E402

from perfbench import hostspeed, tracer  # noqa: E402
from perfbench import inputs as inputs_mod  # noqa: E402
from perfbench.workloads import Workload, events_dataset  # noqa: E402

WORKLOADS = ("bootstrap", "tail")
# Ray's unix socket paths must stay under 107 bytes
_RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


def host_stamp(seed: int) -> dict:
    import pyarrow

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": nproc(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
    }


def start_ray(trace_dir: str | None) -> float:
    """A session sized to this host; returns its start-up seconds (steal
    excluded)."""
    temp = os.path.join(ROOT, ".bench_ray")
    env = {"PYTHONPATH": os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}
    runtime_env = {"env_vars": env}
    if trace_dir is not None:
        env[tracer.ENV_DIR] = trace_dir
        runtime_env["worker_process_setup_hook"] = "perfbench.tracer.worker_setup"
    kwargs = {}
    if len(temp) + _RAY_SOCKET_SUFFIX <= 107:
        kwargs["_temp_dir"] = temp
    _, seconds = hostspeed.unstolen(lambda: ray.init(
        address="local", num_cpus=nproc(), object_store_memory=512 * 1024**2,
        include_dashboard=False, logging_level="ERROR", log_to_driver=False,
        runtime_env=runtime_env, **kwargs,
    ))
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return seconds


def _descendants() -> set:
    """Every process below this one (Ray's raylet, GCS and workers)."""
    children: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = set(), [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    pids = _descendants()
    ray.shutdown()
    deadline = time.monotonic() + 20
    while True:
        left = [p for p in pids if tracer.alive(p)]
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, 9)
                except OSError:
                    pass
            deadline = time.monotonic() + 10
        time.sleep(0.1)


# ------------------------------------------------------------------ warm-up
def warm_up(name: str, work_dir: str, seed: int) -> None:
    """Spawn workers and load the workload's code paths, on toy inputs."""
    d = os.path.join(work_dir, "warm")
    w = Workload(name, inputs_mod.Inputs(name, seed, inputs_mod.TOY,
                                         os.path.join(d, "in")), d)
    if name != "bootstrap":
        w.build_base()
    w.measure(0, cycles=1)
    if w.failed:
        raise RuntimeError(f"warm-up {name} failed: {w.problems}")
    shutil.rmtree(d, ignore_errors=True)


# ---------------------------------------------------------------- statistics
def hi_percentile(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``. With 20 samples or fewer no
    percentile above the median has ten samples beyond it, so the median
    is reported and labelled p50.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return statistics.median(xs), 50.0, n
    k = n - 10  # samples at or below the reported one
    return xs[k - 1], 100.0 * k / n, n


def end_to_end(w: Workload, setup_s: float) -> dict:
    """The run's metrics, operation times without steal and scaled to the
    reference speed (hostspeed.py); the unscaled values are printed beside
    them.

    Set-up time (steal excluded) is not scaled: the few probes set-up
    would allow, taken while Ray spawns its processes, spread it more than
    they steady it.
    """
    epoch_hi, epoch_pct, n_epochs = hi_percentile(w.epoch_s)
    look_hi, look_pct, n_look = hi_percentile(w.lookup_s)
    unscaled = {
        "setup_s": (setup_s, "s"),
        "events_per_s": (statistics.median(w.epoch_rate), "events/s"),
        "epoch_p50_s": (statistics.median(w.epoch_s), "s"),
        "epoch_hi_s": (epoch_hi, "s"),
        "write_amp": (statistics.median(w.write_amp), "ratio"),
        "lookup_p50_ms": (1e3 * statistics.median(w.lookup_s), "ms"),
        "lookup_hi_ms": (1e3 * look_hi, "ms"),
        "scan_p50_s": (statistics.median(w.scan_s), "s"),
    }
    f = w.meter.slowdown()
    scale = {"s": 1 / f, "ms": 1 / f, "events/s": f, "ratio": 1.0}
    print(json.dumps({
        "samples": {
            "epochs": n_epochs, "epoch_hi_percentile": round(epoch_pct, 1),
            "lookups": n_look, "lookup_hi_percentile": round(look_pct, 1),
            "scans": len(w.scan_s), "cycles": len(w.write_amp),
        },
        "host_speed": w.meter.summary(),
        "unscaled": {k: v for k, (v, _) in unscaled.items()},
        "epoch_s": [round(x, 4) for x in w.epoch_s],
        "scan_s": [round(x, 4) for x in w.scan_s],
        "write_amp": [round(x, 4) for x in w.write_amp],
    }))
    out = {k: (v * scale[u], u) for k, (v, u) in unscaled.items()}
    out["setup_s"] = unscaled["setup_s"]
    return out


# ------------------------------------------------------------------- floors
def exchange_floor(w: Workload) -> float:
    """Bare ``ray.put``/``ray.get`` of the staged exchange's slices.

    The slices are cut exactly as the one-level split task cuts them
    (ingest head, combiner, routing, one take per partition), outside the
    timed part; only putting and getting them is timed.
    """
    from arlas_proc_ray.cdc.constraints import make_ingest_head
    from arlas_proc_ray.cdc.events import default_registry
    from arlas_proc_ray.cdc.staged import _split_block

    total = 0.0
    for files in w.staged_inputs():
        align = make_ingest_head(default_registry(), w.dm, epoch=1,
                                 dead_letter_dir=None, constraints=None)
        blocks = ray.get(events_dataset(files).materialize().to_arrow_refs())
        slices = [s for b in blocks for s in _split_block(b, w.dm, align)]
        t0 = time.perf_counter()
        ray.get([ray.put(s) for s in slices])
        total += time.perf_counter() - t0
    return total


def per_layer(w: Workload, spans: list, cycles: int, untraced_wall: float,
              exchange_floor_s: float) -> dict:
    att = tracer.attribute(spans, w.windows)
    s, c = att["self_s"], att["counts"]

    def sec(layer):
        return (s.get(layer, 0.0) / cycles, "s")

    def cnt(layer, name, unit):
        return (c.get(layer, {}).get(name, 0) / cycles, unit)

    def floor(layer):
        return (c.get(layer, {}).get("floor_ns", 0) / 1e9 / cycles, "s")

    traced_wall = att["wall_s"] / cycles
    return {
        "wire.s": sec("wire"),
        "wire.rows": cnt("wire", "rows", "rows"),
        "wire.bytes_in": cnt("wire", "bytes_in", "bytes"),
        "tailer.s": sec("tailer"),
        "ingest.s": sec("ingest"),
        "ingest.rows": cnt("ingest", "rows", "rows"),
        "combine.s": sec("combine"),
        "combine.rows_in": cnt("combine", "rows_in", "rows"),
        "combine.rows_out": cnt("combine", "rows_out", "rows"),
        "route.s": sec("route"),
        "prior_read.s": sec("prior_read"),
        "prior_read.calls": cnt("prior_read", "calls", "calls"),
        "prior_read.bytes": cnt("prior_read", "bytes", "bytes"),
        "finalize.s": sec("finalize"),
        "finalize.rows_in": cnt("finalize", "rows_in", "rows"),
        "finalize.rows_out": cnt("finalize", "rows_out", "rows"),
        "sha256.s": sec("sha256"),
        "sha256.rows": cnt("sha256", "rows", "rows"),
        "sha256.bytes": cnt("sha256", "bytes", "bytes"),
        "sha256.floor_s": floor("sha256"),
        "write.s": sec("write"),
        "write.files": cnt("write", "files", "files"),
        "write.rows": cnt("write", "rows", "rows"),
        "write.bytes": cnt("write", "bytes", "bytes"),
        "write.carried_files": cnt("write", "carried_files", "files"),
        "write.floor_s": floor("write"),
        "commit.s": sec("commit"),
        "commit.manifests_read": cnt("commit", "manifests_read", "files"),
        "lookup.s": sec("lookup"),
        "lookup.files_read": cnt("lookup", "files_read", "files"),
        "lookup.bytes_read": cnt("lookup", "bytes_read", "bytes"),
        "lookup.summary_reads": cnt("lookup", "summary_reads", "files"),
        "scan.plan_s": sec("scan_plan"),
        "scan.files_total": cnt("scan_plan", "files_total", "files"),
        "scan.files_read": cnt("scan_plan", "files_read", "files"),
        "scan.s": sec("scan"),
        "exchange.blocks": cnt("exchange", "blocks", "count"),
        "exchange.two_level": cnt("exchange", "two_level", "count"),
        "exchange.floor_s": (exchange_floor_s, "s"),
        "unattributed.s": (att["unattributed_s"] / cycles, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }


# --------------------------------------------------------------------- run
def _measure(name: str, inp, work: str, seed: int, seconds: float,
             trace, ray_s: float, warm: bool) -> dict:
    """Set up and measure one workload in the running session."""
    info = {"workload": name, "host": host_stamp(seed), "gen_s": inp.gen_s}
    warm_s = hostspeed.unstolen(lambda: warm_up(name, work, seed))[1] if warm else 0.0
    w = Workload(name, inp, os.path.join(work, name))
    base = ([w.build_base() for _ in range(inp.sizes.setup_reps)]
            if name != "bootstrap" else [0.0])
    setup_s = ray_s + warm_s + statistics.median(base)
    info["setup"] = {"ray_start_s": ray_s, "warm_up_s": warm_s, "base_s": base}

    # the oracle's Python objects are permanent: keep the collector from
    # walking them during timed operations
    gc.collect()
    gc.freeze()
    try:
        if trace is None:
            n = w.measure(seconds)
            metrics = end_to_end(w, setup_s)
        else:
            # the same cycles untraced, then traced: the difference is the
            # tracing overhead
            n = w.measure(seconds / 2)
            untraced_wall = sum(b - a for a, b in w.windows) / 1e9 / n
            w.reset_samples()
            trace.set_enabled(True)
            w.measure(0, cycles=n)
            trace.set_enabled(False)
            metrics = per_layer(w, trace.spans, n, untraced_wall, exchange_floor(w))
    finally:
        gc.unfreeze()
    info["cycles"] = n
    info["host"]["loadavg_after"] = os.getloadavg()
    info["failed_frac"] = w.failed / max(1, w.attempted)
    info["problems"] = w.problems
    print(json.dumps(info, default=str))
    return {
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_session(names, seed: int, seconds: float, traced: bool,
                sizes: inputs_mod.Sizes, warm: bool = True) -> list:
    """Measure each named workload in one Ray session; one result each."""
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = {}
        for name in names:
            t0 = time.perf_counter()
            inputs[name] = inputs_mod.Inputs(
                name, seed, sizes, os.path.join(work, name, "in"))
            inputs[name].gen_s = time.perf_counter() - t0  # with the oracle
        trace = tracer.TraceSession(os.path.join(work, "trace")) if traced else None
        ray_s = start_ray(trace.dir if traced else None)
        try:
            return [_measure(n, inputs[n], work, seed, seconds, trace, ray_s, warm)
                    for n in names]
        finally:
            stop_ray()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def smoke() -> int:
    """Toy sizes: every workload, untraced and traced; names and units
    must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    for traced in (0, 1):
        # one session per mode; toy runs are their own warm-up
        outs = run_session(WORKLOADS, 1, 1.0, bool(traced), inputs_mod.TOY,
                           warm=False)
        for name, out in zip(WORKLOADS, outs):
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want[traced] or not out["correct"]:
                bad.append((name, traced, out["correct"],
                            sorted(set(got.items()) ^ set(want[traced].items()))))
    print(json.dumps({"smoke_ok": not bad, "mismatches": bad}))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    [result] = run_session([args.workload], args.seed, args.seconds,
                           bool(args.trace), inputs_mod.FULL)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
