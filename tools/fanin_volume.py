"""Sharded fan-in at volume: gen | tail | verify (one mode per process).

The FaninTailer story at scale (BASELINE.md round-5 addendum): one
logical 6M-event change log lands as THREE mutually-skewed shard
directories of parquet segments (lsn % 3; the laggard shard trails by
two waves), FaninTailer polls — parquet-footer high-water per shard,
min-over-shards watermark cut, two-phase intent/cursor — and the final
engine state is byte-verified against a direct single-feed replay.

Usage: python tools/fanin_volume.py gen|tail|verify
tools-only scratch under /tmp/fanin6m.
"""
import os
import shutil
import sys
import time

import ray

ray.init(
    address="local",
    num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
    include_dashboard=False,
    logging_level="ERROR",
)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

import pyarrow as pa
import pyarrow.compute as pc

from arlas_proc_ray.cdc import CdcEngine, ChangelogConfig, changelog_dataset
from arlas_proc_ray.cdc.fanin import FaninTailer
from arlas_proc_ray.model import DataModel

BASE = "/tmp/fanin6m"
N = 6_000_000
K = 3
CFG = ChangelogConfig(
    num_events=N, num_keys=N // 20, num_repos=200, seed=77,
    min_content=50, max_content=150,
)
DM = DataModel(num_partitions=64)
WAVES = 6
# per-shard delivered prefix at each wave (fractions of N): shard 2 lags
SKEW = [
    (0.25, 0.15, 0.05),
    (0.45, 0.30, 0.10),
    (0.60, 0.55, 0.30),
    (0.80, 0.70, 0.50),
    (1.00, 0.90, 0.75),
    (1.00, 1.00, 1.00),
]


def shard_dirs():
    return {f"s{s}": f"{BASE}/wal{s}" for s in range(K)}


def mode_gen():
    shutil.rmtree(BASE, ignore_errors=True)
    dirs = shard_dirs()
    t0 = time.perf_counter()
    done = [0.0] * K
    for w, fr in enumerate(SKEW):
        for s in range(K):
            if fr[s] <= done[s]:
                continue
            lo, hi = int(N * done[s]), int(N * fr[s])
            ds = changelog_dataset(CFG, lo=lo, hi=hi, override_num_blocks=8)

            def pick(t: pa.Table, _s=s) -> pa.Table:
                lsn = t.column("lsn")
                m = pc.equal(
                    pc.subtract(lsn, pc.multiply(pc.divide(lsn, K), K)), _s
                )
                return t.filter(m).replace_schema_metadata(None)

            d = dirs[f"s{s}"]
            tmpd = f"{d}/.w{w}"
            shutil.rmtree(tmpd, ignore_errors=True)
            ds.map_batches(
                pick, batch_format="pyarrow", batch_size=None
            ).write_parquet(tmpd)
            os.makedirs(d, exist_ok=True)
            for i, f in enumerate(sorted(os.listdir(tmpd))):
                os.replace(
                    os.path.join(tmpd, f), os.path.join(d, f"w{w}-{i:04d}.parquet")
                )
            shutil.rmtree(tmpd, ignore_errors=True)
            done[s] = fr[s]
    for d in dirs.values():
        open(os.path.join(d, "_CLOSED"), "w").close()
    print(f"gen: {N} events across {K} skewed shards in "
          f"{time.perf_counter() - t0:.1f}s")


def mode_tail():
    eng = CdcEngine(f"{BASE}/snap", DM)
    t = FaninTailer(eng, shard_dirs())
    t0 = time.perf_counter()
    results = t.run_until_idle()
    dt = time.perf_counter() - t0
    applied = [r for r in results if r["applied"]]
    print(
        f"tail: {len(applied)} watermark-cut epochs, cut="
        f"{t._cursor()['cut']}, {N / dt:,.0f} ev/s busy ({dt:.1f}s)"
    )


def mode_verify():
    direct = CdcEngine(f"{BASE}/snap_direct", DM)
    direct.apply_epoch_staged(
        changelog_dataset(CFG, lo=0, hi=N, override_num_blocks=64), 1
    )
    a = (
        CdcEngine(f"{BASE}/snap", DM).final_state().to_pandas()
        .sort_values(["repo", "path"]).reset_index(drop=True)
    )
    b = (
        direct.final_state().to_pandas()
        .sort_values(["repo", "path"]).reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)
    print(f"verify: fan-in state byte-equal to direct replay "
          f"({len(a)} rows incl. content_sha256)")


def _land_wave(w, fr, done, dirs):
    for s in range(K):
        if fr[s] <= done[s]:
            continue
        lo, hi = int(N * done[s]), int(N * fr[s])
        ds = changelog_dataset(CFG, lo=lo, hi=hi, override_num_blocks=8)

        def pick(t: pa.Table, _s=s) -> pa.Table:
            lsn = t.column("lsn")
            m = pc.equal(
                pc.subtract(lsn, pc.multiply(pc.divide(lsn, K), K)), _s
            )
            return t.filter(m).replace_schema_metadata(None)

        d = dirs[f"s{s}"]
        tmpd = f"{d}/.w{w}"
        shutil.rmtree(tmpd, ignore_errors=True)
        ds.map_batches(
            pick, batch_format="pyarrow", batch_size=None
        ).write_parquet(tmpd)
        os.makedirs(d, exist_ok=True)
        for i, f in enumerate(sorted(os.listdir(tmpd))):
            os.replace(
                os.path.join(tmpd, f), os.path.join(d, f"w{w}-{i:04d}.parquet")
            )
        shutil.rmtree(tmpd, ignore_errors=True)
        done[s] = fr[s]


def mode_interleaved():
    """Waves land and the tailer polls BETWEEN them — every wave's cut
    is gated by the laggard; a FRESH FaninTailer per wave proves the
    cursor/intent state fully round-trips through disk."""
    shutil.rmtree(BASE, ignore_errors=True)
    dirs = shard_dirs()
    done = [0.0] * K
    t0 = time.perf_counter()
    cuts = []
    for w, fr in enumerate(SKEW):
        _land_wave(w, fr, done, dirs)
        if fr == SKEW[-1]:
            for d in dirs.values():
                open(os.path.join(d, "_CLOSED"), "w").close()
        eng = CdcEngine(f"{BASE}/snap", DM)
        t = FaninTailer(eng, dirs)
        r = t.poll()
        cuts.append((w, r["applied"], t._cursor()["cut"]))
    dt = time.perf_counter() - t0
    print("cuts per wave:", cuts)
    assert cuts[-1][2] == N - 1
    print(f"interleaved: {len([c for c in cuts if c[1]])} epochs, "
          f"{N / dt:,.0f} ev/s incl. generation ({dt:.1f}s)")


def mode_chaos():
    """SIGKILL the tail mid-epoch, resume in a fresh process, converge.
    Run AFTER `gen`: spawns `tail` as a subprocess, kills it hard once
    the apply is underway, then re-runs tail to completion — the intent
    record replays the SAME cut under the SAME epoch and the partition
    fences skip whatever committed before the kill."""
    import signal
    import subprocess

    shutil.rmtree(f"{BASE}/snap", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH="/root/repo")
    p = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "tail"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    time.sleep(float(os.environ.get('FANIN_KILL_AFTER_S', '8')))
    os.kill(p.pid, signal.SIGKILL)
    p.wait()
    intent = f"{BASE}/snap/_fanin_tailer/intent.json"
    print("killed mid-epoch; intent present:", os.path.exists(intent))
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "tail"],
        env=env, capture_output=True, text=True,
    )
    print("resume:", out.stdout.strip().splitlines()[-1])
    print(f"resume wall {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    {"gen": mode_gen, "tail": mode_tail, "verify": mode_verify,
     "interleaved": mode_interleaved, "chaos": mode_chaos}[sys.argv[1]]()
    ray.shutdown()
