"""Time the package's one keyed exchange and measure its peak memory.

``keyed_partition_map`` runs the keyed exchange of
``arlas_proc_ray/exchange.py``: it materializes its input once and ships
B×G exchange objects, where Ray Data's sort shuffle (no longer in the
package) streamed. This tool runs one keyed aggregation over N rows, N
swept, and prints per N the best-of-R wall time of the exchange and the
peak bytes the object store held.

Each N runs in a fresh Ray session. Peak bytes are the growth of
/dev/shm's used bytes over that session: Ray's plasma store maps its
memory there and keeps every page it has touched until shutdown, reusing
freed ones, so the growth is the store's high-water mark (the input
blocks included). It reads 0 where the store lives elsewhere, and it
counts every other writer of /dev/shm in the same window, so run the tool
alone.

Usage:
    python tools/exchange_crossover.py [rows ...]             # scalar rows
    python tools/exchange_crossover.py --payload 1024 [rows ...]
        # adds a payload-BYTES string column carried THROUGH the
        # exchange with an event-sized output (the CDC shape, with
        # multi-KB content strings)

``RAY_GRAFT_CPUS`` sets the session's CPUs (default: the machine's).
Owns its Ray sessions (run it alone — never concurrently with bench.py).
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd

REPEATS = 3


def shm_used() -> int:
    """Bytes in use on /dev/shm (0 where it does not exist)."""
    try:
        st = os.statvfs("/dev/shm")
    except OSError:
        return 0
    return (st.f_blocks - st.f_bfree) * st.f_frsize


def frame(n: int, payload: int) -> pd.DataFrame:
    rng = np.random.default_rng(7)
    pdf = pd.DataFrame(
        {
            "k": rng.integers(0, max(16, n // 20), size=n).astype("int64"),
            "o": np.arange(n, dtype="int64"),
            "v": rng.integers(-1000, 1000, size=n).astype("int64"),
        }
    )
    if payload:
        alphabet = np.frombuffer(b"abcdefghijklmnop", dtype="S1")
        body = rng.choice(alphabet, size=payload).tobytes().decode()
        # constant body: measures exchange bytes, not generation
        pdf["content"] = pd.array([body] * n, dtype="object")
    return pdf


def run(n: int, payload: int, cpus: int) -> dict:
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from arlas_proc_ray.stages.keyed import keyed_partition_map

    def agg(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("k", sort=False)["v"]
        out = g.agg(total="sum", n="count").reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    def rowwise(pdf: pd.DataFrame) -> pd.DataFrame:
        # event-sized output carrying the payload through the exchange
        prev = pdf.groupby("k", sort=False)["v"].shift(1).fillna(0)
        pdf = pdf.copy()
        pdf["delta"] = (pdf["v"] - prev).to_numpy(np.int64)
        return pdf

    shm0 = shm_used()
    blocks = max(4, min(64, n // 50_000 or 4))
    base = rd.from_pandas(frame(n, payload), override_num_blocks=blocks)
    base = base.materialize()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        keyed_partition_map(
            base, keys=["k"], order_col="o", fn=rowwise if payload else agg,
            num_partitions=64,
        ).count()
        best = min(best, time.perf_counter() - t0)
    out = {
        "rows": n,
        "input_bytes": base.size_bytes(),
        "best_s": best,
        "peak_bytes": shm_used() - shm0,
        "store_bytes": int(ray.cluster_resources()["object_store_memory"]),
    }
    ray.shutdown()
    return out


def main(row_counts: list[int], payload: int = 0) -> None:
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1))
    print(f"payload={payload} cpus={cpus} partitions=64 best-of-{REPEATS}")
    print(f"{'rows':>12} {'input_MB':>9} {'best_s':>8} {'peak_MB':>9} "
          f"{'store_MB':>9}")
    for n in row_counts:
        r = run(n, payload, cpus)
        print(f"{r['rows']:>12,} {r['input_bytes'] / 2**20:>9.1f} "
              f"{r['best_s']:>8.3f} {r['peak_bytes'] / 2**20:>9.1f} "
              f"{r['store_bytes'] / 2**20:>9.0f}", flush=True)


if __name__ == "__main__":
    args = sys.argv[1:]
    payload = 0
    if args and args[0] == "--payload":
        payload = int(args[1])
        args = args[2:]
    counts = [int(a.replace("_", "")) for a in args] or [
        10_000, 100_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
        20_000_000,
    ]
    main(counts, payload=payload)
