"""Composed-stream volume harness: gen | tail | verify (one mode per process).

The FULL streaming story at volume (BASELINE.md round-4 addendum):
Debezium-JSONL segments land in a directory (gen) → SegmentTailer polls,
wire-decodes, demuxes the multiplexed stream into two per-table engines
(one staged-exchange epoch per poll), publishes a cross-table txn cut
per epoch (tail) → final states are compared byte-for-byte against direct
per-table replays plus a sha256 deep-verify (verify).

tools/tail_chaos.sh choreographs the kill/resume run: segments fed in
waves, the tail process SIGKILLed mid-epoch, a fresh process resumes
from the intent record and converges. Scratch lives under /tmp/tail20m.
"""
import os, sys, time, shutil
import ray
ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")), include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import pyarrow as pa
import ray.data as rd
from arlas_proc_ray.cdc import CdcEngine, ChangelogConfig, changelog_dataset
from arlas_proc_ray.cdc.demux import demux_epoch
from arlas_proc_ray.cdc.tailer import SegmentTailer
from arlas_proc_ray.cdc.txn import TxnLog
from arlas_proc_ray.cdc.wire import encode_debezium
from arlas_proc_ray.model import DataModel

BASE = "/tmp/tail20m"
SEG, SPOOL, TXN = f"{BASE}/topic", f"{BASE}/spool", f"{BASE}/txn"
N = 10_000_000  # per table; 2 tables = 20M events total
CFGS = {
    "alpha": ChangelogConfig(num_events=N, num_keys=N // 20, num_repos=200,
                             seed=42, min_content=50, max_content=150),
    "beta": ChangelogConfig(num_events=N, num_keys=N // 20, num_repos=200,
                            seed=43, min_content=50, max_content=150),
}
DM = DataModel(num_partitions=64)
WAVES = 10  # segments land in 10 waves of 2M mux'd events

def engines():
    return {n: CdcEngine(f"{BASE}/snap_{n}", DM) for n in CFGS}

def mode_gen():
    shutil.rmtree(SEG, ignore_errors=True)
    os.makedirs(SEG, exist_ok=True)
    t0 = time.perf_counter()
    for w in range(WAVES):
        parts = []
        for name, cfg in CFGS.items():
            lo, hi = w * N // WAVES, (w + 1) * N // WAVES
            ds = changelog_dataset(cfg, lo=lo, hi=hi, override_num_blocks=16)
            parts.append(ds.map_batches(
                lambda t, nm=name: t.append_column(
                    "table", pa.array([nm] * t.num_rows, pa.string())
                ).replace_schema_metadata(None),
                batch_format="pyarrow", batch_size=None))
        enc = encode_debezium(parts[0].union(parts[1]), table_col="table")
        tmpd = f"{SEG}/.w{w}"
        def dump(batch, d=tmpd):
            os.makedirs(d, exist_ok=True)
            import uuid
            with open(os.path.join(d, f"{uuid.uuid4().hex}.part"), "w") as f:
                f.write("\n".join(batch.column("value").to_pylist()) + "\n")
            return pa.table({"n": pa.array([batch.num_rows], pa.int64())})
        enc.map_batches(dump, batch_format="pyarrow", batch_size=None).sum("n")
        # concat the parallel parts into one ordered segment file per wave
        with open(f"{SEG}/seg-{w:03d}.jsonl", "w") as out:
            for f in sorted(os.listdir(tmpd)):
                with open(os.path.join(tmpd, f)) as src:
                    out.write(src.read())
        shutil.rmtree(tmpd)
    size = sum(os.path.getsize(f"{SEG}/{f}") for f in os.listdir(SEG))
    print(f"GEN: {2*N} events, {len(os.listdir(SEG))} segments, "
          f"{size/1e9:.1f} GB in {time.perf_counter()-t0:.0f}s", flush=True)

def mode_tail():
    engs = engines()
    txn = TxnLog(TXN)
    def apply_demux(_e, ds, epoch):
        return demux_epoch(
            ds, engs, epoch, spool_dir=SPOOL, txn_log=txn,
            parallel_tables=False,
        )
    t = SegmentTailer(
        engs["alpha"], SEG, apply=apply_demux,
        decode_kwargs={"table_col": "table"},
        committed_fn=lambda: min(
            (e.store.latest_committed_epoch() or 0) for e in engs.values()
        ) or None,
    )
    t0 = time.perf_counter()
    applied = 0
    busy = 0.0  # wall time spent applying (excludes idle waits)
    events = 0
    while True:
        a0 = time.perf_counter()
        r = t.poll()
        if r["applied"]:
            busy += time.perf_counter() - a0
            applied += 1
            events += 2_000_000 * len(r["files"])  # 2M mux'd events/segment
            print(f"epoch {r['epoch']} files={len(r['files'])} "
                  f"resumed={r.get('resumed', False)} "
                  f"t={time.perf_counter()-t0:.1f}s", flush=True)
            continue
        if os.path.exists(f"{SEG}/_DONE"):
            break
        time.sleep(0.5)
    print(f"TAIL: {applied} epochs, {events} events, busy {busy:.1f}s, "
          f"sustained {events/max(busy,1e-9):.0f} ev/s (wall {time.perf_counter()-t0:.1f}s)",
          flush=True)

def mode_verify():
    import pandas as pd
    ok = True
    for name, cfg in CFGS.items():
        eng = CdcEngine(f"{BASE}/snap_{name}", DM)
        got = eng.final_state().to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        ref_dir = f"{BASE}/ref_{name}"
        shutil.rmtree(ref_dir, ignore_errors=True)
        ref = CdcEngine(ref_dir, DM)
        ref.apply_epoch_staged(changelog_dataset(cfg, override_num_blocks=64), epoch=1)
        exp = ref.final_state().to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        try:
            pd.testing.assert_frame_equal(got, exp)
            deep = eng.store.verify_deep(recompute_hashes=True)
            assert deep["ok"], deep["failed"]
            print(f"VERIFY {name}: OK ({len(got)} rows, sha256 deep-verify ok)", flush=True)
        except Exception as ex:
            ok = False
            print(f"VERIFY {name}: FAIL {ex}", flush=True)
    print("VERIFY:", "PASS" if ok else "FAIL", flush=True)

{"gen": mode_gen, "tail": mode_tail, "verify": mode_verify}[sys.argv[1]]()
ray.shutdown()
