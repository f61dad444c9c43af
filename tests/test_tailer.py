"""Segment-directory tailer (cdc/tailer.py): growing binlog dir → epochs."""

import json
import os

import pandas as pd
import pytest

from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import (
    ChangelogConfig,
    changelog_dataset,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.tailer import SegmentTailer
from arlas_proc_ray.cdc.wire import write_changelog_jsonl
from arlas_proc_ray.model import DataModel

CFG = ChangelogConfig(num_events=6000, seed=13)


def _write_segments(seg_dir, lo, hi, prefix):
    """Export [lo,hi) as jsonl files named with a sortable prefix."""
    tmp = seg_dir + ".stage"
    write_changelog_jsonl(changelog_dataset(CFG, lo=lo, hi=hi), tmp)
    os.makedirs(seg_dir, exist_ok=True)
    for i, f in enumerate(sorted(os.listdir(tmp))):
        os.replace(
            os.path.join(tmp, f), os.path.join(seg_dir, f"{prefix}-{i:04d}.jsonl")
        )
    os.rmdir(tmp)


def _state(eng):
    return (
        eng.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def _oracle():
    return (
        oracle_final_state(generate_changelog_tables(CFG))
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def test_three_polls_match_oracle(tmp_path):
    seg = str(tmp_path / "wal")
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=8))
    t = SegmentTailer(eng, seg)

    assert t.poll()["applied"] is False  # empty dir

    _write_segments(seg, 0, 2000, "seg-a")
    r1 = t.poll()
    assert r1["applied"] and r1["epoch"] == 1

    _write_segments(seg, 2000, 4000, "seg-b")
    _write_segments(seg, 4000, 6000, "seg-c")
    r2 = t.poll()
    assert r2["applied"] and r2["epoch"] == 2
    assert t.poll()["applied"] is False  # idle

    pd.testing.assert_frame_equal(_state(eng), _oracle(), check_dtype=False)
    # cursor knows every segment
    assert t.consumed() == set(os.listdir(seg))


def test_crash_mid_apply_resumes_same_epoch(tmp_path):
    seg = str(tmp_path / "wal")
    _write_segments(seg, 0, 3000, "seg-a")

    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=8))

    def hook(epoch, part):
        if part == 3:
            raise RuntimeError("crash")

    eng.fault_hook = hook
    t = SegmentTailer(eng, seg)
    with pytest.raises(Exception):
        t.poll()
    # intent survives the crash; epoch not committed
    assert os.path.exists(t._intent_path)
    assert eng.store.latest_committed_epoch() is None

    _write_segments(seg, 3000, 6000, "seg-b")  # new data arrives meanwhile
    eng.fault_hook = None
    r = t.poll()  # resumes the INTENT set first, same epoch
    assert r["applied"] and r.get("resumed") and r["epoch"] == 1
    assert set(r["files"]) == {f for f in os.listdir(seg) if f.startswith("seg-a")}
    r2 = t.poll()  # then the new segments as epoch 2
    assert r2["applied"] and r2["epoch"] == 2

    eng2 = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=8))
    pd.testing.assert_frame_equal(_state(eng2), _oracle(), check_dtype=False)


def test_crash_after_commit_fast_forwards_cursor(tmp_path):
    seg = str(tmp_path / "wal")
    _write_segments(seg, 0, 3000, "seg-a")
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=8))
    t = SegmentTailer(eng, seg)
    t.poll()
    # simulate: commit happened but cursor write was lost; intent restored
    with open(t._intent_path, "w") as f:
        json.dump({"epoch": 1, "files": sorted(t.consumed())}, f)
    os.unlink(t._cursor_path)
    r = t.poll()
    assert r["applied"] and r.get("resumed") and r["epoch"] == 1
    assert t.consumed() == set(os.listdir(seg))
    assert t.poll()["applied"] is False


def test_intent_and_cursor_are_fsynced_before_they_are_visible(
    tmp_path, monkeypatch
):
    """A power loss cannot leave an empty intent or cursor for the next
    poll to choke on: each file's bytes are synced before the rename
    that makes it visible."""
    seg = str(tmp_path / "wal")
    _write_segments(seg, 0, 500, "seg-a")
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=2))
    intent_size = []

    def apply(engine, ds, epoch):
        intent_size.append(os.path.getsize(t._intent_path))
        return engine.apply_epoch(ds, epoch)

    t = SegmentTailer(eng, seg, apply=apply)
    synced = []
    fsync = os.fsync

    def recording(fd):
        synced.append((os.fstat(fd).st_size, os.path.exists(t._intent_path),
                       os.path.exists(t._cursor_path)))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    assert t.poll()["applied"]
    # the intent first, before any partition is written; the cursor
    # last, while the intent still stands
    assert synced[0] == (intent_size[0], False, False)
    assert synced[-1] == (os.path.getsize(t._cursor_path), True, False)


def test_run_until_idle(tmp_path):
    seg = str(tmp_path / "wal")
    _write_segments(seg, 0, 2000, "a")
    _write_segments(seg, 2000, 4000, "b")
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=8))
    t = SegmentTailer(eng, seg)
    results = t.run_until_idle()
    # one poll consumed everything (both prefixes were already present)
    assert [r["applied"] for r in results] == [True, False]


def test_parquet_segments(tmp_path):
    import pyarrow.parquet as pq

    seg = str(tmp_path / "wal")
    os.makedirs(seg)
    for i, tbl in enumerate(generate_changelog_tables(CFG)):
        pq.write_table(tbl, os.path.join(seg, f"seg-{i}.parquet"))
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=8))
    t = SegmentTailer(eng, seg, fmt="parquet")
    r = t.poll()
    assert r["applied"] and r["epoch"] == 1
    pd.testing.assert_frame_equal(_state(eng), _oracle(), check_dtype=False)


def test_jobs_cli_tail_dir(tmp_path, capsys):
    from arlas_proc_ray.jobs import main

    seg = str(tmp_path / "wal")
    _write_segments(seg, 0, 3000, "a")
    snap = str(tmp_path / "snap")
    assert main([
        "tail-dir", "--segments", seg, "--snapshot", snap,
        "--partitions", "8",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["epochs_applied"] == [1] and out[-1]["files"] > 0
    # second run: nothing new
    assert main([
        "tail-dir", "--segments", seg, "--snapshot", snap,
        "--partitions", "8",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["epochs_applied"] == []


def test_multiplexed_tailer_demux(tmp_path):
    """One segment directory carrying a MULTIPLEXED Debezium topic,
    consumed by the tailer into per-table stores via a demux apply
    override — two polls, each an exactly-once multi-table epoch."""
    import pyarrow as pa

    from arlas_proc_ray.cdc.demux import demux_epoch

    cfg_a = ChangelogConfig(num_events=1600, num_keys=150, seed=81)
    cfg_b = ChangelogConfig(num_events=1200, num_keys=120, seed=82)

    def tagged(cfg, name, lo=0, hi=None):
        import ray.data as rd

        tabs = [
            t.append_column("table", pa.array([name] * t.num_rows, pa.string()))
            for t in generate_changelog_tables(cfg, lo, hi or cfg.num_events)
        ]
        return rd.from_arrow(tabs)

    from arlas_proc_ray.cdc.wire import encode_debezium

    def write_mux(seg, lo_frac, hi_frac, prefix):
        import ray.data as rd

        parts = []
        for cfg, name in [(cfg_a, "alpha"), (cfg_b, "beta")]:
            lo = int(cfg.num_events * lo_frac)
            hi = int(cfg.num_events * hi_frac)
            parts.append(tagged(cfg, name, lo, hi))
        ds = parts[0].union(parts[1])
        enc = encode_debezium(ds, table_col="table")
        tmp = seg + ".stage"
        os.makedirs(tmp, exist_ok=True)
        rows = enc.to_pandas()["value"]
        os.makedirs(seg, exist_ok=True)
        with open(os.path.join(seg, f"{prefix}.jsonl"), "w") as f:
            f.write("\n".join(rows) + "\n")
        os.rmdir(tmp)

    seg = str(tmp_path / "topic")
    engines = {
        "alpha": CdcEngine(str(tmp_path / "a"), DataModel(num_partitions=4)),
        "beta": CdcEngine(str(tmp_path / "b"), DataModel(num_partitions=4)),
    }
    spool = str(tmp_path / "spool")

    def apply_demux(_eng, ds, epoch):
        return demux_epoch(ds, engines, epoch, spool_dir=spool)

    t = SegmentTailer(
        engines["alpha"], seg,
        apply=apply_demux, decode_kwargs={"table_col": "table"},
    )
    write_mux(seg, 0.0, 0.5, "seg-a")
    assert t.poll()["applied"]
    write_mux(seg, 0.5, 1.0, "seg-b")
    assert t.poll()["applied"]
    assert t.poll()["applied"] is False

    for name, cfg in [("alpha", cfg_a), ("beta", cfg_b)]:
        got = (
            engines[name].final_state().to_pandas()
            .sort_values(["repo", "path"]).reset_index(drop=True)
        )
        exp = (
            oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
            .sort_values(["repo", "path"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_tailer_chaos_random_crash_points(tmp_path):
    """Randomized crash injection across the tailer's two-phase protocol:
    for each seed, segments arrive over several polls while crashes hit
    (a) mid-apply via the engine fault hook, (b) between epoch commit
    and cursor advance (intent left behind), (c) between cursor advance
    and intent unlink. However interleaved, re-polling until idle always
    converges to the replay oracle and never double-applies."""
    import random

    want = _oracle()  # module CFG: 6000 events

    for seed in range(4):
        rng = random.Random(seed)
        base = tmp_path / f"s{seed}"
        seg = str(base / "wal")
        # three waves of segments (module CFG = 6000 events)
        waves = [(0, 2000, "a"), (2000, 4000, "b"), (4000, 6000, "c")]
        wave_i = 0

        eng = CdcEngine(str(base / "snap"), DataModel(num_partitions=8))
        t = SegmentTailer(eng, seg)

        def crashy_poll():
            """One poll with a randomly injected crash; returns True if
            the poll completed without injection."""
            mode = rng.choice(["none", "mid_apply", "pre_cursor", "pre_unlink"])
            if mode == "mid_apply":
                part = rng.randrange(8)

                def hook(epoch, p, _part=part):
                    if p == _part:
                        raise RuntimeError("chaos")

                eng.fault_hook = hook
                try:
                    t.poll()
                except Exception:
                    pass
                eng.fault_hook = None
                return False
            r = t.poll()
            if not r["applied"]:
                return True
            if mode == "pre_cursor":
                # simulate: crash happened after commit, before cursor —
                # restore the intent and roll the cursor back
                with open(t._intent_path, "w") as f:
                    json.dump({"epoch": r["epoch"], "files": r["files"]}, f)
                if os.path.exists(t._cursor_path):
                    consumed = t.consumed() - set(r["files"])
                    with open(t._cursor_path, "w") as f:
                        json.dump({"files": sorted(consumed)}, f)
            elif mode == "pre_unlink":
                # crash after cursor advance, before intent unlink
                with open(t._intent_path, "w") as f:
                    json.dump({"epoch": r["epoch"], "files": r["files"]}, f)
            return True

        while wave_i < len(waves) or True:
            if wave_i < len(waves):
                lo, hi, p = waves[wave_i]
                _write_segments(seg, lo, hi, p)
                wave_i += 1
            crashy_poll()
            if wave_i >= len(waves):
                break
        # drain to idle with no further injection
        for _ in range(10):
            if not t.poll()["applied"]:
                break

        eng2 = CdcEngine(str(base / "snap"), DataModel(num_partitions=8))
        got = (
            eng2.final_state().to_pandas()
            .sort_values(["repo", "path"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert t.consumed() == set(os.listdir(seg))


def test_composed_stream_chaos_kill_resume(tmp_path):
    """The FULL streaming story end-to-end with a mid-epoch kill: binlog
    dir tailer → Debezium wire decode → multi-table demux → per-table
    fenced epochs → cross-table txn cut. A crash lands between the two
    tables' commits; resume happens with FRESH objects (as a restarted
    process would), while more segments keep arriving. Regression pins
    the tailer's multi-engine committed probe: with the single-engine
    default the crashed epoch would fast-forward and silently drop the
    lagging table's events.
    """
    import pyarrow as pa
    import ray.data as rd

    from arlas_proc_ray.cdc.demux import demux_epoch
    from arlas_proc_ray.cdc.txn import TxnLog
    from arlas_proc_ray.cdc.wire import encode_debezium

    cfg_a = ChangelogConfig(num_events=4000, num_keys=300, seed=71)
    cfg_b = ChangelogConfig(num_events=3000, num_keys=200, seed=72)
    seg = str(tmp_path / "topic")
    spool = str(tmp_path / "spool")
    txn_dir = str(tmp_path / "txn")

    def tagged(cfg, name, lo, hi):
        tabs = [
            t.append_column(
                "table", pa.array([name] * t.num_rows, pa.string())
            )
            for t in generate_changelog_tables(cfg, lo, hi)
        ]
        return rd.from_arrow(tabs)

    def write_mux(lo_frac, hi_frac, prefix):
        parts = []
        for cfg, name in [(cfg_a, "alpha"), (cfg_b, "beta")]:
            lo = int(cfg.num_events * lo_frac)
            hi = int(cfg.num_events * hi_frac)
            parts.append(tagged(cfg, name, lo, hi))
        enc = encode_debezium(parts[0].union(parts[1]), table_col="table")
        os.makedirs(seg, exist_ok=True)
        rows = enc.to_pandas()["value"]
        with open(os.path.join(seg, f"{prefix}.jsonl"), "w") as f:
            f.write("\n".join(rows) + "\n")

    crash = {"armed": False}

    def beta_fault(epoch, part):
        if crash["armed"]:
            raise RuntimeError("injected kill")

    def build(fresh_fault):
        """Fresh engines + tailer — what a restarted process sees."""
        engines = {
            "alpha": CdcEngine(str(tmp_path / "a"), DataModel(num_partitions=4)),
            "beta": CdcEngine(
                str(tmp_path / "b"), DataModel(num_partitions=4),
                fault_hook=beta_fault if fresh_fault else None,
            ),
        }
        txn = TxnLog(txn_dir)

        def apply_demux(_eng, ds, epoch):
            return demux_epoch(
                ds, engines, epoch, spool_dir=spool, txn_log=txn
            )

        tailer = SegmentTailer(
            engines["alpha"], seg,
            apply=apply_demux, decode_kwargs={"table_col": "table"},
            committed_fn=lambda: min(
                (e.store.latest_committed_epoch() or 0)
                for e in engines.values()
            ) or None,
        )
        return engines, tailer, txn

    engines, tailer, txn = build(fresh_fault=True)
    write_mux(0.0, 0.4, "seg-a")
    assert tailer.poll()["applied"]

    # wave 2 lands; the kill hits beta mid-apply AFTER alpha committed
    write_mux(0.4, 0.7, "seg-b")
    crash["armed"] = True
    with pytest.raises(Exception):
        tailer.poll()
    assert engines["alpha"].store.latest_committed_epoch() == 2
    assert engines["beta"].store.latest_committed_epoch() == 1
    assert txn.read(2) is None  # no torn cross-table cut published
    crash["armed"] = False

    # "process restart": all fresh objects; wave 3 arrives before resume
    engines, tailer, txn = build(fresh_fault=False)
    write_mux(0.7, 1.0, "seg-c")
    r = tailer.poll()
    assert r.get("resumed") is True and r["epoch"] == 2
    assert engines["beta"].store.latest_committed_epoch() == 2
    assert txn.read(2) == {"txn": 2, "tables": {"alpha": 2, "beta": 2}}
    assert tailer.poll()["applied"]  # wave 3 as epoch 3
    assert tailer.poll()["applied"] is False

    for name, cfg in [("alpha", cfg_a), ("beta", cfg_b)]:
        got = (
            engines[name].final_state().to_pandas()
            .sort_values(["repo", "path"]).reset_index(drop=True)
        )
        exp = (
            oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
            .sort_values(["repo", "path"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert txn.read(3) == {"txn": 3, "tables": {"alpha": 3, "beta": 3}}
