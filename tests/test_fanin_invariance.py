"""Multi-source fan-in over the CDC engine: the watermark-cut contract.

A sharded upstream delivers one logical change log as K individually
ordered but mutually skewed source feeds. Two pins:

1. NAIVE fan-in violates the exactly-once fence: the engine drops any
   event at or below a partition's applied last_lsn (that is what makes
   epoch re-application idempotent), so a lagging shard's genuinely-new
   low-LSN events are silently treated as replay duplicates and the
   final state diverges from the oracle.
2. cdc/fanin.py:fanin_cut restores invariance: cutting every epoch at
   W = min over sources of delivered high-water keeps the applied
   watermark globally monotone, and ANY skew schedule converges
   byte-exactly to the single-feed oracle state.
"""

import random

import pandas as pd
import pyarrow as pa
import pytest

from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import (
    ChangelogConfig,
    changelog_dataset,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.fanin import fanin_cut
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.model import DataModel


def _source_ds(cfg, *, hi, source, k):
    """Source `source`'s shard (lsn % k == source) of the log prefix
    [0, hi) — what that shard's spool has durably delivered so far."""
    ds = changelog_dataset(cfg, lo=0, hi=hi)

    def pick(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.equal(
            pc.subtract(
                t.column("lsn"),
                pc.multiply(pc.divide(t.column("lsn"), k), k),
            ),
            source,
        )
        return t.filter(m)

    return ds.map_batches(pick, batch_format="pyarrow", batch_size=None)


def _shard_highwater(cfg, *, hi, source, k):
    """Highest lsn ≤ hi-1 belonging to this shard (its spool cursor).
    A DRAINED shard (hi == num_events) reports end-of-stream: no future
    event from it will carry any lsn, so its gate lifts to the global
    max — the closed-source convention real fan-in consumers use."""
    if hi >= cfg.num_events:
        return cfg.num_events - 1
    top = hi - 1
    return top - ((top - source) % k)


def test_uncut_fanin_drops_lagging_shard_data(tmp_path, ray_session):
    """The documented failure mode: shard 1 lags a whole epoch; its
    low-LSN events land below the partition watermarks shard 0 already
    advanced and are fenced off as duplicates — final state diverges
    from the oracle (stale keys where shard 1 held the last write)."""
    cfg = ChangelogConfig(num_events=4000, num_keys=200, seed=99)
    N = cfg.num_events

    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=4))
    eng.apply_epoch(_source_ds(cfg, hi=N, source=0, k=2), 1)
    # shard 1 drains late, in two epochs, all below the watermark
    full1 = _source_ds(cfg, hi=N, source=1, k=2)
    eng.apply_epoch(
        full1.map_batches(
            lambda t: t.filter(pa.compute.less(t.column("lsn"), N // 2)),
            batch_format="pyarrow", batch_size=None,
        ),
        2,
    )
    eng.apply_epoch(
        full1.map_batches(
            lambda t: t.filter(
                pa.compute.greater_equal(t.column("lsn"), N // 2)
            ),
            batch_format="pyarrow", batch_size=None,
        ),
        3,
    )

    got = eng.final_state().to_pandas()
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
    m = got.merge(
        exp, on=["repo", "path"], how="outer", suffixes=("_g", "_o"),
        indicator=True,
    )
    stale = m[
        (m["_merge"] != "both")
        | (m["last_lsn_g"] != m["last_lsn_o"])
    ]
    assert len(stale) > 0  # the fence really does drop shard-1 data


@pytest.mark.parametrize("seed", [0, 1])
def test_fanin_cut_skewed_sources_converge(tmp_path, ray_session, seed):
    """Watermark-cut fan-in: sources advance by random skewed strides;
    every epoch is cut at min-over-sources high-water. Converges
    byte-exactly to the single-feed oracle for any schedule."""
    rng = random.Random(seed)
    K = 3
    cfg = ChangelogConfig(num_events=5000, num_keys=350, seed=50 + seed)
    N = cfg.num_events

    # per-source delivered-prefix schedule over 4 rounds; everyone
    # drains by the last round, the laggard (source 2) trails hard
    strides = []
    pos = [0, 0, 0]
    for r in range(4):
        for s in range(K):
            if r == 3:
                pos[s] = N
            else:
                pos[s] = min(N, pos[s] + rng.randint(0, N // 2))
        strides.append(list(pos))

    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=4))
    cut = -1
    epoch = 0
    for pos in strides:
        sources = {
            f"s{s}": _source_ds(cfg, hi=pos[s], source=s, k=K)
            for s in range(K)
            if pos[s] > 0
        }
        if len(sources) < K:
            # a shard with nothing delivered gates the watermark at -1
            hw = {name: -1 for name in sources}
            ds, new_cut = fanin_cut(
                {**sources}, {**hw}, prev_cut=cut
            ) if sources else (None, cut)
            assert ds is None and new_cut == cut
            continue
        hw = {
            f"s{s}": _shard_highwater(cfg, hi=pos[s], source=s, k=K)
            for s in range(K)
        }
        ds, new_cut = fanin_cut(sources, hw, prev_cut=cut)
        if ds is None:
            assert new_cut == cut
            continue
        epoch += 1
        if rng.random() < 0.5:
            eng.apply_epoch_staged(ds, epoch)
        else:
            eng.apply_epoch(ds, epoch)
        cut = new_cut

    assert cut == N - 1  # fully drained
    got = eng.final_state().to_pandas()
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
    pd.testing.assert_frame_equal(got, exp)


def test_fanin_cut_metadata_semantics(ray_session):
    """Cut math: laggard gates W; no progress -> (None, prev); key
    mismatch raises; empty sources -> (None, prev)."""
    import ray.data as rd

    cfg = ChangelogConfig(num_events=300, num_keys=30, seed=7)
    a = _source_ds(cfg, hi=300, source=0, k=2)
    b = _source_ds(cfg, hi=100, source=1, k=2)

    ds, w = fanin_cut(
        {"a": a, "b": b}, {"a": 298, "b": 99}, prev_cut=-1
    )
    assert w == 99
    lsns = ds.to_pandas()["lsn"]
    assert lsns.min() >= 0 and lsns.max() == 99 and len(lsns) == 100

    ds2, w2 = fanin_cut({"a": a, "b": b}, {"a": 298, "b": 99}, prev_cut=99)
    assert ds2 is None and w2 == 99

    with pytest.raises(ValueError, match="same keys"):
        fanin_cut({"a": a}, {"b": 1})
    ds3, w3 = fanin_cut({}, {}, prev_cut=5)
    assert ds3 is None and w3 == 5
    assert isinstance(a, rd.Dataset)


def test_fanin_cut_is_never_the_closed_sentinel(ray_session):
    """Closed sources may report +inf as their high-water; the cut a
    caller persists is still the highest real lsn, so a source that
    joins later with real high-waters cuts again."""
    cfg = ChangelogConfig(num_events=400, num_keys=30, seed=9)
    inf = 1 << 62
    a = _source_ds(cfg, hi=300, source=0, k=2)
    b = _source_ds(cfg, hi=300, source=1, k=2)
    ds, cut = fanin_cut({"a": a, "b": b}, {"a": inf, "b": inf})
    assert cut == 299 == ds.max("lsn")

    # nothing new behind the closed gates: no epoch, the cut stays put
    assert fanin_cut({"a": a, "b": b}, {"a": inf, "b": inf},
                     prev_cut=cut) == (None, cut)

    late = changelog_dataset(cfg, lo=300, hi=400)
    ds2, cut2 = fanin_cut(
        {"a": a, "b": b, "c": late}, {"a": inf, "b": inf, "c": 399},
        prev_cut=cut,
    )
    lsns = ds2.to_pandas()["lsn"]
    assert cut2 == 399 and lsns.min() == 300 and len(lsns) == 100


# ---------------------------------------------------------------------------
# FaninTailer: shard DIRECTORIES through watermark cuts
# ---------------------------------------------------------------------------

CFG = ChangelogConfig(num_events=4500, num_keys=300, seed=21)
K = 3


def _write_shard_segment(shard_dir, *, lo, hi, source, name):
    """Land shard `source`'s slice of [lo, hi) as one parquet segment."""
    import os

    import pyarrow.parquet as pq

    pdf = changelog_dataset(CFG, lo=lo, hi=hi).to_pandas()
    pdf = pdf[pdf["lsn"] % K == source]
    os.makedirs(shard_dir, exist_ok=True)
    tmp = os.path.join(shard_dir, name + ".tmp")
    pq.write_table(
        pa.Table.from_pandas(pdf, preserve_index=False), tmp
    )
    import os as _os

    _os.replace(tmp, _os.path.join(shard_dir, name))


def _close_shard(shard_dir):
    import os

    open(os.path.join(shard_dir, "_CLOSED"), "w").close()


def test_fanin_tailer_skewed_arrivals_match_oracle(tmp_path, ray_session):
    from arlas_proc_ray.cdc.fanin import FaninTailer

    N = CFG.num_events
    dirs = {f"s{s}": str(tmp_path / f"wal{s}") for s in range(K)}
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=4))
    t = FaninTailer(eng, dirs)

    # round 1: shards 0/1 land big prefixes, laggard shard 2 lands none —
    # nothing cuttable (its gate holds W at -1)
    _write_shard_segment(dirs["s0"], lo=0, hi=3000, source=0, name="a.parquet")
    _write_shard_segment(dirs["s1"], lo=0, hi=2000, source=1, name="a.parquet")
    r = t.poll()
    assert not r["applied"]

    # round 2: the laggard lands a small prefix -> W = its high-water
    _write_shard_segment(dirs["s2"], lo=0, hi=800, source=2, name="a.parquet")
    r = t.poll()
    assert r["applied"] and r["hi"] < 800

    # round 3: everyone drains and closes; straddlers re-read, no dupes
    _write_shard_segment(dirs["s0"], lo=3000, hi=N, source=0, name="b.parquet")
    _write_shard_segment(dirs["s1"], lo=2000, hi=N, source=1, name="b.parquet")
    _write_shard_segment(dirs["s2"], lo=800, hi=N, source=2, name="b.parquet")
    for d in dirs.values():
        _close_shard(d)
    out = t.run_until_idle()
    assert out[-1]["applied"] is False

    got = eng.final_state().to_pandas().sort_values(
        ["repo", "path"]).reset_index(drop=True)
    exp = oracle_final_state(generate_changelog_tables(CFG)).to_pandas(
    ).sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)

    # fully-consumed segments never re-read: every file is in the cursor
    cur = t._cursor()
    for s, d in dirs.items():
        assert set(cur["consumed"][s]) == {
            f for f in __import__("os").listdir(d) if f.endswith(".parquet")
        }


def test_fanin_tailer_crash_mid_apply_resumes_same_cut(tmp_path, ray_session):
    from arlas_proc_ray.cdc.fanin import FaninTailer

    N = CFG.num_events
    dirs = {f"s{s}": str(tmp_path / f"wal{s}") for s in range(K)}
    for s in range(K):
        _write_shard_segment(
            dirs[f"s{s}"], lo=0, hi=N // 2, source=s, name="a.parquet"
        )

    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=4))
    t = FaninTailer(eng, dirs)

    calls = {"n": 0}

    def hook(part):
        calls["n"] += 1
        if part >= 2:
            raise RuntimeError("chaos")

    eng.fault_hook = hook
    with pytest.raises(Exception):
        t.poll()
    import os

    assert os.path.exists(t._intent_path)  # intent survives the crash

    # fresh process: clean engine + tailer over the same state resumes
    eng2 = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=4))
    t2 = FaninTailer(eng2, dirs)
    r = t2.poll()
    assert r["applied"] and r.get("resumed")
    assert not os.path.exists(t2._intent_path)

    # drain the rest
    for s in range(K):
        _write_shard_segment(
            dirs[f"s{s}"], lo=N // 2, hi=N, source=s, name="b.parquet"
        )
        _close_shard(dirs[f"s{s}"])
    t2.run_until_idle()

    got = eng2.final_state().to_pandas().sort_values(
        ["repo", "path"]).reset_index(drop=True)
    exp = oracle_final_state(generate_changelog_tables(CFG)).to_pandas(
    ).sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_jobs_cli_tail_fanin(tmp_path, ray_session, capsys):
    import json

    from arlas_proc_ray.jobs import main

    N = CFG.num_events
    dirs = {}
    for s in range(K):
        d = str(tmp_path / f"wal{s}")
        _write_shard_segment(d, lo=0, hi=N, source=s, name="a.parquet")
        _close_shard(d)
        dirs[f"s{s}"] = d
    snap = str(tmp_path / "snap")
    argv = ["tail-fanin", "--snapshot", snap, "--partitions", "4"]
    for name, d in dirs.items():
        argv += ["--shard", f"{name}={d}"]
    assert main(argv) == 0
    out = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert out[-1]["epochs_applied"] == [1]
    assert out[-1]["cut"] == N - 1

    got = (
        CdcEngine(snap, DataModel(num_partitions=4))
        .final_state().to_pandas()
        .sort_values(["repo", "path"]).reset_index(drop=True)
    )
    exp = oracle_final_state(generate_changelog_tables(CFG)).to_pandas(
    ).sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
