"""A CDC epoch's work runs once per exchange group: the group pass
(``staged._segments`` → ``cdc_segments`` → ``write_delta_group`` for delta
segments, ``write_partition`` for bases) against the per-partition steps
it replaced (``segment_reference``), and the store handle's cache of each
partition's live key columns."""

import dataclasses
import json
import os
import random
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from arlas_proc_ray.cdc import sizing, staged
from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import CANONICAL_EVENT_SCHEMA
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.snapshot import _FOOTER_KEY, _SEGMENTS_KEY, SnapshotStore
from arlas_proc_ray.functions.hashing import partition_ids
from arlas_proc_ray.model import DataModel
from segment_reference import reference_apply_group

KEYS = ["repo", "path"]


def _ev(lsn, op, repo, path, content=None):
    content = None if op == "DELETE" else (content or f"{repo}/{path}@{lsn}")
    return {"lsn": lsn, "op": op, "repo": repo, "path": path,
            "commit": f"c{lsn}", "language": "py", "content": content,
            "content_size": None if content is None else len(content),
            "schema_version": 2, "delivery_index": lsn}


def _table(rows) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=CANONICAL_EVENT_SCHEMA)


# keys with NUL bytes inside their values among plain ones
KEY_SET = ([(f"r{i % 7}", f"f{i}.py") for i in range(90)]
           + [(f"r{i}\x00", f"nul\x00{i}") for i in range(6)])


class Stream:
    """Seeded change events with rising LSNs over ``KEY_SET``."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.lsn = 0
        self.history: list = []

    def next(self, op, key) -> dict:
        self.lsn += 1
        row = _ev(self.lsn, op, *key)
        self.history.append(row)
        return row

    def base(self) -> list:
        return [_table([self.next("INSERT", k) for k in KEY_SET])]

    def epoch(self, n: int, blocks: int = 2, keys=KEY_SET) -> list:
        """n events on ``keys`` in ``blocks`` blocks: a key may have
        events in each."""
        rows = [self.next(self.rng.choice(["UPDATE"] * 4 + ["DELETE", "INSERT"]),
                          self.rng.choice(keys)) for _ in range(n)]
        return [_table(rows[b::blocks]) for b in range(blocks)]


def _keys_of(part: int, P: int) -> list:
    """The keys of ``KEY_SET`` that route to partition ``part``."""
    pids = partition_ids(_table([_ev(0, "INSERT", *k) for k in KEY_SET]), KEYS, P)
    return [k for k, p in zip(KEY_SET, pids) if p == part]


def _one_group(num_partitions):
    return staged.group_plan(num_partitions, 1)


def _apply(eng, blocks, epoch, monkeypatch, *, reference=False, **kw):
    """One epoch through the in-process exchange, by the group pass or,
    with ``reference``, by the per-partition step."""
    with monkeypatch.context() as m:
        m.setattr(staged, "session_groups", _one_group)
        if reference:
            m.setattr(staged, "_apply_group", reference_apply_group)
        return eng.apply_epoch(rd.from_arrow(blocks), epoch, **kw)


def _untimed(m: dict) -> dict:
    return {**m, "metrics": {**m["metrics"], "apply_s": None},
            "chain": [dataclasses.asdict(s) for s in m["chain"]]}


def _epoch_written(snap: str, epoch: int) -> dict:
    """What the epoch wrote as a fresh handle reads it: its index rows
    (``apply_s`` aside), each group file's rows, row groups and footer
    entries, and each base file's rows, row groups and footer (``apply_s``
    aside in both)."""
    store = SnapshotStore(snap)
    out = {"index": [_untimed(vars(m)) for m in store.epoch_index(epoch)]}
    d = store.epoch_dir(epoch)
    for name in sorted(n for n in os.listdir(d)
                       if n.startswith(("delta-", "part-"))):
        f = pq.ParquetFile(os.path.join(d, name))
        if name.startswith("delta-"):
            footer = json.loads(f.metadata.metadata[_SEGMENTS_KEY])
            for e in footer["segments"]:
                e["metrics"]["apply_s"] = None
        else:
            footer = json.loads(f.metadata.metadata[_FOOTER_KEY])
            footer["metrics"]["apply_s"] = None
        out[name] = (f.read().replace_schema_metadata(None),
                     [f.metadata.row_group(i).num_rows
                      for i in range(f.metadata.num_row_groups)], footer)
    return out


def _pair(tmp_path, P, name):
    dm = DataModel(num_partitions=P)
    return (CdcEngine(str(tmp_path / f"{name}-group"), dm),
            CdcEngine(str(tmp_path / f"{name}-ref"), dm))


def _apply_both(pair, blocks, epoch, monkeypatch, **kw) -> dict:
    """Apply one epoch to both stores; assert they wrote the same."""
    group, ref = pair
    _apply(group, blocks, epoch, monkeypatch, **kw)
    _apply(ref, blocks, epoch, monkeypatch, reference=True, **kw)
    got = _epoch_written(group.store.root, epoch)
    want = _epoch_written(ref.store.root, epoch)
    assert got.keys() == want.keys(), epoch
    for k in want:
        if k == "index":
            assert got[k] == want[k], epoch
        else:
            assert got[k][0].equals(want[k][0]), (epoch, k)
            assert got[k][1:] == want[k][1:], (epoch, k)
    return got


@pytest.mark.parametrize("P", [1, 4, 64])
def test_group_pass_matches_per_partition_reference(tmp_path, ray_session,
                                                    monkeypatch, P):
    """Chains of 0 to ``FOLD_SEGMENTS`` - 1 segments, then a fold: the
    group pass writes the group file rows, footers and index rows the
    per-partition step writes. Every epoch comes in two blocks, so a key
    can have an event in each and LWW runs over the group."""
    monkeypatch.setattr(sizing, "FOLD_ROWS_RATIO", 1e9)  # fold by count only
    stream = Stream(P)
    pair = _pair(tmp_path, P, "chains")
    _apply_both(pair, stream.base(), 1, monkeypatch)
    lengths = set()
    for e in range(2, sizing.FOLD_SEGMENTS + 3):
        got = _apply_both(pair, stream.epoch(160), e, monkeypatch)
        lengths |= {len(m["chain"]) for m in got["index"]}
    assert set(range(1, sizing.FOLD_SEGMENTS + 1)) <= lengths | {0}
    assert 0 in lengths  # the fold
    exp = oracle_final_state([_table(stream.history)])
    for eng in pair:
        assert eng.final_state().equals(exp)
        assert eng.store.verify_deep(recompute_hashes=True)["ok"]


def test_delete_holding_top_lsn_fences_the_partition(tmp_path, ray_session,
                                                     monkeypatch):
    """A DELETE holding its partition's top LSN still advances the
    watermark, so a redelivered older update cannot resurrect the key."""
    stream = Stream(5)
    pair = _pair(tmp_path, 4, "delete")
    _apply_both(pair, stream.base(), 1, monkeypatch)
    key = KEY_SET[3]
    upd = stream.next("UPDATE", key)
    rows = stream.epoch(40, blocks=1)[0].to_pylist() + [upd]
    rows.append(stream.next("DELETE", key))  # the epoch's top LSN
    got = _apply_both(pair, [_table(rows)], 2, monkeypatch)
    part = int(partition_ids(_table([upd]), KEYS, 4)[0])
    assert got["index"][part]["last_lsn"] == stream.lsn
    # the update again, below the fence: dropped
    _apply_both(pair, [_table([upd])], 3, monkeypatch)
    for eng in pair:
        state = eng.final_state().to_pylist()
        assert (key[0], key[1]) not in {(r["repo"], r["path"]) for r in state}


@pytest.mark.parametrize("delta", [True, False])
def test_partly_and_fully_fenced_partitions_of_one_group(tmp_path, ray_session,
                                                         monkeypatch, delta):
    """Redelivered events in one group: a partition partly fenced writes
    the survivors as its segment, one fully fenced is referenced with
    ``delta`` and carried forward as a base without."""
    stream = Stream(9)
    P = 4
    pair = _pair(tmp_path, P, "fenced")
    _apply_both(pair, stream.base(), 1, monkeypatch, delta=delta)
    old = _table(stream.epoch(60, blocks=1)[0].to_pylist())
    _apply_both(pair, [old], 2, monkeypatch, delta=delta)
    pids = partition_ids(old, KEYS, P)
    full, partly = 0, 1
    fresh = [stream.next("UPDATE", k) for k in KEY_SET
             if int(partition_ids(_table([_ev(0, "UPDATE", *k)]), KEYS, P)[0])
             != full][:20]
    redelivered = old.filter(pa.array(pids <= partly)).to_pylist()
    got = _apply_both(pair, [_table(redelivered), _table(fresh)], 3,
                      monkeypatch, delta=delta)
    idx = got["index"]
    if delta:  # the row of epoch 2, referenced
        assert idx[full]["chain"][-1]["epoch"] == 2
    else:
        assert idx[full]["epoch"] == 3 and not idx[full]["chain"]
        m = idx[full]["metrics"]
        assert m["events_in"] == m["fence_dropped"] > 0
    m = idx[partly]["metrics"]
    assert 0 < m["fence_dropped"] < m["events_in"]
    assert idx[partly]["chain"][-1]["epoch"] == 3


def test_patch_in_a_group_falls_back_per_partition(tmp_path, ray_session,
                                                  monkeypatch):
    """A partition whose events hold a PATCH is folded into a base by
    ``apply_partition``; the group's other partitions still write
    segments, as the per-partition step did."""
    stream = Stream(13)
    P = 4
    pair = _pair(tmp_path, P, "patch")
    _apply_both(pair, stream.base(), 1, monkeypatch)
    rows = stream.epoch(50, blocks=1)[0].to_pylist()
    key = KEY_SET[10]
    patch = stream.next("UPDATE", key)
    patch.update(op="PATCH", commit=None, language=None, content="patched",
                 content_size=7)
    got = _apply_both(pair, [_table(rows + [patch])], 2, monkeypatch)
    part = int(partition_ids(_table([patch]), KEYS, P)[0])
    assert got["index"][part]["epoch"] == 2 and not got["index"][part]["chain"]
    assert any(m["chain"] for m in got["index"])
    for eng in pair:
        state = {(r["repo"], r["path"]): r for r in eng.final_state().to_pylist()}
        assert state[key]["content"] == "patched"


def test_null_op_in_a_first_epoch_is_dropped_as_finalize_drops_it(
        tmp_path, ray_session, monkeypatch):
    """A first epoch read without a dead-letter dir, one event of which
    has a null ``op``, and which DELETEs other keys: the group pass drops
    the DELETEs and the null-op row from the new bases, as finalize's
    ``op != 'DELETE'`` filter does, so no deleted key comes back."""
    stream = Stream(11)
    rows = stream.base()[0].to_pylist()
    gone = set(KEY_SET[:12])
    rows += [stream.next("DELETE", k) for k in KEY_SET[:12]]
    odd = stream.next("UPDATE", KEY_SET[20])
    odd["op"] = None
    rows.append(odd)
    pair = _pair(tmp_path, 4, "null-op")
    _apply_both(pair, [_table(rows)], 1, monkeypatch)
    for eng in pair:
        state = {(r["repo"], r["path"]) for r in eng.final_state().to_pylist()}
        assert not state & gone and KEY_SET[20] not in state
        assert len(state) == len(KEY_SET) - len(gone) - 1


@pytest.mark.parametrize("budget", [1, 6000])
def test_folds_in_prior_byte_batches_match_the_reference(tmp_path, ray_session,
                                                          monkeypatch, budget):
    """Every base ages out under ``delta_max_age`` and folds in one
    epoch, touched or not. The group pass overlays and writes them in
    batches of ``sizing.BASE_BATCH_BYTES`` of prior rows (one fold per
    batch at one byte, a few at 6000) and writes the bases the
    per-partition step writes."""
    monkeypatch.setattr(sizing, "BASE_BATCH_BYTES", budget)
    overlays: list = []
    overlay = staged._group_overlay

    def spy(pieces, tags, key_cols, num_parts):
        overlays.append(num_parts)
        return overlay(pieces, tags, key_cols, num_parts)
    monkeypatch.setattr(staged, "_group_overlay", spy)
    stream = Stream(17)
    P = 8
    pair = _pair(tmp_path, P, f"batches-{budget}")
    _apply_both(pair, stream.base(), 1, monkeypatch, delta=True)
    _apply_both(pair, stream.epoch(40), 2, monkeypatch, delta=True)
    overlays.clear()
    got = _apply_both(pair, stream.epoch(6, blocks=1), 3, monkeypatch,
                      delta=True, delta_max_age=1)
    assert all(m["epoch"] == 3 and not m["chain"] for m in got["index"])
    assert sum(overlays) == P
    assert len(overlays) == P if budget == 1 else 1 < len(overlays) < P
    exp = oracle_final_state([_table(stream.history)])
    for eng in pair:
        assert eng.final_state().equals(exp)
        assert eng.store.verify_deep(recompute_hashes=True)["ok"]


# ---- the live key column cache -------------------------------------------


def _count_hits(monkeypatch) -> list:
    """Record how many partitions each delta write took from the cache.
    Chains fold by segment count only, so every epoch writes segments."""
    monkeypatch.setattr(sizing, "FOLD_ROWS_RATIO", 1e9)
    hits: list = []
    cached = SnapshotStore._cached_live

    def spy(self, group):
        versions, found = cached(self, group)
        hits.append(len(found))
        return versions, found
    monkeypatch.setattr(SnapshotStore, "_cached_live", spy)
    return hits


def _check(eng, stream) -> None:
    exp = oracle_final_state([_table(stream.history)])
    assert eng.final_state().equals(exp)
    assert eng.store.verify_deep(recompute_hashes=True)["ok"]


def test_cache_hits_on_a_steady_tail(tmp_path, ray_session, monkeypatch):
    """A steady in-process tailer reads no base or chain after its first
    delta epoch; a fresh handle starts cold."""
    hits = _count_hits(monkeypatch)
    stream = Stream(21)
    eng = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=4))
    _apply(eng, stream.base(), 1, monkeypatch)
    for e in (2, 3, 4):
        _apply(eng, stream.epoch(200, blocks=1), e, monkeypatch)
    assert hits[0] == 0 and hits[1:] == [4, 4]
    _check(eng, stream)
    cold = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=4))
    _apply(cold, stream.epoch(200, blocks=1), 5, monkeypatch)
    assert hits[-1] == 0
    _check(cold, stream)


def _stage_and_discard(eng, stream, epoch, monkeypatch) -> None:
    """Stage ``epoch`` without publishing it, then discard it; the
    stream's next events differ from the discarded ones."""
    lsn, history = stream.lsn, list(stream.history)
    _apply(eng, stream.epoch(200, blocks=1), epoch, monkeypatch, publish=False)
    eng.discard_staged(epoch)
    stream.lsn, stream.history = lsn, history


def test_cache_misses_after_discard_and_rewrite(tmp_path, ray_session,
                                               monkeypatch):
    """``discard_staged``, then the same epoch number written again with
    other events by another handle, under the same file names: no
    partition takes the discarded write's columns, neither in the next
    epoch nor in a later one that reaches a partition the next epoch
    only referenced."""
    hits = _count_hits(monkeypatch)
    stream = Stream(22)
    snap = str(tmp_path / "s")
    eng = CdcEngine(snap, DataModel(num_partitions=4))
    _apply(eng, stream.base(), 1, monkeypatch)
    _apply(eng, stream.epoch(200, blocks=1), 2, monkeypatch, delta=True)
    _stage_and_discard(eng, stream, 3, monkeypatch)
    time.sleep(0.05)  # a new mtime even where the inode is reused
    other = CdcEngine(snap, DataModel(num_partitions=4))
    _apply(other, stream.epoch(200, blocks=1), 3, monkeypatch)
    del hits[:]
    _apply(eng, stream.epoch(30, blocks=1, keys=_keys_of(0, 4)), 4,
           monkeypatch, delta=True)
    _apply(eng, stream.epoch(200, blocks=1), 5, monkeypatch, delta=True)
    assert hits == [0, 1]  # partition 0 from epoch 4's own write
    _check(eng, stream)
    # the same handle writing a discarded epoch again
    _stage_and_discard(eng, stream, 6, monkeypatch)
    _apply(eng, stream.epoch(200, blocks=1), 6, monkeypatch)
    _apply(eng, stream.epoch(200, blocks=1), 7, monkeypatch)
    assert hits[-1] == 4
    _check(eng, stream)


def test_cache_misses_after_a_crash_past_the_group_file(tmp_path, ray_session,
                                                       monkeypatch):
    """A crash after the group file's rename, then a resume on the same
    handle: the crashed attempt's columns are never cached."""
    hits = _count_hits(monkeypatch)
    stream = Stream(23)
    eng = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=4))
    _apply(eng, stream.base(), 1, monkeypatch)
    _apply(eng, stream.epoch(200, blocks=1), 2, monkeypatch)
    blocks = stream.epoch(200, blocks=1)
    write = SnapshotStore.write_delta_group

    def renamed_then_crash(self, *args):
        write(self, *args)
        raise RuntimeError("injected crash after the group file")
    with monkeypatch.context() as m:
        m.setattr(SnapshotStore, "write_delta_group", renamed_then_crash)
        with pytest.raises(RuntimeError, match="injected"):
            _apply(eng, blocks, 3, monkeypatch)
    _apply(eng, blocks, 3, monkeypatch)  # resumes: every segment is done
    del hits[:]
    _apply(eng, stream.epoch(200, blocks=1), 4, monkeypatch)
    assert hits == [0]
    _check(eng, stream)


def test_cache_misses_after_another_handle_commits(tmp_path, ray_session,
                                                  monkeypatch):
    """A second handle commits between two epochs of the first: the
    layouts differ, so the first handle's next epoch misses."""
    hits = _count_hits(monkeypatch)
    stream = Stream(24)
    snap = str(tmp_path / "s")
    eng = CdcEngine(snap, DataModel(num_partitions=4))
    _apply(eng, stream.base(), 1, monkeypatch)
    _apply(eng, stream.epoch(200, blocks=1), 2, monkeypatch)
    other = CdcEngine(snap, DataModel(num_partitions=4))
    _apply(other, stream.epoch(200, blocks=1), 3, monkeypatch)
    del hits[:]
    _apply(eng, stream.epoch(200, blocks=1), 4, monkeypatch)
    assert hits == [0]
    _check(eng, stream)


def test_cache_misses_after_a_fold(tmp_path, ray_session, monkeypatch):
    """A fold rewrites the base: the next epoch's layout is new."""
    hits = _count_hits(monkeypatch)
    stream = Stream(25)
    eng = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=4))
    _apply(eng, stream.base(), 1, monkeypatch)
    _apply(eng, stream.epoch(200, blocks=1), 2, monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(sizing, "FOLD_SEGMENTS", 1)  # every chained partition folds
        _apply(eng, stream.epoch(200, blocks=1), 3, monkeypatch)
    assert not any(m.chain for m in eng.store.epoch_index(3))
    del hits[:]
    _apply(eng, stream.epoch(200, blocks=1), 4, monkeypatch)
    assert hits == [0]
    _check(eng, stream)
