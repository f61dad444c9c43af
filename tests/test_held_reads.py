"""Held reads (cdc/sizing.py ``hold``/``held``): an in-process Parquet or
JSONL read is a lazy plan over a ``Held`` source. An epoch in one group
decodes it, or a union of such reads, in the caller and puts nothing in
the object store; an exchange run as tasks puts its tables once; Ray
running the plan itself yields the same rows."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from arlas_proc_ray.cdc import sizing, staged
from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import (
    ChangelogConfig,
    changelog_dataset,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.tailer import SegmentTailer
from arlas_proc_ray.cdc.wire import read_changelog_jsonl, write_changelog_jsonl
from arlas_proc_ray.model import DataModel
from arlas_proc_ray.sources.io import read_parquet

CFG = ChangelogConfig(num_events=4000, seed=11, v2_start_lsn=1000)
HALF = 2000


def _parquet_files(tmp_path) -> list[str]:
    """The first half of CFG's events, one file per schema version (the
    ``jobs replay`` and perfbench ``bootstrap`` input shape)."""
    files = []
    for i, t in enumerate(generate_changelog_tables(CFG, 0, HALF)):
        files.append(str(tmp_path / f"events-{i}.parquet"))
        pq.write_table(t, files[-1])
    assert len(files) == 2
    return files


def _union(files: list[str]):
    ds = read_parquet(files[0])
    for f in files[1:]:
        ds = ds.union(read_parquet(f))
    return ds


def _spies(monkeypatch) -> dict:
    """Counts of ``ray.put``, ``ray.data.from_blocks`` and Ray Data
    executor runs from here on."""
    calls = {"put": 0, "from_blocks": 0, "executor": 0}

    def counted(name, fn):
        def spy(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return spy

    monkeypatch.setattr(ray, "put", counted("put", ray.put))
    monkeypatch.setattr(rd, "from_blocks", counted("from_blocks", rd.from_blocks))
    monkeypatch.setattr(StreamingExecutor, "execute",
                        counted("executor", StreamingExecutor.execute))
    return calls


def _one_cpu(monkeypatch, groups: int = 1) -> None:
    """The one-CPU session's decisions on the 4-CPU test session: reads of
    several files or ranges are one task, and the exchange has
    ``groups`` merge groups."""
    monkeypatch.setattr(sizing, "session_cpus", lambda: 1)
    monkeypatch.setattr(staged, "session_groups",
                        lambda n: staged.group_plan(n, groups))


def _frame(table: pa.Table) -> pd.DataFrame:
    return (table.to_pandas().sort_values(["repo", "path"])
            .reset_index(drop=True))


def test_one_group_epochs_over_held_reads_put_and_execute_nothing(
        tmp_path, monkeypatch):
    """On a one-CPU session, ``apply_epoch_staged`` over a union of two
    held Parquet reads and ``SegmentTailer.poll`` over JSONL segments
    make no ``ray.put`` and no ``from_blocks`` call and run no Ray Data
    executor, and the store ends in the oracle's state."""
    files = _parquet_files(tmp_path)
    seg = str(tmp_path / "seg")
    write_changelog_jsonl(changelog_dataset(CFG, lo=HALF), seg)
    _one_cpu(monkeypatch)
    eng = CdcEngine(str(tmp_path / "store"), DataModel(num_partitions=8))
    calls = _spies(monkeypatch)
    ds = _union(files)
    assert sizing.held(ds) is not None
    eng.apply_epoch_staged(ds, epoch=1)
    assert calls == {"put": 0, "from_blocks": 0, "executor": 0}
    assert SegmentTailer(eng, seg).poll()["applied"]
    assert calls == {"put": 0, "from_blocks": 0, "executor": 0}
    pd.testing.assert_frame_equal(
        _frame(eng.final_state()),
        _frame(oracle_final_state(generate_changelog_tables(CFG))),
        check_dtype=False)


def test_held_reads_run_by_ray_give_the_held_rows(tmp_path, monkeypatch):
    """A held read, or a union of held reads, that Ray runs (``take_all``,
    ``to_arrow_refs``, ``count``) gives the rows ``sizing.held`` decodes in
    the caller; a union with a Dataset that is not held is not held."""
    files = _parquet_files(tmp_path)
    seg = str(tmp_path / "seg")
    write_changelog_jsonl(changelog_dataset(CFG, lo=HALF), seg)
    monkeypatch.setattr(sizing, "session_cpus", lambda: 1)

    def by_lsn(tables):
        return sorted((t for t in tables if t.num_rows),
                      key=lambda t: t.column("lsn")[0].as_py())

    for ds in (_union(files), read_changelog_jsonl(seg)):
        held = by_lsn(sizing.held(ds))
        ran = by_lsn(ray.get(ds.to_arrow_refs()))
        assert len(held) == len(ran) > 1
        assert all(a.equals(b) for a, b in zip(held, ran))
        rows = sorted(r["lsn"] for r in ds.take_all())
        assert rows == sorted(
            pa.concat_tables(held, promote_options="default")
            .column("lsn").to_pylist())
        assert ds.count() == len(rows)
    mixed = read_parquet(files[0]).union(rd.from_arrow(pq.read_table(files[1])))
    assert sizing.held(mixed) is None
    assert sizing.held(_union(files).limit(10)) is None


def test_remote_and_mixed_inputs_commit_the_in_process_rollup(
        tmp_path, monkeypatch):
    """The same held union committed through a forced two-group exchange
    (its tables put once, by one ``from_blocks``), and a union of a held
    and a non-held Dataset, give the rollup and the state of the
    in-process epoch."""
    files = _parquet_files(tmp_path)

    def commit(name, groups, make_ds):
        with monkeypatch.context() as m:
            _one_cpu(m, groups)
            eng = CdcEngine(str(tmp_path / name), DataModel(num_partitions=8))
            summary = eng.apply_epoch_staged(make_ds(), epoch=1)
            return summary["rollup"], _frame(eng.final_state())

    rollup, state = commit("inline", 1, lambda: _union(files))
    pd.testing.assert_frame_equal(
        state,
        _frame(oracle_final_state(generate_changelog_tables(CFG, 0, HALF))),
        check_dtype=False)
    with monkeypatch.context() as m:
        calls = _spies(m)
        remote = commit("remote", 2, lambda: _union(files))
        assert calls["from_blocks"] == 1
    mixed = commit("mixed", 1, lambda: read_parquet(files[0]).union(
        rd.from_arrow(pq.read_table(files[1]))))
    for other_rollup, other_state in (remote, mixed):
        assert other_rollup == rollup
        pd.testing.assert_frame_equal(other_state, state)
