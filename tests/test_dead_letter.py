"""Dead-letter quarantine for malformed change events.

A bad row must neither fail the epoch nor silently vanish: it lands in the
DLQ with a reason, and the valid rows produce exactly the state the stream
without the garbage would have produced.
"""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.cdc import staged
from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import (
    ChangelogConfig,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.replay import read_dead_letters
from arlas_proc_ray.model import DataModel
from arlas_proc_ray.schema import SchemaEvolutionError

CFG = ChangelogConfig(num_events=2000, num_keys=200, seed=55)


def _corrupted_stream():
    """The deterministic changelog plus 4 injected garbage rows."""
    tables = generate_changelog_tables(CFG)
    t = tables[-1]  # highest-version physical shape
    row = t.slice(0, 1).to_pydict()

    def mutant(**edits):
        d = {k: list(v) for k, v in row.items()}
        for k, v in edits.items():
            d[k] = [v]
        return pa.Table.from_pydict(d, schema=t.schema)

    garbage = [
        mutant(schema_version=9),              # unregistered version
        mutant(op="UPSERT"),                   # unknown op
        mutant(lsn=None),                      # no order value
        mutant(path=None),                     # null key column
    ]
    corrupted = pa.concat_tables([t] + garbage)
    return tables[:-1] + [corrupted], tables


def test_dead_letter_quarantine(tmp_path, ray_session):
    corrupted, clean = _corrupted_stream()
    snap = str(tmp_path / "snap")
    dlq = str(tmp_path / "dlq")
    eng = CdcEngine(snap, DataModel(num_partitions=4))
    ds = rd.from_arrow(corrupted)
    eng.apply_epoch(ds, 1, dead_letter_dir=dlq)

    # valid rows produced exactly the clean stream's state
    got = eng.final_state().to_pandas()
    exp = oracle_final_state(clean).to_pandas()
    pd.testing.assert_frame_equal(got, exp)

    # the 4 garbage rows are quarantined with the right reasons
    dl = read_dead_letters(dlq).to_pandas()
    assert len(dl) == 4
    assert sorted(dl["dlq_reason"]) == [
        "invalid_op", "null_key:path", "null_order", "unknown_schema_version",
    ]
    assert (dl["dlq_epoch"] == 1).all()

    # scoped read
    assert len(read_dead_letters(dlq, epoch=1)) == 4
    assert len(read_dead_letters(dlq, epoch=2)) == 0


def test_without_dlq_bad_version_fails_epoch(tmp_path, ray_session):
    corrupted, _ = _corrupted_stream()
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=4))
    with pytest.raises(Exception) as ei:
        eng.apply_epoch(rd.from_arrow(corrupted), 1)
    assert "schema_version" in str(ei.value) or isinstance(
        ei.value, SchemaEvolutionError
    )


def test_dlq_rerun_is_idempotent(tmp_path, ray_session):
    """Re-running the same epoch (resume path) must not duplicate DLQ rows."""
    corrupted, _ = _corrupted_stream()
    snap = str(tmp_path / "snap")
    dlq = str(tmp_path / "dlq")

    def bomb(epoch, part):
        if part == 2 and not (tmp_path / "armed").exists():
            (tmp_path / "armed").touch()
            raise RuntimeError("injected crash")

    eng = CdcEngine(snap, DataModel(num_partitions=4), fault_hook=bomb)
    try:
        eng.apply_epoch(rd.from_arrow(corrupted), 1, dead_letter_dir=dlq)
    except Exception:
        pass
    # resume: full re-run of the normalize stage included
    eng2 = CdcEngine(snap, DataModel(num_partitions=4))
    eng2.apply_epoch(rd.from_arrow(corrupted), 1, dead_letter_dir=dlq)
    dl = read_dead_letters(dlq).to_pandas()
    assert len(dl) == 4, "content-addressed DLQ files must dedupe on re-run"


@pytest.mark.parametrize("two_level", [False, True])
def test_dlq_on_staged_paths(tmp_path, ray_session, two_level):
    corrupted, clean = _corrupted_stream()
    snap = str(tmp_path / "snap")
    dlq = str(tmp_path / "dlq")
    eng = CdcEngine(snap, DataModel(num_partitions=4))
    run = (staged.staged_apply_epoch_two_level if two_level
           else staged.staged_apply_epoch)
    run(eng, rd.from_arrow(corrupted).materialize(), 1, dead_letter_dir=dlq)
    got = eng.final_state().to_pandas()
    exp = oracle_final_state(clean).to_pandas()
    pd.testing.assert_frame_equal(got, exp)
    assert len(read_dead_letters(dlq)) == 4


def test_dlq_all_bad_block_and_filename_collision(tmp_path, ray_session):
    """(a) a block whose rows are ALL quarantined must not crash any
    engine; (b) two batches whose bad rows share (lsn, reason) but differ
    in content must land in DISTINCT DLQ files (content-addressed by the
    full rows, not the order column)."""
    import pyarrow as pa

    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
    from arlas_proc_ray.cdc.replay import make_dead_letter_fn
    from arlas_proc_ray.schema import SchemaRegistry

    tables = generate_changelog_tables(ChangelogConfig(
        num_events=200, num_keys=50, seed=66))
    t = tables[0]

    def bad_row(path_val):
        d = t.slice(0, 1).to_pydict()
        d["lsn"] = [None]
        d["path"] = [path_val]
        return pa.Table.from_pydict(d, schema=t.schema)

    from arlas_proc_ray.cdc.events import default_registry
    from arlas_proc_ray.model import DataModel

    dlq = str(tmp_path / "dlq")
    fn = make_dead_letter_fn(default_registry(), DataModel(num_partitions=4),
                             dlq, 1)
    # two separate batches: same (lsn=None, reason=null_order), different keys
    out_a = fn(bad_row("pathA"))
    out_b = fn(bad_row("pathB"))
    assert out_a.num_rows == 0 and out_b.num_rows == 0
    dl = read_dead_letters(dlq).to_pandas()
    assert len(dl) == 2, "distinct bad rows must not collide on one DLQ file"
    assert sorted(dl["path"].fillna("pathA")) == ["pathA", "pathB"]

    # an all-bad BLOCK through each apply path
    all_bad = pa.concat_tables([bad_row(f"p{i}") for i in range(5)])
    mixed = tables + [all_bad]
    for cls, snap in [("apply_epoch", "s1"), ("staged", "s2")]:
        eng_dir = str(tmp_path / snap)
        d2 = str(tmp_path / f"dlq_{snap}")
        e = CdcEngine(eng_dir, DataModel(num_partitions=4))
        if cls == "staged":
            e.apply_epoch_staged(rd.from_arrow(mixed), 1, dead_letter_dir=d2)
        else:
            e.apply_epoch(rd.from_arrow(mixed), 1, dead_letter_dir=d2)
        got = e.final_state().to_pandas()
        exp = oracle_final_state(tables).to_pandas()
        pd.testing.assert_frame_equal(got, exp)
        assert len(read_dead_letters(d2)) == 5


def test_empty_block_alignment(tmp_path, ray_session):
    """Empty blocks are legal in Ray Data: the aligner must emit a typed
    empty table, not crash on concat_tables([])."""
    import pyarrow as pa

    from arlas_proc_ray.cdc.events import default_registry
    from arlas_proc_ray.cdc.replay import make_align_fn

    tables = generate_changelog_tables(ChangelogConfig(
        num_events=100, num_keys=20, seed=77))
    align = make_align_fn(default_registry())
    empty = tables[0].schema.empty_table()
    out = align(empty)
    assert out.num_rows == 0
    assert "content_size" in out.column_names

    # end to end: a dataset whose blocks include an empty one
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=4))
    eng.apply_epoch(rd.from_arrow(tables + [empty]), 1)
    got = eng.final_state().to_pandas()
    exp = oracle_final_state(tables).to_pandas()
    pd.testing.assert_frame_equal(got, exp)
