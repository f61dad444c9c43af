"""Regression: the exactly-once fence must be the APPLIED watermark.

Bug (round-1 ADVICE, high): the per-partition manifest's ``last_lsn`` was
the max over SURVIVING rows. A DELETE holding the partition's top LSN
lowered the fence, so at-least-once redelivery of an already-applied older
upsert passed the ``lsn > prior_last`` filter and resurrected the deleted
key. The fence is now ``max(prior watermark, max event lsn applied this
epoch)`` computed BEFORE tombstone drop, on every apply path
(``apply_epoch``, ``apply_epoch_staged``, also with a fresh engine per
epoch) and on carry-forward.
"""

import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.cdc import CdcEngine
from arlas_proc_ray.cdc.events import CANONICAL_EVENT_SCHEMA
from arlas_proc_ray.model import DataModel


def events(rows):
    """rows: list of (lsn, op, repo, path, content)."""
    return pa.Table.from_pylist(
        [
            {
                "lsn": lsn,
                "op": op,
                "repo": repo,
                "path": path,
                "commit": f"c{lsn}",
                "language": "py",
                "content": content,
                "content_size": len(content),
                "schema_version": 2,
                "delivery_index": lsn,
            }
            for (lsn, op, repo, path, content) in rows
        ],
        schema=CANONICAL_EVENT_SCHEMA,
    )


E1 = [(5, "INSERT", "o/keeper", "k.py", "keep me"),
      (9, "INSERT", "o/victim", "v.py", "resurrect bait")]
E2 = [(12, "DELETE", "o/victim", "v.py", "")]
# at-least-once redelivery of the ALREADY-APPLIED lsn-9 upsert
E3_REDELIVERED = [E1[1]]


def _keys(state: pa.Table) -> set:
    return set(state.column("repo").to_pylist())


def _assert_no_resurrection(final: pa.Table):
    assert _keys(final) == {"o/keeper"}, (
        "deleted key resurrected by redelivered pre-delete upsert"
    )


@pytest.mark.parametrize(
    "parts,fresh_engine",
    [(1, False), (2, False), (1, True), (2, True)],
    ids=["1", "2", "1-fresh", "2-fresh"],
)
def test_batch_engine_delete_holds_fence(tmp_path, parts, fresh_engine):
    """With ``fresh_engine`` every epoch runs through a new CdcEngine over
    the same store (a restart between epochs): the fence must come back
    from the committed manifests, not from anything the engine held."""
    dm = DataModel(num_partitions=parts)
    snap = str(tmp_path / "s")
    first = CdcEngine(snap, dm)

    def eng():
        return CdcEngine(snap, dm) if fresh_engine else first

    eng().apply_epoch(rd.from_arrow(events(E1)), 1)
    eng().apply_epoch(rd.from_arrow(events(E2)), 2)
    # the fence must record the DELETE's lsn even though it survives no row
    assert eng().store.read_epoch_summary(2)["last_lsn"] == 12
    eng().apply_epoch(rd.from_arrow(events(E3_REDELIVERED)), 3)
    _assert_no_resurrection(eng().final_state())
    # and the watermark still fences after an epoch that touched nothing
    eng().apply_epoch(rd.from_arrow(events([])), 4)
    eng().apply_epoch(rd.from_arrow(events(E3_REDELIVERED)), 5)
    _assert_no_resurrection(eng().final_state())


@pytest.mark.parametrize("parts", [1, 2])
def test_staged_engine_delete_holds_fence(tmp_path, parts):
    # parts=1 also regression-tests the num_returns=1 bare-ObjectRef path
    dm = DataModel(num_partitions=parts)
    eng = CdcEngine(str(tmp_path / "s"), dm)
    eng.apply_epoch_staged(rd.from_arrow(events(E1)), 1)
    eng.apply_epoch_staged(rd.from_arrow(events(E2)), 2)
    assert eng.store.read_epoch_summary(2)["last_lsn"] == 12
    eng.apply_epoch_staged(rd.from_arrow(events(E3_REDELIVERED)), 3)
    _assert_no_resurrection(eng.final_state())


def test_delta_epoch_carry_preserves_watermark(tmp_path):
    """delta=True leaves untouched partitions where they are; their fence
    must still be the old watermark when later epochs rewrite them."""
    dm = DataModel(num_partitions=2)
    eng = CdcEngine(str(tmp_path / "s"), dm)
    eng.apply_epoch(rd.from_arrow(events(E1)), 1)
    eng.apply_epoch(rd.from_arrow(events(E2)), 2, delta=True)
    eng.apply_epoch(rd.from_arrow(events(E3_REDELIVERED)), 3, delta=True)
    _assert_no_resurrection(eng.final_state())
