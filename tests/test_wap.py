"""Write-audit-publish (CdcEngine.apply_epoch(publish=False) +
audit_staged / publish_epoch / discard_staged / apply_epoch_audited).

The A of WAP runs against a cut NO reader can see: the epoch's files and
manifests exist, but the _COMMITTED marker is withheld until the audit
passes — snapshot isolation for bad-data protection.
"""

import pandas as pd
import pytest
import ray.data as rd

from arlas_proc_ray.cdc import (
    ChangelogConfig,
    generate_changelog_tables,
    oracle_final_state,
    staged,
)
from arlas_proc_ray.cdc.engine import CdcEngine, EpochAuditError
from arlas_proc_ray.model import DataModel

CFG = ChangelogConfig(num_events=2000, num_keys=200, seed=91)


def _tables():
    return generate_changelog_tables(CFG)


def test_staged_epoch_is_invisible_then_publishes(tmp_path, ray_session):
    tables = _tables()
    eng = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=4))
    r = eng.apply_epoch(rd.from_arrow(tables[0]), 1, publish=False)
    assert r["staged"] and r["row_count"] > 0
    # invisible: no committed tip, ad-hoc readers see nothing
    assert eng.store.latest_committed_epoch() is None
    # audit over the staged cut sees the real rows
    rep = eng.audit_staged(1, min_rows=1)
    assert rep["ok"] and rep["row_count"] == r["row_count"]
    pub = eng.publish_epoch(1)
    assert eng.store.latest_committed_epoch() == 1
    assert pub["row_count"] == r["row_count"]
    assert eng.read_staged(1) is None  # marker consumed
    # remaining epochs the normal way; final state matches the oracle
    for i, t in enumerate(tables[1:], start=2):
        eng.apply_epoch(rd.from_arrow(t), i)
    got = eng.final_state().to_pandas()
    exp = oracle_final_state(tables).to_pandas()
    pd.testing.assert_frame_equal(got, exp)


def test_audit_failure_discards_and_preserves_committed(
    tmp_path, ray_session
):
    tables = _tables()
    eng = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=4))
    eng.apply_epoch(rd.from_arrow(tables[0]), 1)
    before = eng.final_state().to_pandas()

    # epoch 2 via WAP with an impossible audit -> discarded, epoch 1 intact
    with pytest.raises(EpochAuditError) as ei:
        eng.apply_epoch_audited(
            rd.from_arrow(tables[1]), 2,
            audits={"min_rows": 10**9},
        )
    assert ei.value.report["checks"][0]["name"] == "min_rows"
    assert eng.store.latest_committed_epoch() == 1
    assert eng.read_staged(2) is None  # discarded
    pd.testing.assert_frame_equal(eng.final_state().to_pandas(), before)

    # the same epoch then applies cleanly (nothing half-left behind)
    eng.apply_epoch_audited(rd.from_arrow(tables[1]), 2,
                            audits={"min_rows": 1})
    assert eng.store.latest_committed_epoch() == 2


def test_mass_delete_guard_and_expectations(tmp_path, ray_session):
    import pyarrow as pa

    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1

    def ev(lsn, op, path, lang="py"):
        return pa.Table.from_pylist(
            [{"lsn": lsn, "op": op, "repo": "r", "path": path,
              "commit": f"c{lsn}", "lang": lang,
              "content": None if op == "DELETE" else f"x{lsn}",
              "schema_version": 1, "delivery_index": lsn}],
            schema=EVENT_SCHEMA_V1,
        )

    eng = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=2))
    e1 = pa.concat_tables([ev(i, "UPDATE", f"p{i}") for i in range(10)])
    eng.apply_epoch(rd.from_arrow(e1), 1)

    # epoch 2 deletes 8 of 10 keys -> max_shrink_fraction=0.5 fails
    e2 = pa.concat_tables(
        [ev(100 + i, "DELETE", f"p{i}") for i in range(8)]
    )
    with pytest.raises(EpochAuditError):
        eng.apply_epoch_audited(
            rd.from_arrow(e2), 2,
            audits={"max_shrink_fraction": 0.5}, on_fail="keep",
        )
    # on_fail="keep": the staged cut survives for inspection
    assert eng.read_staged(2) is not None
    assert eng.store.latest_committed_epoch() == 1
    eng.discard_staged(2)

    # expectation predicates over the staged STATE rows
    e2b = pa.concat_tables([ev(200, "UPDATE", "bad", lang="")])
    eng.apply_epoch(rd.from_arrow(e2b), 2, publish=False)
    rep = eng.audit_staged(
        2, expect={"lang_set": [("language", "!=", "")]}
    )
    assert not rep["ok"]
    bad = [c for c in rep["checks"] if c["name"] == "expect:lang_set"]
    assert bad and "1 violating" in bad[0]["detail"]
    eng.discard_staged(2)


def test_gc_keeps_staged_epochs(tmp_path, ray_session):
    tables = _tables()
    eng = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=4))
    eng.apply_epoch(rd.from_arrow(tables[0]), 1)
    eng.apply_epoch(rd.from_arrow(tables[1]), 2, publish=False)
    r = eng.store.gc_orphans(min_age_s=0.0)
    assert "epoch=2" in r["kept_inflight"]
    assert eng.read_staged(2) is not None


def test_staged_epoch_crash_resume(tmp_path, ray_session):
    """A crash mid-stage resumes through the normal partition fences;
    the eventual publish is byte-identical to an uncrashed run."""
    import pytest

    tables = _tables()

    class Boom(RuntimeError):
        pass

    crashed = {"n": 0}

    def fault(epoch, part):
        if epoch == 1 and part == 2 and crashed["n"] == 0:
            crashed["n"] += 1
            raise Boom()

    eng = CdcEngine(
        str(tmp_path / "s"), DataModel(num_partitions=4), fault_hook=fault
    )
    with pytest.raises(Exception):
        eng.apply_epoch(rd.from_arrow(tables[0]), 1, publish=False)
    assert eng.store.latest_committed_epoch() is None

    # a fresh engine re-stages the same epoch; done partitions skip
    eng2 = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=4))
    r = eng2.apply_epoch(rd.from_arrow(tables[0]), 1, publish=False)
    assert r["staged"]
    assert eng2.audit_staged(1, min_rows=1)["ok"]
    eng2.publish_epoch(1)

    # reference run without the crash
    ref = CdcEngine(str(tmp_path / "ref"), DataModel(num_partitions=4))
    ref.apply_epoch(rd.from_arrow(tables[0]), 1)
    pd.testing.assert_frame_equal(
        eng2.final_state().to_pandas(), ref.final_state().to_pandas()
    )


def test_staged_exchange_supports_wap(tmp_path, ray_session):
    """Both raw-task staged exchanges honor publish=False; each published
    cut equals the oracle's state."""
    tables = _tables()
    for two_level in (False, True):
        eng = CdcEngine(
            str(tmp_path / f"s{int(two_level)}"),
            DataModel(num_partitions=4),
        )
        run = (staged.staged_apply_epoch_two_level if two_level
               else staged.staged_apply_epoch)
        r = run(eng, rd.from_arrow(tables[0]).materialize(), 1,
                publish=False)
        assert r["staged"]
        assert eng.store.latest_committed_epoch() is None
        assert eng.audit_staged(1, min_rows=1)["ok"]
        eng.publish_epoch(1)
        assert eng.store.latest_committed_epoch() == 1
        pd.testing.assert_frame_equal(
            eng.final_state().to_pandas(),
            oracle_final_state([tables[0]]).to_pandas(),
        )


def test_gc_can_reclaim_abandoned_staged(tmp_path, ray_session):
    tables = _tables()
    eng = CdcEngine(str(tmp_path / "s"), DataModel(num_partitions=4))
    eng.apply_epoch(rd.from_arrow(tables[0]), 1)
    eng.apply_epoch(rd.from_arrow(tables[1]), 2, publish=False)
    # default: staged cut is protected
    r = eng.store.gc_orphans(min_age_s=0.0)
    assert "epoch=2" in r["kept_inflight"]
    # explicit opt-in reclaims it
    r2 = eng.store.gc_orphans(min_age_s=0.0, include_staged=True)
    assert "epoch=2" in r2["removed"]
    assert eng.read_staged(2) is None
    assert eng.store.latest_committed_epoch() == 1
