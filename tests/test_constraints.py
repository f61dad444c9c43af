"""Declarative table constraints (cdc/constraints.py).

Delta-style CHECK / NOT NULL enforced vectorized at ingest: violations
either abort the epoch before any commit marker exists, or quarantine to
the DLQ with reason ``check:<name>`` while the clean rows commit. The
constraint set persists with the store so every writer enforces it.
"""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.cdc.constraints import (
    ConstraintViolation,
    load_constraints,
    violation_reasons,
)
from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import (
    EVENT_SCHEMA_V1,
    ChangelogConfig,
    generate_changelog_tables,
)
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.replay import read_dead_letters
from arlas_proc_ray.cdc.staged import (
    staged_apply_epoch,
    staged_apply_epoch_two_level,
)
from arlas_proc_ray.model import DataModel

CFG = ChangelogConfig(num_events=2000, num_keys=200, seed=77)

# the deterministic changelog's lang values are from events.LANGS; ban one
BANNED = "md"
CHECKS = {"no_md_lang": [("language", "!=", BANNED)]}


def _stream():
    return generate_changelog_tables(CFG)


def _filtered_oracle(tables):
    """Final state of the stream with UPDATE/INSERT rows of the banned
    lang removed up front (what constraint-enforced ingest must equal)."""
    out = []
    for t in tables:
        lang_col = "lang" if "lang" in t.schema.names else "language"
        pdf = t.to_pandas()
        keep = ~(
            pdf["op"].isin(["INSERT", "UPDATE"])
            & (pdf[lang_col] == BANNED)
        )
        out.append(
            pa.Table.from_pandas(pdf[keep], schema=t.schema,
                                 preserve_index=False)
        )
    return oracle_final_state(out).to_pandas()


def test_fail_mode_aborts_epoch_before_commit(tmp_path, ray_session):
    tables = _stream()
    eng = CdcEngine(
        str(tmp_path / "snap"), DataModel(num_partitions=4),
        constraints=CHECKS, on_violation="fail",
    )
    with pytest.raises(Exception) as ei:
        eng.apply_epoch(rd.from_arrow(pa.concat_tables(tables[:1])), 1)
    assert "no_md_lang" in str(ei.value)
    # nothing committed: the store has no tip
    assert eng.store.latest_committed_epoch() is None


def test_dead_letter_mode_quarantines_and_commits(tmp_path, ray_session):
    tables = _stream()
    dlq = str(tmp_path / "dlq")
    eng = CdcEngine(
        str(tmp_path / "snap"), DataModel(num_partitions=4),
        constraints=CHECKS, on_violation="dead_letter",
    )
    for i, t in enumerate(tables, start=1):
        eng.apply_epoch(rd.from_arrow(t), i, dead_letter_dir=dlq)

    got = eng.final_state().to_pandas()
    pd.testing.assert_frame_equal(got, _filtered_oracle(tables))

    dl = read_dead_letters(dlq).to_pandas()
    assert len(dl) > 0
    assert set(dl["dlq_reason"]) == {"check:no_md_lang"}
    # only INSERT/UPDATE rows were quarantined (DELETE is exempt)
    assert set(dl["op"]) <= {"INSERT", "UPDATE"}


def test_dead_letter_mode_requires_dlq_dir(tmp_path, ray_session):
    tables = _stream()
    eng = CdcEngine(
        str(tmp_path / "snap"), DataModel(num_partitions=4),
        constraints=CHECKS, on_violation="dead_letter",
    )
    with pytest.raises(ValueError, match="dead_letter_dir"):
        eng.apply_epoch(rd.from_arrow(tables[0]), 1)


def test_constraints_persist_with_store(tmp_path, ray_session):
    snap = str(tmp_path / "snap")
    CdcEngine(snap, DataModel(num_partitions=4), constraints=CHECKS)
    # a second writer WITHOUT the argument adopts the persisted contract
    eng2 = CdcEngine(snap, DataModel(num_partitions=4),
                     on_violation="dead_letter")
    assert eng2.constraints == {"no_md_lang": [("language", "!=", BANNED)]}
    assert load_constraints(eng2.store) == eng2.constraints
    # a writer that disagrees is rejected loudly
    with pytest.raises(ValueError, match="persisted"):
        CdcEngine(snap, DataModel(num_partitions=4),
                  constraints={"other": [("language", "!=", "py")]})


def test_bad_spec_rejected_at_construction(tmp_path, ray_session):
    with pytest.raises(ValueError, match="unknown op"):
        CdcEngine(str(tmp_path / "a"), DataModel(num_partitions=2),
                  constraints={"c": [("language", "~", "x")]})
    with pytest.raises(ValueError, match="not a"):
        CdcEngine(str(tmp_path / "b"), DataModel(num_partitions=2),
                  constraints={"c": [("nope", "==", "x")]})
    with pytest.raises(ValueError, match="on_violation"):
        CdcEngine(str(tmp_path / "c"), DataModel(num_partitions=2),
                  constraints=CHECKS, on_violation="warn")


def test_staged_paths_enforce_constraints(tmp_path, ray_session):
    tables = _stream()
    dlq = str(tmp_path / "dlq")
    for name, fn in (
        ("one", staged_apply_epoch),
        ("two", staged_apply_epoch_two_level),
    ):
        eng = CdcEngine(
            str(tmp_path / f"snap_{name}"), DataModel(num_partitions=4),
            constraints=CHECKS, on_violation="dead_letter",
        )
        for i, t in enumerate(tables, start=1):
            fn(eng, rd.from_arrow(t), i,
               dead_letter_dir=f"{dlq}_{name}")
        got = eng.final_state().to_pandas()
        pd.testing.assert_frame_equal(got, _filtered_oracle(tables))


def test_null_semantics_and_exemptions(ray_session):
    """SQL CHECK semantics on one batch: null operands pass comparisons,
    not_null rejects them, DELETE is fully exempt, PATCH is exempt from
    not_null only."""
    t = pa.table(
        {
            "lsn": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "op": pa.array(
                ["UPDATE", "UPDATE", "DELETE", "PATCH", "INSERT"]
            ),
            "repo": pa.array(["r"] * 5),
            "path": pa.array(["p1", "p2", "p3", "p4", "p5"]),
            "commit": pa.array(["c"] * 5),
            "language": pa.array([None, BANNED, BANNED, None, "py"]),
            "content": pa.array(["x", "y", None, None, "z"]),
            "content_size": pa.array([1, 1, None, None, 1], pa.int64()),
            "schema_version": pa.array([2] * 5, pa.int32()),
            "delivery_index": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    reasons = violation_reasons(
        t,
        {
            "no_md": [("language", "!=", BANNED)],
            "content_set": [("content", "not_null")],
        },
    )
    # row 0: null language passes the comparison, content present → clean
    # row 1: banned language → check:no_md
    # row 2: DELETE → exempt despite banned language and null content
    # row 3: PATCH → exempt from not_null (null means untouched)
    # row 4: clean
    assert list(reasons) == [None, "check:no_md", None, None, None]


def test_in_clause(ray_session, tmp_path):
    tables = _stream()
    dlq = str(tmp_path / "dlq")
    eng = CdcEngine(
        str(tmp_path / "snap"), DataModel(num_partitions=4),
        constraints={"known_lang": [("language", "in",
                                     ["py", "rs", "scala", "ts", "go"])]},
        on_violation="dead_letter",
    )
    eng.apply_epoch(rd.from_arrow(tables[0]), 1, dead_letter_dir=dlq)
    dl = read_dead_letters(dlq).to_pandas()
    # everything quarantined is exactly the md-language upserts
    lang = dl["lang"] if "lang" in dl.columns else dl["language"]
    assert (lang == "md").all() and len(dl) > 0
