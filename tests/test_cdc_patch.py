"""Partial-image PATCH events (cdc/patch.py) — kernels + end-to-end.

The independent expectation everywhere is a plain Python replay
(sequential overlay per key), never the kernels under test — the
reference's golden-generator strategy (see cdc/oracle.py docstring).
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V2
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.patch import (
    patch_fold_table,
    patch_prune_table,
    table_has_patches,
)
from arlas_proc_ray.cdc.replay import lww_reduce_table, replay_to_dataset
from arlas_proc_ray.model import DataModel

KEYS = ("k",)
T = lambda rows: pa.Table.from_pylist(  # noqa: E731
    rows,
    schema=pa.schema(
        [
            ("k", pa.string()),
            ("lsn", pa.int64()),
            ("op", pa.string()),
            ("a", pa.string()),
            ("b", pa.int64()),
        ]
    ),
)


def row(k, lsn, op, a=None, b=None):
    return {"k": k, "lsn": lsn, "op": op, "a": a, "b": b}


def brute_fold(rows):
    """Sequential per-key overlay — the independent expectation."""
    state = {}
    for r in sorted(rows, key=lambda r: r["lsn"]):
        k = r["k"]
        if r["op"] == "DELETE":
            state.pop(k, None)
        elif r["op"] == "PATCH":
            if k in state:
                prev = state[k]
                state[k] = {
                    **prev,
                    "a": r["a"] if r["a"] is not None else prev["a"],
                    "b": r["b"] if r["b"] is not None else prev["b"],
                    "lsn": r["lsn"],
                }
        else:
            state[k] = {"k": k, "lsn": r["lsn"], "op": r["op"], "a": r["a"], "b": r["b"]}
    return {k: (v["a"], v["b"], v["lsn"]) for k, v in state.items()}


def fold_to_live(table):
    folded = patch_fold_table(table, KEYS, "lsn")
    live = folded.filter(
        pc.invert(pc.is_in(folded.column("op"), value_set=pa.array(["DELETE", "PATCH"])))
    )
    return {
        r["k"]: (r["a"], r["b"], r["lsn"]) for r in live.to_pylist()
    }


def test_fold_overlays_patches_on_barrier():
    t = T(
        [
            row("x", 1, "INSERT", "v1", 10),
            row("x", 2, "PATCH", a="v2"),          # touch a only
            row("x", 3, "PATCH", b=30),            # touch b only
            row("y", 1, "INSERT", "w1", 1),
        ]
    )
    assert fold_to_live(t) == {"x": ("v2", 30, 3), "y": ("w1", 1, 1)}


def test_barrier_null_is_authoritative():
    # UPDATE sets a=None (full image); an earlier non-null must NOT leak
    t = T(
        [
            row("x", 1, "INSERT", "v1", 10),
            row("x", 2, "UPDATE", a=None, b=20),
            row("x", 3, "PATCH", b=30),
        ]
    )
    assert fold_to_live(t) == {"x": (None, 30, 3)}


def test_delete_then_patch_is_noop_and_patch_then_reinsert():
    t = T(
        [
            row("x", 1, "INSERT", "v1", 10),
            row("x", 2, "DELETE"),
            row("x", 3, "PATCH", a="ghost"),  # patch on dead key: no-op
        ]
    )
    assert fold_to_live(t) == {}
    t2 = T(
        [
            row("x", 1, "PATCH", a="early"),   # before any image: no-op
            row("x", 2, "INSERT", "v2", 20),
        ]
    )
    assert fold_to_live(t2) == {"x": ("v2", 20, 2)}


def test_pure_patch_key_dropped():
    t = T([row("never", 5, "PATCH", a="x")])
    assert fold_to_live(t) == {}
    # but the fold keeps it as op='PATCH' (an engine merging prior state
    # later may still resolve it)
    folded = patch_fold_table(t, KEYS, "lsn")
    assert folded.column("op").to_pylist() == ["PATCH"]


def test_prune_is_safe_on_arbitrary_splits_and_idempotent():
    rng = random.Random(7)
    keys = [f"k{i}" for i in range(12)]
    rows = []
    for lsn in range(1, 400):
        k = rng.choice(keys)
        op = rng.choices(["INSERT", "UPDATE", "DELETE", "PATCH"], [2, 3, 1, 6])[0]
        if op == "PATCH":
            which = rng.randrange(3)
            rows.append(
                row(
                    k,
                    lsn,
                    op,
                    a=f"a{lsn}" if which in (0, 2) else None,
                    b=lsn if which in (1, 2) else None,
                )
            )
        else:
            rows.append(row(k, lsn, op, a=f"a{lsn}", b=lsn))
    expected = brute_fold(rows)

    # direct fold of everything
    assert fold_to_live(T(rows)) == expected

    for trial in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        nb = rng.randrange(2, 7)
        batches = [shuffled[i::nb] for i in range(nb)]
        pruned = [patch_prune_table(T(b), KEYS, "lsn") for b in batches if b]
        # prune is idempotent
        for p in pruned:
            again = patch_prune_table(p, KEYS, "lsn")
            assert again.sort_by("lsn").equals(p.sort_by("lsn"))
        merged = pa.concat_tables(pruned)
        assert fold_to_live(merged) == expected, f"trial {trial}"
        # combiner drops strictly-dominated rows
        assert merged.num_rows <= len(rows)


def test_lww_reduce_dispatches_on_patch_presence():
    plain = T([row("x", 1, "INSERT", "v", 1), row("x", 2, "UPDATE", "w", 2)])
    assert not table_has_patches(plain)
    r = lww_reduce_table(plain, ["k"], "lsn")
    assert r.num_rows == 1 and r.column("a").to_pylist() == ["w"]

    withp = T(
        [
            row("x", 1, "INSERT", "v", 1),
            row("x", 2, "PATCH", b=9),
            row("x", 3, "PATCH", a="z"),
        ]
    )
    assert table_has_patches(withp)
    r2 = lww_reduce_table(withp, ["k"], "lsn")  # prune: barrier + 2 patches
    assert r2.num_rows == 3


def ev2(lsn, op, repo="org/r", path="f.py", commit=None, language=None, content=None):
    return {
        "lsn": lsn,
        "op": op,
        "repo": repo,
        "path": path,
        "commit": commit,
        "language": language,
        "content": content,
        "content_size": None,
        "schema_version": 2,
        "delivery_index": lsn,
    }


def _final_df(ds):
    return (
        ds.to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def test_replay_end_to_end_with_patches_out_of_order():
    events = [
        ev2(1, "INSERT", path="a.py", commit="c1", language="py", content="one"),
        ev2(2, "PATCH", path="a.py", content="two"),          # content only
        ev2(3, "PATCH", path="a.py", language="rs"),          # language only
        ev2(4, "INSERT", path="b.py", commit="c4", language="go", content="bee"),
        ev2(5, "DELETE", path="b.py"),
        ev2(6, "PATCH", path="b.py", content="ghost"),        # dead key: no-op
        ev2(7, "PATCH", path="c.py", content="orphan"),       # never existed
    ]
    tables = [pa.Table.from_pylist([e], schema=EVENT_SCHEMA_V2) for e in events]
    expected = oracle_final_state(tables).to_pandas()

    shuffled = events[:]
    random.Random(3).shuffle(shuffled)
    ds = rd.from_arrow(
        [pa.Table.from_pylist(shuffled, schema=EVENT_SCHEMA_V2)]
    )
    got = _final_df(replay_to_dataset(ds, DataModel(num_partitions=4)))
    exp = expected.sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[list(exp.columns)], exp)

    a = got[got.path == "a.py"].iloc[0]
    assert a.content == "two" and a.language == "rs" and a.commit == "c1"
    assert a.content_sha256 == hashlib.sha256(b"two").hexdigest()
    assert a.content_size == 3 and a.last_lsn == 3
    assert "b.py" not in set(got.path) and "c.py" not in set(got.path)


def test_engine_patch_across_epochs_resumes_and_rehashes(tmp_path):
    from arlas_proc_ray.cdc import CdcEngine

    dm = DataModel(num_partitions=4)
    eng = CdcEngine(str(tmp_path / "snap"), dm)

    epoch1 = [
        ev2(i, "INSERT", path=f"f{i}.py", commit=f"c{i}", language="py",
            content=f"body-{i}")
        for i in range(1, 21)
    ]
    eng.apply_epoch(rd.from_arrow([pa.Table.from_pylist(epoch1, schema=EVENT_SCHEMA_V2)]), epoch=1)

    # epoch 2: patch content of f1, language of f2, delete f3
    epoch2 = [
        ev2(100, "PATCH", path="f1.py", content="patched"),
        ev2(101, "PATCH", path="f2.py", language="rust"),
        ev2(102, "DELETE", path="f3.py"),
    ]
    eng.apply_epoch(rd.from_arrow([pa.Table.from_pylist(epoch2, schema=EVENT_SCHEMA_V2)]), epoch=2)

    state = eng.final_state().to_pandas().set_index("path")
    assert len(state) == 19
    assert state.loc["f1.py", "content"] == "patched"
    assert (
        state.loc["f1.py", "content_sha256"]
        == hashlib.sha256(b"patched").hexdigest()
    )
    assert state.loc["f1.py", "commit"] == "c1"  # untouched column survives
    assert state.loc["f1.py", "last_lsn"] == 100
    assert state.loc["f2.py", "language"] == "rust"
    assert state.loc["f2.py", "content"] == "body-2"  # untouched
    assert (
        state.loc["f2.py", "content_sha256"]
        == hashlib.sha256(b"body-2").hexdigest()
    )
    assert "f3.py" not in state.index

    # oracle cross-check of the whole two-epoch stream
    exp = oracle_final_state(
        [
            pa.Table.from_pylist(epoch1, schema=EVENT_SCHEMA_V2),
            pa.Table.from_pylist(epoch2, schema=EVENT_SCHEMA_V2),
        ]
    ).to_pandas()
    got = eng.final_state().to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[list(exp.columns)], exp)


def test_engine_patch_epoch_crash_resume(tmp_path):
    from arlas_proc_ray.cdc import CdcEngine

    dm = DataModel(num_partitions=4)
    boom = {"armed": True}

    def fault(epoch, part):
        if epoch == 2 and boom["armed"] and part >= 2:
            boom["armed"] = False
            raise RuntimeError("injected crash")

    eng = CdcEngine(str(tmp_path / "snap"), dm, fault_hook=fault)
    epoch1 = [
        ev2(i, "INSERT", path=f"f{i}.py", commit=f"c{i}", language="py",
            content=f"body-{i}")
        for i in range(1, 31)
    ]
    eng.apply_epoch(
        rd.from_arrow([pa.Table.from_pylist(epoch1, schema=EVENT_SCHEMA_V2)]), epoch=1
    )
    patches = [
        ev2(200 + i, "PATCH", path=f"f{i}.py", content=f"patched-{i}")
        for i in range(1, 31, 3)
    ]
    ev_ds = rd.from_arrow([pa.Table.from_pylist(patches, schema=EVENT_SCHEMA_V2)])
    try:
        eng.apply_epoch(ev_ds, epoch=2)
    except Exception:
        pass
    # resume: fence skips committed partitions, completes the rest
    eng2 = CdcEngine(str(tmp_path / "snap"), dm)
    eng2.apply_epoch(ev_ds, epoch=2)
    state = eng2.final_state().to_pandas().set_index("path")
    for i in range(1, 31, 3):
        assert state.loc[f"f{i}.py", "content"] == f"patched-{i}"
        assert (
            state.loc[f"f{i}.py", "content_sha256"]
            == hashlib.sha256(f"patched-{i}".encode()).hexdigest()
        )


def test_fold_is_vectorized_scale_smoke():
    """50k events / 2k keys folds in one pass with exact results."""
    rng = np.random.default_rng(11)
    n, nk = 50_000, 2_000
    ks = rng.integers(0, nk, n)
    ops_pool = np.array(["INSERT", "UPDATE", "PATCH", "PATCH", "PATCH"])
    ops = ops_pool[rng.integers(0, len(ops_pool), n)]
    lsn = rng.permutation(n) + 1
    a_vals = np.array([f"a{i}" for i in range(n)], dtype=object)
    a = np.where((ops == "PATCH") & (rng.random(n) < 0.5), None, a_vals)
    b = np.where((ops == "PATCH") & (a != None), None, lsn)  # noqa: E711
    t = pa.table(
        {
            "k": pa.array([f"k{x}" for x in ks], pa.string()),
            "lsn": pa.array(lsn, pa.int64()),
            "op": pa.array(ops, pa.string()),
            "a": pa.array(a, pa.string()),
            "b": pa.array(b, pa.int64()),
        }
    )
    rows = t.to_pylist()
    assert fold_to_live(t) == brute_fold(rows)


def _patch_stream(tables, n_patch=60, lsn_base=None):
    """Deterministic PATCH events over keys that exist in ``tables``."""
    pre = oracle_final_state(tables).to_pandas()
    top = (lsn_base or max(int(pc.max(t.column("lsn")).as_py()) for t in tables))
    some = pre.head(n_patch)
    rows = [
        {
            "lsn": top + 1 + i,
            "op": "PATCH",
            "repo": r.repo,
            "path": r.path,
            "commit": None,
            "language": "patched" if i % 2 else None,
            "content": f"pbody-{i}" if i % 2 == 0 else None,
            "content_size": None,
            "schema_version": 2,
            "delivery_index": top + 1 + i,
        }
        for i, r in enumerate(some.itertuples())
    ]
    return pa.Table.from_pylist(rows, schema=EVENT_SCHEMA_V2)


def test_staged_engines_apply_patches(tmp_path):
    """Both staged exchanges fold PATCH rows (mixed into one epoch)."""
    from arlas_proc_ray.cdc import CdcEngine
    from arlas_proc_ray.cdc.events import ChangelogConfig, generate_changelog_tables
    from arlas_proc_ray.cdc.staged import (
        staged_apply_epoch,
        staged_apply_epoch_two_level,
    )

    cfg = ChangelogConfig(num_events=2_000, num_keys=300, seed=23)
    tables = generate_changelog_tables(cfg)
    patches = _patch_stream(tables, n_patch=40)
    exp = oracle_final_state(tables + [patches]).to_pandas()

    for runner, name in [
        (staged_apply_epoch, "one-level"),
        (
            lambda e, ds, ep: staged_apply_epoch_two_level(e, ds, ep, groups=4),
            "two-level",
        ),
    ]:
        dm = DataModel(num_partitions=8)
        eng = CdcEngine(str(tmp_path / f"snap-{name}"), dm)
        # patches arrive in the SAME epoch as the images they modify —
        # exercises the combiner prune inside the exchange blocks
        runner(eng, rd.from_arrow(tables + [patches]), 1)
        got = (
            eng.final_state()
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)[list(exp.columns)]
        )
        pd.testing.assert_frame_equal(got, exp, obj=name)
