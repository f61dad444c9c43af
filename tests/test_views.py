"""Incrementally-maintained materialized views (cdc/views.py).

The store-resident sibling of cdc/ivm.py: per-group aggregates of the
snapshot state, refreshed by per-partition epoch diffs (delta
propagation) instead of recomputation. Contract: however the view got
here — bootstrap, any chain of incremental refreshes, a fan-out-forced
recompute — it equals GROUP BY over the state at the refreshed epoch.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from arlas_proc_ray.cdc import CdcEngine, ChangelogConfig, generate_changelog_tables
from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
from arlas_proc_ray.cdc.diff import diff_state_tables
from arlas_proc_ray.cdc.views import (
    read_view,
    read_view_checkpoint,
    refresh_group_view,
)
from arlas_proc_ray.model import DataModel

DM = DataModel(num_partitions=8)
GROUP = ["language"]
SUMS = ["content_size"]


def _event(lsn, *, repo="org9/solo", path="only.py", op="UPDATE",
           lang="py", content="x" * 50) -> pa.Table:
    return pa.Table.from_pylist(
        [{
            "lsn": lsn, "op": op, "repo": repo, "path": path,
            "commit": f"c{lsn}", "lang": lang,
            "content": None if op == "DELETE" else content,
            "schema_version": 1, "delivery_index": lsn,
        }],
        schema=EVENT_SCHEMA_V1,
    )


def _expected(state: pa.Table) -> pd.DataFrame:
    pdf = state.to_pandas()
    g = pdf.groupby(GROUP, dropna=False, as_index=False)
    out = g.size().rename(columns={"size": "n_live"})
    sums = g[SUMS].sum()
    for c in SUMS:
        out[f"{c}_sum"] = sums[c].astype(np.int64)
    out["n_live"] = out["n_live"].astype(np.int64)
    return out.sort_values(GROUP, kind="stable").reset_index(drop=True)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(GROUP, kind="stable").reset_index(drop=True)
    return df.astype({c: np.int64 for c in df.columns if c not in GROUP})


def test_diff_old_images_alignment():
    old = pa.table({
        "k": ["a", "b", "c"], "grp": ["g1", "g1", "g2"], "v": [10, 20, 30],
    })
    new = pa.table({
        "k": ["a", "b", "d"], "grp": ["g1", "g2", "g2"], "v": [10, 21, 40],
    })
    diff, imgs = diff_state_tables(
        old, new, key_cols=["k"], compare_cols=["grp", "v"],
        old_image_cols=["grp", "v"],
    )
    assert len(diff) == len(imgs) == 3
    by_op = dict(zip(diff["op"], range(len(diff))))
    # I row ("d"): no prior image
    i = by_op["I"]
    assert diff["k"].iloc[i] == "d" and pd.isna(imgs["v"].iloc[i])
    # U row ("b"): new image in diff, old image aligned in imgs
    u = by_op["U"]
    assert diff["k"].iloc[u] == "b" and diff["v"].iloc[u] == 21
    assert imgs["grp"].iloc[u] == "g1" and imgs["v"].iloc[u] == 20
    # D row ("c"): old image both sides
    d = by_op["D"]
    assert diff["k"].iloc[d] == "c"
    assert imgs["grp"].iloc[d] == "g2" and imgs["v"].iloc[d] == 30
    # large int64 old values survive the NA insertion exactly
    old2 = pa.table({"k": ["a"], "grp": ["g"], "v": [2**62 + 3]})
    new2 = pa.table({"k": ["a", "b"], "grp": ["g", "g"], "v": [1, 2]})
    _, imgs2 = diff_state_tables(
        old2, new2, key_cols=["k"], old_image_cols=["v"],
    )
    assert int(imgs2["v"].dropna().iloc[0]) == 2**62 + 3

    # no-op input: still a two-frame return, both empty
    diff3, imgs3 = diff_state_tables(
        old, old, key_cols=["k"], old_image_cols=["v"],
    )
    assert len(diff3) == 0 and len(imgs3) == 0

    # a pandas index stored in the old table's schema does not shift the
    # positional old images
    old4 = pa.Table.from_pandas(
        old.to_pandas().set_axis(pd.RangeIndex(5, 8))
    )
    diff4, imgs4 = diff_state_tables(
        old4, new, key_cols=["k"], compare_cols=["grp", "v"],
        old_image_cols=["grp", "v"],
    )
    pd.testing.assert_frame_equal(diff4, diff)
    pd.testing.assert_frame_equal(imgs4, imgs)


def test_bootstrap_then_incremental_matches_state(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=4_000, num_keys=300, seed=23)
    )
    engine.apply_epoch(rd.from_arrow(tables), epoch=1)

    r1 = refresh_group_view(
        engine.store, view_id="by_lang", group_cols=GROUP, sum_cols=SUMS,
    )
    assert r1["mode"] == "bootstrap"
    pd.testing.assert_frame_equal(
        _norm(r1["state"]), _expected(engine.final_state())
    )

    # delta epoch: update (content grows), group move (lang change),
    # delete, insert — only the touched partitions are re-read
    engine.apply_epoch(
        rd.from_arrow([
            _event(9_000, content="y" * 400),                       # U same grp
            _event(9_001, repo="org0/monorepo",
                   path="src/d0/m0/file_0.py", lang="rb"),          # grp move
            _event(9_002, repo="org0/monorepo",
                   path="src/d0/m0/file_1.py", op="DELETE"),        # D
            _event(9_003, repo="orgX/new", path="brand/new.py",
                   lang="go", content="z" * 70),                    # I
        ]),
        epoch=2, delta=True,
    )
    r2 = refresh_group_view(
        engine.store, view_id="by_lang", group_cols=GROUP, sum_cols=SUMS,
    )
    assert r2["mode"] == "incremental"
    assert r2["partitions_skipped"] > 0
    assert r2["partitions_refreshed"] + r2["partitions_skipped"] == DM.num_partitions
    pd.testing.assert_frame_equal(
        _norm(r2["state"]), _expected(engine.final_state())
    )
    # the persisted state round-trips and the vacuum pin follows
    pd.testing.assert_frame_equal(
        _norm(read_view(engine.store, "by_lang")), _norm(r2["state"])
    )
    assert engine.store.resolve_ref("view-by_lang") == 2

    # --- noop: nothing new to fold
    r3 = refresh_group_view(
        engine.store, view_id="by_lang", group_cols=GROUP, sum_cols=SUMS,
    )
    assert r3["mode"] == "noop"
    assert r3["partitions_skipped"] == DM.num_partitions

    # incremental result == full recompute, exactly
    full = refresh_group_view(
        engine.store, view_id="by_lang_full", group_cols=GROUP, sum_cols=SUMS,
    )
    pd.testing.assert_frame_equal(_norm(r2["state"]), _norm(full["state"]))


def test_group_retracted_to_zero_disappears(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(
        rd.from_arrow([
            _event(1, lang="zig", content="a" * 30),
            _event(2, repo="r2", path="p2", lang="py"),
        ]),
        epoch=1,
    )
    r1 = refresh_group_view(
        engine.store, view_id="v", group_cols=GROUP, sum_cols=SUMS,
    )
    assert set(r1["state"]["language"]) == {"zig", "py"}
    engine.apply_epoch(
        rd.from_arrow([_event(3, op="DELETE")]), epoch=2, delta=True
    )
    r2 = refresh_group_view(
        engine.store, view_id="v", group_cols=GROUP, sum_cols=SUMS,
    )
    assert r2["mode"] == "incremental"
    assert set(r2["state"]["language"]) == {"py"}  # zig retracted to zero
    pd.testing.assert_frame_equal(
        _norm(r2["state"]), _expected(engine.final_state())
    )


def test_crash_before_checkpoint_is_idempotent(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=2_000, num_keys=150, seed=31)
    )
    engine.apply_epoch(rd.from_arrow(tables), epoch=1)
    refresh_group_view(
        engine.store, view_id="v", group_cols=GROUP, sum_cols=SUMS,
    )
    engine.apply_epoch(
        rd.from_arrow([_event(8_000, content="w" * 300)]), epoch=2, delta=True
    )
    # crash BEFORE the checkpoint commit: nothing durable moved …
    r_crash = refresh_group_view(
        engine.store, view_id="v", group_cols=GROUP, sum_cols=SUMS,
        commit_checkpoint=False,
    )
    assert read_view_checkpoint(engine.store, "v")["epoch"] == 1
    # … so the rerun replays the SAME diff from the SAME base and lands
    # on the same state, now committed
    r_retry = refresh_group_view(
        engine.store, view_id="v", group_cols=GROUP, sum_cols=SUMS,
    )
    pd.testing.assert_frame_equal(
        _norm(r_crash["state"]), _norm(r_retry["state"])
    )
    pd.testing.assert_frame_equal(
        _norm(r_retry["state"]), _expected(engine.final_state())
    )
    assert read_view_checkpoint(engine.store, "v")["epoch"] == 2


def test_fanout_change_forces_full_recompute(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    tables = generate_changelog_tables(
        ChangelogConfig(num_events=2_000, num_keys=150, seed=37)
    )
    engine.apply_epoch(rd.from_arrow(tables), epoch=1)
    refresh_group_view(
        engine.store, view_id="v", group_cols=GROUP, sum_cols=SUMS,
    )
    engine.repartition_snapshot(16, epoch=2)
    r = refresh_group_view(
        engine.store, view_id="v", group_cols=GROUP, sum_cols=SUMS,
    )
    assert r["mode"] == "bootstrap"  # alignment broken -> recompute
    pd.testing.assert_frame_equal(
        _norm(r["state"]), _expected(engine.final_state())
    )
    # next refresh re-aligns incrementally on the new fan-out
    engine.dm = DataModel(num_partitions=16)
    engine.apply_epoch(
        rd.from_arrow([_event(8_100, content="q" * 99)]), epoch=3, delta=True
    )
    r2 = refresh_group_view(
        engine.store, view_id="v", group_cols=GROUP, sum_cols=SUMS,
    )
    assert r2["mode"] == "incremental" and r2["partitions_skipped"] > 0
    pd.testing.assert_frame_equal(
        _norm(r2["state"]), _expected(engine.final_state())
    )


def test_spec_drift_forces_recompute(tmp_path, ray_session):
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(
        rd.from_arrow([_event(1), _event(2, repo="r2", path="p2", lang="go")]),
        epoch=1,
    )
    refresh_group_view(
        engine.store, view_id="v", group_cols=GROUP, sum_cols=SUMS,
    )
    # same view id, different grouping: must NOT fold into the old state
    r = refresh_group_view(
        engine.store, view_id="v", group_cols=["repo"], sum_cols=SUMS,
    )
    assert r["mode"] == "bootstrap"
    assert set(r["state"]["repo"]) == {"org9/solo", "r2"}


def test_nul_byte_group_keys_stay_distinct():
    from arlas_proc_ray.cdc.views import _agg_partial

    pdf = pd.DataFrame(
        {"g": ["", "\x00", ""], "v": [1, 2, 4], "_n": np.int64(1)}
    )
    out = _agg_partial(pdf, ["g"], ["v"])
    assert len(out) == 2  # '' and '\x00' are different groups
    got = {k: (n, v) for k, n, v in zip(out["g"], out["_n"], out["v"])}
    assert got[""] == (2, 5) and got["\x00"] == (1, 2)


def _expected_mm(state: pa.Table) -> pd.DataFrame:
    """GROUP BY with count, sum AND min/max over content_size."""
    pdf = state.to_pandas()
    g = pdf.groupby(GROUP, dropna=False, as_index=False)
    out = g.size().rename(columns={"size": "n_live"})
    out["content_size_sum"] = g["content_size"].sum()["content_size"]
    out["content_size_min"] = g["content_size"].min()["content_size"]
    out["content_size_max"] = g["content_size"].max()["content_size"]
    for c in out.columns:
        if c not in GROUP:
            out[c] = out[c].astype(np.int64)
    return out.sort_values(GROUP, kind="stable").reset_index(drop=True)


def _norm_mm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(GROUP, kind="stable").reset_index(drop=True)
    return df.astype({c: np.int64 for c in df.columns if c not in GROUP})


def test_minmax_view_assert_only_folds(tmp_path, ray_session):
    """Insert-only epoch: min/max fold from asserts, zero recomputes."""
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(
        rd.from_arrow(generate_changelog_tables(
            ChangelogConfig(num_events=3_000, num_keys=250, seed=3)
        )),
        epoch=1,
    )
    kw = dict(group_cols=GROUP, sum_cols=SUMS, minmax_cols=["content_size"])
    r1 = refresh_group_view(engine.store, view_id="mm", **kw)
    assert r1["mode"] == "bootstrap"
    pd.testing.assert_frame_equal(
        _norm_mm(r1["state"]), _expected_mm(engine.final_state())
    )

    # pure INSERTS of brand-new keys: no retraction anywhere
    engine.apply_epoch(
        rd.from_arrow([
            _event(9_100, repo="orgN/n1", path="a.py", op="INSERT",
                   lang="py", content="q" * 999),
            _event(9_101, repo="orgN/n2", path="b.rb", op="INSERT",
                   lang="rb", content="q" * 3),
        ]),
        epoch=2, delta=True,
    )
    r2 = refresh_group_view(engine.store, view_id="mm", **kw)
    assert r2["mode"] == "incremental"
    assert r2["recomputed_groups"] == 0  # assert-only fold
    pd.testing.assert_frame_equal(
        _norm_mm(r2["state"]), _expected_mm(engine.final_state())
    )


def test_minmax_view_retraction_recomputes_exactly(tmp_path, ray_session):
    """Deleting the current MAX of a group forces that group's recompute
    and lands on the true second-best; untouched groups fold."""
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(
        rd.from_arrow([
            _event(1, repo="r/a", path="p1", lang="py", content="x" * 500),
            _event(2, repo="r/a", path="p2", lang="py", content="x" * 100),
            _event(3, repo="r/a", path="p3", lang="py", content="x" * 50),
            _event(4, repo="r/b", path="q1", lang="go", content="x" * 70),
        ]),
        epoch=1,
    )
    kw = dict(group_cols=GROUP, sum_cols=SUMS, minmax_cols=["content_size"])
    refresh_group_view(engine.store, view_id="mm", **kw)

    # delete the py max (500) and shrink the py min's file (50 -> 20)
    engine.apply_epoch(
        rd.from_arrow([
            _event(10, repo="r/a", path="p1", op="DELETE"),
            _event(11, repo="r/a", path="p3", lang="py", content="x" * 20),
        ]),
        epoch=2, delta=True,
    )
    r = refresh_group_view(engine.store, view_id="mm", **kw)
    assert r["mode"] == "incremental"
    assert r["recomputed_groups"] == 1  # only 'py' retracted
    st = _norm_mm(r["state"])
    py = st[st["language"] == "py"].iloc[0]
    assert py["content_size_max"] == 100  # true second-best, not 500
    assert py["content_size_min"] == 20
    go = st[st["language"] == "go"].iloc[0]
    assert go["content_size_max"] == 70
    pd.testing.assert_frame_equal(st, _expected_mm(engine.final_state()))

    # chain == scratch
    full = refresh_group_view(engine.store, view_id="mm_full", **kw)
    pd.testing.assert_frame_equal(st, _norm_mm(full["state"]))


def test_minmax_view_group_move_recomputes_both(tmp_path, ray_session):
    """A key moving between groups retracts from the old group (its
    extreme may fall) and asserts into the new one (folds)."""
    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(
        rd.from_arrow([
            _event(1, repo="r/a", path="p1", lang="py", content="x" * 900),
            _event(2, repo="r/a", path="p2", lang="py", content="x" * 40),
            _event(3, repo="r/b", path="q1", lang="go", content="x" * 10),
        ]),
        epoch=1,
    )
    kw = dict(group_cols=GROUP, sum_cols=SUMS, minmax_cols=["content_size"])
    refresh_group_view(engine.store, view_id="mm", **kw)
    # the py max moves to go
    engine.apply_epoch(
        rd.from_arrow([
            _event(10, repo="r/a", path="p1", lang="go", content="x" * 900),
        ]),
        epoch=2, delta=True,
    )
    r = refresh_group_view(engine.store, view_id="mm", **kw)
    st = _norm_mm(r["state"])
    assert st[st["language"] == "py"]["content_size_max"].iloc[0] == 40
    assert st[st["language"] == "go"]["content_size_max"].iloc[0] == 900
    pd.testing.assert_frame_equal(st, _expected_mm(engine.final_state()))


def test_distinct_view_incremental_exact(tmp_path, ray_session):
    """COUNT DISTINCT per group via the pair sub-view: value moves,
    deletes and duplicate values all land exactly; chain == scratch."""
    from arlas_proc_ray.cdc.views import refresh_distinct_view

    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(
        rd.from_arrow([
            _event(1, repo="r/a", path="p1", lang="py", content="X"),
            _event(2, repo="r/a", path="p2", lang="py", content="X"),  # dup value
            _event(3, repo="r/a", path="p3", lang="py", content="Y"),
            _event(4, repo="r/b", path="q1", lang="go", content="Z"),
        ]),
        epoch=1,
    )
    kw = dict(view_id="dv", group_cols=["language"], value_col="content")
    r1 = refresh_distinct_view(engine.store, **kw)
    st = r1["state"].set_index("language")["n_distinct"]
    assert st["py"] == 2 and st["go"] == 1  # X dup collapses

    # epoch 2: delete one X holder (still one left), move Y's doc to go,
    # add a new value W in py
    engine.apply_epoch(
        rd.from_arrow([
            _event(10, repo="r/a", path="p1", op="DELETE"),
            _event(11, repo="r/a", path="p3", lang="go", content="Y"),
            _event(12, repo="r/a", path="p4", lang="py", content="W"),
        ]),
        epoch=2, delta=True,
    )
    r2 = refresh_distinct_view(engine.store, **kw)
    assert r2["mode"] == "incremental"
    st = r2["state"].set_index("language")["n_distinct"]
    # py: X (one holder left) + W = 2; go: Z + Y = 2
    assert st["py"] == 2 and st["go"] == 2

    full = refresh_distinct_view(
        engine.store, view_id="dv_full", group_cols=["language"],
        value_col="content",
    )
    pd.testing.assert_frame_equal(
        r2["state"].reset_index(drop=True),
        full["state"].reset_index(drop=True),
    )


def test_jobs_cli_view(tmp_path, capsys, ray_session):
    import json as _json

    from arlas_proc_ray.jobs import main

    engine = CdcEngine(str(tmp_path / "snap"), DM)
    engine.apply_epoch(
        rd.from_arrow(generate_changelog_tables(
            ChangelogConfig(num_events=1200, num_keys=120, seed=7)
        )),
        epoch=1,
    )
    snap = str(tmp_path / "snap")
    assert main([
        "view", "--snapshot", snap, "--view-id", "v1",
        "--group-by", "language", "--sum", "content_size",
        "--minmax", "content_size", "--full",
    ]) == 0
    out = [_json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    r = out[-1]
    assert r["mode"] == "bootstrap" and r["rows"] > 0
    assert "content_size_min" in r["data"][0]
    # read-only path returns the persisted state
    assert main([
        "view", "--snapshot", snap, "--view-id", "v1", "--read",
    ]) == 0
    out = [_json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["rows"] == r["rows"]
    # distinct mode
    assert main([
        "view", "--snapshot", snap, "--view-id", "v2",
        "--group-by", "language", "--distinct-value", "content_sha256",
    ]) == 0
    out = [_json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["rows"] > 0 and "n_distinct" in out[-1]["data"][0]


def test_topk_view_incremental_with_retraction(tmp_path, ray_session):
    """refresh_topk_view: the incremental top-k equals the from-scratch
    top-k at every epoch, including after a retraction knocks the
    leading value out of a group's top-k (the case approximate top-k
    sketches get wrong)."""
    from arlas_proc_ray.cdc.views import refresh_topk_view

    eng = CdcEngine(str(tmp_path / "snap"), DM)
    # repo g1: lang 'py' leads with 3 paths, 'rs' has 2, 'go' has 1
    ev1 = pa.concat_tables(
        [_event(i, repo="g1", path=f"p{i}", lang=l)
         for i, l in enumerate(["py", "py", "py", "rs", "rs", "go"], 1)]
    )
    eng.apply_epoch(rd.from_arrow(ev1), 1)
    kw = dict(view_id="tk", group_cols=["repo"], value_col="language",
              k=2)
    r1 = refresh_topk_view(eng.store, **kw)
    assert r1["mode"] == "bootstrap"
    assert list(r1["state"]["language"]) == ["py", "rs"]
    assert list(r1["state"]["n_live"]) == [3, 2]

    # epoch 2: delete two 'py' paths -> 'py' falls to 1; top-2 becomes
    # rs(2), go/py tie at 1 broken by value bytes ('go' < 'py')
    ev2 = pa.concat_tables(
        [_event(10 + i, repo="g1", path=f"p{i}", op="DELETE")
         for i in (1, 2)]
    )
    eng.apply_epoch(rd.from_arrow(ev2), 2)
    r2 = refresh_topk_view(eng.store, **kw)
    assert r2["mode"] == "incremental"
    assert list(r2["state"]["language"]) == ["rs", "go"]
    assert list(r2["state"]["n_live"]) == [2, 1]

    # from-scratch rebuild agrees exactly
    rf = refresh_topk_view(eng.store, full=True, **kw)
    pd.testing.assert_frame_equal(r2["state"], rf["state"])
