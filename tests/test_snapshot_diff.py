"""snapshot_diff (cdc/diff.py) — changelog between two table states.

Pins the round-trip property: applying the emitted I/U/D rows to ``old``
LWW-style reproduces ``new`` exactly (the operator is the inverse of the
CDC apply engine), plus null-safe compare semantics, the raw-stream LWW
mode, duplicate-key rejection, and NUL-byte key exactness. The
classification tests run both entry points of the one I/U/D kernel —
``snapshot_diff`` over Datasets and ``diff_state_tables`` over two
co-located tables — and require the same rows from each.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.cdc.diff import diff_state_tables, snapshot_diff


def _df(rows, cols=("repo", "path", "lang", "content")):
    return pd.DataFrame(rows, columns=list(cols))


def _sorted(out: pd.DataFrame) -> pd.DataFrame:
    return out.sort_values(["op", "repo", "path"]).reset_index(drop=True)


def _run(old, new, **kw):
    kw.setdefault("key", ["repo", "path"])
    kw.setdefault("compare", ["lang", "content"])
    kw.setdefault("num_partitions", 4)
    out = snapshot_diff(rd.from_pandas(old), rd.from_pandas(new), **kw)
    return _sorted(out.to_pandas())


def _local(old, new):
    """``diff_state_tables`` over the same two states as local tables."""
    return _sorted(diff_state_tables(
        pa.Table.from_pandas(old, preserve_index=False),
        pa.Table.from_pandas(new, preserve_index=False),
        key_cols=["repo", "path"], compare_cols=["lang", "content"],
    ))


def _run_both(old, new):
    """The rows of both entry points of the kernel, which must agree."""
    out = _run(old, new)
    pd.testing.assert_frame_equal(_local(old, new), out)
    return out


def _apply_diff(old: pd.DataFrame, diff: pd.DataFrame, key) -> pd.DataFrame:
    """Independent LWW oracle: upsert I/U images, drop D keys."""
    key = list(key)
    upserts = diff.loc[diff["op"].isin(["I", "U"])].drop(columns=["op"])
    deletes = diff.loc[diff["op"] == "D", key]
    kept = old.merge(
        pd.concat([upserts[key], deletes], ignore_index=True),
        on=key,
        how="left",
        indicator=True,
    )
    kept = kept.loc[kept["_merge"] == "left_only"].drop(columns=["_merge"])
    return (
        pd.concat([kept, upserts], ignore_index=True)
        .sort_values(key)
        .reset_index(drop=True)
    )


def test_classify_insert_update_delete():
    old = _df(
        [
            ("a", "x", "py", "1"),
            ("a", "y", "py", "2"),
            ("b", "z", "go", "3"),
            ("c", "w", "rs", "4"),
        ]
    )
    new = _df(
        [
            ("a", "x", "py", "1"),      # unchanged -> no row
            ("a", "y", "java", "22"),   # U
            ("b", "z", "go", "3"),      # unchanged
            ("d", "q", "c", "5"),       # I
        ]
    )
    out = _run_both(old, new)
    assert out["op"].tolist() == ["D", "I", "U"]
    # D carries the OLD image, I/U the NEW image
    assert out.loc[out["op"] == "D", "content"].tolist() == ["4"]
    assert out.loc[out["op"] == "I", "repo"].tolist() == ["d"]
    assert out.loc[out["op"] == "U", "lang"].tolist() == ["java"]


def test_round_trip_random():
    rng = np.random.default_rng(7)
    keys = [(f"r{i % 13}", f"p{i}") for i in range(300)]
    old = pd.DataFrame(
        {
            "repo": [k[0] for k in keys],
            "path": [k[1] for k in keys],
            "lang": rng.choice(["py", "go", "rs"], 300),
            "content": [f"c{v}" for v in rng.integers(0, 50, 300)],
        }
    )
    # new: drop 60 keys, mutate ~half the rest, add 80 fresh keys
    new = old.sample(n=240, random_state=3).copy()
    mut = rng.random(len(new)) < 0.5
    new.loc[mut, "content"] = [f"m{v}" for v in rng.integers(0, 50, mut.sum())]
    fresh = pd.DataFrame(
        {
            "repo": [f"nr{i % 7}" for i in range(80)],
            "path": [f"np{i}" for i in range(80)],
            "lang": "zig",
            "content": [f"f{i}" for i in range(80)],
        }
    )
    new = pd.concat([new, fresh], ignore_index=True)

    diff = _run(old, new)
    assert set(diff["op"]) <= {"I", "U", "D"}
    assert (diff["op"] == "I").sum() == 80
    assert (diff["op"] == "D").sum() == 60
    replayed = _apply_diff(old, diff, ["repo", "path"])
    expect = new.sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        replayed[expect.columns].reset_index(drop=True), expect
    )


def test_null_safe_compare():
    old = _df(
        [
            ("a", "x", None, "1"),
            ("a", "y", "py", None),
            ("a", "z", None, None),
        ]
    )
    new = _df(
        [
            ("a", "x", "py", "1"),   # null -> value = U
            ("a", "y", "py", None),  # null == null (content) = unchanged
            ("a", "z", None, "9"),   # value appears = U
        ]
    )
    out = _run_both(old, new)
    assert out["op"].tolist() == ["U", "U"]
    assert sorted(out["path"]) == ["x", "z"]


def test_duplicate_keys_raise():
    old = _df([("a", "x", "py", "1"), ("a", "x", "py", "2")])
    new = _df([("a", "x", "py", "1")])
    with pytest.raises(Exception):  # surfaces as RayTaskError(ValueError)
        _run(old, new)
    with pytest.raises(ValueError, match="not unique"):
        _local(old, new)


def test_lsn_mode_raw_streams():
    """Two RAW change streams are LWW-snapshotted and diffed in one pass."""
    old = pd.DataFrame(
        {
            "repo": ["a", "a", "b"],
            "path": ["x", "x", "z"],
            "lsn": [1, 5, 2],
            "lang": ["py", "py", "go"],
            "content": ["0", "1", "3"],
        }
    )
    new = pd.DataFrame(
        {
            "repo": ["a", "b", "b", "c"],
            "path": ["x", "z", "z", "q"],
            "lsn": [7, 9, 8, 4],
            "lang": ["py", "go", "go", "c"],
            "content": ["1", "33", "9", "5"],
        }
    )
    out = _run(old, new, lsn_col="lsn")
    # old LWW: (a,x)->1, (b,z)->3 ; new LWW: (a,x)->1, (b,z)->33, (c,q)->5
    assert out["op"].tolist() == ["I", "U"]
    assert out.loc[out["op"] == "U", "content"].tolist() == ["33"]
    assert out.loc[out["op"] == "I", "repo"].tolist() == ["c"]
    assert "lsn" not in out.columns


def test_nul_byte_keys_stay_distinct():
    old = _df([("a", "x", "py", "1"), ("a", "x\x00", "py", "2")])
    new = _df([("a", "x", "py", "1"), ("a", "x\x00", "py", "CHANGED")])
    out = _run_both(old, new)
    assert out["op"].tolist() == ["U"]
    assert out["path"].tolist() == ["x\x00"]
    assert out["content"].tolist() == ["CHANGED"]


def test_empty_diff_is_typed_empty():
    old = _df([("a", "x", "py", "1")])
    out = snapshot_diff(
        rd.from_pandas(old),
        rd.from_pandas(old.copy()),
        key=["repo", "path"],
        compare=["lang", "content"],
        num_partitions=4,
    )
    # Dataset-level schema survives even when every partition is empty
    # (to_pandas() on an all-empty dataset drops columns — assert upstream)
    assert out.count() == 0
    assert out.schema().names == ["repo", "path", "lang", "content", "op"]


def test_lineage_table(tmp_path):
    """lineage() lists every committed manifest with live/fence fields
    consistent with the store's own resolution."""
    from arlas_proc_ray.cdc import ChangelogConfig, CdcEngine, changelog_dataset
    from arlas_proc_ray.model import DataModel

    dm = DataModel(num_partitions=4)
    eng = CdcEngine(str(tmp_path / "s"), dm)
    cfg = ChangelogConfig(num_events=1_000, num_keys=100, seed=2)
    eng.apply_epoch(changelog_dataset(cfg), epoch=1)
    cfg2 = ChangelogConfig(num_events=2_000, num_keys=100, seed=2)
    eng.apply_epoch(
        changelog_dataset(cfg2, lo=1_000, hi=2_000), epoch=2, delta=True
    )

    lin = eng.store.lineage().to_pandas()
    assert set(lin["epoch"]) == {1, 2}
    assert lin["committed"].all()
    # the live rows are each partition's base and segments in the epoch
    # index: one per partition and one more per segment of its chain
    live = lin[lin["live"]]
    index = eng.store.epoch_index(2)
    assert len(live) == sum(1 + len(m.chain) for m in index)
    got = {}
    for p, e in zip(live["partition_id"].astype(int), live["epoch"].astype(int)):
        got.setdefault(p, set()).add(e)
    assert got == {p: {m.epoch, *(s.epoch for s in m.chain)}
                   for p, m in enumerate(index)}
    # fence watermarks are monotone per partition across epochs
    for p, grp in lin.sort_values("epoch").groupby("partition_id"):
        assert grp["last_lsn"].is_monotonic_increasing
    # each partition's newest live row counts its resolved rows, and
    # those sum to the final state size
    newest = live.sort_values("epoch").groupby("partition_id").tail(1)
    assert newest["row_count"].sum() == eng.final_state().num_rows
