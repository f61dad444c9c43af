"""MERGE INTO over the snapshot store (cdc/merge.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.cdc.engine import CdcEngine
from arlas_proc_ray.cdc.events import ChangelogConfig, changelog_dataset
from arlas_proc_ray.cdc.merge import merge_into
from arlas_proc_ray.model import DataModel


def _engine(tmp_path, n_events=3000, seed=31, P=8):
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=P))
    eng.apply_epoch(changelog_dataset(ChangelogConfig(num_events=n_events, seed=seed)), 1)
    return eng


def _state(eng) -> pd.DataFrame:
    return (
        eng.final_state()
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def _source_from_state(st: pd.DataFrame, *, mutate_frac=0.3, new_rows=25, lsn0=10_000):
    """Deterministic source: a slice of existing keys with changed content
    plus brand-new keys."""
    take = st.iloc[:: max(1, int(1 / mutate_frac))].copy()
    take["content"] = "MERGED:" + take["path"]
    take["commit"] = "m0"
    take["language"] = take["language"]
    new = pd.DataFrame(
        {
            "repo": [f"newrepo{i}" for i in range(new_rows)],
            "path": [f"new/file_{i}.py" for i in range(new_rows)],
            "commit": ["n0"] * new_rows,
            "language": ["py"] * new_rows,
            "content": [f"NEW:{i}" for i in range(new_rows)],
        }
    )
    src = pd.concat(
        [take[["repo", "path", "commit", "language", "content"]], new],
        ignore_index=True,
    )
    src["lsn"] = np.arange(lsn0, lsn0 + len(src), dtype=np.int64)
    return src


def _oracle_merge(
    st: pd.DataFrame,
    src: pd.DataFrame,
    *,
    when_matched="update",
    when_not_matched="insert",
    by_source="ignore",
    cond=None,
):
    """Plain-pandas MERGE semantics for comparison."""
    import hashlib

    st = st.copy()
    src = src.drop_duplicates(subset=["repo", "path"], keep="last").copy()
    st["_k"] = st["repo"] + "\x01" + st["path"]
    src["_k"] = src["repo"] + "\x01" + src["path"]
    matched = src[src["_k"].isin(set(st["_k"]))]
    if cond is not None:
        pair = matched.merge(st, on="_k", suffixes=("_s", "_t"))
        keep = cond(pair)
        matched = matched[matched["_k"].isin(set(pair.loc[keep, "_k"]))]
    rows = []
    if when_matched == "update":
        kill = set(matched["_k"])
        write = matched
    elif when_matched == "delete":
        kill = set(matched["_k"])
        write = matched.iloc[0:0]
    else:
        kill = set()
        write = matched.iloc[0:0]
    keep_t = st[~st["_k"].isin(kill)]
    if by_source == "delete":
        keep_t = keep_t[keep_t["_k"].isin(set(src["_k"]))]
    ins = (
        src[~src["_k"].isin(set(st["_k"]))]
        if when_not_matched == "insert"
        else src.iloc[0:0]
    )
    for df in (write, ins):
        for _, r in df.iterrows():
            rows.append(
                {
                    "repo": r["repo"],
                    "path": r["path"],
                    "commit": r["commit"],
                    "language": r["language"],
                    "content": r["content"],
                    "content_size": len(r["content"].encode()),
                    "content_sha256": hashlib.sha256(
                        r["content"].encode()
                    ).hexdigest(),
                    "last_lsn": r["lsn"],
                }
            )
    out = pd.concat(
        [keep_t.drop(columns=["_k"]), pd.DataFrame(rows)], ignore_index=True
    )
    return out.sort_values(["repo", "path"]).reset_index(drop=True)


def _assert_state_equal(got: pd.DataFrame, want: pd.DataFrame):
    got = got.sort_values(["repo", "path"]).reset_index(drop=True)
    want = want.sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )


def test_upsert_matches_oracle(tmp_path):
    eng = _engine(tmp_path)
    st = _state(eng)
    src = _source_from_state(st)
    merge_into(eng, rd.from_pandas(src), 2)
    _assert_state_equal(_state(eng), _oracle_merge(st, src))


def test_matched_condition_gates_update(tmp_path):
    eng = _engine(tmp_path)
    st = _state(eng)
    # half the source carries IDENTICAL content → condition filters it out
    src = _source_from_state(st, new_rows=0)
    same = src.iloc[::2].index
    src.loc[same, "content"] = st.set_index(
        st["repo"] + "\x01" + st["path"]
    )["content"].reindex(src.loc[same, "repo"] + "\x01" + src.loc[same, "path"]).to_numpy()
    merge_into(
        eng,
        rd.from_pandas(src),
        2,
        matched_condition="s_content != t_content",
    )
    want = _oracle_merge(
        st, src, cond=lambda p: p["content_s"] != p["content_t"]
    )
    _assert_state_equal(_state(eng), want)
    # unchanged rows kept their original last_lsn (no rewrite)
    got = _state(eng)
    jk = got["repo"] + "\x01" + got["path"]
    same_jk = set(src.loc[same, "repo"] + "\x01" + src.loc[same, "path"])
    untouched = got[jk.isin(same_jk)]
    assert (untouched["last_lsn"] < 10_000).all()


def test_matched_delete(tmp_path):
    eng = _engine(tmp_path)
    st = _state(eng)
    src = _source_from_state(st, new_rows=5)
    merge_into(
        eng, rd.from_pandas(src), 2,
        when_matched="delete", when_not_matched="ignore",
    )
    want = _oracle_merge(
        st, src, when_matched="delete", when_not_matched="ignore"
    )
    _assert_state_equal(_state(eng), want)


def test_full_sync_by_source_delete(tmp_path):
    """when_not_matched_by_source='delete': final state == source exactly."""
    eng = _engine(tmp_path)
    st = _state(eng)
    src = _source_from_state(st, mutate_frac=0.1, new_rows=10)
    merge_into(
        eng, rd.from_pandas(src), 2, when_not_matched_by_source="delete"
    )
    got = _state(eng)
    want = _oracle_merge(st, src, by_source="delete")
    _assert_state_equal(got, want)
    # every surviving key is a source key
    assert set(got["repo"] + "\x01" + got["path"]) == set(
        src["repo"] + "\x01" + src["path"]
    )


def test_duplicate_source_keys_highest_lsn_wins(tmp_path):
    eng = _engine(tmp_path, n_events=500)
    st = _state(eng)
    k = st.iloc[0]
    src = pd.DataFrame(
        {
            "repo": [k["repo"]] * 3,
            "path": [k["path"]] * 3,
            "commit": ["a", "b", "c"],
            "language": ["py"] * 3,
            "content": ["v1", "v2", "v3"],
            "lsn": np.array([100_000, 100_002, 100_001], np.int64),
        }
    )
    merge_into(eng, rd.from_pandas(src), 2)
    got = _state(eng)
    row = got[(got["repo"] == k["repo"]) & (got["path"] == k["path"])].iloc[0]
    assert row["content"] == "v2" and row["last_lsn"] == 100_002


def test_manifests_carry_kernel_metrics(tmp_path):
    """Every manifest of a MERGE epoch, routed or not, has exactly the
    metric keys the apply kernel writes, and the source rows add up."""
    eng = _engine(tmp_path, n_events=500)
    st = _state(eng)
    src = _source_from_state(st.iloc[:4], mutate_frac=1.0, new_rows=2)
    src = pd.concat([src, src.iloc[[0]].assign(lsn=99_999)], ignore_index=True)
    # a full sync writes every partition, most with no source rows
    merge_into(eng, rd.from_pandas(src), 2, when_not_matched_by_source="delete")
    P = eng.dm.num_partitions
    kernel = [eng.store.read_manifest(1, p).metrics for p in range(P)]
    merged = [eng.store.read_manifest(2, p).metrics for p in range(P)]
    assert all(set(m) == set(kernel[0]) for m in kernel + merged)
    assert sum(m["events_in"] for m in merged) == len(src)
    assert sum(m["events_applied"] for m in merged) == len(src) - 1
    assert sum(m["fence_dropped"] for m in merged) == 0


def test_crash_resume_identical(tmp_path):
    cfg = dict(n_events=2000, seed=77)
    eng_a = _engine(tmp_path / "a", **cfg)
    eng_b = _engine(tmp_path / "b", **cfg)
    st = _state(eng_a)
    src = _source_from_state(st)

    merge_into(eng_a, rd.from_pandas(src), 2)

    def hook(epoch, part):
        # runs inside Ray workers — must be stateless/deterministic
        if epoch == 2 and part in (2, 5):
            raise RuntimeError("injected crash")

    eng_b.fault_hook = hook
    with pytest.raises(Exception):
        merge_into(eng_b, rd.from_pandas(src), 2)
    # some partitions committed before the crash, 2/5 did not
    assert not eng_b.store.partition_done(2, 2)
    eng_b.fault_hook = None
    merge_into(eng_b, rd.from_pandas(src), 2)  # resume
    _assert_state_equal(_state(eng_b), _state(eng_a))


def test_untouched_partitions_delta_referenced(tmp_path):
    """A merge touching few partitions must not rewrite the rest."""
    eng = _engine(tmp_path, P=16)
    st = _state(eng)
    src = _source_from_state(st.iloc[:3], mutate_frac=1.0, new_rows=0)
    res = merge_into(eng, rd.from_pandas(src), 2)
    sources = res.get("sources") or {}
    # some partitions reference epoch 1 instead of being rewritten
    assert any(int(e) == 1 for e in sources.values())
    _assert_state_equal(_state(eng), _oracle_merge(st, src))


# ---------------------------------------------------------------------------
# property: _merge_frames == a row-by-row reference MERGE over random data
# (driver-side kernel — no Ray per example)
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from arlas_proc_ray.cdc.merge import _merge_frames

_KEYS = [("r1", "a"), ("r1", "b"), ("r2", "a"), ("r2", "c"), ("r3", "z")]


def _mk_tgt(rows):
    import hashlib

    recs = []
    for i, (k, content) in enumerate(rows):
        recs.append(
            {
                "repo": k[0], "path": k[1], "commit": f"t{i}",
                "language": "py", "content": content,
                "content_size": len(content.encode()),
                "content_sha256": hashlib.sha256(content.encode()).hexdigest(),
                "last_lsn": i,
            }
        )
    import pandas as pd

    return pd.DataFrame(
        recs,
        columns=["repo", "path", "commit", "language", "content",
                 "content_size", "content_sha256", "last_lsn"],
    )


def _mk_src(rows):
    import pandas as pd

    recs = [
        {
            "repo": k[0], "path": k[1], "commit": "s",
            "language": "py", "content": content,
            "lsn": 1000 + i,
        }
        for i, (k, content) in enumerate(rows)
    ]
    return pd.DataFrame(
        recs, columns=["repo", "path", "commit", "language", "content", "lsn"]
    )


def _reference_merge(tgt_rows, src_rows, wm, wnm, wnmbs, cond):
    """Row-by-row reference: dict of key -> (content, lsn, origin)."""
    import hashlib

    state = {k: (c, i, "t") for i, (k, c) in enumerate(tgt_rows)}
    src_last = {}
    for i, (k, c) in enumerate(src_rows):  # highest lsn (later index) wins
        src_last[k] = (c, 1000 + i)
    out = {}
    for k, (c, lsn, _) in state.items():
        if k in src_last:
            sc, slsn = src_last[k]
            passes = cond is None or cond(sc, c)
            if wm == "update" and passes:
                out[k] = (sc, slsn)
            elif wm == "delete" and passes:
                pass  # killed
            else:
                out[k] = (c, lsn)
        else:
            if wnmbs == "delete":
                pass
            else:
                out[k] = (c, lsn)
    if wnm == "insert":
        for k, (sc, slsn) in src_last.items():
            if k not in state:
                out[k] = (sc, slsn)
    return {
        k: (c, lsn, hashlib.sha256(c.encode()).hexdigest())
        for k, (c, lsn) in out.items()
    }


@settings(max_examples=120, deadline=None)
@given(
    tgt=st.lists(
        st.tuples(st.sampled_from(_KEYS), st.sampled_from(["x", "y", "zz"])),
        max_size=5, unique_by=lambda t: t[0],
    ),
    src=st.lists(
        st.tuples(st.sampled_from(_KEYS), st.sampled_from(["x", "q", "zz"])),
        max_size=7,
    ),
    wm=st.sampled_from(["update", "delete", "ignore"]),
    wnm=st.sampled_from(["insert", "ignore"]),
    wnmbs=st.sampled_from(["ignore", "delete"]),
    use_cond=st.booleans(),
)
def test_merge_frames_property(tgt, src, wm, wnm, wnmbs, use_cond):
    cond_expr = "s_content != t_content" if use_cond else None
    cond_fn = (lambda s, t: s != t) if use_cond else None
    got_tbl = _merge_frames(
        _mk_src(src),
        _mk_tgt(tgt),
        key_cols=["repo", "path"],
        when_matched=wm,
        when_not_matched=wnm,
        when_not_matched_by_source=wnmbs,
        matched_condition=cond_expr,
        source_lsn_col="lsn",
        prior_last=len(tgt),
    )
    got = {
        (r["repo"], r["path"]): (r["content"], r["last_lsn"], r["content_sha256"])
        for r in got_tbl.to_pylist()
    }
    want = _reference_merge(tgt, src, wm, wnm, wnmbs, cond_fn)
    assert got == want, f"\ngot:  {got}\nwant: {want}"


def test_jobs_cli_merge(tmp_path, capsys):
    import json

    import pyarrow.parquet as pq

    from arlas_proc_ray.jobs import main

    eng = _engine(tmp_path, n_events=1000)
    st = _state(eng)
    src = _source_from_state(st, new_rows=5)
    src_path = str(tmp_path / "src.parquet")
    pq.write_table(pa.Table.from_pandas(src, preserve_index=False), src_path)

    assert main([
        "merge", "--snapshot", str(tmp_path / "snap"),
        "--source", src_path, "--partitions", "8",
        "--condition", "s_content != t_content",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["epoch"] == 2
    got = _state(CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=8)))
    want = _oracle_merge(st, src, cond=lambda p: p["content_s"] != p["content_t"])
    _assert_state_equal(got, want)
    # rerun: committed-epoch no-op
    assert main([
        "merge", "--snapshot", str(tmp_path / "snap"),
        "--source", src_path, "--partitions", "8", "--epoch", "2",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["already_committed"]
