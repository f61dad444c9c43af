"""Mandated CDC correctness cases (FIXTURES.md §5, 1-4 and 6).

Golden-oracle strategy mirrors the reference's test design: expected outputs
come from an independent in-memory replay, compared with exact equality
after canonical sort (/root/reference/src/test/scala/io/arlas/data/
DataFrameTester.scala:29-57).
"""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from arlas_proc_ray.cdc import (
    ChangelogConfig,
    changelog_dataset,
    generate_changelog_tables,
    oracle_final_state,
    replay_to_dataset,
)
from arlas_proc_ray.model import DataModel

TINY = ChangelogConfig(num_events=800, num_keys=64, num_repos=2, seed=42)
SMALL = ChangelogConfig(num_events=20_000, num_keys=2_000, num_repos=50, seed=42)


def _final_df(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    if df.empty:
        return df
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


def _assert_parity(cfg: ChangelogConfig, dm: DataModel):
    tables = generate_changelog_tables(cfg)
    exp = oracle_final_state(tables).to_pandas()
    got = _final_df(replay_to_dataset(rd.from_arrow(tables), dm))[list(exp.columns)]
    pd.testing.assert_frame_equal(got, exp)


@pytest.mark.parametrize("cfg", [TINY, SMALL], ids=["tiny", "small"])
def test_full_replay_parity(cfg):
    _assert_parity(cfg, DataModel(num_partitions=8))


def test_out_of_order_delivery():
    """Physically permuting delivery order never changes the final state."""
    cfg = TINY
    tables = generate_changelog_tables(cfg)
    exp = oracle_final_state(tables).to_pandas()
    # adversarial permutation: fully reverse each table's physical order
    reversed_tables = [t.take(pa.array(range(t.num_rows - 1, -1, -1))) for t in tables]
    got = _final_df(replay_to_dataset(rd.from_arrow(reversed_tables), DataModel(num_partitions=4)))
    pd.testing.assert_frame_equal(got[list(exp.columns)], exp)


def test_generator_is_chunk_invariant():
    """Counter-based generation: any chunking yields identical events."""
    cfg = TINY
    whole = pa.concat_tables(
        generate_changelog_tables(cfg), promote_options="default"
    ).sort_by("lsn")
    chunked = []
    for lo in range(0, cfg.num_events, 97):
        chunked.extend(generate_changelog_tables(cfg, lo, min(lo + 97, cfg.num_events)))
    chunked = pa.concat_tables(chunked, promote_options="default").sort_by("lsn")
    assert whole.equals(chunked)


def test_changelog_dataset_matches_local_generation():
    cfg = ChangelogConfig(num_events=3_000, num_keys=128, seed=7)
    ds = changelog_dataset(cfg, override_num_blocks=6)
    got = _final_df(replay_to_dataset(ds, DataModel(num_partitions=4)))
    exp = oracle_final_state(generate_changelog_tables(cfg)).to_pandas()
    pd.testing.assert_frame_equal(got[list(exp.columns)], exp)


def test_delete_then_reinsert():
    """Final row is the reinsert; after the delete alone, the key is gone."""
    def ev(lsn, op, content, version=1):
        return {
            "lsn": lsn,
            "op": op,
            "repo": "org/r",
            "path": "a.py",
            "commit": f"c{lsn}",
            "lang": "py",
            "content": content,
            "schema_version": version,
            "delivery_index": lsn,
        }

    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1

    t_insert = pa.Table.from_pylist([ev(1, "INSERT", "v1")], schema=EVENT_SCHEMA_V1)
    t_delete = pa.Table.from_pylist([ev(2, "DELETE", None)], schema=EVENT_SCHEMA_V1)
    t_reinsert = pa.Table.from_pylist([ev(3, "INSERT", "v3")], schema=EVENT_SCHEMA_V1)

    dm = DataModel(num_partitions=2)
    # replay insert+delete only → key absent
    mid = _final_df(replay_to_dataset(rd.from_arrow([t_insert, t_delete]), dm))
    assert len(mid) == 0
    # full replay → the reinsert wins, sha256 of the new content
    full = _final_df(
        replay_to_dataset(rd.from_arrow([t_insert, t_delete, t_reinsert]), dm)
    )
    assert len(full) == 1
    assert full.loc[0, "content"] == "v3"
    assert full.loc[0, "last_lsn"] == 3
    import hashlib

    assert full.loc[0, "content_sha256"] == hashlib.sha256(b"v3").hexdigest()


def test_schema_evolution_mid_stream():
    """v1 (lang) + v2 (language, content_size) mix → final schema is v2."""
    cfg = ChangelogConfig(num_events=1_000, num_keys=400, seed=3, v2_start_lsn=900)
    tables = generate_changelog_tables(cfg)
    assert {t.schema.names[5] for t in tables} == {"lang", "language"}
    exp = oracle_final_state(tables).to_pandas()
    got = _final_df(replay_to_dataset(rd.from_arrow(tables), DataModel(num_partitions=4)))
    pd.testing.assert_frame_equal(got[list(exp.columns)], exp)
    # v1-era survivors must have content_size computed (null-fill + compute)
    v1_rows = got[got.last_lsn < 900]
    assert len(v1_rows) > 0
    assert v1_rows.content_size.notna().all()
    assert (v1_rows.content_size == v1_rows.content.str.len()).all()


def test_skewed_hot_key_correctness():
    """~50% of events hit the monorepo key set; parity must hold."""
    cfg = ChangelogConfig(num_events=10_000, num_keys=500, hot_fraction=0.6, seed=11)
    tables = generate_changelog_tables(cfg)
    hot_share = sum(
        t.to_pandas().repo.eq("org0/monorepo").sum() for t in tables
    ) / cfg.num_events
    assert hot_share > 0.5
    _assert_parity(cfg, DataModel(num_partitions=8))


def test_purge_keys_is_a_fenced_tombstone_epoch(tmp_path):
    """GDPR purge: purge_keys removes exactly the requested keys, wins LWW
    over late replays of their older events, is idempotent on retry of
    the same epoch, and leaves every other key bit-identical."""
    from arlas_proc_ray.cdc import CdcEngine

    cfg = ChangelogConfig(num_events=2_000, num_keys=150, num_repos=4, seed=5)
    dm = DataModel(num_partitions=8)
    eng = CdcEngine(str(tmp_path / "snap"), dm)
    eng.apply_epoch(changelog_dataset(cfg), epoch=1)
    before = eng.final_state().to_pandas().sort_values(["repo", "path"])
    assert len(before) > 20

    victims = before[["repo", "path"]].head(7)
    summary = eng.purge_keys(victims)
    after = eng.final_state().to_pandas().sort_values(["repo", "path"])

    # purged keys gone, everything else untouched
    merged = after.merge(victims, on=["repo", "path"], how="inner")
    assert merged.empty
    keep_exp = (
        before.merge(victims, on=["repo", "path"], how="left", indicator=True)
        .query("_merge == 'left_only'")
        .drop(columns="_merge")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        after.reset_index(drop=True)[list(keep_exp.columns)], keep_exp
    )

    # late replay of the purged keys' ORIGINAL events must not resurrect
    # them: their lsn is below the tombstone watermark
    assert summary["row_count"] == len(keep_exp)
    eng.apply_epoch(changelog_dataset(cfg), epoch=3)
    final = eng.final_state().to_pandas()
    assert final.merge(victims, on=["repo", "path"], how="inner").empty

    # retrying the SAME purge epoch on a fresh engine object is a no-op
    eng2 = CdcEngine(str(tmp_path / "snap"), dm)
    with pytest.raises(ValueError):
        eng2.purge_keys(victims, epoch=2)  # already committed


def test_keys_differing_only_across_the_join_stay_distinct(tmp_path):
    """Two keys whose columns joined with a NUL byte give the same bytes,
    (``"r\\x00"``, ``"x"``) and (``"r"``, ``"\\x00x"``), are two rows: one
    epoch inserts both, a second (a delta epoch over the bases) updates
    one and inserts a third that also joins alike. The engine's final
    state and the LWW replay equal the oracle's, every row kept."""
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.events import EVENT_SCHEMA_V1
    from arlas_proc_ray.cdc.replay import group_ids

    def ev(lsn, repo, path, content):
        return {"lsn": lsn, "op": "INSERT", "repo": repo, "path": path,
                "commit": f"c{lsn}", "lang": "py", "content": content,
                "schema_version": 1, "delivery_index": lsn}

    epochs = [
        [ev(1, "r\x00", "x", "a"), ev(2, "r", "\x00x", "b")],
        [ev(3, "r", "\x00x", "c"), ev(4, "r\x00\x00", "x", "d"),
         ev(5, "r:1", "x", "e"), ev(6, "r", "1:x", "f")],
    ]
    tables = [pa.Table.from_pylist(e, schema=EVENT_SCHEMA_V1) for e in epochs]
    assert len(set(group_ids(pa.concat_tables(tables), ["repo", "path"]))) == 5
    # every key of two strings of up to 3 bytes over NUL, 0x01 and "a" is
    # its own group
    import itertools

    words = ["".join(w) for n in range(4)
             for w in itertools.product("\x00\x01a", repeat=n)]
    keys = pa.table({"repo": [a for a in words for _ in words],
                     "path": [b for _ in words for b in words]})
    assert len(set(group_ids(keys, ["repo", "path"]))) == len(words) ** 2
    eng = CdcEngine(str(tmp_path / "snap"), DataModel(num_partitions=4))
    for e, t in enumerate(tables, start=1):
        eng.apply_epoch_staged(rd.from_arrow(t), epoch=e)
        exp = oracle_final_state(tables[:e]).to_pandas()
        got = eng.final_state().to_pandas()[list(exp.columns)]
        pd.testing.assert_frame_equal(got, exp)
    assert len(exp) == 5
    replayed = replay_to_dataset(rd.from_arrow(tables),
                                 DataModel(num_partitions=4)).to_pandas()
    # sorted as Python orders the key tuples (pandas' sort misplaces a
    # string that a NUL byte ends)
    order = sorted(range(len(replayed)), key=lambda i: (
        replayed["repo"].iloc[i], replayed["path"].iloc[i]))
    pd.testing.assert_frame_equal(
        replayed.iloc[order].reset_index(drop=True)[list(exp.columns)], exp)
