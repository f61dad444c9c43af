"""ray-job entry points: synthesize -> replay (resume-safe) -> verify."""

import json

import pandas as pd


def test_jobs_cli_roundtrip(tmp_path, capsys):
    from arlas_proc_ray.cdc import (
        ChangelogConfig,
        generate_changelog_tables,
        oracle_final_state,
    )
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    n = 3000

    assert main(["synthesize", "--out", log, "--events", str(n)]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "8",
    ]) == 0
    # idempotent re-run: same epoch again is a no-op resume
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "8",
    ]) == 0
    assert main(["verify", "--snapshot", snap]) == 0
    assert main(["stats", "--snapshot", snap]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    stats = out[-1]
    assert stats["partitions"] == 8 and stats["row_count"] > 0
    assert stats["columns"]["last_lsn"][1] <= n - 1
    assert out[-2]["ok"] and out[-2]["epoch"] == 1

    # final state row count matches the pure-Python oracle for the same
    # deterministic changelog
    exp = oracle_final_state(
        generate_changelog_tables(ChangelogConfig(num_events=n, num_keys=max(1000, n // 20), seed=42))
    )
    assert out[-2]["rows"] == exp.num_rows
    assert stats["row_count"] == exp.num_rows


def test_jobs_cli_purge(tmp_path, capsys):
    import pyarrow.parquet as pq

    from arlas_proc_ray.cdc import CdcEngine
    from arlas_proc_ray.jobs import main
    from arlas_proc_ray.model import DataModel

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "2000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "8",
    ]) == 0

    eng = CdcEngine(snap, DataModel(num_partitions=8))
    before = eng.final_state().to_pandas()
    victims = before[["repo", "path"]].head(5)
    vf = str(tmp_path / "victims.parquet")
    import pyarrow as pa

    pq.write_table(pa.Table.from_pandas(victims, preserve_index=False), vf)

    assert main([
        "purge", "--keys", vf, "--snapshot", snap, "--partitions", "8",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["row_count"] == len(before) - 5

    after = eng.final_state().to_pandas()
    assert after.merge(victims, on=["repo", "path"], how="inner").empty

    # resubmitting the same purge epoch is a committed no-op
    assert main([
        "purge", "--keys", vf, "--snapshot", snap,
        "--epoch", "2", "--partitions", "8",
    ]) == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2.get("already_committed") is True


def test_jobs_cli_scan(tmp_path, capsys):
    """scan subcommand: pruned export honors --where and counts/exports."""
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "2000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "8",
    ]) == 0
    # count-only scan with a predicate on repo, with row-group explain
    assert main([
        "scan", "--snapshot", snap, "--where", "repo:==:org0/monorepo",
        "--columns", "repo,path,last_lsn", "--explain",
    ]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    sc = lines[-1]
    assert sc["files_read"] <= sc["partitions_total"]
    assert sc["rows"] > 0
    rg = sc["row_groups"]
    assert rg["row_groups_matching"] <= rg["row_groups_total"]
    assert rg["rows_matching"] >= sc["rows"]

    # export to parquet, changed-rows-only from lsn 0 == everything
    out_dir = str(tmp_path / "export")
    assert main([
        "scan", "--snapshot", snap, "--out", out_dir,
        "--changed-since-lsn", "-1", "--changed-rows-only",
    ]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    import pyarrow.dataset as pads

    n = pads.dataset(out_dir).count_rows()
    assert n > 0 and lines[-1]["out"] == out_dir


def test_jobs_cli_publish_es_dry_run(tmp_path, capsys):
    import ray.data as rd

    from arlas_proc_ray.cdc import (
        CdcEngine,
        ChangelogConfig,
        generate_changelog_tables,
        read_publish_checkpoint,
    )
    from arlas_proc_ray.jobs import main
    from arlas_proc_ray.model import DataModel

    snap = str(tmp_path / "snap")
    engine = CdcEngine(snap, DataModel(num_partitions=4))
    engine.apply_epoch(
        rd.from_arrow(
            generate_changelog_tables(
                ChangelogConfig(num_events=1_500, num_keys=150, seed=9)
            )
        ),
        epoch=1,
    )
    assert main(["publish-es", "--snapshot", snap, "--index", "code",
                 "--dry-run"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["mode"] == "bootstrap"
    assert out["indexed"] == engine.final_state().num_rows
    # a dry run moves NO checkpoint: the next real publish still bootstraps
    assert read_publish_checkpoint(engine.store, "default") is None


def test_jobs_cli_feed(tmp_path, capsys):
    """feed subcommand: I/U/D changelog between two epochs, count + export."""
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    log2 = str(tmp_path / "log2")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "2000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "8",
    ]) == 0
    assert main(["synthesize", "--out", log2, "--events", "2500"]) == 0
    assert main([
        "replay", "--events", log2, "--snapshot", snap,
        "--epoch", "2", "--partitions", "8",
    ]) == 0
    assert main(["feed", "--snapshot", snap, "--base", "1"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines[-1]["rows"] > 0

    out_dir = str(tmp_path / "feed_out")
    assert main([
        "feed", "--snapshot", snap, "--base", "1", "--target", "2",
        "--columns", "content_sha256,last_lsn",
        "--include-old", "content_sha256,last_lsn",
        "--out", out_dir,
    ]) == 0
    import pyarrow.dataset as pads

    t = pads.dataset(out_dir).to_table()
    assert t.num_rows == lines[-1]["rows"]
    assert "old_content_sha256" in t.column_names
    assert set(t.column("op").to_pylist()) <= {"I", "U", "D"}


def test_jobs_cli_purge_where(tmp_path, capsys):
    """Predicate purge: every live row of one repo dies via the pruned
    scan → tombstone-epoch path; oracle = pandas filter."""
    from arlas_proc_ray.cdc import CdcEngine
    from arlas_proc_ray.jobs import main
    from arlas_proc_ray.model import DataModel

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "2000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "8",
    ]) == 0
    eng = CdcEngine(snap, DataModel(num_partitions=8))
    before = eng.final_state().to_pandas()
    victim_repo = before["repo"].value_counts().index[0]
    n_victims = int((before["repo"] == victim_repo).sum())
    assert n_victims > 1

    assert main([
        "purge", "--where", f"repo:==:{victim_repo}",
        "--snapshot", snap, "--partitions", "8",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["purged_keys"] == n_victims
    after = eng.final_state().to_pandas()
    assert (after["repo"] != victim_repo).all()
    assert len(after) == len(before) - n_victims

    # no matches → noop, no new epoch
    tip = eng.store.latest_committed_epoch()
    assert main([
        "purge", "--where", "repo:==:no_such_repo",
        "--snapshot", snap, "--partitions", "8",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["noop"] and eng.store.latest_committed_epoch() == tip


def test_jobs_cli_constraints(tmp_path, capsys):
    """--check declares a table constraint at ingest; the persisted set
    binds later writers; `jobs constraints` shows and updates it."""
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    dlq = str(tmp_path / "dlq")

    assert main(["synthesize", "--out", log, "--events", "3000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "4",
        "--check", "no_md:language:!=:md",
        "--on-violation", "dead_letter", "--dead-letter-dir", dlq,
    ]) == 0
    assert main(["constraints", "--snapshot", snap]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["constraints"] == {"no_md": [["language", "!=", "md"]]}
    # the committed state contains no banned rows, the DLQ does
    import pyarrow.parquet as pq

    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.cdc.replay import read_dead_letters
    from arlas_proc_ray.model import DataModel

    eng = CdcEngine(snap, DataModel(num_partitions=4))
    state = eng.final_state().to_pandas()
    assert (state["language"] != "md").all()
    assert read_dead_letters(dlq).num_rows > 0

    # explicit contract update via the CLI
    assert main([
        "constraints", "--snapshot", snap, "--set",
        "--check", "no_md:language:!=:md",
        "--check", "content_set:content:not_null",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["constraints"]["content_set"] == [
        ["content", "not_null", None]
    ]


def test_jobs_cli_view_topk(tmp_path, capsys):
    """jobs view --topk K --distinct-value COL: incremental per-group
    heavy hitters from the command line."""
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "3000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "4",
    ]) == 0
    assert main([
        "view", "--snapshot", snap, "--view-id", "tk",
        "--group-by", "repo", "--distinct-value", "language",
        "--topk", "2", "--full",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    r = out[-1]
    assert r["mode"] == "bootstrap" and r["rows"] > 0
    per_repo = {}
    for row in r["data"]:
        per_repo.setdefault(row["repo"], []).append(row["n_live"])
    assert all(len(v) <= 2 for v in per_repo.values())
    assert all(v == sorted(v, reverse=True) for v in per_repo.values())


def test_jobs_cli_wap(tmp_path, capsys):
    """replay --stage withholds the commit; jobs publish audits then
    publishes; a failed audit discards."""
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "3000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "4", "--stage",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["staged"] is True
    # nothing committed yet
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.model import DataModel

    eng = CdcEngine(snap, DataModel(num_partitions=4))
    assert eng.store.latest_committed_epoch() is None
    # audit + publish
    assert main([
        "publish", "--snapshot", snap, "--epoch", "1",
        "--partitions", "4", "--min-rows", "1",
        "--expect", "content_set:content:not_null",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["published"] and out[-1]["audit"]["ok"]
    assert eng.store.latest_committed_epoch() == 1


def test_jobs_cli_curate(tmp_path, capsys):
    """jobs curate: the full curation pipeline (+ mixture) from the CLI."""
    from arlas_proc_ray.jobs import main

    out_dir = str(tmp_path / "curated")
    assert main([
        "curate", "--input", "/root/testdata/sf0.001/documents.parquet",
        "--out", out_dir,
        "--languages", "en,fr,unknown", "--jaccard", "0.5",
        "--partitions", "4", "--mixture", "en:70,unknown:30",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    stats = out[-1]
    assert stats["input_docs"] == 500
    assert stats["mixture_docs"] > 0
    import glob

    import pyarrow.parquet as pq

    files = glob.glob(out_dir + "/**/*.parquet", recursive=True)
    rows = sum(pq.read_metadata(f).num_rows for f in files)
    assert rows == stats["mixture_docs"]


def test_jobs_cli_index(tmp_path, capsys):
    """jobs index: secondary-index refresh from the CLI (bootstrap then
    incremental after another epoch)."""
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    snap = str(tmp_path / "snap")
    assert main(["synthesize", "--out", log, "--events", "2000"]) == 0
    assert main([
        "replay", "--events", log, "--snapshot", snap,
        "--epoch", "1", "--partitions", "4",
    ]) == 0
    assert main([
        "index", "--snapshot", snap, "--kind", "secondary",
        "--value-col", "language", "--partitions", "4",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["mode"] == "bootstrap"

    log2 = str(tmp_path / "log2")
    assert main(["synthesize", "--out", log2, "--events", "2400",
                 "--lo", "2000", "--hi", "2400"]) == 0
    assert main([
        "replay", "--events", log2, "--snapshot", snap,
        "--epoch", "2", "--partitions", "4",
    ]) == 0
    assert main([
        "index", "--snapshot", snap, "--kind", "secondary",
        "--value-col", "language", "--partitions", "4",
    ]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-1]["mode"] == "incremental"


def test_jobs_cli_history(tmp_path, capsys):
    """jobs history: per-epoch lineage from manifests only, delta epochs
    reporting referenced (not rewritten) partitions."""
    import ray.data as rd

    from arlas_proc_ray.cdc import ChangelogConfig, generate_changelog_tables
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.jobs import main
    from arlas_proc_ray.model import DataModel

    tables = generate_changelog_tables(
        ChangelogConfig(num_events=2000, num_keys=200, seed=31)
    )
    snap = str(tmp_path / "snap")
    eng = CdcEngine(snap, DataModel(num_partitions=4))
    eng.apply_epoch(rd.from_arrow(tables[0]), 1)
    # delta epoch touching few keys: some partitions referenced
    small = tables[1].slice(0, 20)
    eng.apply_epoch(rd.from_arrow(small), 2, delta=True)

    assert main(["history", "--snapshot", snap]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    h = out[-1]["history"]
    assert [r["epoch"] for r in h] == [1, 2]
    assert h[0]["partitions_rewritten"] == 4
    assert h[0]["events_applied"] > 0
    assert h[1]["partitions_referenced"] >= 0
    assert h[1]["row_count"] >= h[0]["row_count"] - 20
    # epoch 2 applied at most the 20 delta events
    assert h[1]["events_applied"] <= 20


def test_jobs_cli_sync(tmp_path, capsys):
    from arlas_proc_ray.jobs import main

    log = str(tmp_path / "log")
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    assert main(["synthesize", "--out", log, "--events", "2000"]) == 0
    assert main(["replay", "--events", log, "--snapshot", src,
                 "--epoch", "1", "--partitions", "4"]) == 0
    assert main(["sync", "--snapshot", src, "--dest", dst]) == 0
    assert main(["sync", "--snapshot", src, "--dest", dst]) == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert out[-2]["mode"] == "bootstrap"
    assert out[-1]["mode"] == "noop"
    assert main(["verify", "--snapshot", dst]) == 0


def test_jobs_replay_commits_exactly_its_epoch_under_a_small_budget(
    tmp_path, capsys, monkeypatch
):
    """Two daily ``jobs replay`` runs, epochs 1 and 2, with an object-store
    budget so small that an auto-splitting apply would commit day 1 as
    epochs 1..3. ``replay`` must commit exactly ``--epoch``: otherwise the
    job's idempotence check reports day 2 as already committed and its
    events are never applied."""
    from arlas_proc_ray.cdc import (
        ChangelogConfig,
        generate_changelog_tables,
        oracle_final_state,
        sizing,
    )
    from arlas_proc_ray.cdc.engine import CdcEngine
    from arlas_proc_ray.jobs import main
    from arlas_proc_ray.model import DataModel
    from arlas_proc_ray.sources.io import read_parquet

    n, keys = 2000, 400
    days = [str(tmp_path / "day1"), str(tmp_path / "day2")]
    for day, (lo, hi) in zip(days, [(0, n // 2), (n // 2, n)]):
        assert main([
            "synthesize", "--out", day, "--events", str(n),
            "--keys", str(keys), "--lo", str(lo), "--hi", str(hi),
        ]) == 0
    day1_bytes = read_parquet(days[0]).materialize().size_bytes()
    budget = 4 * day1_bytes
    assert sizing.plan_epoch_chunks(day1_bytes, budget).chunks > 1
    monkeypatch.setattr(sizing, "object_store_bytes", lambda *a, **k: budget)
    capsys.readouterr()

    snap = str(tmp_path / "snap")
    for epoch, day in enumerate(days, start=1):
        assert main([
            "replay", "--events", day, "--snapshot", snap,
            "--epoch", str(epoch), "--partitions", "8",
        ]) == 0
    day1, day2 = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert day1["epoch"] == 1 and "auto_split" not in day1
    assert day2["epoch"] == 2 and not day2.get("already_committed")

    got = CdcEngine(snap, DataModel(num_partitions=8)).final_state()
    exp = oracle_final_state(generate_changelog_tables(
        ChangelogConfig(num_events=n, num_keys=keys, seed=42)
    ))
    pd.testing.assert_frame_equal(got.to_pandas(), exp.to_pandas())
