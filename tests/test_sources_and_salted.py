import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from arlas_proc_ray.sources import (
    read_csv,
    read_parquet,
    write_csv_single,
    write_partitioned_parquet,
)
from arlas_proc_ray.stages.salted import salted_aggregate


def test_parquet_roundtrip_partitioned(tmp_path):
    df = pd.DataFrame({"k": ["a", "a", "b"], "part": [1, 2, 1], "v": [1.0, 2.0, 3.0]})
    out = str(tmp_path / "pq")
    write_partitioned_parquet(rd.from_pandas(df), out, partition_col="part")
    back = read_parquet(out, columns=["k", "v", "part"]).to_pandas()
    assert len(back) == 3
    assert sorted(back["v"]) == [1.0, 2.0, 3.0]


def test_csv_roundtrip(tmp_path):
    p = str(tmp_path / "x.csv")
    pd.DataFrame({"a": [1, 2], "b": ["x", "y"]}).to_csv(p, index=False)
    ds = read_csv(p)
    assert ds.count() == 2
    # write_csv_single stringifies list columns
    df = pd.DataFrame({"a": [1], "tags": [["t1", "t2"]]})
    out = write_csv_single(rd.from_pandas(df), str(tmp_path / "o.csv"))
    assert "[t1,t2]" in open(out).read()


def test_salted_aggregate_hot_key():
    """A single hot key split across salts still aggregates exactly."""
    n = 10_000
    df = pd.DataFrame(
        {
            "k": np.where(np.arange(n) % 10 < 8, "HOT", "cold"),  # 80% one key
            "v": np.arange(n, dtype="int64"),
        }
    )

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("k")
        return g.agg(s=("v", "sum"), n=("v", "count")).reset_index()

    def merge(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("k")
        return g.agg(s=("s", "sum"), n=("n", "sum")).reset_index()

    out = (
        salted_aggregate(
            rd.from_pandas(df),
            keys=["k"],
            partial_fn=partial,
            merge_fn=merge,
            salt=4,
            num_partitions=8,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = df.groupby("k").agg(s=("v", "sum"), n=("v", "count")).reset_index()
    pd.testing.assert_frame_equal(out, exp.sort_values("k").reset_index(drop=True))


def test_detect_hot_keys_and_targeted_salting():
    import numpy as np

    from arlas_proc_ray.stages.salted import detect_hot_keys, salted_aggregate

    rng = np.random.RandomState(11)
    # one hot key holding 40% of rows, 200 cold keys sharing the rest
    n = 10_000
    hot_rows = int(n * 0.4)
    keys = ["HOT"] * hot_rows + [f"k{rng.randint(200)}" for _ in range(n - hot_rows)]
    df = pd.DataFrame({"k": keys, "v": rng.randint(0, 100, n)})
    ds = rd.from_pandas(df)

    hot = detect_hot_keys(ds, ["k"], min_fraction=0.05)
    assert hot["k"].tolist() == ["HOT"]
    assert hot["count"].iloc[0] == hot_rows

    # targeted salting: exact distinct-count per key, hot key split 8 ways
    def partial(pdf):
        return (
            pdf.groupby("k", sort=False)["v"]
            .agg(lambda s: list(set(s)))
            .reset_index(name="vals")
        )

    def merge(pdf):
        out = (
            pdf.groupby("k", sort=False)["vals"]
            .agg(lambda lists: len(set().union(*lists)))
            .reset_index(name="n_distinct")
        )
        return out

    got = (
        salted_aggregate(
            rd.from_pandas(df), keys=["k"], partial_fn=partial, merge_fn=merge,
            salt=8, num_partitions=8, hot_keys="auto", hot_fraction=0.05,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = (
        df.groupby("k")["v"].nunique().reset_index(name="n_distinct")
        .sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)


def _parquet_cases(tmp_path):
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    df = pd.DataFrame({"k": ["a", "b", None, "d", "e"],
                       "v": [1.0, None, 3.0, 4.0, 5.0],
                       "n": [5, 4, 3, 2, 1]})
    plain = str(tmp_path / "plain.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False)
                   .replace_schema_metadata(None), plain, row_group_size=2)
    pandas_written = str(tmp_path / "pandas.parquet")
    df.to_parquet(pandas_written)
    assert pq.read_schema(pandas_written).metadata  # the pandas dict
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False)
                   .replace_schema_metadata(None).slice(0, 0), empty)
    return {
        "plain": ([plain], {}),
        "columns": ([plain], {"columns": ["n", "k"]}),
        "filter_outside_columns": (
            [plain], {"columns": ["k"], "filter_expr": pds.field("n") > 2}),
        "filter": ([plain], {"filter_expr": pds.field("v") >= 3.0}),
        "pandas_metadata": ([pandas_written], {"columns": ["v", "k"]}),
        "pandas_metadata_all": ([pandas_written], {}),
        "pandas_filter_outside_columns": (
            [pandas_written], {"columns": ["k"],
                               "filter_expr": pds.field("n") > 2}),
        "empty": ([empty], {}),
        "two_files": ([plain, pandas_written], {}),
    }


def _read_spied(monkeypatch, paths, kw):
    """``read_parquet(paths, **kw)``'s rows, schema and count as Ray runs
    it, the rows of its held tables (``sizing.held``; None when it is not
    a held read), and whether it called Ray's read."""
    from arlas_proc_ray.cdc import sizing
    from arlas_proc_ray.sources import io

    calls = []
    ray_read = io.rd.read_parquet
    with monkeypatch.context() as m:
        m.setattr(io.rd, "read_parquet",
                  lambda *a, **k: calls.append(a) or ray_read(*a, **k))
        ds = read_parquet(paths[0] if len(paths) == 1 else paths, **kw)
        tables = sizing.held(ds)
        held = (None if tables is None
                else pa.concat_tables(tables).to_pandas())
        return (ds.to_pandas(), ds.schema().base_schema, ds.count(), held,
                bool(calls))


def test_parquet_read_in_process_equals_ray_read(tmp_path, monkeypatch):
    """A local read Ray would run as one task within ``INLINE_BYTES`` is a
    held read that returns what Ray's read returns (forced with
    ``INLINE_BYTES = -1``), whether it is decoded in the caller
    (``sizing.held``) or run by Ray's read tasks: the same rows in the
    same order, the same schema and column order, the same count, for
    projections, filters (also on a column outside the projection), a
    pandas-written file whose schema carries metadata, an empty file and
    a list of two files (whose rows Ray's parallel tasks may return in
    either order). Neither leg keeps a pandas-written file's metadata,
    also where the filter references a non-projected column and Ray's
    scan takes no schema."""
    from arlas_proc_ray.cdc import sizing

    monkeypatch.setattr(sizing, "session_cpus", lambda: 1)  # two files: one task
    for name, (paths, kw) in _parquet_cases(tmp_path).items():
        fast, fast_schema, fast_n, fast_held, fast_ray = _read_spied(
            monkeypatch, paths, kw)
        with monkeypatch.context() as m:
            m.setattr(sizing, "INLINE_BYTES", -1)
            slow, slow_schema, slow_n, slow_held, slow_ray = _read_spied(
                monkeypatch, paths, kw)
        assert not fast_ray and slow_ray, name
        assert fast_held is not None and slow_held is None, name
        assert fast_schema.metadata is None, name
        assert slow_schema.metadata is None, name
        assert fast_schema.equals(slow_schema), (name, fast_schema, slow_schema)
        assert fast_n == slow_n, name
        if len(paths) > 1:  # Ray's tasks may finish in either order
            fast, slow, fast_held = (
                f.sort_values(list(f.columns), ignore_index=True)
                for f in (fast, slow, fast_held))
        pd.testing.assert_frame_equal(fast, slow, obj=name)
        if len(slow):
            pd.testing.assert_frame_equal(fast_held, slow, obj=name)
        else:  # Ray's frame of no rows has no columns
            assert fast_held.empty, name
            assert list(fast_held.columns) == slow_schema.names, name
    inline = read_parquet(_parquet_cases(tmp_path)["plain"][0][0])
    assert inline._logical_plan.dag.name == "ReadHeld"
    assert sizing.held(inline) is not None


def test_parquet_reads_that_stay_on_ray(tmp_path, monkeypatch):
    """Ray's read stays for a ``k=v`` path segment (Ray adds the hive
    column), ``min_parallelism`` past 1, any other ``rd.read_parquet``
    option, a directory, and a read whose footers state more than
    ``INLINE_BYTES`` decoded; a one-file read under the bound takes the
    in-process path on the 4-CPU session too, and two files there are
    two tasks."""
    import pyarrow.parquet as pq

    from arlas_proc_ray.cdc import sizing

    cases = _parquet_cases(tmp_path)
    plain = cases["plain"][0][0]
    hive = tmp_path / "day=3"
    hive.mkdir()
    pq.write_table(pq.read_table(plain), str(hive / "x.parquet"))
    *_, called = _read_spied(monkeypatch, [str(hive / "x.parquet")], {})
    assert called
    back = read_parquet(str(hive / "x.parquet")).to_pandas()
    assert "day" in back.columns  # what the hive segment is for
    for kw in ({"min_parallelism": 4}, {"override_num_blocks": 1}):
        assert _read_spied(monkeypatch, [plain], kw)[-1], kw
    folder = tmp_path / "folder"
    folder.mkdir()
    pq.write_table(pq.read_table(plain), str(folder / "x.parquet"))
    assert _read_spied(monkeypatch, [str(folder)], {})[-1]
    assert not _read_spied(monkeypatch, [plain], {})[-1]
    assert _read_spied(monkeypatch, [plain, cases["pandas_metadata"][0][0]],
                       {})[-1]  # two files on 4 CPUs: two tasks
    md = pq.read_metadata(plain)
    decoded = sum(md.row_group(i).total_byte_size
                  for i in range(md.num_row_groups))
    monkeypatch.setattr(sizing, "INLINE_BYTES", decoded)
    assert not _read_spied(monkeypatch, [plain], {})[-1]
    monkeypatch.setattr(sizing, "INLINE_BYTES", decoded - 1)
    assert _read_spied(monkeypatch, [plain], {})[-1]
