"""tools/layer_bench.py runs end to end at toy sizes and reports every
kernel against its floor."""

import importlib.util
import math
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "layer_bench.py")


def test_layer_bench_smoke(capsys):
    spec = importlib.util.spec_from_file_location("layer_bench", TOOL)
    layer_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_bench)

    rows = layer_bench.main(["--smoke"])
    assert [r["kernel"] for r in rows] == [
        "split.per_partition", "split.exchange", "exchange.dict",
        "exchange.object", "write.write_partition", "write.partition",
        "write.floor", "write.delta_group", "read.read_partition",
        "read.read_table", "plan_scan.index", "lookup.engine", "scan.engine",
        "scan.engine.lazy", "bloom.build", "read.inline.2k",
        "read.parquet.inline.union.2k",
        "epoch.inline.2k", "read.remote.2k",
        "read.parquet.remote.2k", "epoch.remote.2k", "epoch.chain", "lookup.chain",
        "scan.chain", "epoch.segment.P16", "epoch.segment.P64",
        "epoch.segment.P256",
    ]
    assert "folds in" in next(r for r in rows if r["kernel"] == "epoch.chain")["note"]
    for r in rows:
        for k in ("s", "floor_s", "ratio", "rows_per_s", "mb_per_s"):
            assert math.isfinite(r[k]) and r[k] > 0, (r["kernel"], k)
    out = capsys.readouterr().out
    assert all(r["kernel"] in out for r in rows)
