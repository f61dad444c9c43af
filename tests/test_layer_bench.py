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
        "exchange.object", "write.write_partition", "read.read_partition",
        "read.read_table", "lookup.engine", "scan.engine", "scan.engine.lazy",
        "bloom.build",
    ]
    for r in rows:
        for k in ("s", "floor_s", "ratio", "rows_per_s", "mb_per_s"):
            assert math.isfinite(r[k]) and r[k] > 0, (r["kernel"], k)
    out = capsys.readouterr().out
    assert all(r["kernel"] in out for r in rows)
