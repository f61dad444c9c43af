import hashlib

import numpy as np
import pyarrow as pa
import pytest

from arlas_proc_ray.functions.hashing import (
    partition_ids,
    sha256_hex,
    sha256_rollup,
)


def test_sha256_matches_hashlib():
    vals = ["", "abc", "héllo wörld", "x" * 10_000, None, "tail"]
    arr = pa.array(vals, type=pa.string())
    got = sha256_hex(arr).to_pylist()
    exp = [
        hashlib.sha256(v.encode("utf-8")).hexdigest() if v is not None else None
        for v in vals
    ]
    assert got == exp


def test_sha256_on_sliced_array():
    # a sliced array has a non-zero offset — the buffer math must honor it
    arr = pa.array([f"row{i}" for i in range(100)]).slice(17, 50)
    got = sha256_hex(arr).to_pylist()
    exp = [hashlib.sha256(f"row{i}".encode()).hexdigest() for i in range(17, 67)]
    assert got == exp


def test_sha256_chunked():
    ca = pa.chunked_array([pa.array(["a", "b"]), pa.array(["c"])])
    assert len(sha256_hex(ca)) == 3


def test_rollup_is_order_free():
    a = ["d1", "d2", "d3"]
    assert sha256_rollup(a) == sha256_rollup(list(reversed(a)))
    assert sha256_rollup(a) != sha256_rollup(a[:2])


@pytest.mark.parametrize("shape", ["array", "chunked", "nulls", "sliced", "empty"])
def test_rollup_of_arrow_column_equals_rollup_of_list(shape):
    rng = np.random.default_rng(7)
    digests = [hashlib.sha256(rng.bytes(8)).hexdigest() for _ in range(500)]
    if shape == "array":
        col = pa.array(digests)
    elif shape == "chunked":
        col = pa.chunked_array([pa.array(digests[:123]), pa.array(digests[123:])])
    elif shape == "nulls":
        digests[::7] = [None] * len(digests[::7])
        col = pa.chunked_array([pa.array(digests[:250]), pa.array(digests[250:])])
    elif shape == "sliced":
        col = pa.array(digests).slice(41, 300)
        digests = digests[41:341]
    else:
        col, digests = pa.chunked_array([], type=pa.string()), []
    assert sha256_rollup(col) == sha256_rollup(digests)


def test_partition_ids_stable_and_in_range():
    t = pa.table(
        {
            "repo": ["r1", "r1", "r2", "r3"],
            "path": ["a", "a", "a", "b"],
        }
    )
    p1 = partition_ids(t, ["repo", "path"], 16)
    p2 = partition_ids(t, ["repo", "path"], 16)
    np.testing.assert_array_equal(p1, p2)
    assert p1[0] == p1[1]  # same key → same partition
    assert ((p1 >= 0) & (p1 < 16)).all()


def test_partition_ids_reach_every_partition():
    """Regression: an even per-column multiplier once zeroed the hash's
    low bit, so hash % P could only reach even partitions — half the
    cluster idle on every keyed exchange. With distinct keys ≫ P, every
    partition must be hit, for single AND composite keys, odd and even P."""
    n = 4096
    t = pa.table(
        {
            "repo": [f"org{i % 37}/repo{i % 113}" for i in range(n)],
            "path": [f"src/f{i}.py" for i in range(n)],
        }
    )
    for P in (7, 8, 16, 64):
        for cols in (["path"], ["repo", "path"]):
            hit = set(partition_ids(t, cols, P))
            assert hit == set(range(P)), (P, cols, sorted(hit))
