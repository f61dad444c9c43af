"""Seeded benchmark inputs and the oracle states they must produce.

Everything here is a pure function of the seed and the sizes. Inputs are
written to disk before any timed section: Parquet event files for the
staged loads, Debezium JSON-lines payloads for the tail. The expected
states come from ``cdc.oracle.oracle_final_state``; a chain of epochs is
replayed one epoch at a time on top of the previous oracle state, which
is the same last-writer-wins replay because every epoch carries strictly
higher LSNs than the one before.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from arlas_proc_ray.cdc.events import ChangelogConfig, generate_changelog_tables, key_repo_path
from arlas_proc_ray.cdc.oracle import oracle_final_state
from arlas_proc_ray.cdc.wire import make_encode_fn
from arlas_proc_ray.functions.hashing import partition_ids, sha256_rollup

KEY_COLS = ["repo", "path"]


@dataclass(frozen=True)
class Sizes:
    partitions: int = 64
    # ~10-20 keys per repo: a repo scan reads fewer than the 24 files past
    # which Ray Data fetches Parquet metadata with extra tasks
    repos: int = 2_000
    bootstrap_events: int = 40_000  # one epoch; ~35 MB of Arrow events
    base_events: int = 20_000       # base snapshot for tail
    segment_events: int = 2_000     # one tail epoch
    tail_epochs: int = 6            # segments per tail cycle
    # (lookups, scans) per read probe: bootstrap probes once per cycle,
    # tail after every epoch. About 40 lookups a run put the highest
    # percentile with ten samples beyond it near p75, which whole-run
    # slowdowns of this shared host move far less than p95.
    probes: dict = field(default_factory=lambda: {
        "bootstrap": (6, 6), "tail": (2, 1),
    })
    setup_reps: int = 3


FULL = Sizes()
TOY = Sizes(
    partitions=8, repos=20, bootstrap_events=2_000, base_events=1_000,
    segment_events=200, tail_epochs=2, setup_reps=1,
    probes={"bootstrap": (4, 1), "tail": (2, 1)},
)


class OracleState:
    """One expected committed state and the answers reads must give."""

    def __init__(self, table: pa.Table, partitions: int):
        self.table = table
        pids = partition_ids(table, KEY_COLS, partitions)
        shas = np.asarray(table.column("content_sha256").to_pylist(), dtype=object)
        self.rollup = sha256_rollup(
            [sha256_rollup(shas[pids == p].tolist()) for p in range(partitions)]
        )

    def prepare_reads(self) -> None:
        """The answers lookups and repo scans must give, built before any
        timing so the garbage collector can freeze them."""
        self.rows = {(r["repo"], r["path"]): r for r in self.table.to_pylist()}
        repos, counts = np.unique(
            np.asarray(self.table.column("repo").to_pylist(), dtype=object),
            return_counts=True,
        )
        self.repo_rows = dict(zip(repos.tolist(), counts.tolist()))


def _state_as_events(state: pa.Table) -> pa.Table:
    n = state.num_rows
    return pa.table({
        "lsn": state.column("last_lsn"),
        "op": pa.array(["UPDATE"] * n, pa.string()),
        "repo": state.column("repo"),
        "path": state.column("path"),
        "commit": state.column("commit"),
        "language": state.column("language"),
        "content": state.column("content"),
        "content_size": state.column("content_size"),
    })


def _keys(t: pa.Table) -> pa.ChunkedArray:
    return pc.binary_join_element_wise(t.column("repo"), t.column("path"), "\x00")


def chain_oracle(start: pa.Table | None, epochs: list, partitions: int) -> list:
    """Oracle state after each epoch of ``epochs`` (lists of tables).

    After the first state, an epoch is replayed over the prior rows of the
    keys it touches only; the other rows carry over unchanged, as they do
    in a full replay (last-writer-wins is per key).
    """
    out = []
    state = start
    for tables in epochs:
        tables = list(tables)
        if state is None:
            state = oracle_final_state(tables)
        else:
            touched = pc.is_in(_keys(state), value_set=pa.concat_arrays(
                [k for t in tables for k in _keys(t).chunks]))
            replayed = oracle_final_state(
                [_state_as_events(state.filter(touched))] + tables)
            state = pa.concat_tables([state.filter(pc.invert(touched)), replayed]).sort_by(
                [("repo", "ascending"), ("path", "ascending")])
        out.append(OracleState(state, partitions))
    return out


def write_parquet(tables: list, prefix: str) -> list:
    """One file per physical schema version (v1 and v2 cannot share one)."""
    paths = []
    for t in tables:
        version = int(t.column("schema_version")[0].as_py())
        path = f"{prefix}-v{version}.parquet"
        pq.write_table(t, path)
        paths.append(path)
    return paths


def event_bytes(tables: list) -> int:
    return sum(t.nbytes for t in tables)


def jsonl_payload(tables: list) -> bytes:
    encode = make_encode_fn()
    lines = []
    for t in tables:
        lines.extend(encode(t).column("value").to_pylist())
    return ("\n".join(lines) + "\n").encode()


class Inputs:
    """The seeded inputs of one workload, written under ``in_dir``."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, in_dir: str):
        self.sizes = sizes
        self.seed = seed
        self.lookups, self.scans = sizes.probes[workload]
        os.makedirs(in_dir, exist_ok=True)
        z = sizes
        if workload == "bootstrap":
            # the initial load: low duplication, v1 -> v2 inside the epoch
            self.key_cfg = ChangelogConfig(
                num_events=z.bootstrap_events, num_keys=z.bootstrap_events,
                num_repos=z.repos, seed=seed, hot_fraction=0.0,
            )
            tables = generate_changelog_tables(self.key_cfg)
            self.epoch_files = [write_parquet(tables, f"{in_dir}/bootstrap")]
            self.epoch_events = [sum(t.num_rows for t in tables)]
            self.epoch_bytes = [event_bytes(tables)]
            self.states = chain_oracle(None, [tables], z.partitions)
            self.states[0].prepare_reads()
            return
        # tail: segments onto a base snapshot ten times their size
        self.key_cfg = ChangelogConfig(
            num_events=z.base_events, num_keys=z.base_events,
            num_repos=z.repos, seed=seed, hot_fraction=0.0,
        )
        base = generate_changelog_tables(self.key_cfg)
        self.base_files = write_parquet(base, f"{in_dir}/base")
        self.base_state = chain_oracle(None, [base], z.partitions)[0]
        # the default skewed mix (hot monorepo keys, deletes, out-of-order
        # delivery) over the base key space, LSNs after the base
        n, size = z.tail_epochs, z.segment_events
        stream = ChangelogConfig(
            num_events=z.base_events + n * size, num_keys=z.base_events,
            num_repos=z.repos, seed=seed, v2_start_lsn=0,
        )
        lo = z.base_events
        epochs = [
            generate_changelog_tables(stream, lo + i * size, lo + (i + 1) * size)
            for i in range(n)
        ]
        self.epoch_events = [sum(t.num_rows for t in e) for e in epochs]
        self.epoch_bytes = [event_bytes(e) for e in epochs]
        self.payloads = [jsonl_payload(e) for e in epochs]
        self.states = chain_oracle(self.base_state.table, epochs, z.partitions)
        for st in self.states:  # a read probe follows every epoch
            st.prepare_reads()

    # ---- reads -----------------------------------------------------------
    def lookup_keys(self, probe: int) -> list:
        """Skewed toward the monorepo's hot keys; about 10% are misses."""
        cfg = self.key_cfg
        rng = np.random.default_rng([self.seed, probe])
        n = self.lookups
        r = rng.random(n)
        hot = rng.integers(0, cfg.hot_keys, n)
        cold = rng.integers(cfg.hot_keys, cfg.num_keys, n)
        miss = rng.integers(cfg.num_keys, 2 * cfg.num_keys, n)
        ids = np.where(r < 0.45, hot, np.where(r < 0.9, cold, miss))
        repos, paths, _ = key_repo_path(ids, cfg)
        return list(zip(repos.to_pylist(), paths.to_pylist()))

    def scan_predicates(self, probe: int) -> list:
        """Equality on one ordinary repo: blooms prune partitions without it."""
        cfg = self.key_cfg
        rng = np.random.default_rng([self.seed, probe, 1])
        ids = rng.integers(cfg.hot_keys, cfg.num_keys, self.scans)
        repos, _, _ = key_repo_path(ids, cfg)
        return [[("repo", "==", r)] for r in repos.to_pylist()]
