"""Iterative whole-graph analytics over a distributed edge list.

The dedup family covers connected components (dedup/components.py,
pointer doubling); this module adds the other classic whole-graph
iteration: PageRank, in the published power-iteration form. Beyond-
reference surface — the reference (gisaia/ARLAS-proc) has no graph ops.

Scale shape (the standard broadcast-Pregel split):
- The EDGE list is the big side. It stays a Dataset, is never collected,
  and each iteration touches it with exactly one ``map_batches`` (an
  in-block partial sum per destination) followed by a sort-free
  bounded-fan-in tree collect (:func:`_tree_collect`) of the node-sized
  partials.
- The NODE state (rank vector) is the small side. It is broadcast via
  ``ray.put`` each iteration and re-collected node-sized — the same
  contract as every broadcast join here: node count ≪ edge count. For
  node sets too large to broadcast, :func:`pagerank_exchange` keeps the
  rank vector as a hash-partitioned Dataset instead — two co-partition
  exchanges per iteration, zero driver state, bit-identical results.
- Duplicate (src, dst) rows need NO global dedup: everything PageRank
  computes is linear over edge rows (degree = Σ weight, contribution =
  Σ weight × share), so a multigraph edge list — e.g. raw interaction
  events — feeds straight in, one exchange cheaper than a DISTINCT.

Determinism contract: EXACT int64 fixed-point arithmetic so a SQL
oracle reproduces every rank bit-for-bit (no float summation-order
drift). Ranks are scaled by ``scale`` (default 1e9); the damping term
``(d·c)//100`` is evaluated as ``d·(c//100) + (d·(c%100))//100`` —
algebraically exact, and no intermediate exceeds the total rank mass,
so int64 holds even at billion-node scale where a naive ``85·c``
overflows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from arlas_proc_ray.exchange import resident_blocks
from arlas_proc_ray.stages.keyed import (
    byte_exact_group_cols,
    restore_object_cols,
)


def _bx_groupagg(pdf: pd.DataFrame, key, agg: dict) -> pd.DataFrame:
    """Group aggregation (single key or key list) under the repo
    NUL-byte contract.

    pandas' object-string ``groupby`` (and ``Series.unique``) factorize
    through StringHashTable with C-string semantics and silently MERGE
    keys that differ only by NUL bytes — diverging from the byte-exact
    SQL oracles (keyed.py rationale; applies to per-block combiners and
    driver merges, not just exchange keys). Every node-keyed groupby in
    this module routes through here: Arrow-backed key in, grouped
    aggregate out, key restored to plain object dtype for Ray's
    pandas-block schema inference.
    """
    keys = [key] if isinstance(key, str) else list(key)
    pdf = byte_exact_group_cols(pdf, keys)
    g = pdf.groupby(keys, sort=False, as_index=False).agg(agg)
    return restore_object_cols(g, keys)


def _bx_unique(values, name: str) -> pd.DataFrame:
    """Byte-exact distinct values of a node column as a one-column frame
    (``Series.unique`` on object strings NUL-merges; Arrow unique is
    byte-exact)."""
    pdf = byte_exact_group_cols(pd.DataFrame({name: values}), [name])
    return restore_object_cols(
        pd.DataFrame({name: pdf[name].unique()}), [name]
    )


def _tree_collect(partials, combine, *, fanin: int = 32) -> pd.DataFrame:
    """Collect node-sized per-block partials WITHOUT a sort exchange.

    Ray Data's sort-based ``groupby()`` costs seconds of fixed overhead
    even on node-sized input (measured 3.2 s vs 0.08 s for a plain
    collect at sf0.1, 32 cpus), and every partial here is already
    ≤ node-sized. So: materialize the partials (node-sized × blocks —
    small by the node contract), and if they span more than ``fanin``
    blocks, coalesce with a round-robin ``repartition`` (block movement,
    no sort, no sampling) + an in-block ``combine`` first. Either way
    the driver reads at most ~``fanin`` × nodes rows — bounded by the
    same small-side contract that lets the node state broadcast — and
    runs ``combine`` once more. Exact for any commutative per-node
    reduction.
    """
    pm = partials.materialize()
    if pm.num_blocks() > fanin:
        pm = pm.repartition(fanin).map_batches(
            combine, batch_format="pandas", batch_size=None
        )
    pdf = pm.to_pandas()
    if pdf.empty:  # an empty Dataset collects with NO columns
        return pdf
    return combine(pdf)


def pagerank(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    weight_col: str | None = None,
    iterations: int = 3,
    scale: int = 10**9,
    damping_pct: int = 85,
    node_col: str = "node",
    rank_col: str = "pagerank",
    teleport_nodes=None,
) -> pd.DataFrame:
    """Power-iteration PageRank over a (possibly multigraph) edge list.

    ``rank₀[v] = scale``;
    ``rankₜ₊₁[v] = (100−d)·scale//100 + (d · Σ_{(u,v)} w·(rankₜ[u]//deg[u]))//100``
    with ``deg[u] = Σ_{(u,·)} w`` — i.e. unnormalized PageRank where a
    node's mass is split integrally across its out-weight. Dangling
    nodes (no out-edges) keep the base term and leak their mass, the
    standard simple-variant behavior. For an undirected graph, pass the
    edge list mirrored.

    ``teleport_nodes``: personalized PageRank — the teleport mass
    (initial rank AND the per-iteration base term) concentrates on the
    given node set instead of spreading uniformly; everything else
    (damping split, int64 exactness) is unchanged.

    Returns a node-sized DataFrame ``(node_col, rank_col)`` — int64
    ranks, one row per node seen as src or dst.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    base = (100 - damping_pct) * scale // 100

    def deg_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        n = len(pdf)
        w = (
            pdf[weight_col].to_numpy().astype(np.int64)
            if weight_col is not None
            else np.ones(n, dtype=np.int64)
        )
        # dst nodes ride along at weight 0 so dst-only sinks enter the
        # universe; one byte-exact group-sum replaces the old
        # unique()/difference() pair (Series.unique NUL-merges)
        both = pd.DataFrame(
            {
                node_col: np.concatenate(
                    [pdf[src_col].to_numpy(), pdf[dst_col].to_numpy()]
                ),
                "d": np.concatenate([w, np.zeros(n, dtype=np.int64)]),
            }
        )
        return _bx_groupagg(both, node_col, {"d": "sum"})

    def combine_d(pdf: pd.DataFrame) -> pd.DataFrame:
        return _bx_groupagg(pdf, node_col, {"d": "sum"})

    deg_pdf = _tree_collect(
        edges_ds.map_batches(deg_partial, batch_format="pandas", batch_size=None),
        combine_d,
    )
    if len(deg_pdf) == 0:
        return pd.DataFrame({node_col: [], rank_col: pd.Series([], dtype="int64")})
    deg = deg_pdf.set_index(node_col)["d"].astype("int64")
    nodes = deg.index
    if teleport_nodes is None:
        base_vec = base
        ranks = pd.Series(np.int64(scale), index=nodes)
    else:
        on_s = nodes.isin(list(teleport_nodes))
        base_vec = pd.Series(np.where(on_s, base, np.int64(0)), index=nodes)
        ranks = pd.Series(
            np.where(on_s, np.int64(scale), np.int64(0)), index=nodes
        )

    for _ in range(iterations):
        share = ranks.copy()
        live = deg > 0
        share[live] = ranks[live] // deg[live]
        share[~live] = np.int64(0)
        share_ref = ray.put(share)

        def contrib_partial(pdf: pd.DataFrame) -> pd.DataFrame:
            sh = ray.get(share_ref)
            w = (
                pdf[weight_col].to_numpy().astype(np.int64)
                if weight_col is not None
                else np.ones(len(pdf), dtype=np.int64)
            )
            c = w * sh.reindex(pdf[src_col]).to_numpy()
            return _bx_groupagg(
                pd.DataFrame({node_col: pdf[dst_col].to_numpy(), "c": c}),
                node_col,
                {"c": "sum"},
            )

        def combine_c(pdf: pd.DataFrame) -> pd.DataFrame:
            return _bx_groupagg(pdf, node_col, {"c": "sum"})

        contrib_pdf = _tree_collect(
            edges_ds.map_batches(
                contrib_partial, batch_format="pandas", batch_size=None
            ),
            combine_c,
        )
        c = (
            contrib_pdf.set_index(node_col)["c"]
            .astype("int64")
            .reindex(nodes, fill_value=np.int64(0))
        )
        # exact (damping_pct * c) // 100 without the 85×mass overflow
        ranks = (
            base_vec + damping_pct * (c // 100) + (damping_pct * (c % 100)) // 100
        )

    out = ranks.rename(rank_col).rename_axis(node_col).reset_index()
    out[rank_col] = out[rank_col].astype("int64")
    return out


def shortest_hops(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    sources,
    max_hops: int = 4,
    node_col: str = "node",
    hops_col: str = "hops",
) -> pd.DataFrame:
    """Multi-source BFS hop distance (unweighted shortest path).

    Level-synchronous frontier expansion — the distributed-BFS shape:
    per hop, ONE stateless ``map_batches`` filters edge rows whose src
    is in the broadcast frontier (node-sized, ``ray.put``) and emits
    their dst nodes, then a sort-free tree collect
    (:func:`_tree_collect`) dedups the reached set. Edges never leave their blocks; what shuffles per
    hop is bounded by the frontier's distinct out-neighborhood. The
    visited map lives driver-side (node-sized — the same small-side
    contract as :func:`pagerank`). Terminates at ``max_hops`` or an
    empty frontier, whichever first.

    Returns ``(node_col, hops_col)`` — int64 hop counts, one row per
    reached node (sources included at hop 0). Unreached nodes are
    absent, mirroring the SQL frontier-CTE form.
    """
    dist = {s: 0 for s in sources}
    frontier = list(dict.fromkeys(sources))
    for hop in range(1, max_hops + 1):
        if not frontier:
            break
        f_ref = ray.put(frozenset(frontier))

        def reach(pdf: pd.DataFrame) -> pd.DataFrame:
            fr = ray.get(f_ref)
            hit = pdf[pdf[src_col].isin(fr)]
            return _bx_unique(hit[dst_col].to_numpy(), node_col)

        reached = _tree_collect(
            edges_ds.map_batches(reach, batch_format="pandas", batch_size=None),
            lambda pdf: pdf.drop_duplicates(node_col),
        )
        if len(reached) == 0:
            break
        frontier = [n for n in reached[node_col] if n not in dist]
        for n in frontier:
            dist[n] = hop
    out = pd.DataFrame(
        {node_col: list(dist), hops_col: np.fromiter(dist.values(), dtype=np.int64)}
    )
    return out.sort_values(node_col).reset_index(drop=True)


def _hash_split_table(t: pa.Table, key_col: str, P: int):
    """Split one Arrow table into P hash partitions (argsort + take —
    NOT slice: a pyarrow slice pickles the whole parent buffer)."""
    from arlas_proc_ray.functions.hashing import partition_ids

    t = t.combine_chunks()
    pids = partition_ids(t, [key_col], P)
    order = np.argsort(pids, kind="stable")
    bounds = np.searchsorted(pids[order], np.arange(P + 1))
    return [t.take(pa.array(order[bounds[p] : bounds[p + 1]])) for p in range(P)]


def _stage_edge_partitions(edges_ds, *, key_col, cols, num_partitions):
    """Hash-partition the edge list ONCE into ``num_partitions`` resident
    object-store tables keyed on ``key_col`` — the Pregel edge-cut.

    The iterated exchange-mode ops previously re-executed AND
    re-exchanged the (lazy) edge pipeline every round: R rounds × one
    full event-sized read + shuffle for a loop-INVARIANT input. Staging
    pays that cost exactly once (one split task per resident block, one
    gather per partition); every round after touches edges only through
    these refs and moves nothing but node-sized state.

    This is deliberately NOT the package's keyed exchange
    (``arlas_proc_ray/exchange.py``), whose B×G objects are consumed by
    one task per group and then released: a Pregel loop keeps P
    partitions resident across rounds and addresses each one per round
    (:func:`_pregel_loop`), so its splits return B×P per-partition
    tables and its gathers one table per partition.

    Routing uses the same value-stable hash as the
    node-state splits (functions/hashing.partition_ids), so edge
    partition p holds exactly the edges whose ``key_col`` co-locates
    with state partition p.

    Returns a list of ``num_partitions`` ObjectRefs of ``pa.Table``
    (pruned to ``cols``), or ``None`` when the edge list is empty —
    callers keep their documented empty-input behavior.
    """
    P = num_partitions
    block_refs = resident_blocks(edges_ds.materialize())
    if not block_refs:
        return None

    @ray.remote(num_returns=P)
    def split(block):
        if isinstance(block, pd.DataFrame):
            block = pa.Table.from_pandas(block, preserve_index=False)
        parts = _hash_split_table(
            block.select(cols).replace_schema_metadata(None), key_col, P
        )
        return tuple(parts) if P > 1 else parts[0]

    @ray.remote
    def gather(*slices: pa.Table) -> pa.Table:
        return pa.concat_tables(
            slices, promote_options="default"
        ).combine_chunks()

    split_out = [split.remote(r) for r in block_refs]
    return [
        gather.remote(*([s[p] for s in split_out] if P > 1 else split_out))
        for p in range(P)
    ]


def _split_state_refs(pdf: pd.DataFrame, node_col: str, P: int):
    """Driver-side hash split of an initial node-state frame into P
    object-store refs (the seed state is source-set-sized here; large
    seeds would stage like edges)."""
    t = pa.Table.from_pandas(pdf, preserve_index=False).replace_schema_metadata(
        None
    )
    return [ray.put(part) for part in _hash_split_table(t, node_col, P)]


def _pregel_loop(
    edge_refs,
    state_refs,
    *,
    node_col: str,
    relax_fn,
    fold_fn,
    rounds: int,
    num_partitions: int,
    early_exit: bool = True,
):
    """Synchronous scatter/fold rounds over RESIDENT edge partitions.

    Per round and partition p: ``relax(edges_p, state_p)`` emits
    node-keyed candidate rows and hash-splits them in-task (the only
    cross-partition movement — candidate volume is bounded by the
    frontier's out-neighborhood, never the edge count), then
    ``fold(state_p, slices…)`` folds candidates into the state and
    reports a changed count. The driver sees P ints per round, nothing
    else; edges never move after staging. 2·P raw tasks per round, zero
    Dataset executions. Its per-partition splits are not the package's
    keyed exchange on purpose: the P state partitions stay resident and
    addressable across rounds (see :func:`_stage_edge_partitions`).

    ``relax_fn(edges_pdf, state_pdf) -> candidates_pdf`` (node-keyed);
    ``fold_fn(state_pdf_or_None, cand_pdf_or_None) -> (new_state_pdf,
    changed)``. ``state_refs=None`` runs a stateless first scatter
    (``relax_fn``/``fold_fn`` receive ``None`` state) — the bootstrap
    pass ops like pagerank's degree fold use. Returns the final state
    refs (one ``pa.Table`` per partition).
    """
    P = num_partitions

    def _as_table(x) -> pa.Table:
        # relax/fold may return pa.Table directly — the only way to keep
        # a TYPED schema on empty results (from_pandas infers null for
        # zero-row object columns, which spams schema-unify warnings)
        if isinstance(x, pa.Table):
            return x.replace_schema_metadata(None)
        return pa.Table.from_pandas(
            x, preserve_index=False
        ).replace_schema_metadata(None)

    @ray.remote(num_returns=P)
    def relax(edges, state):
        cand = relax_fn(
            edges.to_pandas(), None if state is None else state.to_pandas()
        )
        parts = _hash_split_table(_as_table(cand), node_col, P)
        return tuple(parts) if P > 1 else parts[0]

    @ray.remote(num_returns=2)
    def fold(state, *cand_slices: pa.Table):
        cand = (
            pa.concat_tables(cand_slices, promote_options="default").to_pandas()
            if cand_slices
            else None
        )
        new_state, changed = fold_fn(
            None if state is None else state.to_pandas(), cand
        )
        return _as_table(new_state), int(changed)

    states = state_refs
    for _ in range(rounds):
        relax_out = [
            relax.remote(edge_refs[p], None if states is None else states[p])
            for p in range(P)
        ]
        fold_out = [
            fold.remote(
                None if states is None else states[p],
                *([r[p] for r in relax_out] if P > 1 else relax_out),
            )
            for p in range(P)
        ]
        states = [f[0] for f in fold_out]
        changed = sum(ray.get([f[1] for f in fold_out]))
        if early_exit and not changed:
            break
    return states


def pagerank_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    weight_col: str | None = None,
    iterations: int = 3,
    scale: int = 10**9,
    damping_pct: int = 85,
    node_col: str = "node",
    rank_col: str = "pagerank",
    num_partitions: int = 32,
    teleport_nodes=None,
):
    """PageRank with NO driver-resident node state — the scale path for
    node sets too large to broadcast (the seam :func:`pagerank`'s
    docstring documents). ``teleport_nodes`` gives the personalized
    variant exactly as in :func:`pagerank` — the teleport SET is
    caller-provided and small (it rides the fold closures; the RANK
    vector is what must not broadcast), membership tested per state row
    with byte-exact Python set lookups.

    The edge list is hash-partitioned by ``src`` ONCE
    (:func:`_stage_edge_partitions` — loop-invariant input, so the old
    per-iteration edge re-read/re-exchange was pure waste); the rank
    vector lives as P co-partitioned object-store tables ``(node, d,
    rank)``. One bootstrap :func:`_pregel_loop` step folds the degrees
    (src weight + dst zero so sinks enter the universe, byte-exact
    group-sums), then each power iteration is one more step — 2·P raw
    tasks, zero Dataset executions:

    1. relax — per partition, shares ``rank // d`` merge byte-exactly
       against the LOCAL edges (co-partitioned by construction); the
       per-dst contribution sum is hash-split in-task toward the dst's
       home partition (node-sized movement, never edges).
    2. fold — contribution sums left-merge onto the state rows
       (missing → 0) and the exact int64 damping update runs per node.

    Same exact int64 fixed-point arithmetic as :func:`pagerank`
    (bit-identical results, pinned by the parity test). State is
    node-sized × P in the OBJECT STORE — precisely the regime this
    variant targets: too big for one driver heap, fine across the
    cluster. Reserved internal column names: ``d``, ``c``;
    ``src_col``, ``dst_col`` and ``node_col`` must be three distinct
    names.

    Returns the final state as a Dataset of ``(node_col, rank_col)``.
    """
    import ray.data as rd

    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    base = (100 - damping_pct) * scale // 100

    P = num_partitions
    cols = [src_col, dst_col] + ([weight_col] if weight_col else [])
    edge_refs = _stage_edge_partitions(
        edges_ds, key_col=src_col, cols=cols, num_partitions=P
    )
    if edge_refs is None:
        return rd.from_arrow(
            pa.table(
                {
                    node_col: pa.array([], pa.string()),
                    rank_col: pa.array([], pa.int64()),
                }
            )
        )

    tset = None if teleport_nodes is None else frozenset(teleport_nodes)

    def _in_t(col: pd.Series) -> np.ndarray:
        vals = col.astype(object).to_numpy(object)
        return np.fromiter(
            (v in tset for v in vals), dtype=bool, count=len(vals)
        )

    def deg_scatter(edges_pdf: pd.DataFrame, _state) -> pd.DataFrame:
        n = len(edges_pdf)
        w = (
            edges_pdf[weight_col].to_numpy().astype(np.int64)
            if weight_col is not None
            else np.ones(n, dtype=np.int64)
        )
        # dst nodes at weight 0 bring sinks in; byte-exact group-sum
        # (a unique()/difference() pair would NUL-merge node ids)
        both = pd.DataFrame(
            {
                node_col: np.concatenate(
                    [
                        edges_pdf[src_col].to_numpy(),
                        edges_pdf[dst_col].to_numpy(),
                    ]
                ),
                "d": np.concatenate([w, np.zeros(n, dtype=np.int64)]),
            }
        )
        return _bx_groupagg(both, node_col, {"d": "sum"})

    def deg_fold(_state, cand_pdf):
        if cand_pdf is None or cand_pdf.empty:
            return (
                pd.DataFrame(
                    {
                        node_col: pd.Series([], dtype=object),
                        "d": pd.Series([], dtype="int64"),
                        rank_col: pd.Series([], dtype="int64"),
                    }
                ),
                0,
            )
        g = _bx_groupagg(cand_pdf, node_col, {"d": "sum"})
        if tset is None:
            g[rank_col] = np.int64(scale)
        else:
            g[rank_col] = np.where(
                _in_t(g[node_col]), np.int64(scale), np.int64(0)
            )
        return g[[node_col, "d", rank_col]], 0

    state_refs = _pregel_loop(
        edge_refs,
        None,
        node_col=node_col,
        relax_fn=deg_scatter,
        fold_fn=deg_fold,
        rounds=1,
        num_partitions=P,
        early_exit=False,
    )

    def contrib_relax(edges_pdf: pd.DataFrame, state_pdf: pd.DataFrame):
        empty = pd.DataFrame(
            {
                node_col: pd.Series([], dtype=object),
                "c": pd.Series([], dtype="int64"),
            }
        )
        if edges_pdf.empty or state_pdf.empty:
            return empty
        d = state_pdf["d"].to_numpy()
        r = state_pdf[rank_col].to_numpy()
        sh = np.where(d > 0, r // np.maximum(d, 1), 0).astype(np.int64)
        st = byte_exact_group_cols(
            pd.DataFrame({src_col: state_pdf[node_col], "_sh": sh}),
            [src_col],
        )
        ed = byte_exact_group_cols(edges_pdf, [src_col])
        m = ed.merge(st, on=src_col, how="inner")
        if m.empty:
            return empty
        w = (
            m[weight_col].to_numpy().astype(np.int64)
            if weight_col is not None
            else np.ones(len(m), dtype=np.int64)
        )
        c = w * m["_sh"].to_numpy().astype(np.int64)
        return _bx_groupagg(
            pd.DataFrame({node_col: m[dst_col].to_numpy(), "c": c}),
            node_col,
            {"c": "sum"},
        )

    def rank_fold(state_pdf: pd.DataFrame, cand_pdf):
        # int64-pure union+group-sum (a left merge would coerce the c
        # column to float64 on missing nodes — inexact past 2^53)
        if state_pdf.empty:
            return state_pdf[[node_col, "d", rank_col]], 0
        srows = state_pdf[[node_col, "d", rank_col]].copy()
        srows["c"] = np.int64(0)
        if cand_pdf is not None and not cand_pdf.empty:
            crows = pd.DataFrame(
                {
                    node_col: cand_pdf[node_col].to_numpy(),
                    "d": np.int64(0),
                    rank_col: np.int64(0),
                    "c": cand_pdf["c"].to_numpy(np.int64),
                }
            )
            srows = pd.concat([srows, crows], ignore_index=True)
        g = _bx_groupagg(
            srows, node_col, {"d": "sum", rank_col: "sum", "c": "sum"}
        )
        c = g["c"].to_numpy().astype(np.int64)
        bvec = (
            base
            if tset is None
            else np.where(_in_t(g[node_col]), np.int64(base), np.int64(0))
        )
        g[rank_col] = (
            bvec + damping_pct * (c // 100) + (damping_pct * (c % 100)) // 100
        )
        return g[[node_col, "d", rank_col]], 0

    state_refs = _pregel_loop(
        edge_refs,
        state_refs,
        node_col=node_col,
        relax_fn=contrib_relax,
        fold_fn=rank_fold,
        rounds=iterations,
        num_partitions=P,
        early_exit=False,
    )

    def finish(t: pa.Table) -> pa.Table:
        return t.select([node_col, rank_col])

    return rd.from_arrow_refs(state_refs).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _canon_dedup_edges(edges_ds, *, src_col, dst_col, num_partitions):
    """Canonical (u < v) self-loop-free DISTINCT undirected edge list —
    one keyed exchange; materialized (reused by degrees + closure)."""
    from arlas_proc_ray.stages.keyed import keyed_partition_map

    def canon(pdf: pd.DataFrame) -> pd.DataFrame:
        a = pdf[src_col].to_numpy()
        b = pdf[dst_col].to_numpy()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        out = pd.DataFrame({"u": lo, "v": hi})
        return out[out["u"] != out["v"]].drop_duplicates()

    return keyed_partition_map(
        edges_ds.map_batches(canon, batch_format="pandas", batch_size=None),
        keys=["u", "v"],
        order_col="u",
        fn=lambda pdf: pdf.drop_duplicates(),
        num_partitions=num_partitions,
    ).materialize()


def _degree_table(dedup) -> pd.DataFrame:
    """Node-sized (node, degree) via per-block partials + tree collect."""

    def deg_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        both = pd.concat([pdf["u"], pdf["v"]], ignore_index=True).to_numpy()
        return _bx_groupagg(
            pd.DataFrame({"node": both, "d": np.ones(len(both), np.int64)}),
            "node",
            {"d": "sum"},
        )

    def deg_combine(pdf: pd.DataFrame) -> pd.DataFrame:
        return _bx_groupagg(pdf, "node", {"d": "sum"})

    return _tree_collect(
        dedup.map_batches(deg_partial, batch_format="pandas", batch_size=None),
        deg_combine,
    )


def _closed_triangles_wedge(dedup, rank: pd.Series, *, num_partitions: int):
    """Dataset of closed wedges — one row ``(s, b, c)`` per triangle,
    rank(s) < rank(b) < rank(c) — via the degree-ordered orientation
    (compact-forward / Schank-Wagner, O(m^1.5) wedge volume):

    1. orient every deduped edge from lower to higher (degree, node)
       rank — the rank map is the broadcast node-sized side, so a hub's
       out-degree is at most O(√m) and no wedge task explodes;
    2. wedges — one keyed exchange on the pivot ``s``, then a vectorized
       per-pivot self-merge emitting (s, b, c) with rank(b) < rank(c);
    3. close — a distributed SEMI equi-join of wedges against the
       oriented edge list on (b, c). Each surviving wedge IS exactly one
       triangle (the orientation makes it exact, no de-dup pass), and
       the pivot rides through the semi join (LEFT columns only), so
       per-corner scatters stay available downstream.
    """
    import pyarrow as pa

    import ray
    from arlas_proc_ray.stages.joins import equi_join
    from arlas_proc_ray.stages.keyed import keyed_partition_map

    rank_ref = ray.put(rank)

    def orient(pdf: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        ru = pdf["u"].map(r).to_numpy(np.int64)
        rv = pdf["v"].map(r).to_numpy(np.int64)
        fwd = ru < rv
        return pd.DataFrame(
            {
                "s": np.where(fwd, pdf["u"], pdf["v"]),
                "b": np.where(fwd, pdf["v"], pdf["u"]),
                "rb": np.where(fwd, rv, ru),
            }
        )

    oriented = dedup.map_batches(
        orient, batch_format="pandas", batch_size=None
    ).materialize()

    def wedges_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        m = pdf.merge(pdf, on="s")
        m = m[m["rb_x"] < m["rb_y"]]
        return pd.DataFrame(
            {
                "s": m["s"].to_numpy(),
                "b": m["b_x"].to_numpy(),
                "c": m["b_y"].to_numpy(),
            }
        )

    wedges = keyed_partition_map(
        oriented, keys=["s"], order_col="rb", fn=wedges_fn,
        num_partitions=num_partitions,
    )

    def as_bc(t: pa.Table) -> pa.Table:
        return t.select(["s", "b"]).rename_columns(["b", "c"])

    return equi_join(
        wedges,
        oriented.map_batches(as_bc, batch_format="pyarrow", batch_size=None),
        on=["b", "c"],
        right_cols=[],
        how="semi",
        num_partitions=num_partitions,
    )


def triangle_count(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    num_partitions: int = 16,
    mode: str = "auto",
    max_bitset_nodes: int = 8192,
) -> pd.DataFrame:
    """Exact triangle count over an undirected graph. Two regimes,
    auto-selected once the (node-sized) degree table is known:

    **wedge** — the general big-sparse-graph path: degree-ordered
    orientation (compact-forward / Schank-Wagner), bounding wedge volume
    at O(m^1.5) regardless of skew:

    1. canonicalize + dedup edges — one keyed exchange on (lo, hi);
    2. degrees — per-block partials, sort-free node-sized tree collect;
    3. orient every edge from lower to higher (degree, node) rank — the
       rank map is the broadcast node-sized side, so a hub's out-degree
       is at most O(√m) and no wedge task explodes on a hot node;
    4. wedges — one keyed exchange on the wedge pivot, then a vectorized
       per-pivot self-merge emitting (b, c) with rank(b) < rank(c);
    5. close — a distributed SEMI equi-join of wedges against the
       oriented edge list (each surviving wedge IS one triangle: the
       orientation makes the count exact with no de-dup pass).

    **bitset** — the dense/small-node regime, where the wedge stream
    (Σ outdeg², ~10⁸ rows at 26%% density on 1.5k nodes — measured 36 s
    at sf0.1) dwarfs the n²/8-byte adjacency bitset (280 KB there): the
    bitset is OR-merged from per-block partials (node-sized tree-collect
    contract), broadcast once via ``ray.put``, and each edge block
    counts common neighbors with one vectorized AND+popcount — zero
    extra exchanges, Σ over edges = 3·triangles. Selected when
    ``n_nodes ≤ max_bitset_nodes`` (n²/8 must respect the same broadcast
    budget as every node-sized side here; 8192 ⇒ 8 MB).

    Edges stay Datasets throughout; only degrees/ranks (node-sized) —
    and in bitset mode the n²/8 adjacency — touch the driver. The
    triangle total is invariant to WHICH total order ranks nodes, so
    the SQL oracle only has to be consistent, not identical.
    """
    dedup = _canon_dedup_edges(
        edges_ds, src_col=src_col, dst_col=dst_col,
        num_partitions=num_partitions,
    )
    deg = _degree_table(dedup)
    if deg.empty:
        return pd.DataFrame(
            {"n_nodes": [0], "n_edges": [0], "n_triangles": [0]}
        ).astype("int64")
    deg = deg.sort_values(["d", "node"], kind="mergesort").reset_index(drop=True)
    rank = pd.Series(np.arange(len(deg), dtype=np.int64), index=deg["node"])
    if mode not in ("auto", "wedge", "bitset"):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == "auto":
        mode = "bitset" if len(deg) <= max_bitset_nodes else "wedge"
    if mode == "bitset":
        n_tri = _triangles_bitset(dedup, rank)
        return pd.DataFrame(
            {
                "n_nodes": np.array([len(deg)], dtype=np.int64),
                "n_edges": np.array([dedup.count()], dtype=np.int64),
                "n_triangles": np.array([n_tri], dtype=np.int64),
            }
        )
    closed = _closed_triangles_wedge(
        dedup, rank, num_partitions=num_partitions
    )
    n_tri = closed.count()
    n_edges = dedup.count()
    return pd.DataFrame(
        {
            "n_nodes": np.array([len(deg)], dtype=np.int64),
            "n_edges": np.array([n_edges], dtype=np.int64),
            "n_triangles": np.array([n_tri], dtype=np.int64),
        }
    )


def _triangles_bitset(dedup, rank: pd.Series, *, per_node: bool = False):
    """Dense/small-node triangle closure: distributed adjacency-bitset
    build (per-block partials, OR-merged driver-side under the
    node-sized collect contract), one ray.put broadcast, then one
    AND+popcount ``map_batches`` pass over the edge Dataset. Returns the
    exact triangle count (Σ per-edge common neighbors = 3·triangles)."""
    import pyarrow as pa

    import ray

    n = len(rank)
    words = (n + 63) // 64
    rank_ref = ray.put(rank)

    def bits_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        ui = pdf["u"].map(r).to_numpy(np.int64)
        vi = pdf["v"].map(r).to_numpy(np.int64)
        B = np.zeros((n, words), dtype=np.uint64)
        for a, b in ((ui, vi), (vi, ui)):
            np.bitwise_or.at(
                B,
                (a, b >> 6),
                np.uint64(1) << (b & 63).astype(np.uint64),
            )
        return pa.table(
            {"bits": pa.array([B.ravel().tolist()], pa.list_(pa.uint64()))}
        ).to_pandas()

    parts = dedup.map_batches(
        bits_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    B = np.zeros(n * words, dtype=np.uint64)
    for bits in parts["bits"]:
        B |= np.asarray(bits, dtype=np.uint64)
    B = B.reshape(n, words)
    bits_ref = ray.put(B)

    def count_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        adj = ray.get(bits_ref)
        ui = pdf["u"].map(r).to_numpy(np.int64)
        vi = pdf["v"].map(r).to_numpy(np.int64)
        total = 0
        nodevec = np.zeros(n, dtype=np.int64) if per_node else None
        for lo in range(0, len(ui), 4096):  # bound the AND matrix's heap
            us, vs = ui[lo:lo + 4096], vi[lo:lo + 4096]
            rows = adj[us] & adj[vs]
            ce = _POP8[rows.view(np.uint8)].reshape(len(us), -1).sum(
                axis=1
            )
            total += int(ce.sum())
            if per_node:
                # each triangle at node x spans two of its incident
                # edges → Σ incident per-edge counts = 2·tri(x)
                np.add.at(nodevec, us, ce)
                np.add.at(nodevec, vs, ce)
        out = {"t": np.array([total], dtype=np.int64)}
        if per_node:
            out["nv"] = [nodevec.tolist()]
        return pd.DataFrame(out)

    parts = dedup.map_batches(
        count_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    tot = int(parts["t"].sum())
    assert tot % 3 == 0, "per-edge common-neighbor total must be 3·triangles"
    if not per_node:
        return tot // 3
    nodevec = np.zeros(n, dtype=np.int64)
    for nv in parts["nv"]:
        nodevec += np.asarray(nv, dtype=np.int64)
    assert (nodevec % 2 == 0).all()
    return tot // 3, nodevec // 2


def clustering_coefficients(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    num_partitions: int = 16,
    mode: str = "auto",
    max_bitset_nodes: int = 8192,
) -> pd.DataFrame:
    """Per-node triangle counts and local clustering coefficient
    ``2·tri(v) / (deg(v)·(deg(v)−1))`` over an undirected graph.

    Two regimes, same auto-selection as :func:`triangle_count`:

    **bitset** (``n_nodes ≤ max_bitset_nodes``) — the adjacency-bitset
    closure (:func:`_triangles_bitset` ``per_node=True``): each edge
    block's common-neighbor counts scatter to both endpoints,
    Σ incident counts = 2·tri(v) — node-sized partials only, zero extra
    exchanges, but the n²/8 broadcast must fit the node-sized budget.

    **wedge** — the big-sparse-graph path with NO n² anything: the
    closed-wedge Dataset (:func:`_closed_triangles_wedge`, O(m^1.5)
    wedge volume under degree-ordered orientation) carries the pivot
    through the closing semi-join, so each triangle row (s, b, c)
    scatters +1 to all three corners inside ``map_batches``; per-node
    partial counts tree-collect sort-free (node-sized, byte-exact
    grouping). Both paths are exact — pinned bit-identical on shared
    fixtures.

    The coefficient is ONE division of exact int64 (2·tri vs the degree
    pair count) — bit-identical to a SQL oracle; degree-1 nodes get 0.
    """
    if mode not in ("auto", "wedge", "bitset"):
        raise ValueError(f"unknown mode: {mode!r}")
    dedup = _canon_dedup_edges(
        edges_ds, src_col=src_col, dst_col=dst_col,
        num_partitions=num_partitions,
    )
    deg = _degree_table(dedup)
    if deg.empty:
        return pd.DataFrame(
            columns=["node", "degree", "triangles", "clustering"]
        )
    if mode == "auto":
        mode = "bitset" if len(deg) <= max_bitset_nodes else "wedge"
    if mode == "bitset" and len(deg) > max_bitset_nodes:
        raise ValueError(
            f"{len(deg)} nodes exceeds the bitset broadcast budget "
            f"({max_bitset_nodes}); mode='wedge' (or 'auto') handles "
            "big sparse graphs"
        )
    deg = deg.sort_values(["d", "node"], kind="mergesort").reset_index(drop=True)
    rank = pd.Series(np.arange(len(deg), dtype=np.int64), index=deg["node"])
    if mode == "bitset":
        _, tri = _triangles_bitset(dedup, rank, per_node=True)
    else:
        closed = _closed_triangles_wedge(
            dedup, rank, num_partitions=num_partitions
        )

        def corner_partial(pdf: pd.DataFrame) -> pd.DataFrame:
            corners = np.concatenate(
                [pdf["s"].to_numpy(), pdf["b"].to_numpy(), pdf["c"].to_numpy()]
            )
            return _bx_groupagg(
                pd.DataFrame(
                    {"node": corners,
                     "t": np.ones(len(corners), dtype=np.int64)}
                ),
                "node",
                {"t": "sum"},
            )

        def corner_combine(pdf: pd.DataFrame) -> pd.DataFrame:
            return _bx_groupagg(pdf, "node", {"t": "sum"})

        tri_pdf = _tree_collect(
            closed.map_batches(
                corner_partial, batch_format="pandas", batch_size=None
            ),
            corner_combine,
        )
        if tri_pdf.empty:
            tri = np.zeros(len(deg), dtype=np.int64)
        else:
            tri = (
                tri_pdf.set_index("node")["t"]
                .reindex(deg["node"], fill_value=0)
                .to_numpy(np.int64)
            )
    d = deg["d"].to_numpy(np.int64)
    pairs = d * (d - 1)
    coeff = np.where(pairs > 0, (2 * tri) / np.maximum(pairs, 1), 0.0)
    return pd.DataFrame(
        {
            "node": deg["node"],
            "degree": d,
            "triangles": tri,
            "clustering": coeff,
        }
    )


def bellman_ford_dists(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    weight_col: str | None,
    sources,
    rounds: int,
    node_col: str = "node",
    dist_col: str = "dist",
) -> pd.DataFrame:
    """Weighted single/multi-source shortest distances by ``rounds``
    synchronous Bellman-Ford relaxations (paths of ≤ rounds edges —
    callers bound the horizon explicitly; run with rounds ≥ diameter for
    the fixpoint). Integer weights → exact int64 mins, so a chained-CTE
    SQL oracle reproduces every distance bit-for-bit.

    Same broadcast-Pregel shape as :func:`pagerank`: per round ONE
    in-block relax over the edge Dataset (candidate = dist[src] + w,
    grouped min per dst) + a node-sized sort-free tree collect; the
    distance vector is the ``ray.put`` small side. Early-exits when a
    round changes nothing. Unreached nodes are absent from the output.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    dist = pd.Series(np.int64(0), index=pd.Index(sorted(set(sources))))

    def combine_min(pdf: pd.DataFrame) -> pd.DataFrame:
        return _bx_groupagg(pdf, node_col, {"_d": "min"})

    for _ in range(rounds):
        dist_ref = ray.put(dist)

        def relax(pdf: pd.DataFrame) -> pd.DataFrame:
            dv = ray.get(dist_ref)
            base = dv.reindex(pdf[src_col])
            hit = base.notna().to_numpy()
            if not hit.any():
                return pd.DataFrame(
                    {node_col: pdf[dst_col].iloc[:0], "_d": pd.Series([], dtype="int64")}
                )
            w = (
                pdf[weight_col].to_numpy(np.int64)
                if weight_col is not None
                else np.ones(len(pdf), dtype=np.int64)
            )
            cand = base.to_numpy()[hit].astype(np.int64) + w[hit]
            out = pd.DataFrame(
                {node_col: pdf[dst_col].to_numpy()[hit], "_d": cand}
            )
            return _bx_groupagg(out, node_col, {"_d": "min"})

        cand = _tree_collect(
            edges_ds.map_batches(relax, batch_format="pandas", batch_size=None),
            combine_min,
        )
        new = dist
        if len(cand):
            merged = pd.concat(
                [dist.rename("_d").rename_axis(node_col).reset_index(),
                 cand[[node_col, "_d"]]],
                ignore_index=True,
            )
            new = _bx_groupagg(merged, node_col, {"_d": "min"}).set_index(
                node_col
            )["_d"]
        if new.equals(dist):
            break
        dist = new
    out = dist.rename(dist_col).rename_axis(node_col).reset_index()
    out[dist_col] = out[dist_col].astype("int64")
    return out


_I64_MAX = np.iinfo(np.int64).max


def bellman_ford_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    weight_col: str | None,
    sources,
    rounds: int,
    node_col: str = "node",
    dist_col: str = "dist",
    num_partitions: int = 32,
):
    """:func:`bellman_ford_dists` with NO driver-resident node state —
    the scale path for reached sets too large to broadcast (the same
    seam :func:`pagerank_exchange` covers for ranks). Bit-identical
    distances, pinned by the parity test.

    The edge list is hash-partitioned by ``src`` ONCE
    (:func:`_stage_edge_partitions` — it is loop-invariant, so paying R
    exchanges for it was pure waste); the distance vector lives as P
    co-partitioned object-store tables. Each relaxation round is one
    :func:`_pregel_loop` step — 2·P raw tasks, zero Dataset executions:

    1. relax — per partition, a byte-exact inner merge of the local
       edges against the local ``(src, _d)`` state (inner semantics
       drop edges whose src is still unreached, mirroring the broadcast
       path's ``reindex`` mask); the per-dst candidate minimum
       ``_d + w`` is hash-split in-task toward the dst's home
       partition. Candidate volume is bounded by the frontier's
       out-neighborhood — the only cross-partition movement.
    2. fold — per node, the new distance is the min over prior state
       and candidates; the summed per-partition changed counts (P ints
       on the driver per round, nothing else) drive the early fixpoint
       exit exactly like the broadcast path's ``Series.equals`` check.

    Reserved internal column names: ``_d``, ``_st``;
    ``src_col``/``dst_col``/``node_col`` must not collide.

    Returns the final state as a Dataset of ``(node_col, dist_col)``.
    """
    import ray.data as rd

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not sources:
        raise ValueError("sources must be non-empty")

    P = num_partitions
    cols = [src_col, dst_col] + ([weight_col] if weight_col else [])
    edge_refs = _stage_edge_partitions(
        edges_ds, key_col=src_col, cols=cols, num_partitions=P
    )

    init = pd.DataFrame({node_col: sorted(set(sources))})
    init["_d"] = np.int64(0)
    init["_st"] = np.int8(1)
    state_refs = _split_state_refs(init, node_col, P)

    def relax_fn(edges_pdf: pd.DataFrame, state_pdf: pd.DataFrame):
        empty = pd.DataFrame(
            {
                node_col: pd.Series([], dtype=object),
                "_d": pd.Series([], dtype="int64"),
                "_st": pd.Series([], dtype="int8"),
            }
        )
        if edges_pdf.empty or state_pdf.empty:
            return empty
        st = byte_exact_group_cols(
            pd.DataFrame(
                {src_col: state_pdf[node_col], "_ds": state_pdf["_d"]}
            ),
            [src_col],
        )
        ed = byte_exact_group_cols(edges_pdf, [src_col])
        m = ed.merge(st, on=src_col, how="inner")
        if m.empty:
            return empty
        w = (
            m[weight_col].to_numpy(np.int64)
            if weight_col is not None
            else np.ones(len(m), dtype=np.int64)
        )
        cand = pd.DataFrame(
            {
                node_col: m[dst_col].to_numpy(),
                "_d": m["_ds"].to_numpy(np.int64) + w,
            }
        )
        out = _bx_groupagg(cand, node_col, {"_d": "min"})
        out["_st"] = np.int8(0)
        return out[[node_col, "_d", "_st"]]

    def fold_fn(state_pdf: pd.DataFrame, cand_pdf):
        if cand_pdf is None or cand_pdf.empty:
            return state_pdf[[node_col, "_d", "_st"]], 0
        both = pd.concat(
            [state_pdf[[node_col, "_d", "_st"]], cand_pdf],
            ignore_index=True,
        )
        d = both["_d"].to_numpy(np.int64)
        st = both["_st"].to_numpy(np.int8)
        old = np.where(st == 1, d, _I64_MAX)  # per-node prior dist
        g = _bx_groupagg(
            both.assign(_old=old), node_col, {"_d": "min", "_old": "min"}
        )
        changed = int(
            (g["_d"].to_numpy(np.int64) < g["_old"].to_numpy(np.int64)).sum()
        )
        g["_st"] = np.int8(1)
        return g[[node_col, "_d", "_st"]], changed

    if edge_refs is not None:
        state_refs = _pregel_loop(
            edge_refs,
            state_refs,
            node_col=node_col,
            relax_fn=relax_fn,
            fold_fn=fold_fn,
            rounds=rounds,
            num_partitions=P,
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column(node_col), t.column("_d").cast(pa.int64())],
            names=[node_col, dist_col],
        )

    return rd.from_arrow_refs(state_refs).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def shortest_hops_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    sources,
    max_hops: int = 4,
    node_col: str = "node",
    hops_col: str = "hops",
    num_partitions: int = 32,
):
    """:func:`shortest_hops` with NO driver-resident frontier — the
    unweighted specialization of :func:`bellman_ford_exchange` (every
    edge weight 1, horizon = ``max_hops``): min-hop distance IS the
    Bellman-Ford fixpoint under unit weights, so the frontier/visited
    bookkeeping the broadcast path keeps driver-side reduces to the
    same Dataset-resident distance fold. Bit-identical to the broadcast
    path (parity-pinned). Returns a Dataset of
    ``(node_col, hops_col)``."""
    return bellman_ford_exchange(
        edges_ds,
        src_col=src_col,
        dst_col=dst_col,
        weight_col=None,
        sources=sources,
        rounds=max_hops,
        node_col=node_col,
        dist_col=hops_col,
        num_partitions=num_partitions,
    )


def k_core(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    k: int,
    num_partitions: int = 16,
    max_rounds: int = 10_000,
) -> pd.DataFrame:
    """The k-core: iteratively peel nodes of degree < k until fixpoint;
    returns the surviving nodes with their in-core degrees.

    Per round: node-sized degree tree-collect → broadcast survivor set →
    one vectorized edge filter (edges stay a Dataset, materialized per
    round so lineage stays flat). Round count is the peel depth — data
    dependent, so the catalog entry is rows-only (an exact Python peel
    oracle pins it in tests).
    """
    import ray as _ray

    dedup = _canon_dedup_edges(
        edges_ds, src_col=src_col, dst_col=dst_col,
        num_partitions=num_partitions,
    )
    for _ in range(max_rounds):
        deg = _degree_table(dedup)
        if deg.empty:
            return pd.DataFrame(
                {"node": [], "core_degree": pd.Series([], dtype="int64")}
            )
        keep = deg[deg["d"] >= k]
        if len(keep) == len(deg):
            return pd.DataFrame(
                {
                    "node": keep["node"],
                    "core_degree": keep["d"].to_numpy(np.int64),
                }
            ).reset_index(drop=True)
        kref = _ray.put(pd.Index(keep["node"]))

        def filt(pdf: pd.DataFrame) -> pd.DataFrame:
            ks = _ray.get(kref)
            return pdf[pdf["u"].isin(ks) & pdf["v"].isin(ks)]

        dedup = dedup.map_batches(
            filt, batch_format="pandas", batch_size=None
        ).materialize()
    raise RuntimeError("k_core did not converge within max_rounds")


def k_core_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    k: int,
    num_partitions: int = 32,
    max_rounds: int = 10_000,
):
    """:func:`k_core` with NO driver-resident node state — the third
    member of the exchange-mode family (:func:`pagerank_exchange`,
    :func:`bellman_ford_exchange`), as a Pregel peel over MUTABLE
    resident adjacency partitions.

    The canonical-dedup'd edge list mirrors into adjacency rows
    ``(a, b)`` owned by ``a`` and hash-stages ONCE; every node's full
    neighbor list lives in its home partition, so per-round degrees
    are a LOCAL count — no exchange. A peel round is 2·P raw tasks:
    relax detects the partition's dying nodes (0 < deg < k) and emits
    one removal order per incident edge toward EACH endpoint's home
    partition (node-sized messages — the dying frontier's incident
    edges, shrinking every round); fold anti-merges the orders out of
    the local adjacency. The old implementation re-exchanged the whole
    (shrinking) edge set three times per round; now edges move exactly
    once, at staging. Fixpoint = a round with no deaths (early exit);
    a post-loop probe keeps the loud ``max_rounds`` contract.

    Returns a Dataset of ``(node, core_degree)``; bit-parity with
    :func:`k_core` is pinned in tests.
    """
    import ray.data as rd

    from arlas_proc_ray.stages.keyed import byte_exact_group_cols as _bx

    P = num_partitions
    dedup = _canon_dedup_edges(
        edges_ds, src_col=src_col, dst_col=dst_col, num_partitions=P
    )

    def mirror(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "a": np.concatenate(
                    [pdf["u"].to_numpy(), pdf["v"].to_numpy()]
                ),
                "b": np.concatenate(
                    [pdf["v"].to_numpy(), pdf["u"].to_numpy()]
                ),
            }
        )

    adj = dedup.map_batches(mirror, batch_format="pandas", batch_size=None)
    state_refs = _stage_edge_partitions(
        adj, key_col="a", cols=["a", "b"], num_partitions=P
    )
    empty = pa.table(
        {"node": pa.array([], pa.string()),
         "core_degree": pa.array([], pa.int64())}
    )
    if state_refs is None:
        return rd.from_arrow(empty)

    def _local_dead(adj_pdf: pd.DataFrame):
        deg = _bx_groupagg(
            adj_pdf.assign(_d=np.int64(1)), "a", {"_d": "sum"}
        )
        return set(deg[deg["_d"] < k]["a"].to_numpy(object))

    def relax_fn(_edges, adj_pdf: pd.DataFrame):
        empty_o = pd.DataFrame(
            {
                "node": pd.Series([], dtype=object),
                "_nb": pd.Series([], dtype=object),
            }
        )
        if adj_pdf.empty:
            return empty_o
        dead = _local_dead(adj_pdf)
        if not dead:
            return empty_o
        a = adj_pdf["a"].to_numpy(object)
        mask = np.fromiter((x in dead for x in a), dtype=bool, count=len(a))
        rows = adj_pdf[mask]
        # one order per endpoint: (a, b) removes the row at a's home,
        # (b, a) removes the mirror row at b's home
        return pd.DataFrame(
            {
                "node": np.concatenate(
                    [rows["a"].to_numpy(), rows["b"].to_numpy()]
                ),
                "_nb": np.concatenate(
                    [rows["b"].to_numpy(), rows["a"].to_numpy()]
                ),
            }
        )

    def fold_fn(adj_pdf: pd.DataFrame, orders):
        if orders is None or orders.empty or adj_pdf.empty:
            return adj_pdf[["a", "b"]], 0
        left = _bx(adj_pdf[["a", "b"]].copy(), ["a", "b"])
        right = _bx(
            orders.rename(columns={"node": "a", "_nb": "b"})
            .drop_duplicates(),
            ["a", "b"],
        )
        m = left.merge(right, on=["a", "b"], how="left", indicator=True)
        keep = m[m["_merge"] == "left_only"][["a", "b"]]
        keep = restore_object_cols(keep, ["a", "b"])
        return keep.reset_index(drop=True), int(len(adj_pdf) - len(keep))

    state_refs = _pregel_loop(
        state_refs,  # relax ignores the static arg; adjacency IS the state
        state_refs,
        node_col="node",
        relax_fn=relax_fn,
        fold_fn=fold_fn,
        rounds=max_rounds,
        num_partitions=P,
    )

    @ray.remote
    def probe(state: pa.Table) -> int:
        pdf = state.to_pandas()
        return len(_local_dead(pdf)) if len(pdf) else 0

    if sum(ray.get([probe.remote(r) for r in state_refs])):
        raise RuntimeError("k_core_exchange did not converge within max_rounds")

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "node": pa.array([], t.column("a").type),
                    "core_degree": pa.array([], pa.int64()),
                }
            )
        g = _bx_groupagg(
            t.to_pandas().assign(_d=np.int64(1)), "a", {"_d": "sum"}
        )
        return pa.Table.from_pandas(
            pd.DataFrame(
                {
                    "node": g["a"],
                    "core_degree": g["_d"].astype("int64"),
                }
            ),
            preserve_index=False,
        ).replace_schema_metadata(None)

    return rd.from_arrow_refs(state_refs).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def label_propagation(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    rounds: int = 3,
    node_col: str = "node",
    label_col: str = "label",
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Synchronous label-propagation community detection, the
    DETERMINISTIC variant (Raghavan 2007's LPA with fixed tie-breaks so
    a chained-CTE SQL oracle reproduces every label exactly):

    ``label₀[v] = v``; per round every node adopts the most frequent
    label among its IN-neighbors' current labels (multigraph edge rows
    count — no DISTINCT needed, same linearity argument as
    :func:`pagerank`), ties broken by the SMALLEST label (byte order);
    a node with no in-edges keeps its label. Pass a mirrored edge list
    for undirected semantics. Fixed ``rounds``, no convergence test —
    callers choose the horizon exactly like :func:`bellman_ford_dists`.

    Scale shape: the (node, neighbor-label) count table can approach
    DISTINCT-EDGE size in round 1 (all labels start distinct), so the
    per-node argmax does NOT run on the driver — partials fold through
    one keyed exchange per round and the argmax is computed
    in-partition; only the final node-sized (node, label) vector is
    collected for the next round's broadcast. Exact integer counts +
    byte-order min ⇒ bit-identical to the SQL oracle.

    Returns a node-sized DataFrame ``(node_col, label_col)``.
    """
    from arlas_proc_ray.stages.keyed import keyed_partition_map

    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    def node_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        both = pd.concat(
            [pdf[src_col], pdf[dst_col]], ignore_index=True
        ).to_numpy()
        return _bx_unique(both, node_col)

    universe = _tree_collect(
        edges_ds.map_batches(
            node_partial, batch_format="pandas", batch_size=None
        ),
        lambda pdf: _bx_unique(pdf[node_col].to_numpy(), node_col),
    )
    if universe.empty:
        return pd.DataFrame(
            {node_col: [], label_col: pd.Series([], dtype=object)}
        )
    nodes = universe[node_col].to_numpy(object)
    labels = pd.Series(nodes.copy(), index=pd.Index(nodes))

    for _ in range(rounds):
        lab_ref = ray.put(labels)

        def count_partial(pdf: pd.DataFrame) -> pd.DataFrame:
            lab = ray.get(lab_ref)
            nl = lab.reindex(pdf[src_col]).to_numpy(object)
            return _bx_groupagg(
                pd.DataFrame(
                    {
                        node_col: pdf[dst_col].to_numpy(),
                        "_lab": nl,
                        "c": np.ones(len(pdf), dtype=np.int64),
                    }
                ),
                [node_col, "_lab"],
                {"c": "sum"},
            )

        def pick(pdf: pd.DataFrame) -> pd.DataFrame:
            # keyed_partition_map hands node_col Arrow-backed, but _lab
            # is NOT an exchange key — route the re-sum through the
            # byte-exact helper or NUL-variant labels merge
            g = _bx_groupagg(pdf, [node_col, "_lab"], {"c": "sum"})
            g = byte_exact_group_cols(g, [node_col])
            m = g.groupby(node_col, sort=False)["c"].transform("max")
            best = g[g["c"] == m]
            # min over _lab is comparison-based (byte-exact on objects)
            out = best.groupby(node_col, sort=False, as_index=False)[
                "_lab"
            ].min()
            return restore_object_cols(out, [node_col])

        picked = keyed_partition_map(
            edges_ds.map_batches(
                count_partial, batch_format="pandas", batch_size=None
            ),
            keys=[node_col],
            order_col="c",
            fn=pick,
            num_partitions=num_partitions,
        ).to_pandas()  # node-sized by construction (one row per node)
        # dict-based update: .loc alignment on object string indexes is
        # hash-based and NUL-merges; Python dict lookups are byte-exact
        upd = dict(
            zip(
                picked[node_col].to_numpy(object),
                picked["_lab"].to_numpy(object),
            )
        )
        labels = pd.Series(
            np.array(
                [upd.get(v, old)
                 for v, old in zip(nodes, labels.to_numpy(object))],
                dtype=object,
            ),
            index=labels.index,
        )

    out = labels.rename(label_col).rename_axis(node_col).reset_index()
    return out.sort_values(node_col, kind="mergesort").reset_index(drop=True)


def min_label_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    rounds: int,
    node_col: str = "node",
    label_col: str = "label",
    num_partitions: int = 16,
) -> "object":
    """Fixed-depth synchronous min-label propagation — connected
    components when ``rounds`` ≥ the graph diameter (pass a mirrored
    edge list; labels only flow along edge direction). label₀(v) = v;
    each round label(v) = min(label(v), min over in-neighbors' labels).
    Comparison is Python/pandas string order = byte order for the
    one-byte-per-code-point ids this repo keys graphs with, matching
    SQL binary collation — which is what makes a FIXED-DEPTH chained-CTE
    oracle bit-exact (both sides run exactly ``rounds`` steps; early
    exit below only fires once a round changes nothing, when extra
    rounds are identity on both sides anyway).

    Runs on the resident-edge Pregel kit: edges hash-stage ONCE
    (:func:`_stage_edge_partitions`), one bootstrap step folds the node
    universe with label = own id (zero driver node state), then each
    round is 2·P raw tasks moving node-sized (node, label) candidates.
    The dedup family's :mod:`arlas_proc_ray.dedup.components` remains
    the unbounded-diameter path (pointer doubling, O(log diameter));
    this is the bounded-depth, oracle-exact sibling.

    Returns a Dataset of ``(node_col, label_col)``.
    """
    import ray.data as rd

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    P = num_partitions
    edge_refs = _stage_edge_partitions(
        edges_ds, key_col=src_col, cols=[src_col, dst_col], num_partitions=P
    )
    if edge_refs is None:
        return rd.from_arrow(
            pa.table(
                {
                    node_col: pa.array([], pa.string()),
                    label_col: pa.array([], pa.string()),
                }
            )
        )

    def seed_scatter(edges_pdf: pd.DataFrame, _state) -> pd.DataFrame:
        both = np.concatenate(
            [edges_pdf[src_col].to_numpy(), edges_pdf[dst_col].to_numpy()]
        )
        return _bx_groupagg(
            pd.DataFrame({node_col: both, "_lb": both}),
            node_col,
            {"_lb": "min"},
        )

    def seed_fold(_state, cand_pdf):
        if cand_pdf is None or cand_pdf.empty:
            return (
                pd.DataFrame(
                    {
                        node_col: pd.Series([], dtype=object),
                        "_lb": pd.Series([], dtype=object),
                    }
                ),
                0,
            )
        return _bx_groupagg(cand_pdf, node_col, {"_lb": "min"}), 0

    state_refs = _pregel_loop(
        edge_refs,
        None,
        node_col=node_col,
        relax_fn=seed_scatter,
        fold_fn=seed_fold,
        rounds=1,
        num_partitions=P,
        early_exit=False,
    )

    def relax_fn(edges_pdf: pd.DataFrame, state_pdf: pd.DataFrame):
        empty = pd.DataFrame(
            {
                node_col: pd.Series([], dtype=object),
                "_lb": pd.Series([], dtype=object),
            }
        )
        if edges_pdf.empty or state_pdf.empty:
            return empty
        st = byte_exact_group_cols(
            pd.DataFrame(
                {src_col: state_pdf[node_col], "_lb": state_pdf["_lb"]}
            ),
            [src_col],
        )
        ed = byte_exact_group_cols(edges_pdf[[src_col, dst_col]], [src_col])
        m = ed.merge(st, on=src_col, how="inner")
        if m.empty:
            return empty
        return _bx_groupagg(
            pd.DataFrame(
                {node_col: m[dst_col].to_numpy(), "_lb": m["_lb"].to_numpy()}
            ),
            node_col,
            {"_lb": "min"},
        )

    def fold_fn(state_pdf: pd.DataFrame, cand_pdf):
        if cand_pdf is None or cand_pdf.empty:
            return state_pdf[[node_col, "_lb"]], 0
        both = pd.concat(
            [state_pdf[[node_col, "_lb"]], cand_pdf[[node_col, "_lb"]]],
            ignore_index=True,
        )
        g = _bx_groupagg(both, node_col, {"_lb": "min"})
        prior = dict(zip(state_pdf[node_col], state_pdf["_lb"]))
        changed = sum(
            1
            for v, lb in zip(g[node_col], g["_lb"])
            if prior.get(v) != lb
        )
        return g, changed

    state_refs = _pregel_loop(
        edge_refs,
        state_refs,
        node_col=node_col,
        relax_fn=relax_fn,
        fold_fn=fold_fn,
        rounds=rounds,
        num_partitions=P,
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column(node_col), t.column("_lb")],
            names=[node_col, label_col],
        )

    return rd.from_arrow_refs(state_refs).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def hits_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    iterations: int = 2,
    scale: int = 10**9,
    node_col: str = "node",
    hub_col: str = "hub",
    auth_col: str = "authority",
    num_partitions: int = 16,
):
    """HITS (Kleinberg 1999) hubs/authorities with NO driver node state,
    on the resident-edge Pregel kit.

    ``h₀(v) = scale``; per iteration ``a(v) = Σ_{(u,v)} h(u)`` then
    ``h(u) = Σ_{(u,v)} a(v)``, each followed by EXACT integer
    renormalization ``x ← x·scale // max(x)`` (big-int product, one
    floor division — no L2 norm, no float drift, so a chained-CTE SQL
    oracle using HUGEINT reproduces every value bit-for-bit; the max
    itself is deterministic). Nodes with no in-edges score authority 0,
    no out-edges hub 0 — the raw-sum form. Multigraph edge lists feed
    straight in (both sums are linear over edge rows).

    Scale shape: the edge list stages TWICE, by src (the a-step's
    producer side) and by dst (the h-step's) — two edge exchanges TOTAL
    regardless of iteration count; every half-step is 2·P raw tasks
    moving node-sized score rows, plus one P-partial global max on the
    driver (two ints per iteration — the renormalization scalar).

    Returns a Dataset of ``(node_col, hub_col, auth_col)`` int64.
    """
    import ray.data as rd

    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    P = num_partitions
    by_src = _stage_edge_partitions(
        edges_ds, key_col=src_col, cols=[src_col, dst_col], num_partitions=P
    )
    by_dst = _stage_edge_partitions(
        edges_ds, key_col=dst_col, cols=[src_col, dst_col], num_partitions=P
    )
    if by_src is None:
        return rd.from_arrow(
            pa.table(
                {
                    node_col: pa.array([], pa.string()),
                    hub_col: pa.array([], pa.int64()),
                    auth_col: pa.array([], pa.int64()),
                }
            )
        )

    def seed_scatter(edges_pdf: pd.DataFrame, _state) -> pd.DataFrame:
        both = np.concatenate(
            [edges_pdf[src_col].to_numpy(), edges_pdf[dst_col].to_numpy()]
        )
        return _bx_groupagg(
            pd.DataFrame({node_col: both, "_one": np.int64(1)}),
            node_col,
            {"_one": "max"},
        )

    def seed_fold(_state, cand_pdf):
        if cand_pdf is None or cand_pdf.empty:
            return (
                pd.DataFrame(
                    {
                        node_col: pd.Series([], dtype=object),
                        "h": pd.Series([], dtype="int64"),
                        "a": pd.Series([], dtype="int64"),
                    }
                ),
                0,
            )
        g = _bx_groupagg(cand_pdf, node_col, {"_one": "max"})
        g["h"] = np.int64(scale)
        g["a"] = np.int64(0)
        return g[[node_col, "h", "a"]], 0

    state_refs = _pregel_loop(
        by_src,
        None,
        node_col=node_col,
        relax_fn=seed_scatter,
        fold_fn=seed_fold,
        rounds=1,
        num_partitions=P,
        early_exit=False,
    )

    def _sum_step(producer_key, consumer_key, read_col, write_col):
        """relax/fold pair: consumer's write_col = Σ producer read_col
        over the staged edge direction; the OTHER score rides along."""
        other = "a" if write_col == "h" else "h"

        def relax_fn(edges_pdf: pd.DataFrame, state_pdf: pd.DataFrame):
            empty = pd.DataFrame(
                {
                    node_col: pd.Series([], dtype=object),
                    "_c": pd.Series([], dtype="int64"),
                }
            )
            if edges_pdf.empty or state_pdf.empty:
                return empty
            st = byte_exact_group_cols(
                pd.DataFrame(
                    {
                        producer_key: state_pdf[node_col],
                        "_v": state_pdf[read_col],
                    }
                ),
                [producer_key],
            )
            ed = byte_exact_group_cols(
                edges_pdf[[src_col, dst_col]], [producer_key]
            )
            m = ed.merge(st, on=producer_key, how="inner")
            if m.empty:
                return empty
            return _bx_groupagg(
                pd.DataFrame(
                    {
                        node_col: m[consumer_key].to_numpy(),
                        "_c": m["_v"].to_numpy(np.int64),
                    }
                ),
                node_col,
                {"_c": "sum"},
            )

        def fold_fn(state_pdf: pd.DataFrame, cand_pdf):
            # int64-pure union+group-sum: the written score is REPLACED
            # by the candidate sum (0 when nothing arrived), the other
            # score rides through untouched
            srows = pd.DataFrame(
                {
                    node_col: state_pdf[node_col],
                    "_o": state_pdf[other].to_numpy(np.int64),
                    "_c": np.int64(0),
                }
            )
            if cand_pdf is not None and not cand_pdf.empty:
                crows = pd.DataFrame(
                    {
                        node_col: cand_pdf[node_col].to_numpy(),
                        "_o": np.int64(0),
                        "_c": cand_pdf["_c"].to_numpy(np.int64),
                    }
                )
                srows = pd.concat([srows, crows], ignore_index=True)
            g = _bx_groupagg(srows, node_col, {"_o": "sum", "_c": "sum"})
            out = pd.DataFrame({node_col: g[node_col]})
            out[other] = g["_o"].to_numpy(np.int64)
            out[write_col] = g["_c"].to_numpy(np.int64)
            return out[[node_col, "h", "a"]], 0

        return relax_fn, fold_fn

    @ray.remote
    def part_max(state: pa.Table, col: str) -> int:
        pdf = state.to_pandas()
        return int(pdf[col].max()) if len(pdf) else 0

    @ray.remote
    def rescale(state: pa.Table, col: str, mx: int) -> pa.Table:
        pdf = state.to_pandas()
        if len(pdf) and mx > 0:
            # big-int product, exact floor division (x·scale can pass
            # int64 for high-degree graphs — HUGEINT on the SQL side)
            pdf[col] = pd.Series(
                [int(x) * scale // mx for x in pdf[col]],
                dtype="int64",
                index=pdf.index,
            )
        return pa.Table.from_pandas(
            pdf, preserve_index=False
        ).replace_schema_metadata(None)

    def half_step(edge_refs, producer_key, consumer_key, read_col, write_col):
        nonlocal state_refs
        relax_fn, fold_fn = _sum_step(
            producer_key, consumer_key, read_col, write_col
        )
        state_refs = _pregel_loop(
            edge_refs,
            state_refs,
            node_col=node_col,
            relax_fn=relax_fn,
            fold_fn=fold_fn,
            rounds=1,
            num_partitions=P,
            early_exit=False,
        )
        mx = max(ray.get([part_max.remote(r, write_col) for r in state_refs]))
        state_refs = [rescale.remote(r, write_col, mx) for r in state_refs]

    for _ in range(iterations):
        half_step(by_src, src_col, dst_col, "h", "a")
        half_step(by_dst, dst_col, src_col, "a", "h")

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t.column(node_col),
                t.column("h").cast(pa.int64()),
                t.column("a").cast(pa.int64()),
            ],
            names=[node_col, hub_col, auth_col],
        )

    return rd.from_arrow_refs(state_refs).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def label_propagation_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    rounds: int = 3,
    node_col: str = "node",
    label_col: str = "label",
    num_partitions: int = 16,
):
    """:func:`label_propagation` with NO driver-resident label vector —
    the fourth exchange-mode twin (pagerank / bellman-ford / k-core):
    labels live as P co-partitioned object-store tables on the
    resident-edge Pregel kit. Bit-identical to the broadcast path
    (parity-pinned): same most-frequent-in-neighbor-label update, same
    smallest-label tie-break (byte order), same keep-label-when-no-
    in-edges rule, fixed ``rounds``.

    Per round: relax merges the LOCAL edges (staged ONCE by src — the
    broadcast path re-reads the lazy edge pipeline every round) against
    the local labels and emits per-(dst, label) count partials toward
    the dst's home partition — the (node, label) candidate table is the
    same distinct-edge-bounded volume the broadcast path's keyed
    exchange moved, but the edges themselves never move again. Fold
    re-sums, takes the max-count / min-label winner per node, and keeps
    the old label where nothing arrived.

    Returns a Dataset of ``(node_col, label_col)``.
    """
    import ray.data as rd

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    P = num_partitions
    edge_refs = _stage_edge_partitions(
        edges_ds, key_col=src_col, cols=[src_col, dst_col], num_partitions=P
    )
    if edge_refs is None:
        return rd.from_arrow(
            pa.table(
                {
                    node_col: pa.array([], pa.string()),
                    label_col: pa.array([], pa.string()),
                }
            )
        )

    def seed_scatter(edges_pdf: pd.DataFrame, _state) -> pd.DataFrame:
        both = np.concatenate(
            [edges_pdf[src_col].to_numpy(), edges_pdf[dst_col].to_numpy()]
        )
        return _bx_groupagg(
            pd.DataFrame({node_col: both, "_lb": both}),
            node_col,
            {"_lb": "min"},  # min(v, v) = v: one seed row per node
        )

    def seed_fold(_state, cand_pdf):
        if cand_pdf is None or cand_pdf.empty:
            return (
                pd.DataFrame(
                    {
                        node_col: pd.Series([], dtype=object),
                        "_lb": pd.Series([], dtype=object),
                    }
                ),
                0,
            )
        return _bx_groupagg(cand_pdf, node_col, {"_lb": "min"}), 0

    state_refs = _pregel_loop(
        edge_refs,
        None,
        node_col=node_col,
        relax_fn=seed_scatter,
        fold_fn=seed_fold,
        rounds=1,
        num_partitions=P,
        early_exit=False,
    )

    def relax_fn(edges_pdf: pd.DataFrame, state_pdf: pd.DataFrame):
        empty = pd.DataFrame(
            {
                node_col: pd.Series([], dtype=object),
                "_lb": pd.Series([], dtype=object),
                "_c": pd.Series([], dtype="int64"),
            }
        )
        if edges_pdf.empty or state_pdf.empty:
            return empty
        st = byte_exact_group_cols(
            pd.DataFrame(
                {src_col: state_pdf[node_col], "_lb": state_pdf["_lb"]}
            ),
            [src_col],
        )
        ed = byte_exact_group_cols(edges_pdf[[src_col, dst_col]], [src_col])
        m = ed.merge(st, on=src_col, how="inner")
        if m.empty:
            return empty
        return _bx_groupagg(
            pd.DataFrame(
                {
                    node_col: m[dst_col].to_numpy(),
                    "_lb": m["_lb"].to_numpy(),
                    "_c": np.ones(len(m), dtype=np.int64),
                }
            ),
            [node_col, "_lb"],
            {"_c": "sum"},
        )

    def fold_fn(state_pdf: pd.DataFrame, cand_pdf):
        if cand_pdf is None or cand_pdf.empty:
            return state_pdf[[node_col, "_lb"]], 0
        g = _bx_groupagg(cand_pdf, [node_col, "_lb"], {"_c": "sum"})
        g = byte_exact_group_cols(g, [node_col])
        mx = g.groupby(node_col, sort=False)["_c"].transform("max")
        best = g[g["_c"] == mx]
        picked = best.groupby(node_col, sort=False, as_index=False)[
            "_lb"
        ].min()  # comparison-based min: byte-exact on objects
        picked = restore_object_cols(picked, [node_col])
        # keep-old-label where nothing arrived: byte-exact dict update
        upd = dict(
            zip(
                picked[node_col].to_numpy(object),
                picked["_lb"].to_numpy(object),
            )
        )
        old = state_pdf["_lb"].to_numpy(object)
        new = np.array(
            [
                upd.get(v, o)
                for v, o in zip(state_pdf[node_col].to_numpy(object), old)
            ],
            dtype=object,
        )
        changed = int((new != old).sum())
        out = pd.DataFrame({node_col: state_pdf[node_col], "_lb": new})
        return out, changed

    state_refs = _pregel_loop(
        edge_refs,
        state_refs,
        node_col=node_col,
        relax_fn=relax_fn,
        fold_fn=fold_fn,
        rounds=rounds,
        num_partitions=P,
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column(node_col), t.column("_lb")],
            names=[node_col, label_col],
        )

    return rd.from_arrow_refs(state_refs).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def deterministic_walks(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    starts: pd.DataFrame,
    length: int,
    walk_col: str = "walk",
    node_col: str = "node",
    step_col: str = "step",
    num_partitions: int = 16,
    step_mult: int = 1_000_003,
):
    """Deterministic fixed-length graph walks — the walk-corpus
    generator (DeepWalk/node2vec-style training data) with NO RNG
    state: at a node with d distinct sorted out-neighbors, walk w's
    step s moves to neighbor ``splitmix64(w·step_mult + s) % d``.
    Counter-based selection makes every walk reproducible across runs,
    cluster resizes and a SQL oracle (HUGEINT splitmix64 +
    ROW_NUMBER over the byte-ordered neighbor list).

    Scale shape: edges hash-stage ONCE by src on the resident-edge
    Pregel kit and are dedup'd + byte-order-sorted in place (P local
    tasks — a node's whole neighbor list lives in its home partition,
    so DISTINCT needs no exchange); walk state ``(node, walk, step)``
    hops between partitions as node-sized candidate rows, each step
    2·P raw tasks. Every intermediate position is RETAINED as that
    round's state partition refs — the output Dataset reads them
    zero-copy, nothing walk-corpus-sized ever lands on the driver.
    Walks at a node with no out-neighbors end (their rows simply stop).

    ``starts``: DataFrame with ``walk_col`` (int64 walk id — the hash
    counter) and ``node_col`` (string start node). Returns a Dataset of
    ``(walk_col, step_col, node_col)`` covering steps 0..length.
    """
    import ray.data as rd

    from arlas_proc_ray.cdc.events import _splitmix64

    if length < 0:
        raise ValueError("length must be >= 0")
    P = num_partitions
    edge_refs = _stage_edge_partitions(
        edges_ds, key_col=src_col, cols=[src_col, dst_col], num_partitions=P
    )
    out_schema = pa.schema(
        [
            (node_col, pa.string()),
            ("_wk", pa.int64()),
            ("_st", pa.int64()),
        ]
    )
    init = pd.DataFrame(
        {
            node_col: starts[node_col].to_numpy(object),
            "_wk": starts[walk_col].to_numpy(np.int64),
            "_st": np.zeros(len(starts), dtype=np.int64),
        }
    )
    state_refs = _split_state_refs(init, node_col, P)
    round_refs = [list(state_refs)]

    if edge_refs is not None and length > 0:

        @ray.remote
        def dedup_sort(t: pa.Table) -> pa.Table:
            # a node's whole out-list is local: DISTINCT + byte-order
            # sort per partition IS the global adjacency order
            pdf = byte_exact_group_cols(
                t.to_pandas()[[src_col, dst_col]], [src_col, dst_col]
            )
            pdf = pdf.drop_duplicates().sort_values([src_col, dst_col])
            return pa.Table.from_pandas(
                restore_object_cols(pdf, [src_col, dst_col]),
                preserve_index=False,
            ).replace_schema_metadata(None)

        edge_refs = [dedup_sort.remote(r) for r in edge_refs]

        def relax_fn(adj_pdf: pd.DataFrame, walks_pdf: pd.DataFrame):
            if adj_pdf.empty or walks_pdf.empty:
                return out_schema.empty_table()
            a = adj_pdf[src_col].to_numpy(object)
            b = adj_pdf[dst_col].to_numpy(object)
            # sorted adjacency → group boundaries by value change
            chg = np.flatnonzero(a[1:] != a[:-1]) + 1
            starts_ = np.concatenate([[0], chg])
            ends_ = np.concatenate([chg, [len(a)]])
            span = {
                a[s]: (s, e - s) for s, e in zip(starts_, ends_)
            }  # byte-exact dict keys
            cur = walks_pdf[node_col].to_numpy(object)
            wk = walks_pdf["_wk"].to_numpy(np.int64)
            st = walks_pdf["_st"].to_numpy(np.int64)
            keep = np.fromiter(
                (c in span for c in cur), dtype=bool, count=len(cur)
            )
            if not keep.any():
                return out_schema.empty_table()
            cur, wk, st = cur[keep], wk[keep], st[keep]
            with np.errstate(over="ignore"):
                h = _splitmix64(
                    (wk * np.int64(step_mult) + st + 1).astype(np.uint64)
                )
            off = np.empty(len(cur), dtype=np.int64)
            for i, c in enumerate(cur):  # walk-sized, not edge-sized
                s, d = span[c]
                off[i] = s + int(h[i] % np.uint64(d))
            return pd.DataFrame(
                {node_col: b[off], "_wk": wk, "_st": st + 1}
            )

        def fold_fn(state_pdf: pd.DataFrame, cand_pdf):
            # walks MOVE: arrivals replace the old state entirely
            if cand_pdf is None or cand_pdf.empty:
                return out_schema.empty_table(), 0
            return (
                cand_pdf[[node_col, "_wk", "_st"]],
                len(cand_pdf),
            )

        for _ in range(length):
            state_refs = _pregel_loop(
                edge_refs,
                state_refs,
                node_col=node_col,
                relax_fn=relax_fn,
                fold_fn=fold_fn,
                rounds=1,
                num_partitions=P,
            )
            round_refs.append(list(state_refs))

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t.column("_wk").cast(pa.int64()),
                t.column("_st").cast(pa.int64()),
                t.column(node_col),
            ],
            names=[walk_col, step_col, node_col],
        )

    flat = [r for refs in round_refs for r in refs]
    return rd.from_arrow_refs(flat).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def earliest_arrival_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    ts_col: str,
    sources,
    start_ts: int,
    rounds: int,
    node_col: str = "node",
    arr_col: str = "arrival",
    num_partitions: int = 16,
):
    """Temporal (time-respecting) earliest-arrival reachability over a
    timestamped edge list: starting from ``sources`` at ``start_ts``,
    an edge ``(u, v, t)`` is traversable iff ``t ≥ arrival(u)``, and
    ``arrival(v)`` is the minimum such ``t`` — the earliest moment
    influence can reach v along nondecreasing-timestamp paths (the
    standard temporal-graph reachability semantics; fraud rings,
    information-diffusion cones). Arrivals only decrease, so the update
    is a monotone fixpoint; with FIXED ``rounds`` on both sides, a
    chained-CTE SQL oracle is bit-exact (early exit below fires only
    when a round changes nothing — identity for both sides).

    Runs on the resident-edge Pregel kit: edges (with their int64
    timestamps) hash-stage ONCE by src; each round is 2·P raw tasks —
    relax byte-exact-merges the LOCAL edges against the local arrival
    state, keeps rows with ``ts ≥ arrival(src)`` and emits per-dst
    minimum candidate arrivals (node-sized movement); fold min-merges
    with a changed count for the fixpoint exit.

    Returns a Dataset of ``(node_col, arr_col)`` int64 — one row per
    reached node (sources at ``start_ts``); unreached nodes absent.
    """
    import ray.data as rd

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not sources:
        raise ValueError("sources must be non-empty")
    P = num_partitions
    edge_refs = _stage_edge_partitions(
        edges_ds,
        key_col=src_col,
        cols=[src_col, dst_col, ts_col],
        num_partitions=P,
    )

    init = pd.DataFrame({node_col: sorted(set(sources))})
    init["_a"] = np.int64(start_ts)
    state_refs = _split_state_refs(init, node_col, P)

    def relax_fn(edges_pdf: pd.DataFrame, state_pdf: pd.DataFrame):
        empty = pa.table(
            {node_col: pa.array([], pa.string()),
             "_a": pa.array([], pa.int64())}
        )
        if edges_pdf.empty or state_pdf.empty:
            return empty
        st = byte_exact_group_cols(
            pd.DataFrame(
                {src_col: state_pdf[node_col], "_sa": state_pdf["_a"]}
            ),
            [src_col],
        )
        ed = byte_exact_group_cols(edges_pdf, [src_col])
        m = ed.merge(st, on=src_col, how="inner")
        m = m[m[ts_col].to_numpy(np.int64) >= m["_sa"].to_numpy(np.int64)]
        if m.empty:
            return empty
        return _bx_groupagg(
            pd.DataFrame(
                {
                    node_col: m[dst_col].to_numpy(),
                    "_a": m[ts_col].to_numpy(np.int64),
                }
            ),
            node_col,
            {"_a": "min"},
        )

    def fold_fn(state_pdf: pd.DataFrame, cand_pdf):
        if cand_pdf is None or cand_pdf.empty:
            return state_pdf[[node_col, "_a"]], 0
        both = pd.concat(
            [
                state_pdf[[node_col, "_a"]].assign(_st=np.int8(1)),
                cand_pdf[[node_col, "_a"]].assign(_st=np.int8(0)),
            ],
            ignore_index=True,
        )
        a = both["_a"].to_numpy(np.int64)
        st = both["_st"].to_numpy(np.int8)
        old = np.where(st == 1, a, _I64_MAX)
        g = _bx_groupagg(
            both.assign(_old=old), node_col, {"_a": "min", "_old": "min"}
        )
        changed = int(
            (g["_a"].to_numpy(np.int64) < g["_old"].to_numpy(np.int64)).sum()
        )
        return g[[node_col, "_a"]], changed

    if edge_refs is not None:
        state_refs = _pregel_loop(
            edge_refs,
            state_refs,
            node_col=node_col,
            relax_fn=relax_fn,
            fold_fn=fold_fn,
            rounds=rounds,
            num_partitions=P,
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column(node_col), t.column("_a").cast(pa.int64())],
            names=[node_col, arr_col],
        )

    return rd.from_arrow_refs(state_refs).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def katz_centrality_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    rounds: int = 3,
    alpha_den: int = 4,
    node_col: str = "node",
    katz_col: str = "katz",
    num_partitions: int = 32,
):
    """Bounded-horizon Katz centrality with EXACT integer arithmetic on
    the resident-edge Pregel kit — zero driver node state.

    ``katz(v) = Σ_{k=1..rounds} α^k · walks_k(v)`` with ``α =
    1/alpha_den`` and ``walks_k(v)`` the number of length-k walks ending
    at ``v`` from the all-ones start vector. Scores are returned scaled
    by ``alpha_den^rounds`` so every value is an exact int64: the
    attenuated sum folds through the recurrence ``s_k = alpha_den ·
    s_{k-1} + w_k`` (algebraically ``s_K = Σ alpha_den^{K-k} w_k``) —
    no float attenuation drift, so a chained-CTE SQL oracle reproduces
    every bit. Beyond-reference surface (the reference, gisaia/
    ARLAS-proc, has no graph ops).

    Caller contract (int64 headroom): walk counts grow like
    ``max_degree^rounds`` — keep ``rounds`` at the classic 3–4 and feed
    DISTINCT edges unless multigraph walk semantics are intended
    (everything here is linear over edge rows, so duplicates weight
    walks by multiplicity rather than erroring).

    Shape: the edge list hash-stages ONCE by ``src_col``
    (:func:`_stage_edge_partitions` — loop-invariant); a bootstrap
    :func:`_pregel_loop` pass folds the node set out of the edge
    partitions (state: ``_w = 1`` walk of length 0, ``_s = 0``); each
    walk round is one Pregel step — relax inner-merges local edges
    against local ``(src, _w)`` state byte-exactly and emits per-dst
    walk-count sums, fold applies the attenuation recurrence (absent
    candidates fold as ``w = 0``; the score still scales by
    ``alpha_den``, which is why ``early_exit`` stays off). 2·P raw
    tasks per round; only node-sized state crosses partitions.
    """
    import ray.data as rd

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if alpha_den < 2:
        raise ValueError("alpha_den must be >= 2 (alpha = 1/alpha_den < 1)")

    P = num_partitions
    edge_refs = _stage_edge_partitions(
        edges_ds, key_col=src_col, cols=[src_col, dst_col], num_partitions=P
    )
    if edge_refs is None:
        return rd.from_pandas(
            pd.DataFrame(
                {node_col: pd.Series([], dtype=object),
                 katz_col: pd.Series([], dtype="int64")}
            )
        )

    def boot_relax(edges_pdf: pd.DataFrame, _state):
        both = pd.concat(
            [edges_pdf[src_col], edges_pdf[dst_col]], ignore_index=True
        )
        out = _bx_unique(both, node_col)
        out["_w"] = np.int64(1)
        out["_s"] = np.int64(0)
        return out

    def boot_fold(_state, cand_pdf):
        if cand_pdf is None or cand_pdf.empty:
            return (
                pd.DataFrame(
                    {node_col: pd.Series([], dtype=object),
                     "_w": pd.Series([], dtype="int64"),
                     "_s": pd.Series([], dtype="int64")}
                ),
                0,
            )
        out = _bx_groupagg(cand_pdf, node_col, {"_w": "max", "_s": "max"})
        return out[[node_col, "_w", "_s"]], len(out)

    state_refs = _pregel_loop(
        edge_refs, None, node_col=node_col, relax_fn=boot_relax,
        fold_fn=boot_fold, rounds=1, num_partitions=P,
    )

    def relax_fn(edges_pdf: pd.DataFrame, state_pdf: pd.DataFrame):
        empty = pd.DataFrame(
            {node_col: pd.Series([], dtype=object),
             "_w": pd.Series([], dtype="int64")}
        )
        if edges_pdf.empty or state_pdf.empty:
            return empty
        st = byte_exact_group_cols(
            pd.DataFrame(
                {src_col: state_pdf[node_col], "_ws": state_pdf["_w"]}
            ),
            [src_col],
        )
        ed = byte_exact_group_cols(edges_pdf, [src_col])
        m = ed.merge(st, on=src_col, how="inner")
        if m.empty:
            return empty
        cand = pd.DataFrame(
            {node_col: m[dst_col].to_numpy(),
             "_w": m["_ws"].to_numpy(np.int64)}
        )
        return _bx_groupagg(cand, node_col, {"_w": "sum"})

    def fold_fn(state_pdf: pd.DataFrame, cand_pdf):
        w_new = np.zeros(len(state_pdf), dtype=np.int64)
        if cand_pdf is not None and not cand_pdf.empty:
            c = _bx_groupagg(cand_pdf, node_col, {"_w": "sum"})
            pos = (
                byte_exact_group_cols(
                    state_pdf[[node_col]].copy(), [node_col]
                )[node_col]
                .reset_index(drop=True)
            )
            ck = byte_exact_group_cols(c, [node_col])
            idx = pd.Series(
                np.arange(len(pos), dtype=np.int64), index=pos
            )
            w_new[idx.loc[ck[node_col]].to_numpy(np.int64)] = (
                ck["_w"].to_numpy(np.int64)
            )
        out = state_pdf[[node_col]].copy()
        out["_w"] = w_new
        out["_s"] = (
            state_pdf["_s"].to_numpy(np.int64) * np.int64(alpha_den) + w_new
        )
        return out, int((w_new != 0).sum())

    state_refs = _pregel_loop(
        edge_refs, state_refs, node_col=node_col, relax_fn=relax_fn,
        fold_fn=fold_fn, rounds=rounds, num_partitions=P,
        early_exit=False,  # absent walks still scale _s by alpha_den
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column(node_col), t.column("_s").cast(pa.int64())],
            names=[node_col, katz_col],
        )

    return rd.from_arrow_refs(state_refs).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def harmonic_centrality(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    max_hops: int = 3,
    num_partitions: int = 16,
    max_bitset_nodes: int = 8192,
    include_closeness: bool = False,
) -> pd.DataFrame:
    """Exact bounded-horizon harmonic centrality over an undirected
    graph: ``H(v) = Σ_{u≠v, d(u,v) ≤ max_hops} L / d(u,v)`` scaled by
    ``L = lcm(1..max_hops)`` so every score is an exact int64 — no
    float-reciprocal drift, hash-exact vs a chained frontier-CTE SQL
    oracle. Beyond-reference surface (the reference has no graph ops).

    ``include_closeness=True`` appends the bounded-horizon closeness
    ingredients as two more exact int64 columns from the SAME newly-
    reached counts (zero extra passes): ``n_reached`` (nodes within
    ``max_hops``, self excluded) and ``sum_dist`` (Σ d(u,v) over them) —
    the caller derives any closeness variant, e.g. Wasserman-Faust
    ``(n_reached²) / (sum_dist·(n−1))``, without this function picking
    a float convention.

    Regime: adjacency-BITSET all-sources BFS, the same n²/8 broadcast
    budget as :func:`clustering_coefficients`' bitset path
    (``max_bitset_nodes``; past it this raises — per-pair distances for
    big sparse graphs are a different algorithm, e.g. ANF sketches, see
    :func:`neighborhood_growth`). Per hop ``d``: one ``map_batches``
    pass over the DEDUPED edge Dataset ORs each endpoint's reached-set
    rows into the other endpoint's new row (per-block n×w partials,
    OR-merged driver-side under the node-sized collect contract — the
    exact shape :func:`_triangles_bitset` uses to build adjacency);
    newly-set bits contribute ``L // d`` each. Edges never leave their
    blocks; the driver holds O(n²/8) bitset state, never pair rows.
    """
    import math

    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    dedup = _canon_dedup_edges(
        edges_ds, src_col=src_col, dst_col=dst_col,
        num_partitions=num_partitions,
    )
    deg = _degree_table(dedup)
    if deg.empty:
        out = pd.DataFrame(
            {
                "node": pd.Series([], dtype=object),
                "degree": pd.Series([], dtype="int64"),
                "harmonic": pd.Series([], dtype="int64"),
            }
        )
        if include_closeness:
            out["n_reached"] = pd.Series([], dtype="int64")
            out["sum_dist"] = pd.Series([], dtype="int64")
        return out
    n = len(deg)
    if n > max_bitset_nodes:
        raise ValueError(
            f"{n} nodes exceeds the bitset broadcast budget "
            f"({max_bitset_nodes}); bounded-horizon per-pair distances "
            "past it need a sketch (neighborhood_growth) or a smaller "
            "node subset"
        )
    deg = deg.sort_values(["d", "node"], kind="mergesort").reset_index(
        drop=True
    )
    rank = pd.Series(np.arange(n, dtype=np.int64), index=deg["node"])
    words = (n + 63) // 64
    L = math.lcm(*range(1, max_hops + 1))
    rank_ref = ray.put(rank)

    # reached_0 = self only
    reached = np.zeros((n, words), dtype=np.uint64)
    ids = np.arange(n, dtype=np.int64)
    reached[ids, ids >> 6] |= np.uint64(1) << (ids & 63).astype(np.uint64)

    harmonic = np.zeros(n, dtype=np.int64)
    n_reached = np.zeros(n, dtype=np.int64)
    sum_dist = np.zeros(n, dtype=np.int64)
    for d in range(1, max_hops + 1):
        r_ref = ray.put(reached)

        def frontier_partial(pdf: pd.DataFrame) -> pd.DataFrame:
            r = ray.get(rank_ref)
            R = ray.get(r_ref)
            ui = pdf["u"].map(r).to_numpy(np.int64)
            vi = pdf["v"].map(r).to_numpy(np.int64)
            C = np.zeros((n, words), dtype=np.uint64)
            np.bitwise_or.at(C, (vi,), R[ui])
            np.bitwise_or.at(C, (ui,), R[vi])
            return pa.table(
                {"bits": pa.array([C.ravel().tolist()], pa.list_(pa.uint64()))}
            ).to_pandas()

        parts = dedup.map_batches(
            frontier_partial, batch_format="pandas", batch_size=None
        ).to_pandas()
        new = reached.copy()
        flat = new.ravel()
        for bits in parts["bits"]:
            flat |= np.asarray(bits, dtype=np.uint64)
        newly = new & ~reached
        cnt = _POP8[newly.view(np.uint8)].reshape(n, -1).sum(axis=1)
        harmonic += (L // d) * cnt
        n_reached += cnt
        sum_dist += d * cnt
        reached = new
        if not cnt.any():
            break  # fixpoint: no pair gains a shorter-or-equal path later

    out = pd.DataFrame(
        {
            "node": deg["node"],
            "degree": deg["d"].to_numpy(np.int64),
            "harmonic": harmonic,
        }
    )
    if include_closeness:
        out["n_reached"] = n_reached
        out["sum_dist"] = sum_dist
    return out


def degree_assortativity(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    num_partitions: int = 16,
) -> pd.DataFrame:
    """Degree assortativity (Newman 2002): the Pearson correlation of
    endpoint degrees over the MIRRORED distinct undirected edge list —
    one row ``(n_pairs, sum_deg, sum_prod, assortativity)``.

    Exactness: mirrored pairs make the x/y marginals identical, so
    ``r = (4m·Σxy' − S₁²) / (2m·S₂ − S₁²)`` with ``m`` distinct edges,
    ``S₁ = Σ(dᵤ+dᵥ)``, ``Σxy' = Σdᵤdᵥ``, ``S₂ = Σ(dᵤ²+dᵥ²)`` — a single
    division of two EXACT integers (no sqrt), folded driver-side in
    arbitrary-precision Python ints from per-block int64 partials, so
    the SQL oracle (HUGEINT arithmetic, one DOUBLE cast each side)
    matches bit-for-bit.

    Shape: one dedup exchange (:func:`_canon_dedup_edges`), the
    node-sized degree table broadcast via ``ray.put``, then one
    ``map_batches`` over the deduped edges emitting a ONE-ROW moment
    partial per block — no further shuffle at any scale.
    """
    dedup = _canon_dedup_edges(
        edges_ds, src_col=src_col, dst_col=dst_col,
        num_partitions=num_partitions,
    )
    deg = _degree_table(dedup)
    empty = pd.DataFrame(
        {
            "n_pairs": pd.Series([], dtype="int64"),
            "sum_deg": pd.Series([], dtype="int64"),
            "sum_prod": pd.Series([], dtype="int64"),
            "assortativity": pd.Series([], dtype="float64"),
        }
    )
    if deg.empty:
        return empty
    deg_map = pd.Series(
        deg["d"].to_numpy(np.int64), index=deg["node"]
    )
    deg_ref = ray.put(deg_map)

    def mom_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        dm = ray.get(deg_ref)
        x = pdf["u"].map(dm).to_numpy(np.int64)
        y = pdf["v"].map(dm).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "m": np.array([len(pdf)], dtype=np.int64),
                "s1": [int((x + y).sum())],
                "sp": [int((x * y).sum())],
                "s2": [int((x * x + y * y).sum())],
            }
        )

    parts = dedup.map_batches(
        mom_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    if parts.empty:
        return empty
    # Python-int fold: exact at any scale (per-block partials are the
    # only int64-bounded quantities; products below may exceed 2^63)
    m = int(parts["m"].sum())
    s1 = sum(int(v) for v in parts["s1"])
    sp = sum(int(v) for v in parts["sp"])
    s2 = sum(int(v) for v in parts["s2"])
    num = 4 * m * sp - s1 * s1
    den = 2 * m * s2 - s1 * s1
    r = float(num) / float(den) if den else 0.0
    return pd.DataFrame(
        {
            "n_pairs": np.array([2 * m], dtype=np.int64),
            "sum_deg": np.array([s1], dtype=np.int64),
            "sum_prod": np.array([2 * sp], dtype=np.int64),
            "assortativity": np.array([r], dtype=np.float64),
        }
    )


def stress_centrality_exchange(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    source,
    max_hops: int = 3,
    node_col: str = "node",
    num_partitions: int = 32,
):
    """Bounded-horizon single-source STRESS centrality (Shimbel 1953):
    ``stress(v) = Σ_t σ_st(v)`` — the number of shortest source→target
    paths passing through ``v`` — for targets within ``max_hops``.

    This is the Brandes two-phase shape made EXACT-INTEGER: betweenness
    divides by σ_st (float drift, no bit-exact oracle), but stress
    factors as ``σ_sv · φ(v)`` where σ is the forward shortest-path
    count and ``φ(v) = Σ_{w ∈ succ_DAG(v)} (1 + φ(w))`` counts the
    DAG-suffix paths — two division-free DP passes, so a chained-CTE
    SQL oracle reproduces every bit. int64 headroom contract: path
    counts multiply level widths — keep ``max_hops`` at the classic 3–4
    and feed DISTINCT edges (duplicates would multiply path counts).

    Distributed shape (resident-edge Pregel kit, zero driver node
    state): the DEDUPED edge list stages twice — keyed by ``src`` for
    the forward level-synchronous σ pass (frontier nodes send σ along
    out-edges; unreached receivers fold ``dist = d, σ = Σ``), and keyed
    by ``dst`` for the backward φ pass (nodes at depth d+1 send
    ``1 + φ`` to in-neighbors; depth-d nodes fold the sum). Each of the
    ``2·max_hops`` rounds is one :func:`_pregel_loop` step moving
    node-sized state only. Returns a Dataset of
    ``(node, dist, sigma, stress)`` for reached nodes; the source row
    has stress 0 by convention (paths *through* an endpoint don't
    count).
    """
    import ray.data as rd

    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    P = num_partitions

    fwd_refs = _stage_edge_partitions(
        edges_ds, key_col=src_col, cols=[src_col, dst_col], num_partitions=P
    )
    empty_out = pd.DataFrame(
        {
            node_col: pd.Series([], dtype=object),
            "dist": pd.Series([], dtype="int64"),
            "sigma": pd.Series([], dtype="int64"),
            "stress": pd.Series([], dtype="int64"),
        }
    )
    if fwd_refs is None:
        return rd.from_pandas(empty_out)
    bwd_refs = _stage_edge_partitions(
        edges_ds, key_col=dst_col, cols=[src_col, dst_col], num_partitions=P
    )

    init = pd.DataFrame(
        {node_col: [source], "_d": np.int64(0), "_sg": np.int64(1),
         "_phi": np.int64(-1)}
    )
    state_refs = _split_state_refs(init, node_col, P)

    # ---- forward: level-synchronous shortest-path counts ----
    for d in range(1, max_hops + 1):

        def relax_fn(edges_pdf: pd.DataFrame, state_pdf: pd.DataFrame,
                     _d=d):
            empty = pd.DataFrame(
                {node_col: pd.Series([], dtype=object),
                 "_sg": pd.Series([], dtype="int64")}
            )
            if edges_pdf.empty or state_pdf.empty:
                return empty
            fr = state_pdf[state_pdf["_d"].to_numpy(np.int64) == _d - 1]
            if fr.empty:
                return empty
            st = byte_exact_group_cols(
                pd.DataFrame({src_col: fr[node_col], "_s": fr["_sg"]}),
                [src_col],
            )
            ed = byte_exact_group_cols(edges_pdf, [src_col])
            m = ed.merge(st, on=src_col, how="inner")
            if m.empty:
                return empty
            cand = pd.DataFrame(
                {node_col: m[dst_col].to_numpy(),
                 "_sg": m["_s"].to_numpy(np.int64)}
            )
            return _bx_groupagg(cand, node_col, {"_sg": "sum"})

        def fold_fn(state_pdf: pd.DataFrame, cand_pdf, _d=d):
            cols = [node_col, "_d", "_sg", "_phi"]
            if cand_pdf is None or cand_pdf.empty:
                return state_pdf[cols], 0
            c = _bx_groupagg(cand_pdf, node_col, {"_sg": "sum"})
            seen = byte_exact_group_cols(
                state_pdf[[node_col]].copy(), [node_col]
            )[node_col]
            ck = byte_exact_group_cols(c, [node_col])
            new = restore_object_cols(
                ck[~ck[node_col].isin(set(seen))].copy(), [node_col]
            )
            if new.empty:
                return state_pdf[cols], 0
            new["_d"] = np.int64(_d)
            new["_phi"] = np.int64(-1)
            out = pd.concat(
                [state_pdf[cols], new[cols]], ignore_index=True
            )
            return out, len(new)

        state_refs = _pregel_loop(
            fwd_refs, state_refs, node_col=node_col, relax_fn=relax_fn,
            fold_fn=fold_fn, rounds=1, num_partitions=P,
        )

    # ---- backward: DAG-suffix path counts φ ----
    # deepest reached level starts at φ = 0; then φ(v at d) folds
    # Σ (1 + φ(w at d+1)) over DAG out-edges
    def seed_phi(state_pdf: pd.DataFrame, cand_pdf, _mh=max_hops):
        out = state_pdf.copy()
        dd = out["_d"].to_numpy(np.int64)
        phi = out["_phi"].to_numpy(np.int64).copy()
        phi[dd == _mh] = 0
        out["_phi"] = phi
        return out, 0

    state_refs = _pregel_loop(
        bwd_refs, state_refs, node_col=node_col,
        relax_fn=lambda e, s: pd.DataFrame(
            {node_col: pd.Series([], dtype=object)}
        ),
        fold_fn=seed_phi, rounds=1, num_partitions=P, early_exit=False,
    )

    for d in range(max_hops - 1, -1, -1):

        def relax_bwd(edges_pdf: pd.DataFrame, state_pdf: pd.DataFrame,
                      _d=d):
            empty = pd.DataFrame(
                {node_col: pd.Series([], dtype=object),
                 "_c": pd.Series([], dtype="int64")}
            )
            if edges_pdf.empty or state_pdf.empty:
                return empty
            deep = state_pdf[
                state_pdf["_d"].to_numpy(np.int64) == _d + 1
            ]
            if deep.empty:
                return empty
            st = byte_exact_group_cols(
                pd.DataFrame(
                    {dst_col: deep[node_col],
                     "_p": deep["_phi"].to_numpy(np.int64) + 1}
                ),
                [dst_col],
            )
            ed = byte_exact_group_cols(edges_pdf, [dst_col])
            m = ed.merge(st, on=dst_col, how="inner")
            if m.empty:
                return empty
            cand = pd.DataFrame(
                {node_col: m[src_col].to_numpy(),
                 "_c": m["_p"].to_numpy(np.int64)}
            )
            return _bx_groupagg(cand, node_col, {"_c": "sum"})

        def fold_bwd(state_pdf: pd.DataFrame, cand_pdf, _d=d):
            cols = [node_col, "_d", "_sg", "_phi"]
            out = state_pdf[cols].copy()
            dd = out["_d"].to_numpy(np.int64)
            phi = out["_phi"].to_numpy(np.int64).copy()
            add = np.zeros(len(out), dtype=np.int64)
            if cand_pdf is not None and not cand_pdf.empty:
                c = _bx_groupagg(cand_pdf, node_col, {"_c": "sum"})
                pos_keys = byte_exact_group_cols(
                    out[[node_col]].copy(), [node_col]
                )[node_col].reset_index(drop=True)
                idx = pd.Series(
                    np.arange(len(pos_keys), dtype=np.int64), index=pos_keys
                )
                ck = byte_exact_group_cols(c, [node_col])
                hit = ck[node_col].isin(idx.index)
                add[idx.loc[ck[node_col][hit]].to_numpy(np.int64)] = (
                    ck["_c"].to_numpy(np.int64)[hit.to_numpy()]
                )
            # only depth-_d nodes finalize this round (their DAG
            # successors, depth _d+1, just became final)
            mask = dd == _d
            phi[mask] = add[mask]
            out["_phi"] = phi
            return out, int(mask.sum())

        state_refs = _pregel_loop(
            bwd_refs, state_refs, node_col=node_col, relax_fn=relax_bwd,
            fold_fn=fold_bwd, rounds=1, num_partitions=P,
            early_exit=False,
        )

    def finish(t: pa.Table) -> pa.Table:
        pdf = t.to_pandas()
        sg = pdf["_sg"].to_numpy(np.int64)
        phi = np.maximum(pdf["_phi"].to_numpy(np.int64), 0)
        dd = pdf["_d"].to_numpy(np.int64)
        stress = np.where(dd == 0, np.int64(0), sg * phi)
        out = pd.DataFrame(
            {
                node_col: pdf[node_col],
                "dist": dd,
                "sigma": sg,
                "stress": stress,
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return rd.from_arrow_refs(state_refs).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def common_neighbor_features(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    num_partitions: int = 16,
    max_bitset_nodes: int = 8192,
):
    """Per-edge link-prediction features over an undirected graph: for
    every DISTINCT canonical edge (u, v) — ``common`` (|N(u) ∩ N(v)|),
    the endpoint degrees, and ``union_n`` (|N(u) ∪ N(v)| = deg_u +
    deg_v − common) — all exact int64, so Jaccard / overlap / any
    similarity convention derives downstream without a float policy
    here. Beyond-reference surface.

    Shape: the adjacency-bitset regime of :func:`_triangles_bitset`
    reused edge-parallel — one dedup exchange, node-sized degree
    collect, distributed bitset build (per-block n×w partials,
    OR-merged under the node-sized contract), then ONE ``map_batches``
    AND+popcount pass over the deduped edge Dataset that emits a
    feature row per edge instead of folding a sum. Same n²/8 broadcast
    budget (loud past ``max_bitset_nodes``); edges never leave their
    blocks, output is edge-sized and stays a Dataset.
    """
    import ray.data as rd

    dedup = _canon_dedup_edges(
        edges_ds, src_col=src_col, dst_col=dst_col,
        num_partitions=num_partitions,
    )
    deg = _degree_table(dedup)
    if deg.empty:
        return rd.from_pandas(
            pd.DataFrame(
                {
                    "u": pd.Series([], dtype=object),
                    "v": pd.Series([], dtype=object),
                    "common": pd.Series([], dtype="int64"),
                    "deg_u": pd.Series([], dtype="int64"),
                    "deg_v": pd.Series([], dtype="int64"),
                    "union_n": pd.Series([], dtype="int64"),
                }
            )
        )
    n = len(deg)
    if n > max_bitset_nodes:
        raise ValueError(
            f"{n} nodes exceeds the bitset broadcast budget "
            f"({max_bitset_nodes}); per-edge common-neighbor counts past "
            "it go through the wedge pipeline's pair emission instead"
        )
    deg = deg.sort_values(["d", "node"], kind="mergesort").reset_index(
        drop=True
    )
    rank = pd.Series(np.arange(n, dtype=np.int64), index=deg["node"])
    words = (n + 63) // 64
    rank_ref = ray.put(rank)
    deg_ref = ray.put(
        pd.Series(deg["d"].to_numpy(np.int64), index=deg["node"])
    )

    def bits_partial(pdf: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        ui = pdf["u"].map(r).to_numpy(np.int64)
        vi = pdf["v"].map(r).to_numpy(np.int64)
        B = np.zeros((n, words), dtype=np.uint64)
        for a, b in ((ui, vi), (vi, ui)):
            np.bitwise_or.at(
                B, (a, b >> 6), np.uint64(1) << (b & 63).astype(np.uint64)
            )
        return pa.table(
            {"bits": pa.array([B.ravel().tolist()], pa.list_(pa.uint64()))}
        ).to_pandas()

    parts = dedup.map_batches(
        bits_partial, batch_format="pandas", batch_size=None
    ).to_pandas()
    B = np.zeros(n * words, dtype=np.uint64)
    for bits in parts["bits"]:
        B |= np.asarray(bits, dtype=np.uint64)
    bits_ref = ray.put(B.reshape(n, words))

    def edge_features(pdf: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        dm = ray.get(deg_ref)
        adj = ray.get(bits_ref)
        ui = pdf["u"].map(r).to_numpy(np.int64)
        vi = pdf["v"].map(r).to_numpy(np.int64)
        common = np.zeros(len(ui), dtype=np.int64)
        for lo in range(0, len(ui), 4096):  # bound the AND matrix's heap
            us, vs = ui[lo:lo + 4096], vi[lo:lo + 4096]
            rows = adj[us] & adj[vs]
            common[lo:lo + 4096] = (
                _POP8[rows.view(np.uint8)].reshape(len(us), -1).sum(axis=1)
            )
        du = pdf["u"].map(dm).to_numpy(np.int64)
        dv = pdf["v"].map(dm).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "u": pdf["u"].to_numpy(),
                "v": pdf["v"].to_numpy(),
                "common": common,
                "deg_u": du,
                "deg_v": dv,
                "union_n": du + dv - common,
            }
        )

    return dedup.map_batches(
        edge_features, batch_format="pandas", batch_size=None
    )
