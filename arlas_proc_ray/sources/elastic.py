"""Elasticsearch bulk sink (writeToElasticsearch parity, transport-injected).

Reference surface (sql/WritableDataFrame.scala:83-107):

- ``writeToElasticsearch(dataModel, target)`` — one index, row id =
  ``<id>#<timestamp>`` (``es.mapping.id``);
- the dynamic-index variant — ``target`` contains ``{}`` replaced per row
  by a column's value (e.g. monthly indices), with ``mappingExcluded``
  columns kept out of the document.

Ray mapping: each ``map_batches`` task formats its batch as ES ``_bulk``
NDJSON (action line + source line per row) and posts it through an
injectable TRANSPORT — so the bulk protocol, id construction, dynamic
index routing, column exclusion, chunking and the reference's failure
policy (connection-level error ABORTS the job, per-record rejections are
counted and the pipeline continues — utils/RestTool.scala:39-45,61-73)
are all real and tested; only the socket is swapped out. This sandbox has
no network, so the default transport is the in-process ``MockElasticsearch``
actor (a tiny bulk-API server: parses NDJSON, upserts by ``(_index, _id)``
— which also makes retried Ray tasks idempotent, same as the real ES);
an http transport plugs into the same seam.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable

import pandas as pd

import ray


class EsWriteAbort(RuntimeError):
    """Connection-level transport failure — aborts the job."""


@ray.remote(num_cpus=0)
class MockElasticsearch:
    """In-process stand-in for the ES ``_bulk`` endpoint.

    Parses the NDJSON protocol for the ``index`` action and upserts by
    ``(_index, _id)`` — duplicate ids overwrite (ES semantics), which is
    what makes at-least-once task retries harmless.
    """

    def __init__(self, reject_id_prefix: str | None = None):
        self.docs: dict[tuple[str, str], dict] = {}
        self.reject_id_prefix = reject_id_prefix
        self.bulk_calls = 0

    def bulk(self, body: str) -> dict:
        self.bulk_calls += 1
        lines = [ln for ln in body.split("\n") if ln]
        items, errors = [], False
        i = 0
        while i < len(lines):
            action = json.loads(lines[i])
            i += 1
            if "delete" in action:
                # delete actions carry NO source line (bulk protocol);
                # deleting a missing doc is 404 — idempotent, not an error
                meta = action["delete"]
                existed = self.docs.pop((meta["_index"], meta["_id"]), None)
                items.append(
                    {"delete": {"_id": meta["_id"],
                                "status": 200 if existed is not None else 404}}
                )
                continue
            source = json.loads(lines[i])
            i += 1
            meta = action["index"]
            _id, _index = meta["_id"], meta["_index"]
            if self.reject_id_prefix and _id.startswith(self.reject_id_prefix):
                errors = True
                items.append(
                    {"index": {"_id": _id, "status": 400,
                               "error": {"type": "mapper_parsing_exception"}}}
                )
                continue
            self.docs[(_index, _id)] = source
            items.append({"index": {"_id": _id, "status": 201}})
        return {"errors": errors, "items": items}

    def search_all(self) -> list[dict]:
        return [
            {"_index": ix, "_id": _id, "_source": src}
            for (ix, _id), src in sorted(self.docs.items())
        ]

    def stats(self) -> dict:
        return {"docs": len(self.docs), "bulk_calls": self.bulk_calls}


class ActorTransport:
    """Picklable transport posting bulk bodies to a MockElasticsearch actor."""

    def __init__(self, actor):
        self.actor = actor

    def bulk(self, body: str) -> dict:
        return ray.get(self.actor.bulk.remote(body))


class HttpTransport:
    """Stdlib transport for a real ES ``_bulk`` endpoint (no client lib).

    Untestable in this sandbox (no network) — the protocol itself is
    exercised against ``MockElasticsearch``; this class only swaps the
    socket, exactly the injection seam the sink was designed around.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.url = base_url.rstrip("/") + "/_bulk"
        self.timeout = timeout

    def bulk(self, body: str) -> dict:
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            self.url,
            data=body.encode(),
            headers={"Content-Type": "application/x-ndjson"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.URLError as ex:  # connection-level → abort policy
            raise ConnectionError(str(ex)) from ex


class CountingTransport:
    """Dry-run transport: accepts every action, sends nothing."""

    def bulk(self, body: str) -> dict:
        return {"errors": False, "items": []}


def _bulk_ndjson(
    pdf: pd.DataFrame,
    *,
    index_for_row,
    id_series: pd.Series,
    excluded: set[str],
    deletes=None,
) -> str:
    """One ``_bulk`` NDJSON body: an ``index`` action and its source line
    per row, or, where ``deletes`` (a boolean per row) is true, a
    ``delete`` action with no source line."""
    docs = pdf.drop(columns=[c for c in excluded if c in pdf.columns])
    if deletes is None:
        deletes = itertools.repeat(False)
    lines = []
    for (_, row), _id, _ix, dead in zip(
        docs.iterrows(), id_series, index_for_row, deletes
    ):
        if dead:
            lines.append(json.dumps({"delete": {"_index": _ix, "_id": _id}}))
            continue
        lines.append(json.dumps({"index": {"_index": _ix, "_id": _id}}))
        lines.append(json.dumps({k: _jsonable(v) for k, v in row.items()}))
    return "\n".join(lines) + "\n"


def _jsonable(v):
    if isinstance(v, pd.Timestamp):
        return v.isoformat()
    if pd.api.types.is_scalar(v) and pd.isna(v):
        return None
    if hasattr(v, "item"):
        return v.item()
    return v


def write_to_elasticsearch(
    ds,
    target: str,
    *,
    id_col: str,
    ts_col: str | None = None,
    dynamic_index_col: str | None = None,
    mapping_excluded: tuple[str, ...] = (),
    transport_factory: Callable[[], object],
    chunk_rows: int = 500,
) -> dict:
    """Distributed bulk index; returns {"indexed": n, "rejected": n}.

    ``target``: index name, or a pattern with ``{}`` consumed by
    ``dynamic_index_col`` (WritableDataFrame.scala:89-107). The row id is
    ``<id_col>#<ts_col>`` when ``ts_col`` is given (the reference's
    ``es.mapping.id`` column, :84-86), else ``id_col`` alone.

    Stats caveat: document writes are idempotent (upsert on (_index,
    _id)), but the returned ``indexed``/``rejected`` totals sum per-task
    counters — a Ray task retried after a transient worker failure
    re-counts its batch, so totals can OVERCOUNT after retries. Treat
    them as progress telemetry; derive exact counts from the sink (e.g.
    an index doc-count delta) when they must be authoritative.
    """
    excluded = set(mapping_excluded) | (
        {dynamic_index_col} if dynamic_index_col else set()
    )

    def send(pdf: pd.DataFrame) -> pd.DataFrame:
        transport = transport_factory()
        ids = (
            pdf[id_col].astype(str) + "#" + pdf[ts_col].astype(str)
            if ts_col
            else pdf[id_col].astype(str)
        )
        index_for_row = (
            [target.replace("{}", str(v)) for v in pdf[dynamic_index_col]]
            if dynamic_index_col
            else [target] * len(pdf)
        )
        indexed = rejected = 0
        for start in range(0, len(pdf), chunk_rows):
            chunk = pdf.iloc[start : start + chunk_rows]
            body = _bulk_ndjson(
                chunk,
                index_for_row=index_for_row[start : start + chunk_rows],
                id_series=ids.iloc[start : start + chunk_rows],
                excluded=excluded,
            )
            try:
                resp = transport.bulk(body)
            except (ConnectionError, TimeoutError) as ex:
                raise EsWriteAbort(str(ex)) from ex
            if resp.get("errors"):
                bad = sum(
                    1
                    for it in resp["items"]
                    if it["index"].get("status", 200) >= 300
                )
                rejected += bad
                indexed += len(chunk) - bad
            else:
                indexed += len(chunk)
        return pd.DataFrame({"indexed": [indexed], "rejected": [rejected]})

    counts = ds.map_batches(send, batch_format="pandas", batch_size=None).to_pandas()
    return {
        "indexed": int(counts["indexed"].sum()),
        "rejected": int(counts["rejected"].sum()),
    }
