"""Declarative table constraints enforced at ingest (Delta-style CHECK).

The reference pipeline hard-codes its row validity rules inside each
transformer (e.g. ``WithoutOutOfRangeLocation``,
transform/WithoutOutOfRangeLocation.scala); a lakehouse table instead
declares them ONCE and every writer enforces them. A constraint set is

    {"name": [(column, op, value), ...], ...}

— each named constraint is a CONJUNCTION of clauses in the store's
established predicate language (``snapshot.plan_scan``), evaluated
vectorized (pyarrow.compute, no Python rows) against the CANONICAL
schema-aligned event row, so v1 events are checked after renames.

Semantics, chosen to match SQL CHECK:

- a clause whose operand is NULL neither passes nor fails — the row
  violates only when some clause is strictly FALSE (``NOT NULL`` is its
  own explicit op);
- DELETE events are exempt (a tombstone carries no payload contract);
- PATCH events are exempt from ``not_null`` only (a NULL in a PATCH
  means "untouched", cdc/patch.py) — their non-null columns are checked.

Violation policy is the writer's choice per engine:

- ``on_violation="fail"`` (default): the epoch aborts with
  ``ConstraintViolation`` before its commit marker exists — the store is
  untouched (uncommitted litter is reclaimed by ``gc_orphans``);
- ``on_violation="dead_letter"``: violating rows quarantine to the DLQ
  (reason ``check:<name>``, same content-addressed idempotent sink as
  the structural-validity quarantine, replay.write_quarantine) and the
  epoch commits without them.

The constraint set persists in ``<store.root>/constraints.json`` at
engine construction — resumed runs and other writers on the same store
enforce the same contract, and a writer that disagrees with the
persisted set is rejected loudly instead of silently diverging.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "not_null")


class ConstraintViolation(ValueError):
    """Raised (on_violation="fail") when an epoch carries violating rows."""


def validate_spec(constraints: dict, schema: pa.Schema) -> None:
    """Reject malformed specs at engine construction, not mid-epoch."""
    for name, clauses in constraints.items():
        if not clauses:
            raise ValueError(f"constraint {name!r} has no clauses")
        for clause in clauses:
            col, op = clause[0], clause[1]
            if op not in _OPS:
                raise ValueError(
                    f"constraint {name!r}: unknown op {op!r} "
                    f"(supported: {_OPS})"
                )
            if col not in schema.names:
                raise ValueError(
                    f"constraint {name!r} references {col!r}, not a "
                    f"canonical column (have {schema.names})"
                )


def _clause_false_mask(table: pa.Table, col: str, op: str, val) -> pa.Array:
    """Boolean mask: True where the clause is STRICTLY false (null → ok)."""
    c = table.column(col)
    if op == "not_null":
        return pc.is_null(c).combine_chunks()
    if op == "in":
        ok = pc.is_in(c, value_set=pa.array(list(val)))
    else:
        kernel = {
            "==": pc.equal, "!=": pc.not_equal,
            "<": pc.less, "<=": pc.less_equal,
            ">": pc.greater, ">=": pc.greater_equal,
        }[op]
        ok = kernel(c, pa.scalar(val))
    # strictly false = valid AND not ok (a null comparison passes)
    return pc.fill_null(pc.invert(ok), False).combine_chunks()


def violation_reasons(table: pa.Table, constraints: dict) -> np.ndarray:
    """Per-row reason (``check:<name>`` of the first violated constraint,
    None where clean), fully vectorized."""
    n = table.num_rows
    reason = np.full(n, None, dtype=object)
    if n == 0:
        return reason
    ops = table.column("op")
    exempt_all = pc.equal(ops, pa.scalar("DELETE"))
    is_patch = pc.equal(ops, pa.scalar("PATCH"))
    exempt_all_np = pc.fill_null(exempt_all, False).to_numpy(
        zero_copy_only=False
    )
    patch_np = pc.fill_null(is_patch, False).to_numpy(zero_copy_only=False)
    for name, clauses in constraints.items():
        violated = np.zeros(n, dtype=bool)
        for clause in clauses:
            col, op = clause[0], clause[1]
            val = clause[2] if len(clause) > 2 else None
            false_mask = _clause_false_mask(table, col, op, val).to_numpy(
                zero_copy_only=False
            )
            if op == "not_null":
                false_mask = false_mask & ~patch_np  # PATCH null = untouched
            violated |= false_mask
        violated &= ~exempt_all_np
        unset = reason == None  # noqa: E711
        reason[unset & violated] = f"check:{name}"
    return reason


def make_constraint_fn(
    constraints: dict,
    *,
    on_violation: str,
    dead_letter_dir: str | None,
    epoch: int,
):
    """Batch fn (canonical-schema in/out) enforcing the constraint set."""
    if on_violation not in ("fail", "dead_letter"):
        raise ValueError(f"unknown on_violation: {on_violation!r}")
    if on_violation == "dead_letter" and dead_letter_dir is None:
        raise ValueError(
            "on_violation='dead_letter' needs dead_letter_dir= on "
            "apply_epoch (the quarantine sink)"
        )

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        reason = violation_reasons(batch, constraints)
        bad = reason != None  # noqa: E711
        if not bad.any():
            return batch
        if on_violation == "fail":
            names, counts = np.unique(reason[bad].astype(str),
                                      return_counts=True)
            detail = ", ".join(
                f"{nm} ×{int(ct)}" for nm, ct in zip(names, counts)
            )
            raise ConstraintViolation(
                f"epoch {epoch}: {int(bad.sum())} row(s) violate table "
                f"constraints ({detail}); fix the stream or ingest with "
                f"on_violation='dead_letter'"
            )
        from arlas_proc_ray.cdc.replay import write_quarantine

        quarantined = batch.filter(pa.array(bad)).append_column(
            "dlq_reason", pa.array(reason[bad], pa.string())
        )
        write_quarantine(quarantined, dead_letter_dir, epoch)
        return batch.filter(pa.array(~bad))

    return fn


def make_ingest_head(
    registry,
    dm,
    *,
    epoch: int,
    dead_letter_dir: str | None,
    constraints: dict | None,
    on_violation: str = "fail",
):
    """The canonical per-batch ingest head: structural validity (DLQ)
    or plain schema alignment, then table-constraint enforcement. Every
    CdcEngine epoch runs it (``apply_epoch`` and both staged
    exchanges)."""
    from arlas_proc_ray.cdc.replay import (
        make_align_fn,
        make_dead_letter_fn,
    )

    if dead_letter_dir is not None:
        base = make_dead_letter_fn(registry, dm, dead_letter_dir, epoch)
    else:
        base = make_align_fn(registry)
    if not constraints:
        return base
    check = make_constraint_fn(
        constraints,
        on_violation=on_violation,
        dead_letter_dir=dead_letter_dir,
        epoch=epoch,
    )

    def fn(batch: pa.Table) -> pa.Table:
        return check(base(batch))

    return fn


# ------------------------------------------------------------- persistence
def _path(store) -> str:
    return os.path.join(store.root, "constraints.json")


def save_constraints(store, constraints: dict) -> None:
    from arlas_proc_ray.cdc.snapshot import _atomic_write_bytes

    canon = {
        name: [[c[0], c[1], (c[2] if len(c) > 2 else None)]
               for c in clauses]
        for name, clauses in constraints.items()
    }
    _atomic_write_bytes(_path(store), json.dumps(canon).encode())


def load_constraints(store) -> dict | None:
    p = _path(store)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        raw = json.load(f)
    return {
        name: [tuple(c) for c in clauses] for name, clauses in raw.items()
    }


def resolve_constraints(store, declared: dict | None) -> dict | None:
    """Engine-construction handshake: persist on first declare, load when
    undeclared, and reject a writer whose declaration disagrees with the
    table's persisted contract (no silent divergence)."""
    persisted = load_constraints(store)
    if declared is None:
        return persisted
    canon = {
        name: [
            (c[0], c[1], (c[2] if len(c) > 2 else None)) for c in clauses
        ]
        for name, clauses in declared.items()
    }
    if persisted is not None and persisted != canon:
        raise ValueError(
            "declared constraints differ from the table's persisted set; "
            "drop the argument to adopt the persisted contract or update "
            "it explicitly with save_constraints()"
        )
    if persisted is None:
        save_constraints(store, canon)
    return canon
