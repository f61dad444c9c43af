"""arlas_proc_ray — a Ray-Data-native data-processing / CDC-ingest engine.

A brand-new engine with the query and data-processing capabilities of
gisaia/ARLAS-proc (reference at /root/reference, Spark/Scala), re-imagined
per BASELINE.json as a CDC replay / incremental-ingest engine over Parquet
tables of source-code repositories, built Ray-Data-first:

- ``ray.data.Dataset`` pipelines with ``map_batches`` over zero-copy Arrow
  batches for all per-record transforms,
- one hash-partitioned keyed exchange in raw Ray tasks
  (``arlas_proc_ray/exchange.py``) for keyed, ordered, stateful
  reductions (the reference's ``Window.partitionBy(id)`` surface) and for
  every writer of the CDC store,
- actor pools for stateful stages (models, registries, merge state),
- epoch-fenced, index-committed Parquet snapshots for exactly-once sinks.

Nothing here calls ``ray.init``/``ray.shutdown`` — sessions are owned by the
caller (bench.py, CLI, test fixtures, or the verification driver).
"""

from arlas_proc_ray.model import DataModel

__all__ = ["DataModel"]
__version__ = "0.1.0"
