from arlas_proc_ray.sources.io import (
    read_csv,
    read_parquet,
    read_parquet_stored,
    write_csv_single,
    write_partitioned_parquet,
)

__all__ = [
    "read_csv",
    "read_parquet",
    "read_parquet_stored",
    "write_partitioned_parquet",
    "write_csv_single",
]
