import pytest
import ray
from ray.data import DataContext


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


def write_parent_layout(store, epoch: int, edit=None) -> None:
    """Rewrite ``epoch`` of ``store`` in the layout stores had before the
    epoch index: each data file without its manifest footer, a
    ``manifest-<p>.json`` beside it (blooms base64 as ``"b64"``), and no
    ``_index.arrow``. ``edit(part, manifest_dict)`` may change a manifest
    before it is written. A committed epoch's marker is rewritten with
    the same bytes, as a writer of that layout would have left it, so an
    index cached from it goes stale."""
    import base64
    import dataclasses
    import json
    import os

    import pyarrow.parquet as pq

    from arlas_proc_ray.cdc import snapshot

    for name in sorted(os.listdir(store.epoch_dir(epoch))):
        if not (name.startswith("part-") and name.endswith(".parquet")):
            continue
        part = int(name[len("part-"):-len(".parquet")])
        doc = dataclasses.asdict(store.read_manifest(epoch, part))
        for bloom in doc["blooms"].values():
            bloom["b64"] = base64.b64encode(bloom.pop("bits")).decode()
        if edit is not None:
            edit(part, doc)
        path = store.part_data_path(epoch, part)
        table = pq.read_table(path)
        meta = {k: v for k, v in (table.schema.metadata or {}).items()
                if k != snapshot._FOOTER_KEY}
        pq.write_table(table.replace_schema_metadata(meta or None), path,
                       compression=store.compression,
                       row_group_size=store.row_group_rows)
        with open(store.part_manifest_path(epoch, part), "w") as f:
            json.dump(doc, f)
    if os.path.exists(store.index_path(epoch)):
        os.unlink(store.index_path(epoch))
    marker = store.commit_marker_path(epoch)
    if os.path.exists(marker):
        with open(marker, "rb") as f:
            payload = f.read()
        with open(marker + ".tmp", "wb") as f:
            f.write(payload)
        os.replace(marker + ".tmp", marker)


@pytest.fixture
def parent_layout():
    """``write_parent_layout``, for the tests of stores written before
    the epoch index."""
    return write_parent_layout
