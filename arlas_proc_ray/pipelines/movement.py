"""Movement-analogue pipeline — the reference's AIS tutorial, end-to-end.

Mirrors the full chain of /root/reference/README.md:216-404 (also
data/ais/demo_notebook.ipynb) over the ``events`` table (user_id = object
id, ts = time, value = speed-like observation):

  dedup → duration → HMM moving state (STILL/MOVE) → motion segments
  → course-or-stop labeling (timeout 600 s) → course segments
  → stop/pause collapse → course extraction with departure/arrival pulled
  from the ADJACENT stop rows (CourseExtractorTransformer.afterTransform,
  fragments/CourseExtractorTransformer.scala:139-178) → greedy mission
  merge (timeseries/WithTraversingMission.scala:74-200 analogue).

Scale shape: the reference re-shuffles on the SAME object id at every one
of its ~12 stages (each Window.partitionBy is a Spark exchange). Here the
whole chain is fused into ONE hash-partition pass: every stage is a
vectorized pandas step over the same sorted partition — one shuffle total,
which is exactly the "partition once and keep locality" design SURVEY.md
§3.3 calls for.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from arlas_proc_ray.sources.io import read_parquet_stored as _rp

from arlas_proc_ray.stages.keyed import keyed_partition_map
from arlas_proc_ray.stages.ml import STILLMOVE_MODEL_JSON, HmmModel

COURSE_TIMEOUT_S = 600.0  # reference default (features/WithCourseOrStop.scala:35)
COURSE_TIMEOUT_US = 600 * 1_000_000  # integer-us compare: exact on both sides


def _decode_moving_state(pdf: pd.DataFrame, model: HmmModel, window: int = 5000):
    bins = model.quantize(pdf["value"].to_numpy(np.float64))
    preds = np.empty(len(pdf), dtype=np.int8)
    codes = pd.factorize(pdf["user_id"], use_na_sentinel=False)[0]
    bounds = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(pdf)]])
    for s, e in zip(starts, ends):
        for w in range(s, e, window):
            preds[w : min(w + window, e)] = model.viterbi(bins[w : min(w + window, e)])
    return np.asarray(model.states)[preds]


def movement_partition_fn(pdf: pd.DataFrame) -> pd.DataFrame:
    """One fused pass: observations of one partition → course/mission rows."""
    model = HmmModel.from_json(STILLMOVE_MODEL_JSON)
    g = pdf.groupby("user_id", sort=False)

    # --- duration since previous observation (WithDuration) ---------------
    # integer microseconds: sums are associative/exact (order-free), so
    # the SQL oracle's group sums are bit-identical; seconds appear only
    # as a final sum_us/1e6 division
    prev_ts = g["ts"].shift(1)
    dur_us = (
        ((pdf["ts"] - prev_ts) // pd.Timedelta(microseconds=1))
        .fillna(0)
        .astype("int64")
    )

    # --- HMM moving state (WithMovingState) -------------------------------
    moving = _decode_moving_state(pdf, model)

    # --- motion segments (WithStateIdOnStateChangeOrUnique + IdUpdater) ---
    moving_s = pd.Series(moving, index=pdf.index)
    changed = (moving_s != moving_s.groupby(pdf["user_id"], sort=False).shift(1)) | (
        g.cumcount() == 0
    )
    motion_seg = changed.cumsum()

    # --- course-or-stop (WithCourseOrStop): a STILL run longer than the
    # course timeout is a STOP; everything else belongs to a COURSE --------
    seg_dur_us = dur_us.groupby(motion_seg).transform("sum")
    course_or_stop = np.where(
        (moving_s == "STILL") & (seg_dur_us > COURSE_TIMEOUT_US), "STOP", "COURSE"
    )
    cs = pd.Series(course_or_stop, index=pdf.index)
    cs_changed = (cs != cs.groupby(pdf["user_id"], sort=False).shift(1)) | (
        g.cumcount() == 0
    )
    cs_seg = cs_changed.cumsum()

    # --- collapse each run into one summary row (Stop/Course summary) -----
    tmp = pdf.assign(
        _dur=dur_us, _seg=cs_seg, _kind=cs, _cents=(pdf["value"] * 100).round().astype("int64")
    )
    gb = tmp.groupby("_seg", sort=False)
    runs = pd.DataFrame(
        {
            "user_id": gb["user_id"].first(),
            "kind": gb["_kind"].first(),
            "t_start": gb["ts"].min(),
            "t_end": gb["ts"].max(),
            "n_events": gb.size().astype("int64"),
            "duration_s": gb["_dur"].sum() / 1e6,
            "value_sum": gb["_cents"].sum() / 100.0,
            "first_event_id": gb["event_id"].min().astype("int64"),
        }
    ).reset_index(drop=True)
    runs = runs.sort_values(["user_id", "t_start"], kind="mergesort").reset_index(
        drop=True
    )

    # --- course extraction with neighbor pull (afterTransform analogue):
    # each COURSE row absorbs the adjacent STOP rows' stats as its
    # departure/arrival, then STOP rows are dropped ------------------------
    gu = runs.groupby("user_id", sort=False)
    prev_kind = gu["kind"].shift(1)
    next_kind = gu["kind"].shift(-1)
    prev_end = gu["t_end"].shift(1)
    next_start = gu["t_start"].shift(-1)
    prev_durs = gu["duration_s"].shift(1)
    next_durs = gu["duration_s"].shift(-1)

    courses = runs[runs["kind"].eq("COURSE")].copy()
    courses["departure_ts"] = prev_end.where(prev_kind.eq("STOP"))[courses.index]
    courses["arrival_ts"] = next_start.where(next_kind.eq("STOP"))[courses.index]
    courses["departure_stop_duration_s"] = prev_durs.where(prev_kind.eq("STOP"))[
        courses.index
    ]
    courses["arrival_stop_duration_s"] = next_durs.where(next_kind.eq("STOP"))[
        courses.index
    ]
    courses["course_id"] = (
        courses["user_id"].astype(str) + "#" + courses["first_event_id"].astype(str)
    )

    # --- greedy mission merge (WithTraversingMission analogue): courses of
    # one user whose inter-course gap is below the timeout chain into one
    # mission ---------------------------------------------------------------
    gc = courses.groupby("user_id", sort=False)
    gap_to_prev_us = (courses["t_start"] - gc["t_end"].shift(1)) // pd.Timedelta(
        microseconds=1
    )
    new_mission = gap_to_prev_us.isna() | (gap_to_prev_us > 10 * COURSE_TIMEOUT_US)
    mseg = new_mission.cumsum()
    first_course = courses["first_event_id"].groupby(mseg).transform("min")
    courses["mission_id"] = (
        courses["user_id"].astype(str) + "#M" + first_course.astype(str)
    )
    courses = courses.drop(columns=["kind"])
    return courses.reset_index(drop=True)


def movement_courses(sf_dir: str, num_partitions: int = 16):
    """events → course rows with departure/arrival + mission ids."""
    ds = _rp(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    return keyed_partition_map(
        ds,
        keys=["user_id"],
        order_col="event_id",
        fn=movement_partition_fn,
        num_partitions=num_partitions,
    )
