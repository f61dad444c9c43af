"""Alternating pairs of benchmark runs: a parent checkout against a change.

    python tools/perf_pairs.py --parent ../parent --change . \\
        --workload tail --seed 1 --pairs 10

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T`` in each
checkout directory, one after the other, ``--pairs`` times. Pair i runs the
parent first when i is even and the change first when it is odd, so a
machine that favours the first (or second) run of a pair favours each side
equally. Each run's last output line is perfbench's JSON summary.

For every end-to-end metric of the change's ``BENCHMARK.json`` it prints
each side's median and quartiles, how many pairs the change won (ties count
for neither side) and whether the pairs support a gain: the change wins at
least nine tenths of the pairs, and the medians differ, in the metric's
better direction, by more than the parent's interquartile range. The same
rows follow for each metric before perfbench scales it by its host-speed
probe (``unscaled.<metric>``, from the run's ``unscaled`` line), since the
probe's reading can move with the program under test. The last line is
the same summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def spread(values: list[float]) -> dict:
    """Median and quartiles of ``values``."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric of ``better`` (name → "lower" or "higher"), over
    ``pairs`` of (parent run, change run) metric values: each side's
    spread, the change's wins, ties and pairs, and ``gain``: wins ≥ 9/10
    of the pairs and a median gap beyond the parent's IQR, both in the
    better direction. A metric missing from some run is left out."""
    out = {}
    for name, direction in better.items():
        got = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not got:
            continue
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(1 for p, c in got if sign * (c - p) > 0)
        ties = sum(1 for p, c in got if c == p)
        parent = spread([p for p, _ in got])
        change = spread([c for _, c in got])
        gap = sign * (change["median"] - parent["median"])
        out[name] = {
            "parent": parent, "change": change, "better": direction,
            "wins": wins, "ties": ties, "pairs": len(got),
            "gain": wins >= 0.9 * len(got)
            and gap > parent["q3"] - parent["q1"],
        }
    return out


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its metric values and the share
    of its checked operations that failed (``failed_share``)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        raise RuntimeError(f"{checkout}: no summary line "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    values = {k: v["value"] for k, v in summary["metrics"].items()}
    values["failed_share"] = summary["failed"] / max(1, summary["attempted"])
    for ln in lines[:-1]:
        values.update({f"unscaled.{k}": v
                       for k, v in json.loads(ln).get("unscaled", {}).items()})
    return values


def render(summary: dict) -> str:
    head = (f"{'metric':<22} {'parent median [q1, q3]':>32} "
            f"{'change median [q1, q3]':>32} {'wins':>7}  gain")
    lines = [head, "-" * len(head)]
    for name, s in summary.items():
        cells = [f"{s[side]['median']:.4g} [{s[side]['q1']:.4g}, "
                 f"{s[side]['q3']:.4g}]" for side in ("parent", "change")]
        lines.append(f"{name:<22} {cells[0]:>32} {cells[1]:>32} "
                     f"{s['wins']:>3}/{s['pairs']:<3}  {s['gain']}")
    return "\n".join(lines)


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=27)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    better.update({f"unscaled.{k}": v for k, v in better.items()})
    better["failed_share"] = "lower"
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, args.seed,
                               args.seconds) for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
              + json.dumps({side: runs[side].get("epoch_p50_s")
                            for side in order}), flush=True)
    summary = summarize(pairs, better)
    print(render(summary))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "pairs": args.pairs, "summary": summary}))
    return summary


if __name__ == "__main__":
    main()
