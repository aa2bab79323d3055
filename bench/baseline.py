"""Summarise the results files of many benchmark invocations into one JSON.

Usage, from the repository root, after running ``bench/run.py`` on several
seeds per workload::

    python3 bench/baseline.py bench/baseline.json

For every workload and metric it records the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(interquartile distance over the median) and the number of invocations,
separately for the untraced and the traced runs, plus the provenance block
of the first invocation.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import run


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main(out_path: str) -> int:
    records = []
    for path in sorted(glob.glob(os.path.join(run.WORK, "results", "*-trace*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        print(f"no results under {run.WORK}/results", file=sys.stderr)
        return 1
    table: dict = {}
    for rec in records:
        entry = table.setdefault(rec["workload"], {"why": rec["why"], "seeds": [],
                                                   "end_to_end": {}, "per_layer": {}})
        entry["seeds"].append(rec["provenance"]["seed"])
        kind = "per_layer" if rec["per_layer"] else "end_to_end"
        for name, value in (rec["per_layer"] or rec["end_to_end"]).items():
            entry[kind].setdefault(name, []).append(value)
        if rec["trace_note"]:
            entry["trace_note"] = rec["trace_note"]
    for entry in table.values():
        for kind in ("end_to_end", "per_layer"):
            entry[kind] = {k: summary(v) for k, v in entry[kind].items()}
    with open(out_path, "w") as fh:
        json.dump({"provenance": records[0]["provenance"], "workloads": table}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
