#!/usr/bin/env python3
"""Compare the per-layer tables of two commits.

    python3 perfbench/layer_diff.py OLD NEW

``OLD`` and ``NEW`` are files, or directories of files, each holding
the standard output of one traced run (``run.py --trace 1``) of the
corresponding commit.  Runs are grouped by the workload named in their
first line; several runs of one workload (e.g. several seeds) are
reduced to the median of each metric.  For every workload both commits
ran, the helper prints the per-layer self-time deltas (ms per
end-to-end operation) and then the counter deltas, each sorted by the
size of the change, so an optimisation can show in which layer its
saving appears.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

_HEADER = re.compile(r"^perfbench workload=(\S+) .*trace=1\b")


def load(path: Path) -> dict[str, dict[str, tuple[float, str]]]:
    """workload -> metric -> (median value, unit) over the runs found."""
    files = sorted(p for p in path.iterdir() if p.is_file()) if (
        path.is_dir()
    ) else [path]
    runs: dict[str, list[dict]] = {}
    for file in files:
        lines = file.read_text().strip().splitlines()
        match = _HEADER.match(lines[0]) if lines else None
        if match is None:
            continue  # not the output of a traced run
        runs.setdefault(match.group(1), []).append(
            json.loads(lines[-1])["metrics"]
        )
    return {
        workload: {
            name: (
                statistics.median(m[name]["value"] for m in metrics),
                metrics[0][name]["unit"],
            )
            for name in metrics[0]
        }
        for workload, metrics in runs.items()
    }


def _rows(old: dict, new: dict, timings: bool) -> list[tuple]:
    rows = []
    for name, (before, unit) in old.items():
        if name not in new or (unit == "ms") != timings:
            continue
        after = new[name][0]
        delta = after - before
        rel = delta / before if before else (0.0 if not delta else float("inf"))
        rows.append((name, unit, before, after, delta, rel))
    key = (lambda r: abs(r[4])) if timings else (lambda r: abs(r[5]))
    return sorted(rows, key=key, reverse=True)


def render(old_runs: dict, new_runs: dict) -> list[str]:
    lines = []
    for workload in sorted(old_runs.keys() & new_runs.keys()):
        old, new = old_runs[workload], new_runs[workload]
        lines.append(f"== {workload}")
        for title, timings in (("time", True), ("counters", False)):
            lines.append(
                f"  {title:<38} {'old':>14} {'new':>14} {'delta':>14} "
                f"{'delta %':>9}"
            )
            for name, unit, before, after, delta, rel in _rows(
                old, new, timings
            ):
                if before == after == 0:
                    continue  # a layer neither commit loads here
                lines.append(
                    f"  {name:<38} {before:>14.6g} {after:>14.6g} "
                    f"{delta:>+14.6g} {100 * rel:>+8.1f}% {unit}"
                )
    missing = old_runs.keys() ^ new_runs.keys()
    if missing:
        lines.append(
            "(traced by one commit only: " + ", ".join(sorted(missing)) + ")"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    old_runs, new_runs = load(args.old), load(args.new)
    if not old_runs or not new_runs:
        print("error: no traced run output found", file=sys.stderr)
        return 2
    print("\n".join(render(old_runs, new_runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
