#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload ingest|serve-read|churn-restart \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from
``src/`` (there is nothing to build).  Inputs are generated from
``--seed`` before any timing; the timed phases add up to at least
``--seconds``.  Every program output is checked against a reference
(see each workload module); on any mismatch the run prints the reason
to stderr and exits 1 without a result.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice, first untraced and then with
span wrappers installed around every layer boundary of
:mod:`layers`, and reports the per-layer metrics plus
``trace.overhead_pct``: how much slower the traced pass completed
operations than the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable account (see ``layer_diff.py`` to compare two traced
runs).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK_ROOT, CorrectnessError, log  # noqa: E402

HASH_SEED = "0"

#: workload name -> module implementing ``run(seed, seconds, tracer)``
WORKLOADS = {
    "ingest": "ingest",
    "serve-read": "serve_read",
    "churn-restart": "churn_restart",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _traced(module, args) -> tuple[dict, list, int, int]:
    import layers
    from spans import Tracer

    plain, _ = module.run(args.seed, args.seconds)
    tracer = Tracer(layers.IDLE_SPANS)
    traced, parallelism = module.run(args.seed, args.seconds, tracer)
    n_ops = traced.attempted - traced.failed
    summary = traced.trace if traced.trace is not None else tracer.summary()
    metrics = {
        name: (value, layers.unit_of(name))
        for name, value in layers.per_layer_metrics(
            summary, traced.counters, n_ops, parallelism
        ).items()
    }
    # both passes at the reference host speed, so a host swing between
    # them does not read as tracing cost
    plain_rate = (plain.attempted - plain.failed) / plain.timed_s
    traced_rate = n_ops / traced.timed_s
    metrics["trace.overhead_pct"] = (
        100.0 * (plain_rate / traced_rate - 1.0), "%"
    )
    lines = [
        f"untraced {plain_rate:.1f} ops/s, traced {traced_rate:.1f} "
        "ops/s",
        *traced.notes,
        "spans of the traced pass:",
        *layers.span_table(summary, n_ops),
    ]
    return (
        metrics,
        lines,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing decides set/dict iteration order, and with it
        # the file order of an assembled VMI (which the wire digest
        # covers) and the layout of every hash table: pin it, so one
        # seed means one program behaviour and runs differ only in time
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"error: no program sources under {ROOT / 'src'}; run from "
            "the root of a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(WORKLOADS[args.workload])
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    try:
        if args.trace:
            metrics, lines, attempted, failed = _traced(module, args)
        else:
            result, _ = module.run(args.seed, args.seconds)
            metrics = result.end_to_end()
            # zero-cost counters: read from the program's own report and
            # stats objects, so the untraced run reports them too
            lines = [
                *result.notes,
                "counters: " + json.dumps(result.counters, sort_keys=True),
            ]
            attempted, failed = result.attempted, result.failed
    except CorrectnessError as exc:
        log(f"INCORRECT: {exc}")
        return 1
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
        try:
            WORK_ROOT.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]
    if [(m["name"], m["unit"]) for m in declared] != [
        (name, unit) for name, (_, unit) in metrics.items()
    ]:
        log("error: the metrics measured differ from BENCHMARK.json's")
        return 3
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
