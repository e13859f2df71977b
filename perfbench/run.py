#!/usr/bin/env python3
"""Repo benchmark: drive the program from outside and report its metrics.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints every end-to-end metric, ``--trace 1`` the per-layer
ledger of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when the outputs checked out, 1 when they did not, and 2 when the
benchmark could not run at all (for example, no program in the checkout).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402  (stdlib only: safe before the thread pins)

# Pin this process too (it decodes payloads and computes the reference
# outputs): before numpy is imported, and without host REPRO_* switches.
for _key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_key]
os.environ.update(common.THREAD_PINS)

WORKLOADS = ("generate", "serve_pp", "serve_rule")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_one(name: str, seed: int, seconds: int, trace: bool,
            artifacts: Path, weights: str):
    import workloads

    rundir = common.CACHE / "runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    ctx = workloads.Context(name, seed, seconds, trace, rundir, artifacts)
    try:
        return workloads.run(ctx, weights)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.require_program()
        sys.path.insert(0, str(common.SRC))
        artifacts, weights, build_s = common.ensure_checkpoint(log)
    except common.BenchError as error:
        log(f"perfbench: {error}")
        return 2
    os.environ["REPRO_ARTIFACTS"] = str(artifacts)

    from ledger import PER_LAYER
    from workloads import END_TO_END

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace:
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        units = dict(END_TO_END)
    env = {"host": common.host_record(), "weights_sha256": weights,
           "checkpoint_build_s": build_s, "seconds": args.seconds,
           "seed": args.seed, "trace": args.trace}
    print(json.dumps({"environment": env}))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        started = time.perf_counter()
        outcome = run_one(name, args.seed, args.seconds, bool(args.trace),
                          artifacts, weights)
        outcome.report["run_s"] = time.perf_counter() - started
        print(json.dumps({"workload": name, "report": outcome.report}))
        for metric, unit in units.items():
            print(f"{name:10s} {metric:34s} {outcome.metrics[metric]:14.6g} {unit}")
        print(f"{name:10s} {'fail_share':34s} {outcome.report['fail_share']:14.6g} ratio")
        summary["correct"] &= outcome.correct
        summary["attempted"] += outcome.attempted
        summary["failed"] += outcome.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, unit in units.items():
            summary["metrics"][prefix + metric] = {
                "value": float(outcome.metrics[metric]), "unit": unit}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
