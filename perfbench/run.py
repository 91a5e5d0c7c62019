"""Run one benchmark workload and print its result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train_tt_zipf --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with every tracer off,
scaled to a host of nominal speed by :mod:`perfbench.speed`;
``--trace 1`` wraps each layer's public methods and reports the
per-layer metrics instead. The metric names, units and bounds come from
``BENCHMARK.json`` at the root of the checkout. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record (every workload-specific
figure, host and library versions, the seed) is written to
``.perfbench/result-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

# Set-up time is measured from here: interpreter start-up aside, it
# covers every import, the model build and the warm-up.
T0 = perf_counter()

WORKLOADS = ("train_tt_zipf", "serve_uniform_shard4", "lint_corpus")
SETUP_SAMPLES = 3
# Host-speed samples taken before each extra set-up sample.
PROBE_SAMPLES = 2
# Units of the end-to-end metrics that the host-speed factor scales.
TIME_UNITS = ("s", "ms")
RATE_UNITS = ("1/s",)


def parse_args(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print its set-up seconds, exit")
    return p.parse_args(argv)


def load_workload(name: str):
    if name == "train_tt_zipf":
        from perfbench import train as module
    elif name == "lint_corpus":
        from perfbench import lint as module
    else:
        from perfbench import serve as module
    return module


def setup_probe(args) -> float:
    """Set-up seconds of a fresh process doing only this workload's set-up."""
    import subprocess

    from perfbench.common import ROOT, child_env

    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def scaled(value: float, unit: str, factor: float) -> float:
    """A measured figure as a host of nominal speed would have read it."""
    if unit in TIME_UNITS:
        return value * factor
    if unit in RATE_UNITS:
        return value / factor
    return value


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print(f"error: no program source under {root}/src; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), root]

    import json
    from contextlib import nullcontext

    from perfbench.common import (
        emit, environment, median, out_dir, peak_rss_mb, pin_threads)
    from perfbench.speed import SpeedProbe

    # Before anything loads NumPy: BLAS reads these when it starts.
    pin_threads(os.environ)

    workload = load_workload(args.workload)
    ctx = workload.setup(args.seed)
    setup_s = perf_counter() - T0
    if args.setup_only:
        workload.close(ctx)
        print(f"{setup_s:.6f}")
        return 0
    # End-to-end runs sample the host's speed whenever the workload
    # pauses between measurements (see perfbench/speed.py).
    with SpeedProbe() if not args.trace else nullcontext() as probe:
        try:
            outcome = workload.run(
                ctx, args.seed, args.seconds, bool(args.trace),
                probe.sample if probe else lambda n=1: None)
        finally:
            workload.close(ctx)
        if probe:
            samples = [setup_s]
            for _ in range(SETUP_SAMPLES - 1):
                probe.sample(PROBE_SAMPLES)
                samples.append(setup_probe(args))
            factor = probe.factor()
            outcome["summary"].update(setup_samples_s=samples,
                                      probe_samples_s=probe.samples,
                                      host_speed_factor=factor)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        # Layers a workload does not touch read 0.
        metrics = {m["name"]: (outcome["layers"].get(m["name"], 0.0),
                               m["unit"]) for m in spec["per_layer"]}
    else:
        values = dict(outcome["e2e"], setup_s=median(samples),
                      peak_rss_mb=outcome.get("peak_rss_mb", peak_rss_mb()))
        outcome["summary"]["unscaled"] = values
        metrics = {m["name"]: (scaled(values[m["name"]], m["unit"], factor),
                               m["unit"]) for m in spec["end_to_end"]}
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "summary": outcome["summary"],
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    path = out_dir() / (f"result-{args.workload}-{args.seed}"
                        f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for key, value in outcome["summary"].items():
        print(f"{key}: {value}")
    emit({"correct": outcome["failed"] == 0, **outcome}, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
