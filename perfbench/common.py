"""Shared plumbing: paths, child-process environment, statistics, results."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything a run writes (trace files, corpora, checkpoints, results)
# stays under the checkout, in this ignored directory.
OUT = ROOT / ".perfbench"

# BLAS/OpenMP pools pinned to one thread: on a small box a second BLAS
# thread makes a train step slower, and run-to-run spread wider.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads(env) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


def child_env() -> dict[str, str]:
    """Environment for a child Python process that imports ``repro``."""
    env = dict(os.environ)
    pin_threads(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def out_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    import numpy as np

    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50.0)


def windows(values, window: int) -> list[list]:
    """Consecutive ``window``-sample chunks; a short last one joins the
    one before it."""
    chunks = [list(values[i:i + window])
              for i in range(0, len(values), window)]
    if len(chunks) > 1 and len(chunks[-1]) < window:
        last = chunks.pop()
        chunks[-1] += last
    return chunks


def windowed_percentile(values, q: float, window: int) -> float:
    """Median over consecutive ``window``-sample chunks of percentile ``q``.

    A burst of interference from outside the process (a descheduled
    core, a noisy neighbour) moves one chunk's tail, not the median of
    the chunks.
    """
    return median([percentile(chunk, q) for chunk in windows(values, window)])


def windowed_top_mean(values, share: float, window: int) -> float:
    """Median over ``window``-sample chunks of the mean of their slowest
    ``share`` (at least one sample)."""
    tops = []
    for chunk in windows(values, window):
        k = max(1, round(share * len(chunk)))
        tops.append(sum(sorted(chunk)[-k:]) / k)
    return median(tops)


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    """What a reader needs to compare two results: host and library."""
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):  # NumPy < 1.26 has no dict mode
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def emit(result: dict, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the one-line JSON result as the last line of stdout."""
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(line), flush=True)
