"""``lint_corpus``: ``python -m repro lint`` on a seeded corpus.

Set-up generates the corpus (:mod:`perfbench.corpus`) and starts the
linter once so its imports and bytecode are warm. The run then
alternates two invocations, each in a fresh process, until the time is
up and each has run :data:`MIN_INVOCATIONS` times: one file
(``lint.file_s``: the project graph plus every contract pass, for a
single file's findings) and the whole corpus (``lint.tree_s``: the same
plus every per-file rule on every file).

Oracle: each invocation must report exactly the findings planted in
what it linted (rule, path and line), and exit 1 (errors present).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from .common import ROOT, child_env, median, out_dir, peak_rss_mb
from .corpus import Corpus, generate
from .layers import layer_report

TIMEOUT_S = 170
# Host-speed samples taken after each invocation.
PROBE_SAMPLES = 3
# Invocations of each kind per run, at least: a median of three is not
# moved by one invocation that a burst of host load slowed (one lint of
# the same corpus took 2.9 s and 5.6 s back to back).
MIN_INVOCATIONS = 3


def setup(seed: int) -> Corpus:
    root = Path(tempfile.mkdtemp(prefix=f"corpus-{seed}-", dir=out_dir()))
    corpus = generate(root, seed)
    subprocess.run([sys.executable, "-m", "repro", "lint", "--explain",
                    "XMOD001"], cwd=root, env=child_env(),
                   capture_output=True, check=True, timeout=TIMEOUT_S)
    return corpus


def close(corpus: Corpus) -> None:
    shutil.rmtree(corpus.root, ignore_errors=True)


def lint_once(corpus: Corpus, target: str | None,
              spans: Path | None = None) -> tuple[float, Counter, int]:
    """Lint one file (or the corpus); returns wall s, findings, exit code."""
    args = [target or "corp", "--format", "json", "--config",
            "pyproject.toml"]
    if spans is None:
        cmd = [sys.executable, "-m", "repro", "lint", *args]
    else:
        cmd = [sys.executable, str(ROOT / "perfbench" / "lint_traced.py"),
               str(spans), *args]
    began = perf_counter()
    proc = subprocess.run(cmd, cwd=corpus.root, env=child_env(),
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    wall = perf_counter() - began
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return wall, Counter(), proc.returncode
    found = Counter((f["rule"], f["path"], f["line"])
                    for f in report["findings"])
    return wall, found, proc.returncode


def check(corpus: Corpus, target: str | None, found: Counter,
          code: int) -> bool:
    """Exactly the planted findings, and the error exit code."""
    return code == 1 and found == corpus.expected_for(target)


def run(corpus: Corpus, seed: int, seconds: float, trace: bool,
        pause) -> dict:
    if trace:
        return _run_traced(corpus, seed, seconds)
    times = {"file": [], "tree": []}
    failed = 0
    began = perf_counter()
    while (perf_counter() - began < seconds
           or min(map(len, times.values())) < MIN_INVOCATIONS):
        kind = "file" if len(times["file"]) <= len(times["tree"]) else "tree"
        target = corpus.target if kind == "file" else None
        wall, found, code = lint_once(corpus, target)
        times[kind].append(wall)
        failed += not check(corpus, target, found, code)
        pause(PROBE_SAMPLES)
    file_s, tree_s = median(times["file"]), median(times["tree"])
    return {
        "attempted": len(times["file"]) + len(times["tree"]),
        "failed": failed,
        "e2e": {"throughput_per_s": corpus.lines / tree_s,
                "p50_ms": 1e3 * file_s, "tail_ms": 1e3 * tree_s},
        "peak_rss_mb": peak_rss_mb(children=True),
        "layers": {},
        "summary": {"lint.file_s": file_s, "lint.tree_s": tree_s,
                    "lint.file_samples_s": times["file"],
                    "lint.tree_samples_s": times["tree"],
                    "corpus_lines": corpus.lines,
                    "corpus_files": len(corpus.files),
                    "planted_findings": sum(corpus.expected.values())},
    }


def _run_traced(corpus: Corpus, seed: int, seconds: float) -> dict:
    base_wall, found, code = lint_once(corpus, None)
    failed = not check(corpus, None, found, code)
    spans_path = out_dir() / f"trace-lint_corpus-{seed}.jsonl"
    wall, found, code = lint_once(corpus, None, spans_path)
    failed += not check(corpus, None, found, code)
    with open(spans_path, encoding="utf-8") as fh:
        spans = [(s["name"], s["start_ns"], s["end_ns"], s["parent"],
                  s["unit"]) for s in map(json.loads, fh)]
    layers = layer_report(spans, 1)
    layers["trace.overhead_pct"] = 100.0 * (wall / base_wall - 1.0)
    return {"attempted": 2, "failed": failed, "e2e": {}, "layers": layers,
            "summary": {"lint.tree_s": base_wall, "traced_tree_s": wall}}
