"""The benchmark's own tests: tiny runs, the span recorder, the oracles.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import types
from collections import Counter

import pytest

from perfbench.common import ROOT, child_env
from perfbench.corpus import generate
from perfbench.layers import TIME_METRICS, layer_report
from perfbench.run import WORKLOADS
from perfbench.spans import SpanRecorder, self_times

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, seconds: float = 1.0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# Every workload, tiny: every named metric with its unit, oracles pass
# --------------------------------------------------------------------- #


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "peak_rss_mb"} <= set(names)
    assert set(TIME_METRICS) <= set(names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    if trace and workload != "lint_corpus":
        # Named layers account for the traced time; the rest is small.
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        named = sum(layers[m] for m in TIME_METRICS)
        assert named + layers["unattributed_ms"] == pytest.approx(
            layers["trace.wall_ms"], rel=1e-9)
        assert layers["unattributed_pct"] <= 5.0


def test_runs_without_program_source_fail(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_tt_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --------------------------------------------------------------------- #
# Host-speed probe and scaling
# --------------------------------------------------------------------- #


def test_speed_probe_samples_and_stops_its_helper():
    import statistics

    from perfbench.speed import NOMINAL_S, SpeedProbe

    with SpeedProbe() as probe:
        probe.sample(3)
        helper = probe._proc
    assert helper.poll() is not None
    assert len(probe.samples) == 3 and min(probe.samples) > 0
    assert probe.factor() == pytest.approx(
        NOMINAL_S / statistics.geometric_mean(probe.samples))


def test_scaling_follows_the_unit():
    from perfbench.run import scaled

    # A slow host (factor 0.5): times shrink, rates grow, sizes stay.
    assert scaled(10.0, "ms", 0.5) == 5.0
    assert scaled(2.0, "s", 0.5) == 1.0
    assert scaled(100.0, "1/s", 0.5) == 200.0
    assert scaled(300.0, "MB", 0.5) == 300.0


# --------------------------------------------------------------------- #
# Span recorder
# --------------------------------------------------------------------- #


class Leaf:
    def work(self, x):
        return x + 1


class Node:
    def __init__(self):
        self.leaf = Leaf()

    def work(self, x):
        return self.leaf.work(x) * 2


def test_wrap_records_nesting_and_restores():
    node = Node()
    ticks = iter(range(0, 1000, 10))
    rec = SpanRecorder(clock=lambda: next(ticks))
    rec.wrap(node, "work", "node")
    rec.wrap(node.leaf, "work", "leaf")
    assert rec.call("bench.root", node.work, 1) == 4
    rec.restore()
    assert "work" not in vars(node) and "work" not in vars(node.leaf)
    assert [(n, p) for n, _, _, p, _ in rec.spans] == [
        ("bench.root", -1), ("node", 0), ("leaf", 1)]
    totals, root_ns = self_times(rec.spans)
    # root 0..50, node 10..40, leaf 20..30
    assert totals == {"bench.root": 20, "node": 20, "leaf": 10}
    assert root_ns == 50


def test_wrap_class_and_module_attributes():
    original = Leaf.work
    module = types.ModuleType("fake")
    module.fn = lambda x: x * 3
    rec = SpanRecorder()
    rec.wrap(Leaf, "work", "leaf")
    rec.wrap(module, "fn", "fn")
    assert Leaf().work(1) == 2 and module.fn(2) == 6
    assert [s[0] for s in rec.spans] == ["leaf", "fn"]
    rec.restore()
    assert Leaf.work is original and module.fn(2) == 6
    assert len(rec.spans) == 2


def test_shadow_and_wrap_stack_and_restore():
    from perfbench.layers import DedupCounter

    class Planner:
        def plan_batch(self, n):
            return types.SimpleNamespace(n=n, n_unique=n // 2)

    planner = Planner()
    dedup = DedupCounter()
    rec = SpanRecorder()
    rec.shadow(planner, "plan_batch", dedup.counting)
    rec.wrap(planner, "plan_batch", "tt.plan")
    planner.plan_batch(8)
    planner.plan_batch(4)
    assert [s[0] for s in rec.spans] == ["tt.plan", "tt.plan"]
    assert (dedup.ids, dedup.unique, dedup.ratio) == (12, 6, 0.5)
    rec.restore()
    assert "plan_batch" not in vars(planner)
    planner.plan_batch(8)
    assert dedup.ids == 12 and len(rec.spans) == 2


def test_windowed_percentile_merges_a_short_last_window():
    from perfbench.common import windowed_percentile

    values = [1.0] * 100 + [3.0] * 100 + [2.0] * 50
    # Windows: 100 x 1.0, then 150 values of which 100 x 3.0 -> median 2.
    assert windowed_percentile(values, 50, 100) == 2.0
    assert windowed_percentile([5.0] * 30, 50, 100) == 5.0
    assert windowed_percentile([1.0] * 100 + [9.0] * 30, 90, 100) == 9.0


def test_windowed_top_mean_reaches_rare_slow_samples():
    from perfbench.common import windowed_top_mean

    # Three slow steps per 100 (two checkpoints, one refresh) lie beyond
    # the p90 of the window but make up its slowest 3%.
    window = [1.0] * 97 + [10.0, 10.0, 7.0]
    assert windowed_top_mean(window, 0.03, 100) == 9.0
    assert windowed_top_mean(window + [1.0] * 100, 0.03, 100) == 5.0
    assert windowed_top_mean([4.0] * 10, 0.03, 100) == 4.0


def test_layer_report_sums_to_wall_and_rejects_unknown_spans():
    spans = [("bench.step", 0, 100, -1, 0), ("training", 10, 90, 0, 0),
             ("cache.fwd", 20, 50, 1, 0)]
    report = layer_report(spans, units=1)
    named = sum(report[m] for m in TIME_METRICS)
    assert named + report["unattributed_ms"] == pytest.approx(
        report["trace.wall_ms"])
    assert report["unattributed_pct"] == pytest.approx(20.0)
    with pytest.raises(ValueError):
        layer_report(spans + [("mystery", 60, 70, 1, 0)], units=1)


# --------------------------------------------------------------------- #
# Oracles fail on planted wrong outputs
# --------------------------------------------------------------------- #


def test_training_oracle():
    from perfbench.train import AUC_FLOOR, AUC_MIN_STEPS, oracle_failures

    long = [0.7] * AUC_MIN_STEPS
    assert oracle_failures(long, AUC_FLOOR + 0.01) == 0
    assert oracle_failures(long + [float("nan")], AUC_FLOOR + 0.01) == 1
    assert oracle_failures(long, AUC_FLOOR - 0.01) == 1
    assert oracle_failures(long, float("nan")) == 1
    # Too short to have learned: only finiteness is judged.
    assert oracle_failures([0.7], 0.5) == 0
    assert oracle_failures([0.7], float("nan")) == 1


def test_serving_oracle_catches_a_wrong_answer():
    from perfbench import serve

    ctx = serve.setup(seed=5)
    phase = serve.open_loop(ctx, 500.0, 0.05)
    requests = [phase.requests[i] for i in sorted(phase.answers)]
    probs = [phase.answers[i] for i in sorted(phase.answers)]
    assert requests
    assert serve.rescore_mismatches(ctx.predictor, requests, probs) == 0
    wrong = list(probs)
    wrong[0] += 1e-6
    assert serve.rescore_mismatches(ctx.predictor, requests, wrong) == 1
    wrong[-1] = float("nan")
    assert serve.rescore_mismatches(ctx.predictor, requests, wrong) == 2


def test_lint_oracle_catches_missing_extra_and_exit_code(tmp_path):
    from perfbench.lint import check

    corpus = generate(tmp_path, seed=3)
    expected = corpus.expected_for(None)
    assert check(corpus, None, Counter(expected), 1)
    missing = Counter(expected)
    missing[next(iter(expected))] -= 1
    assert not check(corpus, None, +missing, 1)
    extra = Counter(expected)
    extra[("RNG001", corpus.target, 1)] += 1
    assert not check(corpus, None, extra, 1)
    assert not check(corpus, None, Counter(expected), 0)


# --------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------- #


def test_corpus_is_seeded_and_plants_every_rule(tmp_path):
    from repro.analysis.static.contracts import all_passes
    from repro.analysis.static.core import all_rules

    a = generate(tmp_path / "a", seed=11)
    b = generate(tmp_path / "b", seed=11)
    c = generate(tmp_path / "c", seed=12)
    text = lambda corpus: [  # noqa: E731
        (corpus.root / f).read_text() for f in corpus.files]
    assert text(a) == text(b) and a.expected == b.expected
    assert a.expected != c.expected
    assert {rule for rule, _, _ in a.expected} == set(all_rules()) | set(
        all_passes())
    assert 20_000 <= a.lines <= 30_000 and 120 <= len(a.files) <= 180
    assert a.expected_for(a.target)
