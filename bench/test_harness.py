"""Tests of the benchmark harness itself: seeding, checks and span arithmetic.

    PYTHONPATH=src python -m pytest bench/test_harness.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tablebounds import ContingencyTable, best_bounds, simple_frechet  # noqa: E402


def run_one(q, query):
    _, errors = workloads.run_one([q], query, tracing.NullTracer(), 0)
    return [(0, errors)] if errors else []


@pytest.mark.parametrize("name", ["sweep", "deep", "audit"])
def test_pool_depends_only_on_seed(name):
    def counts(seed):
        return [json.dumps(q[1 if name == "sweep" else 0].counts.tolist())
                for q in workloads.make_pool(name, seed, None)]

    assert counts(5) == counts(5)
    assert counts(5) != counts(6)


@pytest.mark.parametrize("name", ["sweep", "deep", "audit"])
def test_correct_answers_pass(name):
    pool = workloads.make_pool(name, 3, None)
    assert run_one(pool[0], workloads.QUERY[name]) == []


def test_wrong_formula_bound_is_a_failure():
    table = ContingencyTable.from_flat((2, 2), [1, 1, 1, 1])
    kind, _, subsets, _ = workloads.make_pool("sweep", 1, None)[0]
    assert kind == "2way"

    def too_tight(fam, cell):
        rep = simple_frechet(fam, cell)
        return dataclasses.replace(rep, upper=rep.lower)

    failures = run_one((kind, table, subsets, [too_tight]), workloads.sweep_query)
    assert len(failures) == 1
    assert any("misses sharp" in e for e in failures[0][1])


def test_bound_excluding_the_truth_is_a_failure(monkeypatch):
    def off_by_one(fam, cell):
        rep = best_bounds(fam, cell)
        return dataclasses.replace(rep, lower=rep.upper + 1, upper=rep.upper + 1)

    monkeypatch.setattr(workloads, "best_bounds", off_by_one)
    q = workloads.make_pool("audit", 1, None)[0]
    failures = run_one(q, workloads.audit_query)
    assert len(failures) == 1
    assert any("excludes the true value" in e for e in failures[0][1])


def test_raised_error_is_a_failure():
    def broken(q, tr):
        raise ValueError("boom")

    failures = run_one(None, broken)
    assert failures == [(0, ["ValueError: boom"])]


def test_cli_output_checks():
    want = {"lower": 0, "upper": 8, "sharp": {"min": 0, "max": 8}}
    good = json.dumps({"lower": 0, "upper": 8, "sharp": {"min": 0, "max": 8, "tables": 3}})
    assert workloads.check_cli_output(0, good, want) == []
    wrong = json.dumps({"lower": 1, "upper": 8, "sharp": {"min": 0, "max": 8}})
    assert workloads.check_cli_output(0, wrong, want) == ["lower: got 1, want 0"]
    assert workloads.check_cli_output(1, good, want) == ["exit code 1"]
    assert workloads.check_cli_output(0, "Traceback", want) == ["stdout is not JSON"]


def test_self_time_subtracts_children():
    spans = [
        ["query", 0.0, 10.0, -1, 0, None],
        ["bounds.best", 1.0, 5.0, 0, 0, None],
        ["oracle.sharp_bounds_all", 2.0, 4.0, 1, 0, {"nodes": 7}],
        ["table.marginalize", 6.0, 7.0, -1, -1, None],  # outside any query
    ]
    s = tracing.summarize(spans)
    assert s["wall"] == 10.0 and s["harness"] == 6.0
    assert s["busy"]["bounds"] == 2.0 and s["busy"]["oracle"] == 2.0
    assert s["calls"]["table"] == 0


def test_span_tracer_nests_and_tags():
    tr = tracing.SpanTracer()
    tr.query(0, lambda: tr.call("bounds.x", lambda: tr.call("oracle.y", lambda: None)))
    tr.tag(nodes=3)
    names = [(name, parent, qid) for name, _, _, parent, qid, _ in tr.spans]
    assert names == [("query", -1, 0), ("bounds.x", 0, 0), ("oracle.y", 1, 0)]
    assert tr.spans[0][5] == {"nodes": 3}


def test_linear_fit_recovers_a_line():
    fixed, slope = tracing.linear_fit([0, 10, 20], [5.0, 7.0, 9.0])
    assert fixed == pytest.approx(5.0) and slope == pytest.approx(0.2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
