"""Tests of the benchmark itself: its checker, its inputs and its metric list.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from checks import check, complaining_users, fairness_problems, stated_answer_problems
from run import END_TO_END_UNITS, import_fairshare, run_operation, tail_percentile
from tracing import PER_LAYER_UNITS, SPAN_SITES, Tracer
from workloads import FIXTURES, WORKLOADS, Op, build, fixture_arrays

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_checker_rejects_greedy3_where_user_2_complains():
    e, r = fixture_arrays("greedy3")
    x = np.array([1.0, 2 / 3, 0.0])
    assert 1 in complaining_users(e, r, x)
    assert any("user 2 has a justified complaint" in p for p in fairness_problems(e, r, x))


def test_checker_rejects_allocation_over_capacity():
    e, r = fixture_arrays("slope2")
    problems = fairness_problems(e, r, [0.7, 0.9])
    assert any("over capacity" in p for p in problems)


@pytest.mark.parametrize("name,x", [
    ("drf_compare", [1 / 3, 1 / 3, 5 / 6]),
    ("slope2", [0.6, 0.9]),
    ("utilization", [1.0, 0.5]),
    ("nonunique_n3", [0.5, 0.5, 0.5]),
    ("nonunique_n3", [0.7, 0.3, 0.3]),
])
def test_checker_accepts_the_stated_answers(name, x):
    e, r = fixture_arrays(name)
    assert fairness_problems(e, r, x) == []
    assert stated_answer_problems(name, x) == []


@pytest.mark.parametrize("name,x", [
    ("drf_compare", [1 / 3, 1 / 3 + 1e-4, 5 / 6]),
    ("nonunique_n3", [0.75, 0.25, 0.25]),
    ("nonunique_n3", [0.6, 0.4, 0.3]),
])
def test_checker_rejects_other_answers_for_worked_examples(name, x):
    assert stated_answer_problems(name, x) != []


def test_checker_rejects_an_empty_enumeration():
    op = Op("slope2", "enumerate", *fixture_arrays("slope2"), fixture="slope2")
    assert check(op, []) != []
    assert check(op, [np.array([0.6, 0.9])]) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_come_from_the_seed_alone(workload):
    first, again, other = build(workload, 7), build(workload, 7), build(workload, 8)
    assert [op.name for op in first] == [op.name for op in other]
    assert all(np.array_equal(a.requirements, b.requirements) for a, b in zip(first, again))
    assert not all(np.array_equal(a.requirements, b.requirements) for a, b in zip(first, other))
    for op in first:
        assert np.isclose(op.entitlements.sum(), 1.0)
        assert np.all((op.requirements >= 0.0) & (op.requirements <= 1.0))
        if op.fixture is None:
            assert np.all(op.requirements.sum(axis=0) >= 1.0 - 1e-12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tail_percentile_has_ten_samples_beyond_it(workload):
    n = len(build(workload, 1))
    assert n >= 40
    p = tail_percentile(n)
    assert n * (100 - p) / 100 >= 10
    assert n * (100 - (p + 1)) / 100 < 10


def test_fixtures_are_the_documented_seven():
    assert sorted(FIXTURES) == sorted([
        "greedy3", "drf_compare", "utilization", "slope2",
        "nonunique_n3", "circle4", "elim_example",
    ])


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.fixture
def fresh_fairshare():
    """A fresh import of fairshare; the modules other tests imported are put
    back afterwards, unwrapped."""
    def fairshare_modules():
        return [m for m in sys.modules if m == "fairshare" or m.startswith("fairshare.")]

    saved = {m: sys.modules[m] for m in fairshare_modules()}
    yield import_fairshare()
    for m in fairshare_modules():
        del sys.modules[m]
    sys.modules.update(saved)


def test_tracer_wraps_every_site_of_the_program(fresh_fairshare):
    fs = fresh_fairshare
    tracer = Tracer()
    tracer.install()
    e, r = fixture_arrays("slope2")
    run_operation(fs, "solve", fs.ProblemInstance(entitlements=e, requirements=r))
    tracer.end_operation("slope2", 1.0)
    values = tracer.per_layer(1)
    for key in ("solver.integrate_trajectory.steps", "solver.trajectory_derivative.calls",
                "lp.maximize.calls", "verifier.verify.calls"):
        assert values[key] > 0, key


def test_tracer_fails_on_a_site_the_program_no_longer_has(fresh_fairshare, monkeypatch):
    module_name, attribute, _ = SPAN_SITES[0]
    monkeypatch.delattr(f"{module_name}.{attribute}")
    with pytest.raises(AttributeError):
        Tracer().install()
