import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairshare.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_fixture_prints_allocation(capsys):
    code, out, _ = run(capsys, "solve", "drf_compare")
    assert code == 0
    assert "0.3333333333" in out and "0.8333333333" in out
    assert "bottlenecks: {1}" in out
    assert "verified: yes" in out


def test_solve_exact_prints_fractions(capsys):
    code, out, _ = run(capsys, "solve", "drf_compare", "--exact")
    assert code == 0
    assert "(1/3, 1/3, 5/6)" in out


def test_solve_exact_prints_an_irrational_answer_as_decimals(capsys):
    # greedy3's answer is irrational; no fraction may stand in for it.
    code, out, _ = run(capsys, "solve", "greedy3", "--exact")
    assert code == 0
    exact = next(line for line in out.splitlines() if line.startswith("x (exact)"))
    assert "/" not in exact


def test_solve_a_400_by_100_instance_exits_zero(large_instance, tmp_path, capsys):
    path = tmp_path / "large.json"
    path.write_text(json.dumps({
        "entitlements": large_instance.entitlements.tolist(),
        "requirements": large_instance.requirements.tolist(),
    }))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "verified: yes" in out


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fairshare", "solve", "slope2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verified: yes" in proc.stdout


def test_solve_json_roundtrips_into_verify(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "slope2", "--json")
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["x"], [0.6, 0.9], atol=1e-9)
    assert doc["verified"] is True
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "verify", "slope2", "--allocation", str(alloc))
    assert code == 0


def test_solve_trace_reductions_flag(capsys):
    code, out, _ = run(capsys, "solve", "elim_example", "--trace-reductions")
    assert code == 0
    assert "granted user 1 in full" in out
    assert "x1.666666667" in out


def test_solve_reports_instance_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"entitlements": [0.9, 0.2], "requirements": [[1.0], [1.0]]}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "invalid instance" in err


def test_solve_rejects_a_nan_entitlement(tmp_path, capsys):
    # json reads the bare NaN literal; the instance must not verify.
    bad = tmp_path / "nan.json"
    bad.write_text('{"entitlements": [NaN, 1.0], "requirements": [[0.5], [0.5]]}')
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert out == ""
    assert "invalid instance" in err and "not finite" in err


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "slope2", "--tol", "-1"),
        ("solve", "slope2", "--tol", "nan"),
        ("trace", "slope2", "--t-max", "nan"),
    ],
)
def test_a_tolerance_that_is_not_positive_is_a_usage_error(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid tolerance") and "Traceback" not in err


# Granting user 1 in full leaves 5e-11 of the resource, below the input
# tolerance, while user 2 still requests it: the reduction cannot proceed.
EXHAUSTED = {"entitlements": [1, 0], "requirements": [[0.99999999995], [0.5]]}


def test_solve_answers_an_exhausted_column(tmp_path, capsys):
    # solve does not reduce: user 1 gets everything, which saturates the
    # resource to within 5e-11, and user 2, entitled to nothing, is
    # justified there with nothing.
    path = tmp_path / "exhausted.json"
    path.write_text(json.dumps(EXHAUSTED))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 0
    assert err == ""
    assert "x = (1, 0)" in out
    assert "bottlenecks: {1}" in out
    assert "verified: yes" in out
    code, out, _ = run(capsys, "solve", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["x"], [1.0, 0.0], rtol=0, atol=1e-9)
    assert doc["verified"] is True


def test_solve_trace_reductions_reports_an_exhausted_column_as_input_error(
    tmp_path, capsys
):
    path = tmp_path / "exhausted.json"
    path.write_text(json.dumps(EXHAUSTED))
    code, out, err = run(capsys, "solve", str(path), "--trace-reductions")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot reduce the instance:")
    assert len(err.strip().splitlines()) == 1


def test_trace_reports_an_exhausted_column_as_input_error(tmp_path, capsys):
    path = tmp_path / "exhausted.json"
    path.write_text(json.dumps(EXHAUSTED))
    code, out, err = run(capsys, "trace", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot reduce the instance:")
    assert len(err.strip().splitlines()) == 1


def test_verify_greedy_counterexample_step(capsys):
    code, out, _ = run(capsys, "verify", "greedy3", "--x", "1,2/3,0")
    assert code == 1
    assert "user 2: COMPLAINT" in out
    assert "non-bottleneck resource(s) {2}" in out


def test_verify_greedy_three_quarters(capsys):
    code, out, _ = run(capsys, "verify", "greedy3", "--x", "3/4,1,0")
    assert code == 1
    assert "user 1: justified via resource 3" in out
    assert "user 2: fully allocated" in out
    assert "user 3: COMPLAINT" in out


def test_verify_circle_symmetric_passes(capsys):
    code, out, _ = run(capsys, "verify", "circle4", "--x", "1/3,1/3,1/3,1/3")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_fails_an_allocation_above_one(tmp_path, capsys):
    # Capacity holds and both users read as fully allocated; x_1 = 2 alone
    # must fail the verdict.
    path = tmp_path / "box.json"
    path.write_text('{"entitlements": [0.5, 0.5], "requirements": [[0.25], [0.5]]}')
    code, out, _ = run(capsys, "verify", str(path), "--x", "2,1")
    assert code == 1
    assert "allocation: user 1 OUTSIDE [0, 1] (x = 2)" in out
    assert "overall: FAIL" in out
    code, out, _ = run(capsys, "verify", str(path), "--x", "2,1", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["out_of_range"] == [{"user": 1, "x": 2.0}]


def test_verify_dimension_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "circle4", "--x", "0.5,0.5")
    assert code == 2
    assert "4 users" in err


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "slope2", "--x", "0.6,0.9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["bottlenecks"] == [1]


def test_malformed_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"entitlements": [0.5,')
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_name_array_mismatch_is_input_error(tmp_path, capsys):
    path = tmp_path / "names.json"
    path.write_text(
        json.dumps(
            {
                "entitlements": [0.5, 0.5],
                "requirements": [[0.5], [0.5]],
                "users": ["only-one"],
            }
        )
    )
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "user_names" in err


def test_fraction_strings_accepted_in_documents(tmp_path, capsys):
    path = tmp_path / "fractions.json"
    path.write_text(
        json.dumps(
            {
                "entitlements": ["2/5", "3/5"],
                "requirements": [["2/3"], ["2/3"]],
                "users": ["a", "b"],
                "resources": ["cpu"],
            }
        )
    )
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "(0.6, 0.9)" in out


def test_unknown_instance_name(capsys):
    code, _, err = run(capsys, "solve", "no_such_fixture")
    assert code == 2
    assert "not a bundled fixture" in err


def test_renormalize_flag_rescales_entitlements(tmp_path, capsys):
    path = tmp_path / "unnormalized.json"
    path.write_text(
        json.dumps({"entitlements": [4, 6], "requirements": [["2/3"], ["2/3"]]})
    )
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2  # rejected outright: sums are checked, not silently fixed
    code, out, _ = run(capsys, "solve", str(path), "--renormalize")
    assert code == 0
    assert "(0.6, 0.9)" in out


def test_enumerate_family_fixture(capsys):
    code, out, _ = run(capsys, "enumerate", "nonunique_n3")
    assert code == 0
    assert "witness(es)" in out
    assert "positive-dimensional family" in out


def test_enumerate_circle_reports_many_witnesses(capsys):
    code, out, _ = run(capsys, "enumerate", "circle4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["witnesses"]) >= 7
    assert doc["has_positive_dimension_face"] is True


def test_enumerate_unique_fixture(capsys):
    code, out, _ = run(capsys, "enumerate", "slope2")
    assert code == 0
    assert out.startswith("1 witness(es)")


def test_enumerate_size_guard_exit_code(tmp_path, capsys):
    doc = {
        "entitlements": [1 / 7] * 7,
        "requirements": [[1.0] for _ in range(7)],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "enumerate", str(path))
    assert code == 2
    assert "limited to" in err


def test_enumerate_iteration_limit_exit_code(monkeypatch, capsys):
    # A simplex that runs out of pivots is not a failed verification (exit
    # 1): it exits 2 with one line on stderr and no traceback.
    from fairshare import lp

    monkeypatch.setattr(lp, "_MAX_ITER", 0)
    code, out, err = run(capsys, "enumerate", "slope2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: simplex iteration limit exceeded")


def test_compare_side_by_side(capsys):
    code, out, _ = run(capsys, "compare", "drf_compare")
    assert code == 0
    assert "(0.3333333333, 0.6666666667)" in out  # bottleneck-fair bundle, user 3
    assert "(0.2, 0.4)" in out  # dominant-share bundle, user 3
    assert "dominant shares" in out


def test_compare_middles_scaling(capsys):
    code, out, _ = run(capsys, "compare", "--middles", "50")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("average utilization")][0]
    parts = line.split()
    bbf, drf = float(parts[2]), float(parts[5])
    assert abs(bbf - 0.5) < 0.02
    assert abs(drf - 2 / 3) < 0.02


def test_compare_single_resource_identical(capsys):
    code, out, _ = run(capsys, "compare", "slope2")
    assert code == 0
    lines = out.splitlines()
    bbf = [l for l in lines if "bottleneck-fair:" in l][0]
    wf = [l for l in lines if "dominant-share :" in l][0]
    assert "(0.6, 0.9)" in bbf and "(0.6, 0.9)" in wf


def test_trace_csv_contract(capsys):
    code, out, _ = run(capsys, "trace", "slope2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x_1,x_2,f,min_slack"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0 and float(first[2]) == 0.0
    for line in lines[1:]:
        t, x1, x2, f, min_slack = (float(v) for v in line.split(","))
        assert abs(f - t) <= 1e-6
        assert min_slack > 0.0
    last = lines[-1].split(",")
    np.testing.assert_allclose([float(last[1]), float(last[2])], [0.6, 0.9], atol=1e-4)


def test_trace_stride(capsys):
    code, full, _ = run(capsys, "trace", "slope2")
    code2, strided, _ = run(capsys, "trace", "slope2", "--stride", "10")
    assert code == 0 and code2 == 0
    assert len(strided.splitlines()) < len(full.splitlines())
    assert full.splitlines()[-1] == strided.splitlines()[-1]
