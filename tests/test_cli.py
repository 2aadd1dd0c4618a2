import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fairshare.eg
from fairshare.cli import main
from fairshare.fixtures import FIXTURES


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


def test_a_5000_user_report_takes_memory_linear_in_n(draw, tmp_path, capsys):
    # The envy check keeps one row of margins at a time: solve --json and
    # verify --format json on 5000 x 8 peak under 32 MiB, where an N x N
    # array of margins alone took 191 MiB.
    e, r = draw(np.random.default_rng(0), 5000, 8)
    path, allocation = tmp_path / "draw5000.json", tmp_path / "x.json"
    path.write_text(json.dumps({"entitlements": e.tolist(), "requirements": r.tolist()}))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "solve", str(path), "--json")
        solve_peak = tracemalloc.get_traced_memory()[1]
        allocation.write_text(out)
        tracemalloc.reset_peak()
        verify_code, verify_out, _ = run(
            capsys, "verify", str(path), "--allocation", str(allocation), "--format", "json"
        )
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and verify_code == 0
    worst = json.loads(out)["report"]["worst_envy"]
    assert worst is not None and worst == json.loads(verify_out)["worst_envy"]
    assert solve_peak <= 32 * 2**20, solve_peak
    assert verify_peak <= 32 * 2**20, verify_peak


def _module_env():
    """The environment for ``python -m fairshare`` from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "fairshare", "solve", "slope2"],
        env=_module_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verified: yes" in proc.stdout


def test_trace_ends_quietly_when_the_reader_closes_the_pipe(capsys):
    # A 4 KB pipe cannot hold circle4's trace, which is longer than that (as
    # checked in process first), so the closed pipe always meets a write (on
    # Linux; elsewhere the default size).
    fcntl = pytest.importorskip("fcntl")
    code, out, _ = run(capsys, "trace", "circle4")
    assert code == 0
    assert len(out.encode()) > 4096, len(out.encode())
    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "fairshare", "trace", "circle4"],
        env=_module_env(), stdout=write_end, stderr=subprocess.PIPE,
    )
    os.close(write_end)
    line = b""
    while not line.endswith(b"\n"):
        line += os.read(read_end, 1)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert line == b"t,x_1,x_2,x_3,x_4,f,min_slack\n"
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize(
    "entitlements, requirements, x",
    [
        ([1e-100, 1.0], [[0.35, 0, 0.02], [0.15, 0.48, 0.99]], "(0.5, 1)"),
        ([1e-110, 1.0], [[0.35, 0, 0.02], [0.15, 0.48, 0.99]], "(0.5, 1)"),
        ([1e-100, 1], [[0.5], [0.9]], "(0.2, 1)"),
        (
            [0.4077086452228795, 0.20818699454257036, 0.38410436023455014,
             4.59287160208636e-21, 4.59287160208636e-301],
            [[0.0], [0.0], [0.231], [0.327], [0.445]],
            "(1, 1, 1, 1, 0.993258427)",
        ),
    ],
    ids=[
        "three-columns-1e-100",
        "three-columns-1e-110",
        "one-column-1e-100",
        "one-column-4.6e-301",
    ],
)
def test_solve_answers_a_user_entitled_to_1e_100_or_less(
    entitlements, requirements, x, tmp_path, capsys
):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"entitlements": entitlements, "requirements": requirements}))
    code, out, err = run(capsys, "solve", str(path))
    assert (code, err) == (0, "")
    assert f"x = {x}\n" in out
    assert "polished: True" in out and "verified: yes" in out


@pytest.mark.parametrize(
    "args, code",
    [
        (["solve", "elim_example"], 0),
        (["solve", "elim_example", "--json"], 0),
        (["verify", "greedy3", "--x", "1,2/3,0"], 1),
        (["verify", "greedy3", "--x", "1,2/3,0", "--format", "json"], 1),
        (["enumerate", "circle4"], 0),
        (["compare", "drf_compare"], 0),
        (["trace", "elim_example"], 0),
    ],
    ids=[
        "solve", "solve-json", "verify-fails", "verify-json-fails", "enumerate",
        "compare", "trace",
    ],
)
def test_every_command_keeps_its_exit_code_when_the_pipe_is_closed(args, code):
    # The reader is gone before anything is written: the command ends with
    # nothing on stderr and its own exit code, so a failing verification
    # still exits 1.
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.Popen(
        [sys.executable, "-m", "fairshare", *args],
        env=_module_env(), stdout=write_end, stderr=subprocess.PIPE,
    )
    os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (code, b"")


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
        ("verify", "slope2", "--x", "0.6,0.9", "--tol", "0"),
    ],
)
def test_a_tolerance_that_is_not_positive_is_a_usage_error(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid tolerance") and "Traceback" not in err


# Granting user 1 in full leaves 5e-11 of the resource, below the input
# tolerance, while user 2, entitled to nothing, still requests it.
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
    # User 1 fits at x = 1, so the empty face certifies the answer.
    assert "polished: True" in out
    code, out, _ = run(capsys, "solve", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == [1.0, 0.0]
    assert doc["verified"] is True


def test_solve_grants_a_tiny_entitlement_in_full_where_nothing_saturates(
    tmp_path, capsys
):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"entitlements": [1.0, 1e-40], "requirements": [[1e-12], [0.46]]}))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 0 and err == ""
    assert "x = (1, 1)" in out
    assert "polished: True" in out
    assert "verified: yes" in out


# Valid instances with a user entitled to a subnormal share, which
# ``solve_eg`` counts as none: numpy must warn of nothing.
SUBNORMAL = {
    "7e-323": {
        "entitlements": [0.944773484509876, 0.055226515490124035, 7e-323],
        "requirements": [
            [0.0, 0.362, 0.685, 0.978],
            [0.722, 0.717, 0.951, 0.0],
            [0.869, 0.44, 0.985, 0.04],
        ],
    },
    "5e-324": {
        "entitlements": [
            0.5542613734559086,
            0.3548289230106477,
            0.09090970353344374,
            5e-324,
            6.166522504078893e-301,
        ],
        "requirements": [
            [0.0, 0.521, 0.0, 0.0, 0.479],
            [0.434, 0.0, 0.762, 0.0, 0.176],
            [0.456, 0.399, 0.264, 0.705, 0.12],
            [0.0, 0.375, 0.777, 0.602, 0.0],
            [0.953, 0.604, 0.0, 0.318, 0.72],
        ],
    },
}


@pytest.mark.parametrize("name", sorted(SUBNORMAL))
def test_solve_verifies_a_subnormal_entitlement_without_a_warning(name, tmp_path, capsys):
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(SUBNORMAL[name]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", str(path))
    assert code == 0 and err == ""
    assert "verified: yes" in out


def test_solve_serves_a_subnormal_entitlement_as_one_entitled_to_nothing(
    tmp_path, capsys
):
    # User 2, entitled to 5e-324, requests resource 2, which user 1 leaves
    # free: they share it as a user entitled to nothing, on a certified
    # face. While the interior point priced them, it stopped at its
    # iteration cap with x_2 = 2.5e-222, and solve exited 1.
    path = tmp_path / "subnormal2x2.json"
    path.write_text(
        json.dumps({"entitlements": [1, 5e-324], "requirements": [[0.6, 0], [0.5, 1]]})
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", str(path))
    assert (code, err) == (0, "")
    assert "x = (1, 0.8)\n" in out
    assert "polished: True" in out and "verified: yes" in out


def test_solve_json_names_one_justifying_resource_per_user(tmp_path, capsys):
    # User 1 ties on the bottlenecks 4 and 18; the justification and the
    # report must both name the lower one.
    requirements = [[0.0] * 18, [0.0] * 18]
    requirements[0][3] = requirements[0][17] = 0.8
    requirements[1][3] = requirements[1][17] = 0.4
    path = tmp_path / "tie.json"
    path.write_text(json.dumps({"entitlements": [0.5, 0.5], "requirements": requirements}))
    code, out, _ = run(capsys, "solve", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bottlenecks"] == [4, 18]
    assert doc["justification"] == {"1": 4, "2": None}
    assert [u["resource"] for u in doc["report"]["users"]] == [4, None]


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


def test_verify_counts_pareto_pins_at_the_bottleneck_tolerance(tmp_path, capsys):
    # Usage 0.999999 lies exactly eps_bottleneck below capacity; the
    # resource is a bottleneck, so it pins both users.
    path = tmp_path / "edge.json"
    path.write_text('{"entitlements": [0.5, 0.5], "requirements": [[1], [1]]}')
    code, out, _ = run(capsys, "verify", str(path), "--x", "0.4999995,0.4999995")
    assert code == 0
    assert "bottlenecks: {1}" in out
    assert "pareto: OK" in out


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


def test_allocation_that_is_not_an_array_is_input_error(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text('{"x": 5}')
    code, out, err = run(capsys, "verify", "slope2", "--allocation", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'x' is an array" in err


# Malformed input: the arguments, with {doc} standing for a file that holds
# the document (None: no file is written), and the location the one error
# line must name.
MALFORMED = {
    "boolean": (
        ("solve", "{doc}"),
        {"entitlements": [True, 0.5], "requirements": [[0.5], [0.5]]},
        "entitlements[0]",
    ),
    "unparseable-string": (
        ("solve", "{doc}"),
        {"entitlements": ["one half", 0.5], "requirements": [[0.5], [0.5]]},
        "entitlements[0]",
    ),
    "other-type": (
        ("solve", "{doc}"),
        {"entitlements": [0.5, 0.5], "requirements": [[0.5], [None]]},
        "requirements[1][0]",
    ),
    "allocation-boolean": (
        ("verify", "slope2", "--allocation", "{doc}"),
        {"x": [True, 0.5]},
        "x[0]",
    ),
    "x-unparseable": (("verify", "slope2", "--x", "0.6,abc"), None, "--x[1]"),
    "x-empty-entry": (("verify", "slope2", "--x", "0.6,,0.9"), None, "--x[1]"),
    "x-trailing-comma": (("verify", "slope2", "--x", "0.6,0.9,"), None, "--x[2]"),
    "not-an-object": (("solve", "{doc}"), [0.5, 0.5], "doc.json"),
    "missing-key": (("solve", "{doc}"), {"entitlements": [1.0]}, "'requirements'"),
    "empty-array": (
        ("solve", "{doc}"),
        {"entitlements": [], "requirements": [[0.5]]},
        "'entitlements'",
    ),
    "row-count": (
        ("solve", "{doc}"),
        {"entitlements": [0.5, 0.5], "requirements": [[0.5]]},
        "requirements has 1 rows",
    ),
    "row-not-an-array": (
        ("solve", "{doc}"),
        {"entitlements": [0.5, 0.5], "requirements": [[0.5], 0.5]},
        "requirements[1]",
    ),
    "ragged-row": (
        ("solve", "{doc}"),
        {"entitlements": [0.5, 0.5], "requirements": [[0.5], [0.5, 0.5]]},
        "requirements[1]",
    ),
    "unreadable-allocation": (
        ("verify", "slope2", "--allocation", "{doc}"),
        None,
        "doc.json",
    ),
    "no-allocation": (("verify", "slope2"), None, "--allocation"),
    "no-requirements": (
        ("solve", "{doc}"),
        {"entitlements": [1.0], "requirements": []},
        "'requirements'",
    ),
    "compare-without-instance": (("compare",), None, "--middles"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_error_line_naming_its_location(
    case, tmp_path, capsys
):
    args, document, location = MALFORMED[case]
    path = tmp_path / "doc.json"
    if document is not None:
        path.write_text(json.dumps(document))
    code, out, err = run(capsys, *(a.format(doc=path) for a in args))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert location in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "names",
    [
        {"users": 5},
        {"resources": [["x"]]},
        {"users": "ab"},  # a string is not an array of two names
    ],
)
def test_names_that_are_not_an_array_of_strings_are_input_errors(names, tmp_path, capsys):
    path = tmp_path / "names.json"
    path.write_text(
        json.dumps({"entitlements": [0.5, 0.5], "requirements": [[0.5], [0.5]], **names})
    )
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    (key,) = names
    assert err.startswith("error: ") and f"{key!r} must be an array of strings" in err


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


def test_an_instance_path_that_is_a_directory_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "solve", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1, err


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
    stats = doc["stats"]
    assert set(stats) == {"rejected", "repeats", "lattice", "settled", "lps"}
    assert all(type(v) is int for v in stats.values())
    assert 0 < stats["lps"] <= 11


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


@pytest.mark.parametrize(
    "args",
    [
        ("trace", "slope2", "--stride", "0"),
        ("trace", "slope2", "--stride", "-3"),
        ("compare", "--middles", "-1"),
    ],
)
def test_a_count_below_its_range_is_a_usage_error(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _trace_rows(capsys, *argv):
    code, out, err = run(capsys, "trace", *argv)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_trace_ends_next_to_solve_on_every_fixture(name, capsys):
    # The trajectory runs on the instance as given: one column per user,
    # and its last row lands on solve's answer for every entitled user.
    inst = FIXTURES[name]
    header, rows = _trace_rows(capsys, name)
    users = [f"x_{i + 1}" for i in range(inst.n_users)]
    assert header == ",".join(["t"] + users + ["f", "min_slack"])
    code, out, _ = run(capsys, "solve", name, "--json")
    assert code == 0
    x_solve = np.array(json.loads(out)["x"])
    entitled = inst.entitlements > 0.0
    x_trace = np.array(rows[-1][1 : 1 + inst.n_users])
    np.testing.assert_allclose(x_trace[entitled], x_solve[entitled], rtol=0, atol=5e-4)


def test_trace_keeps_a_user_entitled_to_nothing_at_zero(tmp_path, capsys):
    # solve gives user 2 the leftover capacity; the trajectory does not.
    path = tmp_path / "leftover.json"
    path.write_text('{"entitlements": [1, 0], "requirements": [[0.5], [0.5]]}')
    _, rows = _trace_rows(capsys, str(path))
    assert all(row[2] == 0.0 for row in rows)
    assert rows[-1][1] == pytest.approx(1.0, abs=1e-6)
    code, out, _ = run(capsys, "solve", str(path), "--json")
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["x"], [1.0, 1.0], rtol=0, atol=1e-9)


def test_trace_ends_an_exhausted_column_near_one_and_zero(tmp_path, capsys):
    path = tmp_path / "exhausted.json"
    path.write_text(json.dumps(EXHAUSTED))
    _, rows = _trace_rows(capsys, str(path))
    np.testing.assert_allclose(rows[-1][1:3], [1.0, 0.0], rtol=0, atol=1e-6)


# The text output of ``fairshare solve NAME`` for every fixture, byte for
# byte: it is printed from the verifier's report, which solve() returns.
SOLVE_TEXT = {
    "circle4": """\
x = (0.3333333333, 0.3333333333, 0.3333333333, 0.3333333333)
bottlenecks: {1, 2, 3, 4}
user 1: justified via resource 1
user 2: justified via resource 1
user 3: justified via resource 2
user 4: justified via resource 1
min residual: 0
termination: converged | polished: True
verified: yes
""",
    "drf_compare": """\
x = (0.3333333333, 0.3333333333, 0.8333333333)
bottlenecks: {1}
user 1: justified via resource 1
user 2: justified via resource 1
user 3: justified via resource 1
min residual: 0
termination: converged | polished: True
verified: yes
""",
    "elim_example": """\
x = (1, 0.4666666667, 0.6)
bottlenecks: {2}
user 1: fully allocated
user 2: justified via resource 2
user 3: justified via resource 2
min residual: 0
termination: converged | polished: True
verified: yes
""",
    "greedy3": """\
x = (0.9787032456, 0.6079372933, 0.1306875689)
bottlenecks: {2, 3}
user 1: justified via resource 3
user 2: justified via resource 2
user 3: justified via resource 2
min residual: 1.110223025e-16
termination: converged | polished: True
verified: yes
""",
    "nonunique_n3": """\
x = (0.5, 0.5, 0.5)
bottlenecks: {1, 2}
user 1: justified via resource 1
user 2: justified via resource 2
user 3: justified via resource 1
min residual: 0
termination: converged | polished: True
verified: yes
""",
    "slope2": """\
x = (0.6, 0.9)
bottlenecks: {1}
user 1: justified via resource 1
user 2: justified via resource 1
min residual: 0
termination: converged | polished: True
verified: yes
""",
    "utilization": """\
x = (1, 0.5)
bottlenecks: {1, 4}
user 1: fully allocated
user 2: justified via resource 1
min residual: 0
termination: converged | polished: True
verified: yes
""",
}


@pytest.mark.parametrize("name", sorted(SOLVE_TEXT))
def test_solve_prints_the_recorded_text_for_every_fixture(name, capsys):
    code, out, err = run(capsys, "solve", name)
    assert code == 0 and err == ""
    assert out == SOLVE_TEXT[name]


def test_the_recorded_text_covers_every_fixture():
    assert sorted(SOLVE_TEXT) == sorted(FIXTURES)


def test_solve_prints_each_status_and_the_report_of_a_failing_answer(monkeypatch, capsys):
    # An answer that fails verification: on greedy3, (3/4, 1, 0) leaves user
    # 1 justified, user 2 fully allocated and user 3 with a complaint, and
    # the report follows the summary.
    x = np.array([0.75, 1.0, 0.0])
    monkeypatch.setattr(fairshare.eg, "solve_eg", lambda e, r, eps: (x, None, "iteration_limit"))
    code, out, err = run(capsys, "solve", "greedy3")
    assert code == 1 and err == ""
    assert out == """\
x = (0.75, 1, 0)
bottlenecks: {2, 3}
user 1: justified via resource 3
user 2: fully allocated
user 3: no justifying resource
min residual: 0
termination: iteration_limit | polished: False
verified: no

capacity: OK
bottlenecks: {2, 3}
user 1: justified via resource 3 (margin 0)
user 2: fully allocated
user 3: COMPLAINT, best bottleneck share misses entitlement by 0.125 (closest on resource 2)
pareto: OK
envy: FAIL (worst margin -0.5, user 3 vs user 2)
sharing incentive: FAIL (min margin -0.125)
overall: FAIL
"""
