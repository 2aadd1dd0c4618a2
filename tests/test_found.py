"""Every instance that a search or a defect report has exposed, kept in
``data/found.json`` with its origin. An entry is never removed to make a run
pass.

The ``climb3-restart*`` entries come from a hill-climb on the work of
``eg.solve_eg``: ``default_rng(3)``, 40 restarts. Each restart draws n from
``integers(3, 8)`` and m from ``integers(2, 7)``, then log10 e_i ~ U(-20, 0)
and r ~ U(0, 1) with 30% of its entries set to 0, and makes 150 mutations:
with probability 1/2 one log10 e_i moves by N(0, 3), clipped to [-20, 0];
otherwise one r_ij moves by N(0, 0.2), clipped to [0, 1]. A mutation is kept
where the score does not fall; the score is the number of
``np.linalg.solve`` calls in ``eg.solve_eg(e / e.sum(), r)``, plus 1000 if
its flag is not "optimal". The entries are the final instances of the six
restarts that end uncertified at 16ed388, stored as they were solved.
"""
import json
from pathlib import Path

import pytest

from fairshare import eg
from fairshare.model import ProblemInstance
from fairshare.solver import solve

FOUND = json.loads((Path(__file__).parent / "data" / "found.json").read_text())


def _instance(entry):
    return ProblemInstance(entitlements=entry["entitlements"], requirements=entry["requirements"])


@pytest.mark.parametrize("entry", FOUND, ids=[entry["name"] for entry in FOUND])
def test_every_found_instance_is_certified_verified_and_pareto(entry):
    assert entry["origin"]
    res = solve(_instance(entry))
    assert res.polish_applied and res.termination == "converged", entry["origin"]
    assert res.report.passed and res.report.pareto_ok


def test_the_line_search_settles_entitlements_spread_by_18_decades(monkeypatch):
    # Without the line search this 4x2 instance ends at the iteration cap
    # and overruns resource 2 by 4.2e-6. The search halves steps where a
    # user turns full, and the interior point then reaches a certified face.
    (entry,) = [entry for entry in FOUND if entry["name"] == "climb3-restart26"]
    inst = _instance(entry)
    calls = []
    change = eg._change
    monkeypatch.setattr(eg, "_change", lambda *args: calls.append(1) or change(*args))
    _, _, status = eg.solve_eg(inst.entitlements, inst.requirements)
    assert status == "optimal" and calls
    assert solve(inst).report.passed
