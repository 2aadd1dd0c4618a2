import numpy as np
import pytest

from fairshare.model import ProblemInstance


@pytest.fixture(scope="session")
def large_instance():
    """A 400-user, 100-resource random instance with about 30% zero requests."""
    rng = np.random.default_rng(1)
    e = rng.random(400)
    r = rng.random((400, 100)) * (rng.random((400, 100)) > 0.3)
    return ProblemInstance(entitlements=e / e.sum(), requirements=r)
