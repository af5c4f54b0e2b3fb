import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from gsentropy import CustomFinite

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@st.composite
def interior_pmfs(draw, min_k=2, max_k=10, min_weight=1e-3):
    """Strictly positive probability vectors on the simplex."""
    k = draw(st.integers(min_k, max_k))
    raw = draw(st.lists(st.floats(min_weight, 1.0), min_size=k, max_size=k))
    arr = np.asarray(raw, dtype=float)
    return CustomFinite(arr / arr.sum())


@st.composite
def pmfs_with_zeros(draw, min_k=2, max_k=10):
    """Probability vectors that may contain exact zeros."""
    k = draw(st.integers(min_k, max_k))
    raw = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
            min_size=k,
            max_size=k,
        ).filter(lambda xs: sum(xs) > 0)
    )
    arr = np.asarray(raw, dtype=float)
    return CustomFinite(arr / arr.sum())


@pytest.fixture(scope="session")
def small_corpus():
    from gsentropy import pmf_corpus

    return pmf_corpus(size=30)


# the tests whose pinned bits must hold under OpenBLAS's SSE2-era core, by
# the suite file that checks them there, with how many tests each half holds
PRESCOTT_SELECTIONS = {
    "test_coverage.py": (21, ["test_distributions.py::TestRowKernel",
                              "test_estimation.py::TestCountArrayKernel",
                              "test_families.py::test_family_values_are_pinned[custom-5]"]),
    "test_oracles.py": (19, ["test_oracles.py::TestSharedWeightPass",
                             "test_oracles.py::TestGroupedPass"]),
}


@pytest.fixture(scope="session")
def prescott_run():
    """Both selections in one pytest subprocess under OPENBLAS_CORETYPE=Prescott."""
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
    tests = Path(__file__).resolve().parent
    ids = [node for _, nodes in PRESCOTT_SELECTIONS.values() for node in nodes]
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", *(str(tests / node) for node in ids)],
        cwd=tests.parent, env=env, capture_output=True, text=True, timeout=300,
    )


def prescott_passed(run, suite_file):
    """How many of ``suite_file``'s half of the Prescott run passed, and how many it holds."""
    count, nodes = PRESCOTT_SELECTIONS[suite_file]
    prefixes = tuple(f"tests/{node}" for node in nodes)
    lines = run.stdout.splitlines()
    passed = sum(1 for line in lines if line.startswith(prefixes) and " PASSED" in line)
    return passed, count
