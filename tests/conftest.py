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
