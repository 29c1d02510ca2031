import numpy as np
import pytest

import gupcert as g


@pytest.fixture(scope="session")
def params_1():
    return g.make_params(1.0)


@pytest.fixture(scope="session")
def params_0():
    return g.make_params(0.0)


@pytest.fixture(scope="session")
def uniform_state(params_1):
    return g.catalog_state("uniform_q", params_1)


@pytest.fixture(scope="session")
def uniform_rep(uniform_state):
    return g.bundle(uniform_state)


@pytest.fixture(scope="session")
def cosine_state(params_1):
    return g.catalog_state("raised_cosine_q", params_1)


@pytest.fixture(scope="session")
def cosine_rep(cosine_state):
    return g.bundle(cosine_state)


@pytest.fixture(scope="session")
def gauss_state_small_beta():
    p = g.make_params(1e-3)
    return g.catalog_state("truncated_gaussian_q", p, shape_args=[1.0])


@pytest.fixture(scope="session")
def gauss_rep_small_beta(gauss_state_small_beta):
    return g.bundle(gauss_state_small_beta)


@pytest.fixture(scope="session")
def random_state(params_1):
    return g.catalog_state("random_fourier_q", params_1, shape_args=[6], seed=11)


@pytest.fixture(scope="session")
def random_rep(random_state):
    return g.bundle(random_state)


def random_discrete(rng, n):
    """Random discrete distribution on unit-width bins."""
    p = rng.random(n) + 1e-6
    p /= p.sum()
    return g.DiscreteDist(edges=np.arange(n + 1.0), probs=p)
