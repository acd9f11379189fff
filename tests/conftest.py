import numpy as np
import pytest

from basingen import ClassParams, default_params, generate


@pytest.fixture(scope="session")
def params2():
    return default_params(2)


@pytest.fixture(scope="session")
def func9(params2):
    """Function 9 of the default 2-D class, shared across tests."""
    return generate(params2, 9)


@pytest.fixture(scope="session")
def func5():
    """Function 1 of a 5-D class with 30 minima."""
    params = ClassParams(
        dim=5,
        num_minima=30,
        global_value=-1.0,
        global_dist=2.0 / 3.0,
        global_radius=1.0 / 3.0,
        domain_left=(-1.0,) * 5,
        domain_right=(1.0,) * 5,
    )
    return generate(params, 1)


@pytest.fixture(scope="session")
def default_class(params2):
    """All 100 functions of the default 2-D class."""
    return [generate(params2, nf) for nf in range(1, 101)]


def random_unit_vectors(dim, count, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
