import dataclasses

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


@pytest.fixture(scope="session")
def pinned_classes(default_class):
    """All 100 functions of the 2-D/10, 5-D/30 and 10-D/100 classes."""
    classes = {(2, 10): default_class}
    for dim, num_minima in ((5, 30), (10, 100)):
        params = sized_class(dim, num_minima)
        classes[dim, num_minima] = [generate(params, nf) for nf in range(1, 101)]
    return classes


def sized_class(dim, num_minima):
    """The default class for `dim` with `num_minima` minima."""
    return dataclasses.replace(default_params(dim), num_minima=num_minima)


def random_unit_vectors(dim, count, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
