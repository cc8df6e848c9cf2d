import time
from fractions import Fraction

import numpy as np
import pytest

import hardy_lab as hl

SESSION_T0 = time.monotonic()


def session_elapsed() -> float:
    return time.monotonic() - SESSION_T0


@pytest.fixture(scope="session")
def demo_cov10():
    return hl.build_covering(hl.profile_demo(), depth_max=10)


@pytest.fixture(scope="session")
def demo_cov8(demo_cov10):
    return hl.build_covering(hl.profile_demo(), depth_max=8)


@pytest.fixture(scope="session")
def rough_cov8():
    return hl.build_covering(hl.profile_rough(), depth_max=8)


@pytest.fixture(scope="session")
def rough_cov10():
    # the lacunary profile saturates the per-class cube counting, so the
    # beta p = -alpha threshold is sharp on it (22751 cubes)
    return hl.build_covering(hl.profile_rough(), depth_max=10)


@pytest.fixture(scope="session")
def demo_cov6():
    return hl.build_covering(hl.profile_demo(), depth_max=6)


@pytest.fixture(scope="session")
def flat_cov0():
    # the unit-square domain: the root cube of the flat profile alone
    return hl.build_covering(hl.profile_flat(2.0), depth_max=0)


def random_problem(rng, max_vertices=40, p=2.0):
    n = int(rng.integers(2, max_vertices + 1))
    tree = hl.random_tree(n, rng)
    lo, hi = np.log(1e-2), np.log(1e2)
    u = np.exp(rng.uniform(lo, hi, n - 1))
    v = np.exp(rng.uniform(lo, hi, n - 1))
    return hl.make_problem(tree, u, v, p)


def toy_two_cell_space():
    """The 1-D covering of (0, 2): cores (0,1) and (1,2), connector (1, 5/4)."""
    return hl.CellSpace(hl.RootedTree([-1, 0]), (Fraction(1), Fraction(1, 4), Fraction(3, 4)),
                        owner=(0, 1, 1), connector=(-1, 1, -1))
