import math
import os
import subprocess
import sys

import pytest

from stochinv import (Grid, Instance, load_instance, pmf_empirical,
                      pmf_parametric, solve)

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def instance_path(name):
    return os.path.join(INSTANCE_DIR, name)


# each instance file on the grid its tests solve it on
FIXTURE_GRIDS = {"lumpy_discounted.json": Grid(-200, 400),
                 "seasonal_poisson.json": Grid(-300, 600),
                 "spiky_nonstationary.json": Grid(-1000, 1100),
                 "volatile_poisson.json": Grid(-1200, 1704)}


def certifying_floor(instance):
    """The highest floor of a whole-row grid that certifies the instance's
    cone, min(min_t (R_t - floor(t)) + floor(n), -1): the grid's plain
    certified floor e_t lies at or below R_t in every period
    (stochinv.sdp.Instance.cone)."""
    floors, n = instance.floors, instance.horizon
    return min(min(first - floor for (first, _), floor
                   in zip(instance.cone, floors)) + floors[n - 1], -1)


def run_fresh(code, **env):
    """Stdout of code run in a fresh interpreter that imports this stochinv,
    with the variables env added to the environment."""
    import stochinv

    src = os.path.dirname(os.path.dirname(os.path.abspath(stochinv.__file__)))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout


def scipy_modules_after(code):
    """Names of the scipy modules loaded after running code in a fresh interpreter."""
    probe = ("import sys\n" + code + "\n"
             "print(' '.join(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy')))")
    return set(run_fresh(probe).split())


def seasonal_instance(B):
    """Four-period seasonal Poisson demand, the main worked fixture."""
    rates = (20.0, 40.0, 60.0, 40.0)
    return Instance(horizon=4, K=100.0, v=0.0, h=1.0, p=10.0, B=B,
                    demands=tuple(pmf_parametric("poisson", r) for r in rates))


def small_random_instance(rng):
    """1-3 periods, capacity 1-10, demands of 1-4 points on 0..10.

    Small enough for the brute-force recursions in oracle.py on
    Grid(-40, 60).
    """
    horizon = int(rng.integers(1, 4))
    cap = int(rng.integers(1, 11))
    demands = []
    for _ in range(horizon):
        size = int(rng.integers(1, 5))
        values = rng.choice(11, size=size, replace=False)
        masses = rng.random(size)
        demands.append(pmf_empirical(values, masses / masses.sum()))
    return Instance(
        horizon=horizon, K=float(rng.uniform(0, 30)),
        v=float(rng.choice([0.0, rng.uniform(0, 3)])),
        h=float(rng.uniform(0.1, 2)), p=float(rng.uniform(0.1, 12)),
        B=cap, demands=tuple(demands),
        discount=float(rng.choice([1.0, 0.9])))


@pytest.fixture(scope="session")
def seasonal_tables():
    """Solved seasonal fixture for each capacity of interest."""
    grid = Grid(-300, 600)
    return {B: solve(seasonal_instance(B), grid)
            for B in (35, 65, 71, math.inf)}


@pytest.fixture(scope="session")
def spiky_instance():
    return load_instance(instance_path("spiky_nonstationary.json"))


@pytest.fixture(scope="session")
def spiky_tables(spiky_instance):
    return solve(spiky_instance, Grid(-1000, 1100))


@pytest.fixture(scope="session")
def lumpy_instance():
    return load_instance(instance_path("lumpy_discounted.json"))


@pytest.fixture(scope="session")
def lumpy_tables(lumpy_instance):
    return solve(lumpy_instance, Grid(-200, 400))


@pytest.fixture(scope="session")
def volatile_instance():
    return load_instance(instance_path("volatile_poisson.json"))


# volatile's grids end at its demand ceiling, 1704 (sum_t dmax_t), above
# its structural top, 1048: solve refuses a grid that ends below both
VOLATILE_CERTIFIED_GRID = Grid(-2000, 1704)


@pytest.fixture(scope="session")
def volatile_tables(volatile_instance):
    """Too narrow to certify periods 1 and 2: both order only below exact_from."""
    return solve(volatile_instance, Grid(-1200, 1704))


@pytest.fixture(scope="session")
def volatile_certified_tables(volatile_instance):
    """Wide enough that every period orders from exact_from up."""
    return solve(volatile_instance, VOLATILE_CERTIFIED_GRID)
