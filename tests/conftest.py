"""Session-scoped fixtures for the expensive shared objects.

The p=7 spectral pair and the winning backward shoot are reused across the
module tests and the acceptance suite; rebuilding them per test would
multiply the runtime several-fold.  Every test must also end with no child
process left, however it forks.
"""

import os

import pytest

from nlslab.grid import Obstacle, build_cutoff, build_grid
from nlslab.ground_state import solve_ground_state
from nlslab.linearized import assemble, solve_unstable_pair
from nlslab.soliton import SolitonParams
from nlslab.evolve import EvolveConfig
from nlslab.modulation import ModulationContext, ShootConfig, shoot_search

# desk-scale shooting configuration (d=1, p=7, interval obstacle):
# rate = delta sqrt(omega) |v| = 0.8 <= e0/2, T0 keeps the soliton clear of
# the cutoff region, and the bracket e^{-rate Tn} comfortably contains the
# discretization-induced alpha+ floor.
SHOOT = dict(T0=4.0, Tn=8.0, delta=0.4, v=2.0, omega=1.0, p=7.0,
             L=30.0, n=3071, a=1.0, R1=1.5, R2=3.0, dt=0.002, log_every=10)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def gs3():
    return solve_ground_state(3, 1.0, 1)


@pytest.fixture(scope="session")
def gs7():
    return solve_ground_state(7, 1.0, 1)


@pytest.fixture(scope="session")
def spectral_pair7(gs7):
    return assemble(gs7, build_grid(1, 30.0, 4095))


@pytest.fixture(scope="session")
def modes7(spectral_pair7):
    return solve_unstable_pair(spectral_pair7)


@pytest.fixture(scope="session")
def shoot_ctx(gs7, modes7):
    grid = build_grid(1, SHOOT["L"], SHOOT["n"], Obstacle("ball", SHOOT["a"]))
    psi = build_cutoff(grid, SHOOT["R1"], SHOOT["R2"])
    params = SolitonParams(omega=SHOOT["omega"], v=(SHOOT["v"],), p=SHOOT["p"])
    return ModulationContext(params=params, gs=gs7, modes=modes7, psi=psi,
                             grid=grid)


@pytest.fixture(scope="session")
def shoot_cfg():
    return ShootConfig(T0=SHOOT["T0"], Tn=SHOOT["Tn"], delta=SHOOT["delta"],
                       log_every=SHOOT["log_every"])


@pytest.fixture(scope="session")
def evolve_cfg():
    return EvolveConfig(dt=SHOOT["dt"])


@pytest.fixture(scope="session")
def winning_search(shoot_ctx, shoot_cfg, evolve_cfg):
    result = shoot_search(shoot_ctx, shoot_cfg, evolve_cfg)
    assert result.found, "the shooting search must reach T0 for the suite"
    return result
