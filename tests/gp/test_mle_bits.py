"""Bit pins for the profile-MLE fit and the posterior it produces.

One seeded dataset shaped like a late GP-UCB refit (100 points over 62
integer actions, replicates included, constant trend, replicate-based
noise) is fitted with the default multi-start and with a single warm
start.  The fitted (alpha, theta) and the posterior mean/sd on the
action grid must reproduce these values bit for bit: any change to the
objective's floating-point operations or their order moves the
L-BFGS-B path and fails here.

The work pins count objective evaluations per fit, so a gradient that
reaches the same optimum through more (or fewer) evaluations fails
exactly, with no wall-time threshold.  They also count R(theta) builds:
a gradient evaluates three points but builds R at two thetas, since its
alpha step keeps theta.  A start on theta's upper bound forces the
gradient's backward step.  The refit digest covers every (alpha, theta)
of a whole GP-UCB run, warm starts included.

The constant trend's 1x1 GLS step is a division standing in for
``np.linalg.solve``; a guard checks the two agree bit for bit on the
toolchain running the tests, so a LAPACK build where they differ fails
there first.
"""

import hashlib

import numpy as np
import pytest

from repro.gp import (
    ConstantTrend,
    Exponential,
    GaussianProcess,
    estimate_noise_variance,
)
from repro.strategies import ActionSpace
from repro.strategies.gp_ucb import GPUCBStrategy

from ..strategies.conftest import run_env, stepped

ACTIONS = np.arange(40.0, 102.0)

#: starts -> (alpha.hex(), theta.hex(), sha256 of the mean/sd float.hex list)
PINNED = {
    None: (
        "0x1.38afc227e463cp+12",
        "0x1.3b832a29bd450p+9",
        "95939e25ef3fc834be04dc33e19668e2f0020bf00bc56e7d23e0145dd7a32a37",
    ),
    (9.0,): (
        "0x1.38a3709d2a074p+12",
        "0x1.3b7489708effep+9",
        "010162e9dcc441c1d7e4dd94519481cd808910d8d5634378541b8706f7a8cc8d",
    ),
}


#: starts -> (objective evaluations, alpha.hex(), theta.hex()).  The
#: upper-bound start sits on log(theta_bounds[1]), where a forward step
#: would leave the box, so its first gradient steps backward.
WORK = {
    None: (213, "0x1.38afc227e463cp+12", "0x1.3b832a29bd450p+9"),
    (9.0,): (54, "0x1.38a3709d2a074p+12", "0x1.3b7489708effep+9"),
    (1e3,): (51, "0x1.38a73b9e03f35p+12", "0x1.3b7942deab017p+9"),
}

#: starts -> R(theta) builds per fit: two per gradient (three objective
#: evaluations), plus one for the final assembly.
R_BUILDS = {None: 143, (9.0,): 37, (1e3,): 35}

#: sha256 over "alpha.hex(),theta.hex()" of every refit, joined by ";".
REFITS = (56, "39801e94ba067852cb118f8b9fa5ba177b7d71af1ad6e10581969b5a9cf44857")


def dataset():
    rng = np.random.default_rng(19)
    sweep = ACTIONS[::-1]
    exploit = rng.choice(ACTIONS[30:45], size=38)
    xs = np.concatenate([sweep, exploit])
    base = 12000.0 / xs + 0.4 * xs + np.where(xs > 80, 12.0, 0.0)
    return xs, base + rng.normal(0.0, 1.5, size=xs.size)


def posterior_digest(mean, sd):
    hexes = ",".join(float(v).hex() for v in np.concatenate([mean, sd]))
    return hashlib.sha256(hexes.encode()).hexdigest()


def make_gp(starts):
    xs, ys = dataset()
    return GaussianProcess(
        kernel=Exponential(theta=ACTIONS.size / 4.0),
        trend=ConstantTrend(),
        noise_var=estimate_noise_variance(xs, ys),
        optimize=True,
        theta_starts=starts,
    )


@pytest.mark.parametrize("starts", list(PINNED), ids=["multi-start", "warm"])
def test_fit_and_posterior_bits(starts):
    xs, ys = dataset()
    assert xs.size == 100 and np.unique(xs).size == ACTIONS.size
    gp = make_gp(starts).fit(xs, ys)
    mean, sd = gp.predict(ACTIONS)
    alpha_hex, theta_hex, digest = PINNED[starts]
    assert gp.fit_.alpha.hex() == alpha_hex
    assert gp.fit_.theta.hex() == theta_hex
    assert posterior_digest(mean, sd) == digest


@pytest.mark.parametrize("starts", list(WORK),
                         ids=["multi-start", "warm", "upper-bound"])
def test_objective_evaluations_per_fit(starts):
    """Each objective evaluation factors K once; ``_assemble`` once more."""
    gp = make_gp(starts)
    factor = gp._cholesky
    calls = []

    def counted(*args):
        calls.append(args)
        return factor(*args)

    gp._cholesky = counted
    gp.fit(*dataset())
    evaluations, alpha_hex, theta_hex = WORK[starts]
    assert len(calls) - 1 == evaluations
    assert gp.fit_.alpha.hex() == alpha_hex
    assert gp.fit_.theta.hex() == theta_hex


def test_gp_ucb_refit_digest():
    space = ActionSpace(actions=tuple(range(2, 15)), n_total=14,
                        group_boundaries=(2, 8, 14))
    strategy = GPUCBStrategy(space)
    refit = strategy.refit
    fits = []

    def recorded():
        gp = refit()
        fits.append(f"{gp.fit_.alpha.hex()},{gp.fit_.theta.hex()}")
        return gp

    strategy.refit = recorded
    run_env(strategy, stepped, 60, noise_sd=0.3, seed=3)
    count, digest = REFITS
    assert len(fits) == count
    assert hashlib.sha256(";".join(fits).encode()).hexdigest() == digest


@pytest.mark.parametrize("starts", list(WORK),
                         ids=["multi-start", "warm", "upper-bound"])
def test_correlation_builds_per_fit(starts, monkeypatch):
    """The alpha step of each gradient reuses its base point's R(theta)."""
    build = Exponential.correlation_at
    shapes = []

    def counted(d, theta):
        shapes.append(d.shape)
        return build(d, theta)

    monkeypatch.setattr(Exponential, "correlation_at", staticmethod(counted))
    gp = make_gp(starts).fit(*dataset())
    evaluations = WORK[starts][0]
    assert len(shapes) == R_BUILDS[starts] == 2 * evaluations // 3 + 1
    assert set(shapes) == {(100, 100)}
    assert gp.fit_.theta.hex() == WORK[starts][2]


def test_scalar_gls_division_matches_solve():
    """``b / a`` is what ``np.linalg.solve`` returns for a 1x1 system.

    The draws span 26 decades of each operand; ``b * (1 / a)``, the
    other way a LAPACK build could divide, differs on about a quarter
    of them, so agreement here is not a coincidence of easy values.
    """
    rng = np.random.default_rng(2024)
    a = np.exp(rng.uniform(-30.0, 30.0, 20_000))
    b = rng.normal(size=a.size) * np.exp(rng.uniform(-30.0, 30.0, a.size))
    solved = np.array([np.linalg.solve(np.array([[ai]]), np.array([bi]))[0]
                       for ai, bi in zip(a, b)])
    assert np.array_equal(solved, b / a)
    assert np.count_nonzero(solved != b * (1.0 / a)) > a.size // 10
