"""Bit pins for the profile-MLE fit and the posterior it produces.

One seeded dataset shaped like a late GP-UCB refit (100 points over 62
integer actions, replicates included, constant trend, replicate-based
noise) is fitted with the default multi-start and with a single warm
start.  The fitted (alpha, theta) and the posterior mean/sd on the
action grid must reproduce these values bit for bit: any change to the
objective's floating-point operations or their order moves the
L-BFGS-B path and fails here.
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


@pytest.mark.parametrize("starts", list(PINNED), ids=["multi-start", "warm"])
def test_fit_and_posterior_bits(starts):
    xs, ys = dataset()
    assert xs.size == 100 and np.unique(xs).size == ACTIONS.size
    gp = GaussianProcess(
        kernel=Exponential(theta=ACTIONS.size / 4.0),
        trend=ConstantTrend(),
        noise_var=estimate_noise_variance(xs, ys),
        optimize=True,
        theta_starts=starts,
    ).fit(xs, ys)
    mean, sd = gp.predict(ACTIONS)
    alpha_hex, theta_hex, digest = PINNED[starts]
    assert gp.fit_.alpha.hex() == alpha_hex
    assert gp.fit_.theta.hex() == theta_hex
    assert posterior_digest(mean, sd) == digest
