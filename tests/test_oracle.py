"""The oracle filter on synthetic data: the generator's own realization with
the noise it was simulated with.

It is consistent by its own statistics when it fuses only the samples that
arrive on time (age 0) and predicts through every other step.  Holding the
last delivered sample, as ``run_scenario`` does, feeds it stale samples as
fresh ones, and its innovations grow far beyond their predicted covariance.
Both hold on a smooth data set, whose process noise is perfbench's, and on
an informative one with ten times that noise.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import innovation_health
from telekf.channel import NetworkConfig, apply_channel
from telekf.dataio import SyntheticSpec, gen_synthetic, random_stable_arx
from telekf.filtering import initial_estimate, run_filter_trace
from telekf.sysid import arx_to_ss

MEASUREMENT_NOISE = 0.002

#: perfbench's generator and measurement noise, with its holdout seed, and
#: each data set by its process noise: smooth (perfbench's) and informative
GENERATOR = random_stable_arx(2, 2, 1, n_outputs=3, n_inputs=2, seed=42)
DATA = {
    process_noise: gen_synthetic(
        SyntheticSpec(
            generator=GENERATOR,
            n_samples=2000,
            seed=2,
            excitation="sines",
            process_noise=process_noise,
            measurement_noise=MEASUREMENT_NOISE,
        )
    )
    for process_noise in (0.005, 0.05)
}

#: the first filter step the statistics read
BURN_IN = 100


def oracle_model(process_noise):
    """The generator's realization: its equation noise enters the first
    state of each companion block, its measurement noise every output."""
    model = arx_to_ss(GENERATOR, q=0.0, r=np.full(GENERATOR.n_outputs, MEASUREMENT_NOISE**2))
    q_diag = np.zeros(model.n_states)
    q_diag[:: GENERATOR.max_lag] = process_noise**2
    return replace(model, q_diag=q_diag)


def innovation_statistics(model, data, network, receiver):
    """(mean NIS, largest channel lag-1 autocorrelation) of the innovations
    on the observed filter steps from :data:`BURN_IN` on.

    Filter step t fuses sample t + 1 as the channel delivered it: under
    ``hold`` on every step, under ``age-0`` only where the delivered sample
    is sample t + 1 itself."""
    delivered, src_idx, _, _ = apply_channel(data.outputs, network, data.dt)
    z = delivered[1:]
    steps = z.shape[0]
    if receiver == "hold":
        mask = np.ones(steps, dtype=bool)
    else:
        mask = src_idx[1:] == np.arange(1, steps + 1)
    trace = run_filter_trace(model, initial_estimate(model, data.outputs[0]), data.inputs[:-1], (z, mask))
    nu, s = trace.innovations(model, z)
    keep = np.flatnonzero(mask) >= BURN_IN
    nis, lag1 = innovation_health(nu[keep], s[keep])
    return float(nis.mean()), lag1


#: the channel rows (jitter, delay, loss) each data set runs
ROWS = [(2, 5, 0.1), (5, 7, 0.2), (6, 3, 0.18)]


@pytest.mark.parametrize(
    "process_noise, held_floor, jitter, delay, loss",
    # the smooth data set's cases are named by their row alone
    [pytest.param(0.005, 10.0, *row, id="-".join(map(str, row))) for row in ROWS]
    # measured on the informative set: hold's seed-mean NIS 9.16, 21.53 and
    # 18.14 on the three rows, 7.36 the smallest of any one seed
    + [pytest.param(0.05, 5.0, *row, id="informative-" + "-".join(map(str, row))) for row in ROWS],
)
def test_oracle_is_consistent_on_fresh_samples_and_not_on_held_ones(
    process_noise, held_floor, jitter, delay, loss
):
    data = DATA[process_noise]
    model = oracle_model(process_noise)
    fresh, held = [], []
    for seed in range(10):
        network = NetworkConfig(n_d=delay, n_j=jitter, n_p=loss, seed=seed)
        nis, lag1 = innovation_statistics(model, data, network, "age-0")
        # the innovations of a consistent filter are white
        assert lag1 <= 0.08, f"seed {seed}: lag-1 autocorrelation {lag1:.3f}"
        fresh.append(nis)
        held.append(innovation_statistics(model, data, network, "hold")[0])
    # the NIS of 3 outputs averages 3 when the filter's covariance is the truth
    assert 2.85 <= np.mean(fresh) <= 3.3, fresh
    assert np.mean(held) > held_floor, held
