"""Invariance oracles: transformations of the filter's inputs whose effect on
its outputs is known in advance, so they need no golden file and hold on
any input.

- Scaling the inputs and measurements by 2, and q, r and the initial
  covariance by 4, scales every state by 2 and every covariance by 4 bit
  for bit: a power of two changes no rounding.
- Permuting the output channels together with their companion blocks
  permutes the states, the scores and the per-channel figures to within
  rounding: the sequential update then visits the rows in another order.
- A diagonal change of state coordinates T leaves the estimated outputs
  h x_post as they are to within rounding: T a T^-1, T b, h T^-1 and q
  scaled by T's squared entries, started from T x0 and T P0 T, describe
  the same system.
- A run's scores do not depend on the sweep around it: run alone, inside a
  larger sweep, or through :func:`run_scenario`, they are bit for bit the
  same.

Scale invariance is not asserted for :func:`run_sweep`: ``initial_estimate``
fixes the initial covariance at 10 I in the data's own units.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import identified_system, max_rel_diff, reference_dataset
from telekf import filtering
from telekf.channel import NetworkConfig, apply_channel
from telekf.filtering import StateEstimate, SystemModel, initial_estimate, run_filter_trace
from telekf.simrunner import Scenario, run_scenario, run_sweep

DATA = reference_dataset(n_samples=800, seed=2)
SYSTEM = identified_system(DATA)

#: the output order the permutation tests move the channels to
PERM = [2, 0, 1]

#: (n_d, n_j, n_p) rows with delay, jitter and loss, and a clean one
CONDITIONS = [(0.0, 0.0, 0.0), (7.0, 5.0, 0.2), (20.0, 10.0, 0.3)]


def filter_inputs(mask_kind):
    """(init, inputs, (z, mask)) of one filter run on the delivered stream
    of a lossy, delayed channel; ``lossy`` also leaves ~20% of the steps
    without a measurement."""
    delivered, _, _, _ = apply_channel(DATA.outputs, NetworkConfig(n_d=7, n_j=5, n_p=0.2, seed=3), DATA.dt)
    steps = DATA.n_samples - 1
    mask = np.ones(steps, dtype=bool)
    if mask_kind == "lossy":
        mask = np.random.default_rng(11).random(steps) >= 0.2
    init = initial_estimate(SYSTEM, first_obs=DATA.outputs[0])
    return init, DATA.inputs[:-1], (delivered[1:], mask)


def block_permutation(model, perm):
    """The state order that moves the companion block of output ``perm[c]`` to block c."""
    size = model.n_states // model.n_outputs
    return np.concatenate([np.arange(c * size, (c + 1) * size) for c in perm])


def permuted_model(model, perm):
    states = block_permutation(model, perm)
    return SystemModel(
        a=model.a[np.ix_(states, states)],
        b=model.b[states],
        h=model.h[np.ix_(perm, states)],
        q_diag=model.q_diag[states],
        r_diag=model.r_diag[perm],
    )


@pytest.mark.parametrize("mask_kind", ["full", "lossy"])
def test_power_of_two_scaling_scales_the_trace_bit_for_bit(mask_kind):
    init, u, (z, mask) = filter_inputs(mask_kind)
    base = run_filter_trace(SYSTEM, init, u, (z, mask))
    scaled_model = replace(SYSTEM, q_diag=4.0 * SYSTEM.q_diag, r_diag=4.0 * SYSTEM.r_diag)
    scaled = run_filter_trace(
        scaled_model, StateEstimate(2.0 * init.x_hat, 4.0 * init.p), 2.0 * u, (2.0 * z, mask)
    )
    np.testing.assert_array_equal(scaled.x_prior, 2.0 * base.x_prior)
    np.testing.assert_array_equal(scaled.x_post, 2.0 * base.x_post)
    np.testing.assert_array_equal(scaled.cov_prior[scaled.step], 4.0 * base.cov_prior[base.step])
    np.testing.assert_array_equal(scaled.cov_post[scaled.step], 4.0 * base.cov_post[base.step])


@pytest.mark.parametrize("mask_kind", ["full", "lossy"])
def test_output_permutation_permutes_the_trace(mask_kind):
    init, u, (z, mask) = filter_inputs(mask_kind)
    base = run_filter_trace(SYSTEM, init, u, (z, mask))
    states = block_permutation(SYSTEM, PERM)
    moved = run_filter_trace(
        permuted_model(SYSTEM, PERM),
        StateEstimate(init.x_hat[states], init.p[np.ix_(states, states)]),
        u,
        (z[:, PERM], mask),
    )
    assert max_rel_diff(moved.x_prior, base.x_prior[:, states]) <= 1e-12
    assert max_rel_diff(moved.x_post, base.x_post[:, states]) <= 1e-12
    assert max_rel_diff(moved.cov_post[moved.step], base.cov_post[base.step][:, states][:, :, states]) <= 1e-12


@pytest.mark.parametrize("mask_kind", ["full", "lossy"])
def test_diagonal_similarity_transform_keeps_the_estimated_outputs(mask_kind):
    init, u, (z, mask) = filter_inputs(mask_kind)
    base = run_filter_trace(SYSTEM, init, u, (z, mask))
    d = np.random.default_rng(12).uniform(0.3, 3.0, SYSTEM.n_states)
    # scales that are powers of two would change no rounding
    assert (np.log2(d) != np.round(np.log2(d))).all()
    moved_model = SystemModel(
        a=d[:, None] * SYSTEM.a / d,
        b=d[:, None] * SYSTEM.b,
        h=SYSTEM.h / d,
        q_diag=SYSTEM.q_diag * d**2,
        r_diag=SYSTEM.r_diag,
    )
    moved = run_filter_trace(moved_model, StateEstimate(d * init.x_hat, d[:, None] * init.p * d), u, (z, mask))
    # the runs differ most on the first fused steps, whose updates cancel
    # most digits of the diffuse initial covariance
    assert max_rel_diff(moved.x_post @ moved_model.h.T, base.x_post @ SYSTEM.h.T) <= 1e-12


def test_output_permutation_permutes_the_sweep_scores():
    seeds = [0, 1]
    base = run_sweep(SYSTEM, DATA, CONDITIONS, seeds)
    moved_data = replace(
        DATA, outputs=DATA.outputs[:, PERM], output_names=tuple(DATA.output_names[c] for c in PERM)
    )
    moved = run_sweep(permuted_model(SYSTEM, PERM), moved_data, CONDITIONS, seeds)
    assert (moved.condition, moved.seed) == (base.condition, base.seed)
    assert moved.error == base.error == [""] * len(CONDITIONS) * len(seeds)
    for row in range(len(base.seed)):
        assert max_rel_diff(moved.mse[row], base.mse[row, PERM]) <= 1e-12
        assert max_rel_diff(moved.est_percent[row], base.est_percent[row, PERM]) <= 1e-12
        assert abs(moved.est_aggregate[row] - base.est_aggregate[row]) <= 1e-12 * abs(base.est_aggregate[row])
    assert moved.channel_stats == base.channel_stats


def test_a_run_scores_the_same_alone_in_a_sweep_and_as_a_scenario(monkeypatch):
    (n_d, n_j, n_p), seed = CONDITIONS[1], 1
    # alone, with no covariance pass of an earlier scenario to reuse
    monkeypatch.setattr(filtering, "_memo", None)
    alone = run_sweep(SYSTEM, DATA, [CONDITIONS[1]], [seed])
    # the middle row of a 3 x 3 sweep
    sweep = run_sweep(SYSTEM, DATA, CONDITIONS, [0, seed, 2])
    assert (sweep.condition[4], sweep.seed[4]) == (CONDITIONS[1], seed)
    scenario = run_scenario(Scenario(SYSTEM, NetworkConfig(n_d=n_d, n_j=n_j, n_p=n_p, seed=seed), DATA))
    for table, row in ((alone, 0), (sweep, 4)):
        assert table.error[row] == ""
        np.testing.assert_array_equal(table.mse[row], scenario.mse)
        np.testing.assert_array_equal(table.est_percent[row], scenario.est_percent)
        assert table.est_aggregate[row] == scenario.est_aggregate
        assert table.channel_stats[row] == scenario.channel_stats
