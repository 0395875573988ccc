"""The lifted tail of the state pass against the state loop, and the
kernel-level invariance oracles run through both state paths.

Under a full mask the Riccati pass settles into a short cycle, and
``run_filter_trace`` runs the settled steps as a lifted periodic recursion
(:func:`telekf._kernels.lifted_state_loop`).  Its sums run in another order
than the loop's, so its states must agree with :func:`state_loop` to
rounding, relative to the largest entry; every run it does not take goes
through the loop and is bit for bit the loop's.
"""

import numpy as np
import pytest

from conftest import exact_lti, identified_system, max_rel_diff, reference_dataset
from telekf import _kernels, filtering
from telekf.channel import NetworkConfig, apply_channel
from telekf.filtering import StateEstimate, SystemModel, initial_estimate, run_filter_trace
from test_kernels import _masks, _model


def _pass(model, p0, mask):
    return _kernels.covariance_loop(model.a, model.h, np.diag(model.q_diag), model.r_diag, p0, mask)


def _loop_states(model, init, u, z, mask):
    mk, step = _pass(model, init.p, mask)[2:]
    return _kernels.state_loop(model.a, model.b, mk, step, mask, init.x_hat, u, z)


def _random_run(model, steps, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    return StateEstimate(rng.standard_normal(model.n_states), 10.0 * np.eye(model.n_states)), u, z


def _settled(model, p0, steps):
    """(t0, period, block) of the full-mask pass over ``steps`` steps."""
    mk, step = _pass(model, p0, np.ones(steps, dtype=bool))[2:]
    t0 = int(step[len(mk)])
    period = len(mk) - t0
    return t0, period, _kernels.BLOCK_STEPS // period * period


def _slow_loop():
    """A filter whose settled closed loop decays slowly: a plant near the
    unit circle, measured through much noise, so the gains are small."""
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4))
    a *= 0.995 / np.abs(np.linalg.eigvals(a)).max()
    h = rng.standard_normal((1, 4))
    return SystemModel(a=a, b=rng.standard_normal((4, 1)), h=h, q_diag=np.full(4, 1e-4), r_diag=[1.0])


def _paper_pinned():
    """ARX(2,2,1) identified as the paper sweep identifies it, with its
    holdout as the `hold` receiver delivers it on an impaired paper row."""
    model = identified_system(reference_dataset(n_samples=2000, seed=11))
    holdout = reference_dataset(n_samples=2000, seed=12)
    delivered = apply_channel(holdout.outputs, NetworkConfig(n_d=5, n_j=7, n_p=0.2, seed=0), holdout.dt)[0]
    init = initial_estimate(model, first_obs=holdout.outputs[0])
    return model, init, holdout.inputs[:-1], delivered[1:]


def _lifted_cases():
    system = identified_system(reference_dataset())
    yield "identified_system", system, *_random_run(system, 2000, 41)
    yield "paper_pinned", *_paper_pinned()
    slow = _slow_loop()
    yield "slow_loop", slow, *_random_run(slow, 8000, 42)
    # started from the covariance entering the settled cycle, the pass
    # repeats from step 0 and the tail starts from init.x_hat
    init, u, z = _random_run(system, 500, 43)
    t0 = _settled(system, init.p, 500)[0]
    p_entering = _pass(system, init.p, np.ones(t0, dtype=bool))[1][-1]
    yield "settled_start", system, StateEstimate(init.x_hat, p_entering), u, z


@pytest.mark.parametrize("case", list(_lifted_cases()), ids=lambda case: case[0])
def test_lifted_tail_matches_the_state_loop(case, monkeypatch):
    name, model, init, u, z = case
    steps = u.shape[0]
    mask = np.ones(steps, dtype=bool)
    t0, period, block = _settled(model, init.p, steps)
    assert 1 <= period <= _kernels.BLOCK_STEPS and steps - t0 >= 2 * block
    if name == "settled_start":
        assert t0 == 0
    if name == "slow_loop":
        # the spectral radius of one settled period's closed loop, per step
        mk = _pass(model, init.p, mask)[2]
        cycle = np.eye(model.n_states)
        for fold in mk[t0:]:
            cycle = fold[:, : model.n_states] @ model.a @ cycle
        assert np.abs(np.linalg.eigvals(cycle)).max() ** (1.0 / period) >= 0.99
    monkeypatch.setattr(filtering, "_memo", None)
    trace = run_filter_trace(model, init, u, (z, mask))
    assert filtering._memo[2] is not None  # the run took the lifted tail
    want_pri, want_post = _loop_states(model, init, u, z, mask)
    assert max_rel_diff(trace.x_prior, want_pri) <= 1e-12
    assert max_rel_diff(trace.x_post, want_post) <= 1e-12


def _loop_cases():
    long_period = exact_lti(seed=8)
    yield "long_period", long_period, *_random_run(long_period, 3000, 51), None
    system = identified_system(reference_dataset())
    init, u, z = _random_run(system, 600, 52)
    t0, _, block = _settled(system, init.p, 600)
    yield "short_tail", system, init, u[: t0 + 2 * block - 1], z[: t0 + 2 * block - 1], None
    yield "lossy", system, init, u, z, np.random.default_rng(53).random(600) >= 0.2


@pytest.mark.parametrize("case", list(_loop_cases()), ids=lambda case: case[0])
def test_runs_without_a_lifted_tail_are_the_state_loop_bit_for_bit(case, monkeypatch):
    name, model, init, u, z, mask = case
    steps = u.shape[0]
    if mask is None:
        mask = np.ones(steps, dtype=bool)
        t0, period, block = _settled(model, init.p, steps)
        if name == "long_period":
            assert period > _kernels.BLOCK_STEPS
        else:
            assert steps - t0 == 2 * block - 1
    monkeypatch.setattr(filtering, "_memo", None)
    trace = run_filter_trace(model, init, u, (z, mask))
    assert filtering._memo[2] is None
    want_pri, want_post = _loop_states(model, init, u, z, mask)
    np.testing.assert_array_equal(trace.x_prior, want_pri)
    np.testing.assert_array_equal(trace.x_post, want_post)


def test_a_tail_of_two_blocks_is_lifted():
    # the shortest tail the lifted path takes: two blocks and no remainder
    system = identified_system(reference_dataset())
    init, u, z = _random_run(system, 600, 52)
    t0, _, block = _settled(system, init.p, 600)
    steps = t0 + 2 * block
    mask = np.ones(steps, dtype=bool)
    mk, step = _pass(system, init.p, mask)[2:]
    lift = _kernels.lift_tail(system.a, mk, step)
    assert lift is not None and lift[0] == t0
    got = _kernels.lifted_state_loop(system.a, system.b, mk, step, mask, lift, init.x_hat, u[:steps], z[:steps])
    want = _kernels.state_loop(system.a, system.b, mk, step, mask, init.x_hat, u[:steps], z[:steps])
    for got_states, want_states in zip(got, want):
        assert max_rel_diff(got_states, want_states) <= 1e-12


# ---------------------------------------------------------------------------
# kernel-level invariance oracles (the filter-level ones are in test_invariance.py)


def _state_paths(a, b, h, q, r_diag, p0, mask, x0, u, z):
    """The covariance pass's per-step covariances and folds, and the
    (x_pri, x_post) of each state path that runs this pass: the loop, and
    the lifted tail where the pass lifts."""
    _, p_post, mk, step = _kernels.covariance_loop(a, h, q, r_diag, p0, mask)
    paths = [_kernels.state_loop(a, b, mk, step, mask, x0, u, z)]
    lift = _kernels.lift_tail(a, mk, step) if mask.all() else None
    if lift is not None:
        paths.append(_kernels.lifted_state_loop(a, b, mk, step, mask, lift, x0, u, z))
    return p_post[step], mk[step], paths


def _oracle_inputs(which, mask):
    model = _model(which)
    rng = np.random.default_rng(61)
    steps = mask.shape[0]
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    x0 = rng.standard_normal(model.n_states)
    return model, np.diag(model.q_diag), 10.0 * np.eye(model.n_states), x0, u, z


@pytest.mark.parametrize("which", ["exact_lti", "identified_system"])
def test_output_permutation_keeps_covariances_and_states(which):
    # the sequential update visits the rows in another order: the same
    # posterior to rounding, the gain columns permuted with the rows
    lifted = 0
    for mask in _masks():
        model, q, p0, x0, u, z = _oracle_inputs(which, mask)
        n, perm = model.n_states, np.roll(np.arange(model.n_outputs), 1)
        cov, mk, paths = _state_paths(model.a, model.b, model.h, q, model.r_diag, p0, mask, x0, u, z)
        moved_cov, moved_mk, moved_paths = _state_paths(
            model.a, model.b, model.h[perm], q, model.r_diag[perm], p0, mask, x0, u, z[:, perm]
        )
        assert max_rel_diff(moved_cov, cov) <= 1e-12
        assert max_rel_diff(moved_mk[:, :, :n], mk[:, :, :n]) <= 1e-12
        assert max_rel_diff(moved_mk[:, :, n:], mk[:, :, n:][:, :, perm]) <= 1e-12
        assert len(moved_paths) == len(paths)
        lifted += len(paths) - 1
        for x_pri, x_post in moved_paths:
            assert max_rel_diff(x_pri, paths[0][0]) <= 1e-12
            assert max_rel_diff(x_post, paths[0][1]) <= 1e-12
    assert lifted >= 2  # the full masks took the lifted tail


@pytest.mark.parametrize("which", ["exact_lti", "identified_system"])
def test_diagonal_similarity_transform_moves_covariances_and_states(which):
    # T a T^-1, T b, h T^-1, q and P0 scaled by T's squared entries, and
    # T x0 describe the same system: covariances T P T and states T x
    lifted = 0
    for mask in _masks():
        model, q, p0, x0, u, z = _oracle_inputs(which, mask)
        d = np.random.default_rng(62).uniform(0.3, 3.0, model.n_states)
        cov, _, paths = _state_paths(model.a, model.b, model.h, q, model.r_diag, p0, mask, x0, u, z)
        moved_cov, _, moved_paths = _state_paths(
            d[:, None] * model.a / d, d[:, None] * model.b, model.h / d, q * d**2, model.r_diag,
            d[:, None] * p0 * d, mask, d * x0, u, z,
        )
        assert max_rel_diff(moved_cov / d[:, None] / d, cov) <= 1e-12
        assert len(moved_paths) == len(paths)
        lifted += len(paths) - 1
        for x_pri, x_post in moved_paths:
            # the first fused steps cancel most digits of the diffuse prior
            # (10 I against the identified model's small r), which leaves
            # up to ~1e-12 there; the settled steps agree to rounding
            assert max_rel_diff(x_pri[20:] / d, paths[0][0][20:]) <= 1e-12
            assert max_rel_diff(x_post[20:] / d, paths[0][1][20:]) <= 1e-12
    assert lifted >= 2
