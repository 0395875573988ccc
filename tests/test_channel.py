import numpy as np
import pytest

from telekf.channel import (
    RNG_ALGORITHM,
    ChannelState,
    NetworkConfig,
    apply_channel,
    delayed_index,
    observe,
)
from telekf.errors import ContractViolationError

DT = 1.0 / 30.0


def jitter_rng(cfg):
    return cfg.spawn_streams()[0]


def test_delayed_index_no_impairment_is_current_step():
    cfg = NetworkConfig(0.0, 0.0, 0.0, seed=1)
    rng = jitter_rng(cfg)
    for k in (2, 10, 500):
        assert delayed_index(k, cfg, DT, rng) == k


def test_delayed_index_subsample_delay_rounds_to_zero():
    # 5 ms at 30 Hz is 0.15 samples -> rounds to 0
    cfg = NetworkConfig(5.0, 0.0, 0.0, seed=1)
    assert delayed_index(100, cfg, DT, jitter_rng(cfg)) == 100


def test_delayed_index_hundred_ms_is_three_samples():
    cfg = NetworkConfig(100.0, 0.0, 0.0, seed=1)
    assert delayed_index(100, cfg, DT, jitter_rng(cfg)) == 97


def test_delayed_index_consumes_a_draw_even_without_jitter():
    cfg = NetworkConfig(0.0, 0.0, 0.0, seed=1)
    rng_a = jitter_rng(cfg)
    rng_b = jitter_rng(cfg)
    delayed_index(2, cfg, DT, rng_a)
    assert rng_a.standard_normal() == rng_b.standard_normal(2)[1]


def test_delayed_index_floors_at_one():
    cfg = NetworkConfig(10000.0, 0.0, 0.0, seed=1)
    assert delayed_index(2, cfg, DT, jitter_rng(cfg)) == 1


def test_observe_identity_channel_matches_truth_exactly():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((200, 3))
    delivered, src_idx, lost, stats = apply_channel(truth, NetworkConfig(0, 0, 0, seed=3), DT)
    assert np.array_equal(delivered, truth)
    assert not lost.any()
    np.testing.assert_array_equal(src_idx, np.arange(200))
    assert stats.loss_realized == 0.0
    assert stats.delay_histogram == {0: 199}


def test_observe_total_loss_freezes_first_sample():
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((50, 2))
    delivered, _, lost, stats = apply_channel(truth, NetworkConfig(0, 0, 1.0, seed=3), DT)
    np.testing.assert_array_equal(delivered, np.tile(truth[0], (50, 1)))
    assert lost[1:].all()
    assert stats.loss_realized == 1.0


def test_loss_rate_within_binomial_bound():
    rng = np.random.default_rng(2)
    truth = rng.standard_normal((10001, 1))
    for n_p in (0.1, 0.2):
        _, _, _, stats = apply_channel(truth, NetworkConfig(0, 0, n_p, seed=11), DT)
        bound = 3.0 * np.sqrt(n_p * (1 - n_p) / stats.packets_total)
        assert abs(stats.loss_realized - n_p) <= bound


def test_channel_determinism_bit_identical():
    rng = np.random.default_rng(3)
    truth = rng.standard_normal((500, 3))
    cfg = NetworkConfig(50.0, 20.0, 0.15, seed=77)
    out1 = apply_channel(truth, cfg, DT)
    out2 = apply_channel(truth, cfg, DT)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])
    assert np.array_equal(out1[2], out2[2])
    assert out1[3].delay_histogram == out2[3].delay_histogram


def test_causality_delivered_index_never_exceeds_step():
    rng = np.random.default_rng(4)
    truth = rng.standard_normal((2000, 1))
    # zero mean delay with large jitter produces negative offsets that must clamp
    _, src_idx, _, _ = apply_channel(truth, NetworkConfig(0.0, 500.0, 0.0, seed=5), DT)
    assert (src_idx <= np.arange(2000)).all()
    assert (src_idx >= 0).all()


def test_step_api_matches_batch_bit_for_bit():
    rng = np.random.default_rng(6)
    truth = rng.standard_normal((400, 3))
    cfg = NetworkConfig(100.0, 40.0, 0.2, seed=99)
    delivered, _, _, stats = apply_channel(truth, cfg, DT)
    state = ChannelState.initial(truth[0], cfg)
    values = [truth[0]]
    for k in range(2, truth.shape[0] + 1):
        values.append(observe(k, truth, cfg, state, DT))
    assert np.array_equal(delivered, np.asarray(values))
    assert state.stats.packets_lost == stats.packets_lost
    assert state.stats.delay_histogram == stats.delay_histogram


def scalar_channel(truth, cfg, dt):
    """Reference channel: one step at a time over the same pre-drawn streams.

    Also returns the unclamped source index ``t - offset`` of every step.
    """
    jitter, loss = cfg.spawn_streams()
    steps = truth.shape[0]
    normals = jitter.standard_normal(steps - 1)
    uniforms = loss.random(steps - 1)
    src, lost, raw = [0], [False], []
    for t in range(1, steps):
        offset = int(np.rint(cfg.n_d / 1000.0 / dt + normals[t - 1] * (cfg.n_j / 1000.0 / dt)))
        raw.append(t - offset)
        if uniforms[t - 1] < cfg.n_p:
            src.append(src[-1])
            lost.append(True)
        else:
            src.append(min(max(t - offset, 0), t))
            lost.append(False)
    return truth[src], np.array(src), np.array(lost), np.array(raw)


@pytest.mark.parametrize(
    "steps, cfg, clamps",
    [
        (400, NetworkConfig(100.0, 40.0, 0.0, seed=1), False),
        (400, NetworkConfig(100.0, 40.0, 1.0, seed=2), False),
        # 9-sample mean delay with a 15-sample jitter std clamps at 0 and at t
        (400, NetworkConfig(300.0, 500.0, 0.3, seed=3), True),
        (1, NetworkConfig(100.0, 40.0, 0.5, seed=4), False),
    ],
)
def test_batch_channel_matches_scalar_loop(steps, cfg, clamps):
    truth = np.random.default_rng(steps).standard_normal((steps, 2))
    delivered, src_idx, lost, stats = apply_channel(truth, cfg, DT)
    ref_delivered, ref_src, ref_lost, raw = scalar_channel(truth, cfg, DT)
    assert np.array_equal(delivered, ref_delivered)
    assert np.array_equal(src_idx, ref_src)
    assert np.array_equal(lost, ref_lost)
    delays, counts = np.unique((np.arange(steps) - ref_src)[1:][~ref_lost[1:]], return_counts=True)
    assert stats.delay_histogram == dict(zip(delays.tolist(), counts.tolist()))
    assert (stats.packets_total, stats.packets_lost) == (steps - 1, int(ref_lost.sum()))
    if clamps:
        assert (raw < 0).any() and (raw > np.arange(1, steps)).any()


def test_realized_delay_mean_matches_rounding_oracle():
    # oracle: Monte Carlo of max(0, round(mu + sigma g)) with an independent stream
    cfg = NetworkConfig(100.0, 30.0, 0.0, seed=13)
    rng = np.random.default_rng(7)
    truth = rng.standard_normal((20001, 1))
    _, src_idx, _, stats = apply_channel(truth, cfg, DT)
    offsets = np.arange(20001)[1:] - src_idx[1:]

    mu = cfg.n_d / 1000.0 / DT
    sigma = cfg.n_j / 1000.0 / DT
    g = np.random.default_rng(123456).standard_normal(200000)
    oracle = np.maximum(0, np.rint(mu + sigma * g))
    tol = 3.0 * oracle.std() / np.sqrt(offsets.size)
    assert abs(offsets.mean() - oracle.mean()) <= tol


def test_observe_validates_step_and_truth():
    cfg = NetworkConfig(0, 0, 0, seed=1)
    state = ChannelState.initial(np.zeros(2), cfg)
    with pytest.raises(ContractViolationError, match="empty"):
        observe(2, np.zeros((0, 2)), cfg, state, DT)
    with pytest.raises(ContractViolationError):
        observe(1, np.zeros((5, 2)), cfg, state, DT)
    with pytest.raises(ContractViolationError):
        observe(7, np.zeros((5, 2)), cfg, state, DT)


def test_network_config_validation():
    with pytest.raises(ContractViolationError):
        NetworkConfig(-1.0, 0, 0, seed=1)
    with pytest.raises(ContractViolationError):
        NetworkConfig(0, -0.5, 0, seed=1)
    with pytest.raises(ContractViolationError):
        NetworkConfig(0, 0, 1.5, seed=1)
    with pytest.raises(ContractViolationError, match="seed"):
        NetworkConfig(0, 0, 0, seed=-1)
    with pytest.raises(ContractViolationError, match="n_d"):
        NetworkConfig(float("nan"), 0, 0, seed=1)
    with pytest.raises(ContractViolationError, match="n_j"):
        NetworkConfig(0, float("inf"), 0, seed=1)


def test_rng_algorithm_identifier():
    assert RNG_ALGORITHM == "pcg64"
