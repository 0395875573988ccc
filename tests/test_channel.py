import warnings

import numpy as np
import pytest

from telekf.channel import RNG_ALGORITHM, NetworkConfig, apply_channel
from telekf.errors import ContractViolationError

DT = 1.0 / 30.0


def source_index(cfg, steps):
    """The 0-based sample each step of a ``steps``-sample stream delivers under ``cfg``."""
    return apply_channel(np.zeros((steps, 1)), cfg, DT)[1]


def test_delayed_index_no_impairment_is_current_step():
    cfg = NetworkConfig(0.0, 0.0, 0.0, seed=1)
    np.testing.assert_array_equal(source_index(cfg, 501), np.arange(501))


def test_delayed_index_subsample_delay_rounds_to_zero():
    # 5 ms at 30 Hz is 0.15 samples -> rounds to 0
    cfg = NetworkConfig(5.0, 0.0, 0.0, seed=1)
    np.testing.assert_array_equal(source_index(cfg, 101), np.arange(101))


def test_delayed_index_hundred_ms_is_three_samples():
    cfg = NetworkConfig(100.0, 0.0, 0.0, seed=1)
    np.testing.assert_array_equal(source_index(cfg, 101), np.maximum(np.arange(101) - 3, 0))


def test_delayed_index_floors_at_one():
    # 10 s is 300 samples, longer than the stream: every step delivers the
    # first sample (sample 1 in the 1-based channel rule)
    cfg = NetworkConfig(10000.0, 0.0, 0.0, seed=1)
    np.testing.assert_array_equal(source_index(cfg, 101), np.zeros(101))


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


def test_apply_channel_validates_truth_and_dt():
    cfg = NetworkConfig(0, 0, 0, seed=1)
    with pytest.raises(ContractViolationError, match="empty"):
        apply_channel(np.zeros((0, 2)), cfg, DT)
    for dt in (0.0, -DT, float("nan")):
        with pytest.raises(ContractViolationError, match="dt must be positive"):
            apply_channel(np.zeros((5, 2)), cfg, dt)


def test_apply_channel_rejects_a_sample_offset_that_is_not_a_number():
    # at 0.1 ms both 1e308 ms terms overflow to inf, and a negative jitter
    # draw gives inf - inf; no warning comes before the error
    cfg = NetworkConfig(1e308, 1e308, 0.0, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match=r"^n_d=1e\+308 ms, n_j=1e\+308 ms and dt=0\.0001 s give"):
            apply_channel(np.zeros((50, 1)), cfg, 1e-4)
        # one infinite term alone is a delay the clamp bounds: the first sample
        cfg = NetworkConfig(1e308, 0.0, 0.0, seed=1)
        np.testing.assert_array_equal(apply_channel(np.zeros((50, 1)), cfg, 1e-4)[1], np.zeros(50))


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_d": -1}, "n_d must be in [0, inf), got -1.0"),
        ({"n_j": np.inf}, "n_j must be in [0, inf), got inf"),
        ({"n_p": 1.5}, "n_p must be in [0, 1], got 1.5"),
        ({"seed": -1}, "seed must be in [0, inf), got -1"),
    ],
    ids=["n_d", "n_j", "n_p", "seed"],
)
def test_network_config_names_the_field_and_its_range(fields, message):
    with pytest.raises(ContractViolationError) as info:
        NetworkConfig(**fields)
    assert str(info.value) == message


def test_rng_algorithm_identifier():
    assert RNG_ALGORITHM == "pcg64"
