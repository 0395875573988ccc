"""Delay / jitter / packet-loss emulation for a sampled observation stream.

The channel operates on sample indices: each step k >= 2 delivers the sample
``max(1, k - round(n_d/dt + g * n_j/dt))`` (clamped above at k for causality,
g a standard-normal draw), unless the packet is lost, in which case the
previously delivered value is held.  Delay and jitter are configured in
milliseconds and converted to sample offsets at the stream's sample period.

Randomness comes from two PCG64 streams spawned from the config seed — one
for jitter, one for loss — each drawn once for the whole stream, so which
sample each step delivers depends only on the config and the stream's
length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, check_dt, check_range

__all__ = [
    "RNG_ALGORITHM",
    "NetworkConfig",
    "ChannelStats",
    "apply_channel",
]

#: identifier of the generator behind every stochastic draw, recorded in reports
RNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class NetworkConfig:
    """Channel impairment parameters.

    ``n_d``: mean delay in milliseconds; ``n_j``: jitter standard deviation
    in milliseconds; ``n_p``: packet-loss probability; ``seed``: RNG seed
    for the jitter and loss streams.
    """

    #: the (least, most) value of each field, as :func:`~telekf.errors.check_range` reads it
    RANGES = {"n_d": (0, np.inf), "n_j": (0, np.inf), "n_p": (0, 1), "seed": (0, np.inf)}

    n_d: float = 0.0
    n_j: float = 0.0
    n_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("n_d", float), ("n_j", float), ("n_p", float), ("seed", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))
            check_range(name, getattr(self, name), self.RANGES[name])

    def spawn_streams(self) -> tuple[np.random.Generator, np.random.Generator]:
        """Independent (jitter, loss) generators derived from the seed."""
        jitter_seq, loss_seq = np.random.SeedSequence(self.seed).spawn(2)
        return (
            np.random.Generator(np.random.PCG64(jitter_seq)),
            np.random.Generator(np.random.PCG64(loss_seq)),
        )


@dataclass
class ChannelStats:
    """Packet counts of one stream's pass through the channel;
    ``delay_histogram`` counts the delivered packets by delay in samples."""

    packets_total: int = 0
    packets_lost: int = 0
    delay_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def loss_realized(self) -> float:
        if self.packets_total == 0:
            return 0.0
        return self.packets_lost / self.packets_total


def _offsets(cfg: NetworkConfig, dt: float, g):
    """Sample offsets ``rint(n_d/dt + g * n_j/dt)`` for the jitter draws ``g``.

    The delay rule of the channel, with n_d and n_j converted from
    milliseconds to seconds first; the result is float-valued (exact
    integers).
    """
    return np.rint(cfg.n_d / 1000.0 / dt + g * (cfg.n_j / 1000.0 / dt))


def _route(offsets: np.ndarray, uniforms: np.ndarray, n_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Source index and loss mask for a stream of ``offsets.size + 1`` steps.

    Step 0 is delivered untouched.  Step t >= 1 uses ``offsets[t - 1]`` and
    ``uniforms[t - 1]``: its packet carries sample ``clip(t - offset, 0, t)``
    and is lost when the uniform falls below ``n_p``, in which case the
    receiver keeps the source of the last packet that arrived.
    """
    t = np.arange(offsets.size + 1)
    j = np.clip(t - np.concatenate(([0.0], offsets)), 0, t).astype(np.int64)
    lost = np.concatenate(([False], uniforms < n_p))
    return j[np.maximum.accumulate(np.where(lost, 0, t))], lost


def apply_channel(
    truth, cfg: NetworkConfig, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ChannelStats]:
    """Run the whole truth stream through the channel in one batch.

    Returns ``(delivered, src_idx, lost, stats)`` where row 0 of
    ``delivered`` is the untouched first sample, ``src_idx`` the 0-based
    sample each delivered row came from (for held packets, the one being
    held), and ``lost`` the loss mask.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.ndim == 1:
        truth = truth.reshape(-1, 1)
    if truth.shape[0] == 0:
        raise ContractViolationError("truth stream is empty")
    dt = check_dt(dt)
    steps = truth.shape[0]
    jitter_rng, loss_rng = cfg.spawn_streams()
    # both terms overflow to inf when n_d/dt and n_j/dt do, and a negative
    # jitter draw then gives inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = _offsets(cfg, dt, jitter_rng.standard_normal(steps - 1))
    if np.isnan(offsets).any():
        raise ContractViolationError(
            f"n_d={cfg.n_d:g} ms, n_j={cfg.n_j:g} ms and dt={dt:g} s give a sample offset that is not a number"
        )
    src_idx, lost = _route(offsets, loss_rng.random(steps - 1), cfg.n_p)
    # every step after the first sends one packet; count the delivered ones by delay
    delays, counts = np.unique((np.arange(1, steps) - src_idx[1:])[~lost[1:]], return_counts=True)
    stats = ChannelStats(steps - 1, int(lost.sum()), dict(zip(delays.tolist(), counts.tolist())))
    return truth[src_idx], src_idx, lost, stats
