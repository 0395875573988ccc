"""Delay / jitter / packet-loss emulation for a sampled observation stream.

The channel operates on sample indices: each step k >= 2 delivers the sample
``max(1, k - round(n_d/dt + g * n_j/dt))`` (clamped above at k for causality,
g a standard-normal draw), unless the packet is lost, in which case the
previously delivered value is held.  Delay and jitter are configured in
milliseconds and converted to sample offsets at the stream's sample period.

Randomness comes from two PCG64 streams spawned from the config seed — one
for jitter, one for loss — so per-step and whole-stream processing consume
draws identically and produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError

__all__ = [
    "RNG_ALGORITHM",
    "NetworkConfig",
    "ChannelState",
    "ChannelStats",
    "delayed_index",
    "observe",
    "apply_channel",
]

#: identifier of the generator behind every stochastic draw, recorded in reports
RNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class NetworkConfig:
    """Channel impairment parameters.

    ``n_d``: mean delay in milliseconds; ``n_j``: jitter standard deviation
    in milliseconds; ``n_p``: packet-loss probability in [0, 1]; ``seed``:
    RNG seed for the jitter and loss streams.
    """

    n_d: float = 0.0
    n_j: float = 0.0
    n_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_d", float(self.n_d))
        object.__setattr__(self, "n_j", float(self.n_j))
        object.__setattr__(self, "n_p", float(self.n_p))
        object.__setattr__(self, "seed", int(self.seed))
        if not 0.0 <= self.n_d < np.inf:
            raise ContractViolationError(f"n_d must be finite and >= 0, got {self.n_d}")
        if not 0.0 <= self.n_j < np.inf:
            raise ContractViolationError(f"n_j must be finite and >= 0, got {self.n_j}")
        if not 0.0 <= self.n_p <= 1.0:
            raise ContractViolationError(f"n_p must be in [0, 1], got {self.n_p}")
        if self.seed < 0:
            raise ContractViolationError(f"seed must be >= 0, got {self.seed}")

    def spawn_streams(self) -> tuple[np.random.Generator, np.random.Generator]:
        """Independent (jitter, loss) generators derived from the seed."""
        jitter_seq, loss_seq = np.random.SeedSequence(self.seed).spawn(2)
        return (
            np.random.Generator(np.random.PCG64(jitter_seq)),
            np.random.Generator(np.random.PCG64(loss_seq)),
        )


@dataclass
class ChannelStats:
    """Counters accumulated while a stream passes through the channel."""

    packets_total: int = 0
    packets_lost: int = 0
    delay_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def loss_realized(self) -> float:
        if self.packets_total == 0:
            return 0.0
        return self.packets_lost / self.packets_total

    def add(self, delays, lost: int = 0) -> None:
        """Count delivered packets by realized delay (in samples), plus ``lost`` dropped ones."""
        delays = np.asarray(delays, dtype=np.int64)
        self.packets_total += delays.size + lost
        self.packets_lost += lost
        for delay, count in zip(*np.unique(delays, return_counts=True)):
            self.delay_histogram[int(delay)] = self.delay_histogram.get(int(delay), 0) + int(count)


@dataclass
class ChannelState:
    """Single-owner mutable receiver state for step-by-step processing."""

    prev_y: np.ndarray
    jitter_rng: np.random.Generator
    loss_rng: np.random.Generator
    stats: ChannelStats = field(default_factory=ChannelStats)

    @classmethod
    def initial(cls, first_sample, cfg: NetworkConfig) -> "ChannelState":
        """Receiver seeded with the first true sample, streams from cfg.seed."""
        jitter_rng, loss_rng = cfg.spawn_streams()
        prev = np.array(first_sample, dtype=float).reshape(-1)
        return cls(prev_y=prev, jitter_rng=jitter_rng, loss_rng=loss_rng)


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


def delayed_index(k: int, cfg: NetworkConfig, dt: float, rng: np.random.Generator) -> int:
    """Source index (1-based) for the packet arriving at step k.

    Computes ``max(1, k - round(n_d/dt + g * n_j/dt))`` with n_d and n_j
    converted from milliseconds to seconds first.  One normal draw is
    consumed on every call, jitter or not.  Negative jitter draws can push
    the result above k; causality clamping is the caller's job.
    """
    if k < 2:
        raise ContractViolationError(f"channel steps start at k=2, got k={k}")
    if not dt > 0.0:
        raise ContractViolationError(f"dt must be positive, got {dt}")
    return max(1, k - int(_offsets(cfg, dt, rng.standard_normal())))


def observe(k: int, truth, cfg: NetworkConfig, state: ChannelState, dt: float) -> np.ndarray:
    """Delivered measurement at step k (1-based), mutating ``state``.

    With probability 1 - n_p the delayed true sample is delivered; otherwise
    the previously delivered value is held.  The delivered index is clamped
    to [1, k].  Draw order per step: jitter first, loss second.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.ndim == 1:
        truth = truth.reshape(-1, 1)
    if truth.shape[0] == 0:
        raise ContractViolationError("truth stream is empty")
    if not 2 <= k <= truth.shape[0]:
        raise ContractViolationError(
            f"k must be in [2, {truth.shape[0]}], got {k}"
        )
    idx = min(k, delayed_index(k, cfg, dt, state.jitter_rng))
    if state.loss_rng.random() < cfg.n_p:
        state.stats.add([], lost=1)
    else:
        state.prev_y = truth[idx - 1].copy()
        state.stats.add([k - idx])
    return state.prev_y.copy()


def apply_channel(
    truth, cfg: NetworkConfig, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ChannelStats]:
    """Run the whole truth stream through the channel in one batch.

    Bit-identical to calling :func:`observe` for k = 2..N with a fresh
    :class:`ChannelState`.  Returns ``(delivered, src_idx, lost, stats)``
    where row 0 of ``delivered`` is the untouched first sample, ``src_idx``
    the 0-based sample each delivered row came from (for held packets, the
    one being held), and ``lost`` the loss mask.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.ndim == 1:
        truth = truth.reshape(-1, 1)
    if truth.shape[0] == 0:
        raise ContractViolationError("truth stream is empty")
    if not dt > 0.0:
        raise ContractViolationError(f"dt must be positive, got {dt}")
    steps = truth.shape[0]
    jitter_rng, loss_rng = cfg.spawn_streams()
    offsets = _offsets(cfg, dt, jitter_rng.standard_normal(steps - 1))
    src_idx, lost = _route(offsets, loss_rng.random(steps - 1), cfg.n_p)
    stats = ChannelStats()
    stats.add((np.arange(1, steps) - src_idx[1:])[~lost[1:]], int(lost.sum()))
    return truth[src_idx], src_idx, lost, stats
