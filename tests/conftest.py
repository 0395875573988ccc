"""Shared builders for the test suite.

The reference setup mirrors the main experiment: a stable 2nd-order
3-output / 2-input ARX generator, a sum-of-sines trajectory with small
equation and measurement noise, and a filter model identified from that
trajectory with residual-matched noise covariances.
"""

import numpy as np

from telekf.dataio import SyntheticSpec, gen_synthetic, random_stable_arx
from telekf.filtering import SystemModel
from telekf.sysid import arx_fit, arx_to_ss, residual_covariances

REFERENCE_ORDERS = (2, 2, 1)


def reference_generator(n_inputs=2):
    return random_stable_arx(
        *REFERENCE_ORDERS, n_outputs=3, n_inputs=n_inputs, seed=42, pole_radius=0.85
    )


def reference_dataset(n_samples=1500, seed=1, n_inputs=2):
    return gen_synthetic(
        SyntheticSpec(
            generator=reference_generator(n_inputs),
            n_samples=n_samples,
            seed=seed,
            excitation="sines",
            process_noise=0.005,
            measurement_noise=0.002,
        )
    )


def identified_system(data):
    model = arx_fit(data, REFERENCE_ORDERS)
    q, r = residual_covariances(model, data)
    return arx_to_ss(model, q=q, r=r)


def random_spd(rng, n, floor=0.1):
    m = rng.standard_normal((n, n))
    return m @ m.T + floor * np.eye(n)


def exact_lti(seed=0, n=4, m=2, p=2):
    """A hand-tuned stable LTI model with positive noise variances, for consistency checks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((n, n))
    a *= 0.9 / max(1e-9, np.abs(np.linalg.eigvals(a)).max())
    b = rng.standard_normal((n, m))
    h = rng.standard_normal((p, n))
    return SystemModel(a=a, b=b, h=h, q_diag=np.full(n, 0.01), r_diag=rng.uniform(0.05, 0.2, p))


def sample_outputs(model, inputs, seed):
    """Measurements drawn from ``model`` itself: from a zero state, process
    and measurement noise from two streams spawned off ``seed``; row t is
    ``h x[t] + v[t]``."""
    u = np.asarray(inputs, dtype=float)
    steps = u.shape[0]
    n, p = model.n_states, model.n_outputs
    w_seq, v_seq = np.random.SeedSequence(seed).spawn(2)
    w_rng = np.random.Generator(np.random.PCG64(w_seq))
    v_rng = np.random.Generator(np.random.PCG64(v_seq))

    def _sqrt_psd(mat):
        w, v = np.linalg.eigh(mat)
        return v * np.sqrt(np.clip(w, 0.0, None))

    w = w_rng.standard_normal((steps, n)) @ _sqrt_psd(np.diag(model.q_diag)).T
    v = v_rng.standard_normal((steps, p)) @ _sqrt_psd(np.diag(model.r_diag)).T
    x = np.zeros((steps, n))
    for t in range(1, steps):
        x[t] = model.a @ x[t - 1] + model.b @ u[t - 1] + w[t]
    return x @ model.h.T + v


def joint_gain_update(x, p, h, r, z):
    """Textbook joint-gain measurement update, the reference for the filter's
    sequential-scalar one: ``K = P H' (H P H' + R)^-1``, then
    ``x + K (z - H x)`` and ``(I - K H) P``."""
    s = h @ p @ h.T + r
    gain = np.linalg.solve(s, h @ p).T  # s and p are symmetric
    return x + gain @ (z - h @ x), p - gain @ h @ p


def max_rel_diff(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.abs(b).max()), 1e-12)
    return float(np.abs(a - b).max()) / scale


def innovation_health(nu, s):
    """(per-step NIS ``nu' s^-1 nu``, largest absolute lag-1 autocorrelation
    of a channel) of innovations ``nu`` (T, p) with covariances ``s`` (T, p, p)."""
    nis = np.einsum("tp,tp->t", nu, np.linalg.solve(s, nu[..., None])[..., 0])
    lag1 = max(abs(float(np.corrcoef(nu[1:, c], nu[:-1, c])[0, 1])) for c in range(nu.shape[1]))
    return nis, lag1


def hygiene_of_covs(p_stack):
    """(max asymmetry, min eigenvalue) over a stack of covariance matrices."""
    p_stack = np.asarray(p_stack)
    if p_stack.ndim == 2:
        p_stack = p_stack[None]
    asym = np.abs(p_stack - np.swapaxes(p_stack, -1, -2)).max()
    eig_min = np.linalg.eigvalsh(p_stack).min()
    return float(asym), float(eig_min)
