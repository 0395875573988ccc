"""Benchmark the compiled filter kernel against the pure-numpy fallback.

Usage:
    python benchmarks/bench_kernels.py [--steps 10000] [--repeats 5]

Runs the filter loop on both execution paths in one process (the
interpreted version is always exported as ``kf_loop_numpy``), prints the
speedup, and times a full closed-loop scenario on the active path.  With
numba missing or ``TELEKF_DISABLE_NUMBA=1`` both paths are the same
interpreter code.
"""

import argparse
import time

import numpy as np

from telekf import _kernels
from telekf.channel import NetworkConfig
from telekf.dataio import SyntheticSpec, gen_synthetic, random_stable_arx
from telekf.simrunner import Scenario, run_scenario
from telekf.sysid import arx_fit, arx_to_ss, residual_covariances


def timeit(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def kf_case(steps):
    rng = np.random.default_rng(1)
    n, m, p = 6, 2, 3
    a = rng.standard_normal((n, n))
    a *= 0.85 / np.abs(np.linalg.eigvals(a)).max()
    args = (
        a,
        rng.standard_normal((n, m)),
        rng.standard_normal((p, n)),
        0.01 * np.eye(n),
        rng.uniform(0.1, 1.0, p),
        rng.standard_normal(n),
        np.eye(n),
        rng.standard_normal((steps, m)),
        rng.standard_normal((steps, p)),
        np.ones(steps, dtype=bool),
    )
    return args


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=10000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    print(f"numba path active: {_kernels.NUMBA_ENABLED}")

    kf_args = kf_case(args.steps)

    # warm up (the first compiled call includes jit time)
    _kernels.kf_loop(*kf_args)

    rows = []
    t_jit = timeit(lambda: _kernels.kf_loop(*kf_args), args.repeats)
    t_ref = timeit(lambda: _kernels.kf_loop_numpy(*kf_args), args.repeats)
    rows.append(("kf_loop", t_jit, t_ref))

    generator = random_stable_arx(2, 2, 1, n_outputs=3, n_inputs=2, seed=42, pole_radius=0.85)
    data = gen_synthetic(
        SyntheticSpec(
            generator=generator, n_samples=args.steps, seed=1, excitation="sines",
            process_noise=0.005, measurement_noise=0.002,
        )
    )
    model = arx_fit(data, (2, 2, 1))
    q, r = residual_covariances(model, data)
    system = arx_to_ss(model, q=q, r=r)
    scenario = Scenario(
        model=system, network=NetworkConfig(5, 7, 0.2, seed=0), data=data
    )
    run_scenario(scenario)

    t_jit = timeit(lambda: run_scenario(scenario), args.repeats)
    rows.append(("run_scenario (active path)", t_jit, None))

    print(f"\n{'kernel':<28} {'active':>10} {'numpy':>10} {'speedup':>8}   ({args.steps} steps)")
    for name, jit, ref in rows:
        if ref is None:
            print(f"{name:<28} {jit * 1e3:>8.2f}ms {'-':>10} {'-':>8}")
        else:
            print(f"{name:<28} {jit * 1e3:>8.2f}ms {ref * 1e3:>8.2f}ms {ref / jit:>7.1f}x")


if __name__ == "__main__":
    main()
