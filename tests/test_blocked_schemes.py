"""The time-blocked Heston and local-vol schemes against per-step oracles.

The oracles below are the plain per-step loops: every path's normals drawn at
once, one vectorized update per grid step over the whole batch.  The blocked
generators must reproduce them bit for bit at every block boundary, and a
batch must reproduce each path generated alone.
"""

import tracemalloc

import numpy as np
import pytest

from arblab import LocalVolMixedParams, MixedHestonParams, PathEnsemble, make_grid
from arblab.fbm import sample_fbm_values
from arblab.generators import (
    _BLOCK,
    _heston_batch,
    _local_vol_batch,
    gen_local_vol_mixed,
    gen_mixed_heston,
)
from arblab.models import resolve_drift_functional, resolve_vol_functional
from arblab.seeds import SeedInfo, component_rng

# Feller-valid, barely (2 kappa theta = 0.4 >= xi^2 = 0.3969), and started
# near zero, so full truncation clips on many paths.
CLIPPING_HESTON = MixedHestonParams(v0=0.001, kappa=5.0, theta=0.04, xi=0.63, eta=0.5)
LOCAL_VOL = LocalVolMixedParams(vol_fn="running_max", drift_fn="long")
STEPS = [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]
INFOS = [SeedInfo(2012, i) for i in range(3)]


def heston_oracle(grid, params, infos):
    """Per-step full-truncation Euler: (log-prices, clipped steps, variance) per path."""
    n, dt, b = grid.steps, grid.dt, len(infos)
    d_b = np.empty((b, n))
    d_w = np.empty((b, n))
    for i, info in enumerate(infos):
        d_b[i] = component_rng(info, "B").standard_normal(n)
        d_w[i] = component_rng(info, "W").standard_normal(n)
    sq_dt = np.sqrt(dt)
    rho_c = np.sqrt(1.0 - params.rho**2)
    log_s = np.empty((b, n + 1))
    log_s[:, 0] = np.log(params.s0)
    v_signed = np.full(b, params.v0)
    clipped = np.zeros(b, dtype=np.int64)
    v_path = np.empty((b, n + 1))
    v_path[:, 0] = params.v0
    for k in range(n):
        v_plus = np.maximum(v_signed, 0.0)
        vol = np.sqrt(v_plus)
        shock = params.rho * d_b[:, k] + rho_c * d_w[:, k]
        log_s[:, k + 1] = log_s[:, k] + (params.mu - 0.5 * v_plus) * dt + vol * sq_dt * shock
        v_signed = v_signed + params.kappa * (params.theta - v_plus) * dt \
            + params.xi * vol * sq_dt * d_b[:, k]
        clipped += v_signed < 0.0
        v_path[:, k + 1] = np.maximum(v_signed, 0.0)
    return log_s, clipped, v_path


def local_vol_oracle(grid, params, infos):
    """Per-step log-Euler: (log-prices, coefficients) per path."""
    n, dt, b = grid.steps, grid.dt, len(infos)
    vol_fn, _, _ = resolve_vol_functional(params.vol_fn, params.sigma_bar)
    drift_fn, _, _ = resolve_drift_functional(params.drift_fn, params.mu_bar)
    d_w = np.empty((b, n))
    for i, info in enumerate(infos):
        d_w[i] = component_rng(info, "W").standard_normal(n)
    sq_dt = np.sqrt(dt)
    log_s = np.empty((b, n + 1))
    log_s[:, 0] = np.log(params.s0)
    run_max = np.full(b, np.log(params.s0))
    coeffs = np.empty((b, n, 2))
    for k in range(n):
        t_k = grid.times[k]
        c_sig = vol_fn(t_k, log_s[:, k], run_max)
        c_mu = drift_fn(t_k, log_s[:, k], run_max)
        coeffs[:, k, 0] = c_mu
        coeffs[:, k, 1] = c_sig
        log_s[:, k + 1] = log_s[:, k] + (c_mu - 0.5 * c_sig**2) * dt + c_sig * sq_dt * d_w[:, k]
        run_max = np.maximum(run_max, log_s[:, k + 1])
    return log_s, coeffs


def _prices(grid, log_s, info, hurst, scale):
    z = sample_fbm_values(grid, hurst, component_rng(info, "Z"))
    return np.exp(log_s + scale * z)


@pytest.mark.parametrize("steps", STEPS)
def test_heston_blocks_match_per_step_oracle(steps):
    grid = make_grid(1.0, steps)
    log_s, clipped, v_path = heston_oracle(grid, CLIPPING_HESTON, INFOS)
    batch = list(_heston_batch(grid, CLIPPING_HESTON, INFOS, store_variance=True))
    assert len(batch) == len(INFOS)
    for i, (info, path) in enumerate(zip(INFOS, batch)):
        want = _prices(grid, log_s[i], info, CLIPPING_HESTON.hurst, CLIPPING_HESTON.eta)
        assert path.seed == info
        assert np.array_equal(path.values[0], want)
        assert path.metadata["clipped_steps"] == clipped[i]
        assert np.array_equal(path.metadata["variance"], v_path[i])
        alone = gen_mixed_heston(grid, CLIPPING_HESTON, info, store_variance=True)
        assert np.array_equal(alone.values, path.values)
        assert alone.metadata["clipped_steps"] == path.metadata["clipped_steps"]
        assert np.array_equal(alone.metadata["variance"], path.metadata["variance"])
    if steps > _BLOCK:
        # the clip count is exercised, not trivially zero
        assert clipped.sum() > 0


@pytest.mark.parametrize("steps", STEPS)
def test_local_vol_blocks_match_per_step_oracle(steps):
    grid = make_grid(1.0, steps)
    log_s, coeffs = local_vol_oracle(grid, LOCAL_VOL, INFOS)
    batch = list(_local_vol_batch(grid, LOCAL_VOL, INFOS, store_coeffs=True))
    assert len(batch) == len(INFOS)
    for i, (info, path) in enumerate(zip(INFOS, batch)):
        want = _prices(grid, log_s[i], info, LOCAL_VOL.z_hurst, LOCAL_VOL.z_scale)
        assert path.seed == info
        assert np.array_equal(path.values[0], want)
        assert np.array_equal(path.metadata["coefficients"], coeffs[i])
        alone = gen_local_vol_mixed(grid, LOCAL_VOL, info, store_coeffs=True)
        assert np.array_equal(alone.values, path.values)
        assert np.array_equal(alone.metadata["coefficients"], path.metadata["coefficients"])


def test_heston_ensemble_holds_one_log_price_array():
    """Iterating a batch holds its log-prices, one time block and a path or two.

    At 64 paths and 2^14 steps one (paths, steps+1) array is 8.4 MB; holding
    every path's normals and every yielded path at once would take about 4x.
    """
    grid = make_grid(1.0, 2**14)
    n_paths = 64
    one_array = n_paths * (grid.steps + 1) * 8
    tracemalloc.start()
    try:
        count = sum(1 for _ in PathEnsemble(MixedHestonParams(), grid, n_paths, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == n_paths
    assert peak < 2 * one_array, f"peak {peak / 1e6:.1f} MB against {one_array / 1e6:.1f} MB"
