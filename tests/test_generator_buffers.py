"""The in-place exact generators against the plain array expressions they replace.

Each generator builds its path inside one array it allocates and reads its
per-grid constants from read-only caches.  The oracles below are the
expressions the generators used to evaluate, with a fresh array for every
intermediate; the generators must reproduce them bit for bit.  The memory
tests bound what one path allocates, and the aliasing test checks that no
path can write to, or share memory with, a cached constant.
"""

import tracemalloc

import numpy as np
import pytest

from arblab import (
    LocalVolMixedParams,
    MixedFbsParams,
    MixedHestonParams,
    make_grid,
)
from arblab.fbm import _circulant_sqrt_spectrum, _half_spectrum, sample_fgn_circulant
from arblab.generators import (
    _bubble_scales,
    _capped_times,
    _fbs_drift,
    _time_power,
    gen_bubble,
    gen_counterexample_2d,
    gen_drifted_exp,
    gen_local_vol_mixed,
    gen_mixed_fbs,
    gen_mixed_heston,
)
from arblab.seeds import SeedInfo, component_rng

from test_blocked_schemes import heston_oracle, local_vol_oracle

STEPS = [1, 7, 4096, 5000]
HURSTS = [0.3, 0.5, 0.75]
INFO = SeedInfo(20121023, 3)


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def brownian_oracle(grid, dims, rng):
    inc = rng.standard_normal((dims, grid.steps)) * np.sqrt(grid.dt)
    out = np.zeros((dims, grid.steps + 1))
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def half_spectrum_oracle(eps, mult):
    n = mult.size - 1
    w = np.empty(n + 1, dtype=complex)
    w[0] = eps[0]
    w[n] = eps[1]
    w[1:n] = (eps[2::2] + 1j * eps[3::2]) / np.sqrt(2.0)
    w *= mult
    return w


def fgn_oracle(n, hurst, rng):
    m = 2 * n
    w = half_spectrum_oracle(rng.standard_normal(m), _circulant_sqrt_spectrum(n, hurst))
    return m * np.fft.irfft(w, n=m)[:n]


def fbm_oracle(grid, hurst, rng):
    inc = grid.dt**hurst * fgn_oracle(grid.steps, hurst, rng)
    out = np.empty(grid.steps + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def mixed_fbs_oracle(grid, params, info):
    w = brownian_oracle(grid, params.sigma_matrix().shape[1], component_rng(info, "W"))
    rng_z = component_rng(info, "Z")
    z = np.stack([fbm_oracle(grid, params.hurst, rng_z) for _ in range(params.dims)])
    t = grid.times
    drift = params.nu * t + params.mu * t ** (2.0 * params.hurst)
    log_x = params.sigma_matrix() @ w + params.eta * z + drift[None, :]
    return params.x0_vector()[:, None] * np.exp(log_x)


def mixed_price_oracle(grid, log_s, scale, hurst, info):
    if scale > 0.0:
        return np.exp(log_s + scale * fbm_oracle(grid, hurst, component_rng(info, "Z")))
    return np.exp(log_s)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("hurst", HURSTS)
def test_half_spectrum_matches_complex_arithmetic(steps, hurst):
    mult = _circulant_sqrt_spectrum(steps, hurst)
    eps = np.random.default_rng(steps).standard_normal(2 * steps)
    assert_same_bits(_half_spectrum(eps, mult).view(float),
                     half_spectrum_oracle(eps, mult).view(float))
    got = sample_fgn_circulant(steps, hurst, component_rng(INFO, "Z"))
    assert_same_bits(got, fgn_oracle(steps, hurst, component_rng(INFO, "Z")))


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_drifted_exp_matches_oracle(steps, alpha):
    grid = make_grid(1.0, steps)
    w = brownian_oracle(grid, 1, component_rng(INFO, "W"))[0]
    want = np.exp(w + grid.times**alpha)
    assert_same_bits(gen_drifted_exp(grid, alpha, INFO).values[0], want)


@pytest.mark.parametrize("steps", STEPS)
def test_bubble_matches_oracle(steps):
    grid = make_grid(2.0, steps)
    w = brownian_oracle(grid, 1, component_rng(INFO, "W"))[0]
    rem = grid.horizon - grid.times[:-1]
    want = np.empty(grid.steps + 1)
    want[:-1] = np.exp(-w[:-1] ** 2 / (2.0 * rem)) / np.sqrt(2.0 * np.pi * rem)
    want[-1] = 0.0
    assert_same_bits(gen_bubble(grid, INFO).values[0], want)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("hurst", HURSTS)
@pytest.mark.parametrize("assets", [1, 2])
def test_mixed_fbs_matches_oracle(steps, hurst, assets):
    if assets == 1:
        params = MixedFbsParams(x0=1.5, sigma=0.2, eta=0.3, nu=0.05, mu=-0.03, hurst=hurst)
    else:
        # two assets driven by three Brownian motions: the W rows are drawn in order
        params = MixedFbsParams(x0=(1.0, 2.0), sigma=((0.2, 0.1, 0.0), (0.0, 0.1, 0.3)),
                                eta=0.1, nu=-0.02, mu=0.04, hurst=hurst)
    grid = make_grid(1.0, steps)
    assert_same_bits(gen_mixed_fbs(grid, params, INFO).values, mixed_fbs_oracle(grid, params, INFO))


def test_mixed_fbs_without_mixing_matches_oracle():
    params = MixedFbsParams(sigma=0.3, eta=0.0, nu=0.1, mu=0.2, hurst=0.75)
    grid = make_grid(1.0, 5000)
    assert_same_bits(gen_mixed_fbs(grid, params, INFO).values, mixed_fbs_oracle(grid, params, INFO))


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("horizon", [1.0, 1.5])
def test_counterexample_matches_stacked_oracle(steps, horizon):
    grid = make_grid(horizon, steps)
    u = float(component_rng(INFO, "U").random())
    w = brownian_oracle(grid, 1, component_rng(INFO, "W"))[0]
    t_cap_idx = grid.index_at(1.0)
    w_capped = np.array(w)
    w_capped[t_cap_idx:] = w[t_cap_idx]
    want = np.stack([w_capped, u * w_capped + np.minimum(grid.times, 1.0)])
    path = gen_counterexample_2d(grid, INFO)
    assert_same_bits(path.values, want)
    assert path.metadata["U"] == u


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("eta", [0.0, 0.4])
def test_heston_price_matches_oracle(steps, eta):
    params = MixedHestonParams(eta=eta, hurst=0.7)
    grid = make_grid(1.0, steps)
    log_s = heston_oracle(grid, params, [INFO])[0][0]
    want = mixed_price_oracle(grid, log_s, params.eta, params.hurst, INFO)
    assert_same_bits(gen_mixed_heston(grid, params, INFO).values[0], want)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("z_scale", [0.0, 0.3])
def test_local_vol_price_matches_oracle(steps, z_scale):
    params = LocalVolMixedParams(vol_fn="running_max", z_scale=z_scale, z_hurst=0.6)
    grid = make_grid(1.0, steps)
    log_s = local_vol_oracle(grid, params, [INFO])[0][0]
    want = mixed_price_oracle(grid, log_s, params.z_scale, params.z_hurst, INFO)
    assert_same_bits(gen_local_vol_mixed(grid, params, INFO).values[0], want)


def _peak_in_arrays(make, steps):
    """tracemalloc peak of one generated path, in (steps+1)-float arrays, after a warm-up."""
    make(SeedInfo(5, 0))
    tracemalloc.start()
    try:
        make(SeedInfo(5, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * (steps + 1))


def test_drifted_exp_path_allocates_about_one_array():
    # the path itself is one array; SamplePath's finiteness check adds 1/8 of one
    grid = make_grid(1.0, 2**16)
    peak = _peak_in_arrays(lambda info: gen_drifted_exp(grid, 0.25, info), grid.steps)
    assert peak < 1.5, f"peak {peak:.2f} arrays"


def test_mixed_fbs_path_memory():
    # the embedding's complex half spectrum and inverse FFT take two arrays each
    grid = make_grid(1.0, 2**14)
    params = MixedFbsParams(eta=0.2, nu=0.05, mu=0.02, hurst=0.75)
    peak = _peak_in_arrays(lambda info: gen_mixed_fbs(grid, params, info), grid.steps)
    assert peak < 8.0, f"peak {peak:.2f} arrays"


def test_mixed_fbs_without_mixing_draws_no_z():
    # the path and W: no zero Z is allocated, scaled and added
    grid = make_grid(1.0, 2**14)
    params = MixedFbsParams(eta=0.0, nu=0.05, mu=0.02, hurst=0.75)
    peak = _peak_in_arrays(lambda info: gen_mixed_fbs(grid, params, info), grid.steps)
    assert peak < 2.5, f"peak {peak:.2f} arrays"


def test_two_asset_mixed_fbs_adds_z_row_by_row():
    # the path's two rows plus one row's fBm draw; no stacked copy of Z
    grid = make_grid(1.0, 2**14)
    params = MixedFbsParams(x0=(1.0, 2.0), sigma=((0.2, 0.0), (0.05, 0.3)), eta=0.2, hurst=0.75)
    peak = _peak_in_arrays(lambda info: gen_mixed_fbs(grid, params, info), grid.steps)
    assert peak < 6.5, f"peak {peak:.2f} arrays"


def test_cached_grid_constants_are_read_only_and_never_shared():
    grid = make_grid(1.5, 256)
    fbs = MixedFbsParams(eta=0.2, nu=0.05, mu=0.02, hurst=0.75)
    paths = [
        gen_drifted_exp(grid, 0.25, INFO),
        gen_mixed_fbs(grid, fbs, INFO),
        gen_counterexample_2d(grid, INFO),
        gen_bubble(grid, INFO),
        gen_mixed_heston(grid, MixedHestonParams(eta=0.3, hurst=0.75), INFO),
    ]
    cached = [
        _time_power(grid, 0.25),
        _fbs_drift(grid, fbs.nu, fbs.mu, fbs.hurst),
        _capped_times(grid),
        *_bubble_scales(grid),
        _circulant_sqrt_spectrum(grid.steps, 0.75),
    ]
    assert _time_power(grid, 0.25) is cached[0]
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
        for path in paths:
            assert not np.shares_memory(path.values, arr)
