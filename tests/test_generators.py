import numpy as np
import pytest

from arblab import (
    MixedFbsParams,
    MixedHestonParams,
    LocalVolMixedParams,
    PathEnsemble,
    fbm_covariance,
    gen_brownian,
    gen_bubble,
    gen_counterexample_2d,
    gen_drifted_exp,
    gen_fbm,
    gen_local_vol_mixed,
    gen_mixed_fbs,
    gen_mixed_heston,
    make_grid,
)
from arblab.models import BubbleParams, DriftedExpParams
from arblab.seeds import SeedInfo

SQRT_2PI_INV = 0.3989422804014327


def _terminal_products(gen, grid, n, pairs):
    sums = {p: [] for p in pairs}
    for i in range(n):
        path = gen(SeedInfo(1000, i))
        v = path.values[0]
        for (ti, tj) in pairs:
            sums[(ti, tj)].append(v[grid.index_at(ti)] * v[grid.index_at(tj)])
    return {p: np.array(x) for p, x in sums.items()}


class TestBrownian:
    def test_determinism(self, grid64):
        a = gen_brownian(grid64, 2, seed=5)
        b = gen_brownian(grid64, 2, seed=5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, gen_brownian(grid64, 2, seed=6).values)

    def test_starts_at_zero(self, grid64):
        assert np.all(gen_brownian(grid64, 3, seed=1).values[:, 0] == 0.0)

    def test_variance_and_covariance_oracle(self):
        grid = make_grid(1.0, 64)
        n = 20000
        prods = _terminal_products(lambda s: gen_brownian(grid, 1, s), grid, n,
                                   [(1.0, 1.0), (0.5, 1.0)])
        for pair, target in [((1.0, 1.0), 1.0), ((0.5, 1.0), 0.5)]:
            x = prods[pair]
            tol = 4 * x.std(ddof=1) / np.sqrt(n)
            assert abs(x.mean() - target) < tol

    def test_components_independent(self, grid1k):
        p = gen_brownian(grid1k, 2, seed=9)
        d = np.diff(p.values, axis=1)
        assert abs(np.corrcoef(d[0], d[1])[0, 1]) < 4.0 / np.sqrt(d.shape[1])


class TestFbm:
    def test_determinism(self, grid64):
        assert np.array_equal(gen_fbm(grid64, 0.75, seed=2).values,
                              gen_fbm(grid64, 0.75, seed=2).values)

    def test_variance_oracle_hurst_075(self):
        grid = make_grid(2.0, 64)
        n = 20000
        prods = _terminal_products(lambda s: gen_fbm(grid, 0.75, s), grid, n,
                                   [(2.0, 2.0), (0.5, 1.0)])
        for pair, target in [((2.0, 2.0), fbm_covariance(2, 2, 0.75)),
                             ((0.5, 1.0), 0.5)]:
            x = prods[pair]
            tol = 4 * x.std(ddof=1) / np.sqrt(n)
            assert abs(x.mean() - target) < tol

    def test_holder_regularity_proxy(self):
        from arblab import holder_estimate
        grid = make_grid(1.0, 2**14)
        for hurst in (0.55, 0.75, 0.9):
            for seed in (0, 1, 2):
                est = holder_estimate(gen_fbm(grid, hurst, seed=seed))
                assert hurst - 0.1 <= est <= hurst + 0.1


class TestBubble:
    def test_initial_value_closed_form(self, grid1k):
        p = gen_bubble(grid1k, seed=4)
        assert p.values[0, 0] == pytest.approx(SQRT_2PI_INV, abs=1e-15)

    def test_terminal_pinned_to_zero_exactly(self, grid1k):
        for seed in range(20):
            assert gen_bubble(grid1k, seed=seed).values[0, -1] == 0.0

    def test_intermediate_values_respect_kernel_bound(self, grid1k):
        p = gen_bubble(grid1k, seed=11)
        t = grid1k.times[:-1]
        bound = 1.0 / np.sqrt(2 * np.pi * (grid1k.horizon - t))
        inner = p.values[0, :-1]
        assert np.all(inner > 0.0)
        assert np.all(inner <= bound + 1e-15)


class TestDriftedExp:
    def test_starts_at_one(self, grid64):
        for seed in range(10):
            assert gen_drifted_exp(grid64, 0.25, seed=seed).values[0, 0] == 1.0

    def test_mean_log_matches_drift(self):
        grid = make_grid(0.02, 128)
        i = grid.index_at(0.01)
        n = 20000
        logs = np.array([np.log(gen_drifted_exp(grid, 0.25, SeedInfo(7, k)).values[0, i])
                         for k in range(n)])
        target = 0.01**0.25
        tol = 4 * logs.std(ddof=1) / np.sqrt(n)
        assert abs(logs.mean() - target) < tol

    def test_early_down_crossing_is_rare(self):
        # drift t^0.25 dominates sqrt(t) noise near 0, so dipping below the
        # start within [0, 0.01] is a tail event
        grid = make_grid(1.0, 2**16)
        cut = grid.index_at(0.01)
        hits = 0
        n = 2000
        for k in range(n):
            v = gen_drifted_exp(grid, 0.25, SeedInfo(21, k)).values[0, : cut + 1]
            hits += bool((v < 1.0).any())
        assert hits / n < 0.05

    def test_alpha_validated(self, grid64):
        with pytest.raises(ValueError):
            gen_drifted_exp(grid64, 1.5, seed=0)


class TestMixedFbs:
    def test_degenerate_mixing_is_black_scholes(self):
        grid = make_grid(1.0, 256)
        params = MixedFbsParams(x0=1.0, sigma=0.2, eta=0.0)
        n = 20000
        logs = np.array([np.log(gen_mixed_fbs(grid, params, SeedInfo(3, k)).values[0, -1])
                         for k in range(n)])
        var = logs.var(ddof=1)
        assert abs(var - 0.04) < 4 * 0.04 * np.sqrt(2.0 / n)

    def test_independent_components_add_variance(self):
        grid = make_grid(1.0, 256)
        params = MixedFbsParams(x0=1.0, sigma=0.2, eta=0.1, hurst=0.75)
        n = 20000
        logs = np.array([np.log(gen_mixed_fbs(grid, params, SeedInfo(5, k)).values[0, -1])
                         for k in range(n)])
        var = logs.var(ddof=1)
        assert abs(var - 0.05) < 4 * 0.05 * np.sqrt(2.0 / n)

    def test_hurst_half_matches_brownian_build_in_law(self):
        from scipy.stats import ks_2samp
        grid = make_grid(1.0, 128)
        params = MixedFbsParams(x0=1.0, sigma=0.2, eta=0.1, hurst=0.5)
        n = 10000
        mixed = np.array([np.log(gen_mixed_fbs(grid, params, SeedInfo(8, k)).values[0, -1])
                          for k in range(n)])
        built = np.array([
            0.2 * gen_brownian(grid, 1, SeedInfo(8, k)).values[0, -1]
            + 0.1 * gen_fbm(grid, 0.5, SeedInfo(8, k)).values[0, -1]
            for k in range(n)
        ])
        assert ks_2samp(mixed, built).pvalue > 0.01

    def test_mixing_components_uncorrelated(self):
        grid = make_grid(1.0, 2**12)
        params = MixedFbsParams(eta=0.1, hurst=0.75)
        # the W and Z substreams that gen_mixed_fbs draws from (bit-for-bit
        # oracles in test_generator_buffers.py)
        w = gen_brownian(grid, 1, SeedInfo(77)).values[0]
        z = gen_fbm(grid, params.hurst, SeedInfo(77)).values[0]
        dw, dz = np.diff(w), np.diff(z)
        assert abs(np.corrcoef(dw, dz)[0, 1]) < 4.0 / np.sqrt(dw.size)

    def test_multi_asset_positive(self):
        grid = make_grid(1.0, 128)
        params = MixedFbsParams(x0=(1.0, 2.0), sigma=((0.2, 0.0), (0.05, 0.3)), eta=0.1)
        p = gen_mixed_fbs(grid, params, seed=1)
        assert p.dims == 2
        assert np.all(p.values > 0.0)
        assert np.allclose(p.values[:, 0], [1.0, 2.0])


class TestMixedHeston:
    def test_vanishing_vol_of_vol_gives_ode_fixed_point(self):
        grid = make_grid(1.0, 2**12)
        params = MixedHestonParams(v0=0.04, kappa=1.0, theta=0.04, xi=1e-8, eta=0.0)
        p = gen_mixed_heston(grid, params, seed=2, store_variance=True)
        assert p.metadata["variance"][-1] == pytest.approx(0.04, abs=1e-6)

    def test_discounted_martingale_mean(self):
        grid = make_grid(1.0, 1024)
        params = MixedHestonParams(mu=0.0, eta=0.0)
        terms = np.array([p.values[0, -1] for p in PathEnsemble(params, grid, 20000, 31)])
        tol = 4 * terms.std(ddof=1) / np.sqrt(terms.size)
        assert abs(terms.mean() - 1.0) < tol

    def test_clip_frequency_small_under_feller(self):
        grid = make_grid(1.0, 2**12)
        params = MixedHestonParams(eta=0.0)
        clipped = sum(p.metadata["clipped_steps"] for p in PathEnsemble(params, grid, 2000, 13))
        assert clipped / (2000 * grid.steps) < 0.01

    def test_batch_matches_single_path_bitwise(self):
        grid = make_grid(1.0, 512)
        params = MixedHestonParams()
        batch = list(PathEnsemble(params, grid, 10, 17))
        solo = gen_mixed_heston(grid, params, SeedInfo(17, 7))
        assert np.array_equal(batch[7].values, solo.values)


class TestLocalVolMixed:
    def test_flat_max_reduces_to_black_scholes(self):
        grid = make_grid(1.0, 512)
        params = LocalVolMixedParams(sigma_bar=1.25, drift_fn="zero",
                                     vol_fn="flat_max", z_scale=0.0)
        n = 20000
        logs = np.array([np.log(p.values[0, -1]) for p in PathEnsemble(params, grid, n, 19)])
        target = 1.25**2
        assert abs(logs.var(ddof=1) - target) < 4 * target * np.sqrt(2.0 / n)

    def test_running_max_functional_stays_in_bounds(self):
        grid = make_grid(1.0, 256)
        params = LocalVolMixedParams(drift_fn="long", vol_fn="running_max")
        lo, hi = 1.0 / params.sigma_bar, params.sigma_bar
        for k in range(200):
            c = gen_local_vol_mixed(grid, params, SeedInfo(23, k), store_coeffs=True)
            coeffs = c.metadata["coefficients"]
            assert np.all(coeffs[:, 1] >= lo - 1e-12)
            assert np.all(coeffs[:, 1] <= hi + 1e-12)
            assert np.all(np.abs(coeffs[:, 0]) <= params.mu_bar + 1e-12)

    def test_paths_strictly_positive(self):
        grid = make_grid(1.0, 512)
        params = LocalVolMixedParams(drift_fn="short", vol_fn="running_max", z_scale=1.0)
        for p in PathEnsemble(params, grid, 50, 29):
            assert np.all(p.values > 0.0)


class TestCounterexample2d:
    def test_algebraic_identity_exact(self):
        # exact up to one rounding of the float composition u*W + t
        grid = make_grid(1.5, 96)
        for seed in range(20):
            p = gen_counterexample_2d(grid, seed=seed)
            u = p.metadata["U"]
            t_capped = np.minimum(grid.times, 1.0)
            assert np.abs(p.values[1] - u * p.values[0] - t_capped).max() <= 1e-15

    def test_initial_values(self, grid64):
        p = gen_counterexample_2d(grid64, seed=3)
        assert p.values[0, 0] == 0.0 and p.values[1, 0] == 0.0

    def test_horizon_precondition(self):
        with pytest.raises(ValueError, match="horizon"):
            gen_counterexample_2d(make_grid(0.5, 32), seed=0)

    def test_terminal_correlation_closed_form(self):
        # X1_1 = W_1, X2_1 = U W_1 + 1 with U ~ U[0,1] independent of W:
        # corr = E[U] / sqrt(E[U^2]) = 0.5 / sqrt(1/3)
        grid = make_grid(1.0, 64)
        n = 20000
        xy = np.array([gen_counterexample_2d(grid, SeedInfo(41, k)).values[:, -1]
                       for k in range(n)])
        corr = np.corrcoef(xy[:, 0], xy[:, 1])[0, 1]
        target = 0.5 / np.sqrt(1.0 / 3.0)
        assert abs(corr - target) < 0.02


class TestEnsemble:
    def test_reiteration_reproduces_paths(self):
        ens = PathEnsemble(DriftedExpParams(0.25), make_grid(1.0, 64), 5, 7)
        a = [p.values.copy() for p in ens]
        b = [p.values.copy() for p in ens]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_paths_read_only(self):
        p = next(iter(PathEnsemble(BubbleParams(), make_grid(1.0, 64), 1, 1)))
        with pytest.raises(ValueError):
            p.values[0, 0] = 2.0

    def test_price_kind_positivity(self):
        grid = make_grid(1.0, 128)
        models = [
            DriftedExpParams(0.25),
            MixedFbsParams(eta=0.1),
            MixedHestonParams(),
            LocalVolMixedParams(),
        ]
        for model in models:
            for p in PathEnsemble(model, grid, 10, 3):
                assert p.kind == "price"
                assert np.all(p.values > 0.0)
        # the pinned-collapse model is positive except its final column
        for p in PathEnsemble(BubbleParams(), grid, 10, 3):
            assert np.all(p.values[:, :-1] > 0.0)
            assert p.values[0, -1] == 0.0


def test_every_model_is_bit_deterministic():
    from arblab.models import BrownianParams, Counterexample2dParams, FbmParams
    from arblab.generators import generate_path

    grid = make_grid(1.5, 128)
    models = [
        BrownianParams(dims=2),
        FbmParams(hurst=0.7),
        BubbleParams(),
        DriftedExpParams(alpha=0.3),
        MixedFbsParams(eta=0.1, hurst=0.6),
        MixedHestonParams(),
        LocalVolMixedParams(vol_fn="running_max"),
        Counterexample2dParams(),
    ]
    for model in models:
        a = generate_path(model, grid, SeedInfo(33, 4))
        b = generate_path(model, grid, SeedInfo(33, 4))
        c = generate_path(model, grid, SeedInfo(33, 5))
        assert np.array_equal(a.values, b.values), type(model).__name__
        assert not np.array_equal(a.values, c.values), type(model).__name__
