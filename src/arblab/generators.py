"""Seeded generators for every market model in the laboratory.

All generators are pure functions of (params, grid, seed): identical inputs
produce bit-identical paths, and distinct stochastic components always come
from distinct named seed substreams, so independence assumptions (for example
"Z independent of W") hold structurally.  Gaussian models use exact-law
sampling; the Heston variance uses full-truncation Euler with its clip count
reported; local-volatility models run a log-space Euler scheme so prices stay
strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fbm import sample_fbm_values
from .grids import TimeGrid
from .models import (
    BrownianParams,
    BubbleParams,
    Counterexample2dParams,
    DriftedExpParams,
    FbmParams,
    LocalVolMixedParams,
    MixedFbsParams,
    MixedHestonParams,
    ModelParams,
    resolve_drift_functional,
    resolve_vol_functional,
)
from .paths import LOG_PRICE, PRICE, SamplePath, readonly
from .seeds import SeedInfo, as_seed, component_rng

# Path-recursive schemes (Heston, local vol) are advanced in cross-path
# batches of this size; every elementwise step is bit-identical to running
# the path alone, so batching is purely a throughput choice.
_BATCH = 1024
# A batch advances time-major in blocks of this many steps: each path draws
# its normals for the block, then the per-step loop runs on contiguous rows.
_BLOCK = 2048


def _brownian_values(grid: TimeGrid, dims: int, rng: np.random.Generator) -> np.ndarray:
    """(dims, steps+1) Brownian values, W_0 = 0, increments N(0, dt) per component."""
    inc = rng.standard_normal((dims, grid.steps)) * np.sqrt(grid.dt)
    out = np.zeros((dims, grid.steps + 1))
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def gen_brownian(grid: TimeGrid, dims: int = 1, seed=0) -> SamplePath:
    """D-dimensional Brownian motion with independent components."""
    if dims < 1:
        raise ValueError("dims must be >= 1")
    info = as_seed(seed)
    w = _brownian_values(grid, dims, component_rng(info, "W"))
    return SamplePath(grid, readonly(w), LOG_PRICE, info)


def gen_fbm(grid: TimeGrid, hurst: float, seed=0, method: str = "circulant") -> SamplePath:
    """Fractional Brownian motion with exact Gaussian law, Z_0 = 0.

    `method` is 'circulant' (fast, exact) or 'cholesky' (exact oracle for
    moderate grids).  Both draw from the same substream but consume normals
    differently, so they agree in law, not samplewise.
    """
    info = as_seed(seed)
    z = sample_fbm_values(grid, hurst, component_rng(info, "Z"), method)
    return SamplePath(grid, readonly(z[None, :]), LOG_PRICE, info)


def gen_bubble(grid: TimeGrid, seed=0) -> SamplePath:
    """Gaussian-kernel local martingale X_t = exp(-W_t^2 / (2(T-t))) / sqrt(2 pi (T-t)).

    The final value is pinned to exactly 0: the model's terminal collapse is
    the engine of the long-run arbitrage, and the kernel formula is undefined
    at t = T.
    """
    info = as_seed(seed)
    w = _brownian_values(grid, 1, component_rng(info, "W"))[0]
    t = grid.times
    rem = grid.horizon - t[:-1]
    x = np.empty(grid.steps + 1)
    x[:-1] = np.exp(-w[:-1] ** 2 / (2.0 * rem)) / np.sqrt(2.0 * np.pi * rem)
    x[-1] = 0.0
    return SamplePath(grid, readonly(x[None, :]), PRICE, info)


def gen_drifted_exp(grid: TimeGrid, alpha: float, seed=0) -> SamplePath:
    """X_t = exp(W_t + t**alpha); X_0 = 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    info = as_seed(seed)
    w = _brownian_values(grid, 1, component_rng(info, "W"))[0]
    x = np.exp(w + grid.times**alpha)
    return SamplePath(grid, readonly(x[None, :]), PRICE, info)


def _mixed_fbs_components(grid: TimeGrid, params: MixedFbsParams, info: SeedInfo):
    """(W, Z) driving noises of the mixed Black-Scholes model, from independent substreams."""
    smat = params.sigma_matrix()
    n_w = smat.shape[1]
    w = _brownian_values(grid, n_w, component_rng(info, "W"))
    if params.eta > 0.0:
        rng_z = component_rng(info, "Z")
        z = np.stack([sample_fbm_values(grid, params.hurst, rng_z) for _ in range(params.dims)])
    else:
        z = np.zeros((params.dims, grid.steps + 1))
    return w, z


def gen_mixed_fbs(grid: TimeGrid, params: MixedFbsParams, seed=0) -> SamplePath:
    """Mixed Black-Scholes prices x0 * exp(sigma W_t + eta Z_t + nu t + mu t**2H)."""
    info = as_seed(seed)
    w, z = _mixed_fbs_components(grid, params, info)
    smat = params.sigma_matrix()
    t = grid.times
    drift = params.nu * t + params.mu * t ** (2.0 * params.hurst)
    log_x = smat @ w + params.eta * z + drift[None, :]
    x = params.x0_vector()[:, None] * np.exp(log_x)
    return SamplePath(grid, readonly(x), PRICE, info)


def _time_major(rows: int, b: int) -> np.ndarray:
    """Uninitialized (rows, b) block whose rows lie one cache line more than b values apart.

    Drawing a path's normals and transposing a block into per-path rows walk
    the block column-wise.  With rows exactly b values apart and b a multiple
    of a large power of two (512 or 1,024 paths), successive rows of a column
    fall into the same few cache sets; that made the Heston generator twice
    as slow at 1,024 paths and 4,096 steps as at 1,000 paths.
    """
    return np.empty((rows, b + 8))[:, :b]


def _draw_block(rngs: list[np.random.Generator], out: np.ndarray) -> None:
    """Fill column i of `out` with the next `len(out)` standard normals of rngs[i].

    Successive draws continue a Generator's stream, so the blocks of one path
    concatenate to exactly the normals of a single draw over the whole grid.
    """
    m = out.shape[0]
    for i, rng in enumerate(rngs):
        out[:, i] = rng.standard_normal(m)


def _heston_batch(grid: TimeGrid, params: MixedHestonParams, infos: list[SeedInfo],
                  store_variance: bool = False) -> Iterator[SamplePath]:
    """Advance a batch of Heston paths and yield them one at a time.

    Per-path values depend only on that path's streams, and each is
    bit-identical to the per-step scheme

        v+ = max(v_k, 0);  shock = rho dB_k + rho_c dW_k
        log_s[k+1] = (log_s[k] + (mu - 0.5 v+) dt) + (sqrt(v+) sqrt(dt)) shock
        v_{k+1} = (v_k + kappa (theta - v+) dt) + ((xi sqrt(v+)) sqrt(dt)) dB_k

    The batch runs time-major in blocks of `_BLOCK` steps.  Only the signed
    variance is advanced step by step; the log-price of a whole block is one
    cumsum.  A cumsum of A_k + B_k (the drift and diffusion halves) would
    round differently from (log_s[k] + A_k) + B_k, so the block buffer holds
    [log_s[k0], A_0, B_0, A_1, B_1, ...] and its cumsum along time adds the
    terms in the scheme's own order: the even rows are the log-prices.  Before
    that the same buffer holds the block's normals, B in the odd rows and W
    in the even ones.
    """
    n = grid.steps
    dt = grid.dt
    b = len(infos)
    sq_dt = np.sqrt(dt)
    mu, kappa, theta, xi, rho = params.mu, params.kappa, params.theta, params.xi, params.rho
    rho_c = np.sqrt(1.0 - rho**2)
    rngs_b = [component_rng(info, "B") for info in infos]
    rngs_w = [component_rng(info, "W") for info in infos]

    block = min(_BLOCK, n)
    buf = _time_major(2 * block + 1, b)
    v = np.empty((block + 1, b))
    v_plus = np.empty((block, b))
    vol = np.empty(b)
    drift = np.empty(b)
    log_s = np.empty((b, n + 1))
    log_s[:, 0] = buf[0] = np.log(params.s0)
    v[0] = params.v0
    clipped = np.zeros(b, dtype=np.int64)
    v_path = np.empty((b, n + 1)) if store_variance else None
    if store_variance:
        v_path[:, 0] = params.v0
    for k0 in range(0, n, block):
        m = min(block, n - k0)
        terms = buf[:2 * m + 1]
        d_b, d_w = terms[1::2], terms[2::2]
        _draw_block(rngs_b, d_b)
        _draw_block(rngs_w, d_w)
        for j in range(m):
            vp = np.maximum(v[j], 0.0, out=v_plus[j])
            np.sqrt(vp, out=vol)
            np.subtract(theta, vp, out=drift)
            np.multiply(kappa, drift, out=drift)
            np.multiply(drift, dt, out=drift)
            np.add(v[j], drift, out=drift)
            np.multiply(xi, vol, out=vol)
            np.multiply(vol, sq_dt, out=vol)
            np.multiply(vol, d_b[j], out=vol)
            np.add(drift, vol, out=v[j + 1])
        clipped += np.count_nonzero(v[1:m + 1] < 0.0, axis=0)
        if store_variance:
            v_path[:, k0 + 1:k0 + m + 1] = np.maximum(v[1:m + 1], 0.0).T
        vp = v_plus[:m]
        np.multiply(rho, d_b, out=d_b)
        np.multiply(rho_c, d_w, out=d_w)
        np.add(d_b, d_w, out=d_w)                 # shock
        np.sqrt(vp, out=d_b)
        np.multiply(d_b, sq_dt, out=d_b)
        np.multiply(d_b, d_w, out=d_w)            # B_k = (sqrt(v+) sqrt(dt)) shock
        np.multiply(0.5, vp, out=d_b)
        np.subtract(mu, d_b, out=d_b)
        np.multiply(d_b, dt, out=d_b)             # A_k = (mu - 0.5 v+) dt
        np.cumsum(terms, axis=0, out=terms)
        log_s[:, k0 + 1:k0 + m + 1] = terms[2::2].T
        buf[0] = terms[2 * m]
        v[0] = v[m]

    for i, info in enumerate(infos):
        log_x = log_s[i]
        if params.eta > 0.0:
            z = sample_fbm_values(grid, params.hurst, component_rng(info, "Z"))
            log_x = log_x + params.eta * z
        meta = {"clipped_steps": int(clipped[i])}
        if store_variance:
            meta["variance"] = readonly(v_path[i].copy())
        yield SamplePath(grid, readonly(np.exp(log_x)[None, :]), PRICE, info, meta)


def gen_mixed_heston(grid: TimeGrid, params: MixedHestonParams, seed=0,
                     store_variance: bool = False) -> SamplePath:
    """Mixed Heston price S_t * exp(eta Z_t).

    The CIR variance uses full-truncation Euler (signed state kept, negative
    part clipped wherever the variance enters drift or diffusion); the number
    of clipped steps is reported in path metadata.  The stock uses a left-point
    log-Euler step, which keeps the discrete discounted stock an exact
    martingale when mu = 0.
    """
    info = as_seed(seed)
    return next(_heston_batch(grid, params, [info], store_variance))


def _local_vol_batch(grid: TimeGrid, params: LocalVolMixedParams, infos: list[SeedInfo],
                     store_coeffs: bool = False) -> Iterator[SamplePath]:
    """Advance a batch of local-vol paths in time blocks and yield them one at a time.

    The coefficients depend on the log-price and its running max, so the
    recursion stays per step; each block's normals are drawn per path first.
    """
    n = grid.steps
    dt = grid.dt
    b = len(infos)
    vol_fn, _, _ = resolve_vol_functional(params.vol_fn, params.sigma_bar)
    drift_fn, _, _ = resolve_drift_functional(params.drift_fn, params.mu_bar)
    rngs_w = [component_rng(info, "W") for info in infos]
    sq_dt = np.sqrt(dt)

    block = min(_BLOCK, n)
    d_w = _time_major(block, b)
    x = _time_major(block + 1, b)
    log_s = np.empty((b, n + 1))
    log_s[:, 0] = x[0] = np.log(params.s0)
    run_max = np.full(b, np.log(params.s0))
    coeffs = np.empty((b, n, 2)) if store_coeffs else None
    for k0 in range(0, n, block):
        m = min(block, n - k0)
        _draw_block(rngs_w, d_w[:m])
        for j in range(m):
            t_k = grid.times[k0 + j]
            c_sig = vol_fn(t_k, x[j], run_max)
            c_mu = drift_fn(t_k, x[j], run_max)
            if store_coeffs:
                coeffs[:, k0 + j, 0] = c_mu
                coeffs[:, k0 + j, 1] = c_sig
            x[j + 1] = x[j] + (c_mu - 0.5 * c_sig**2) * dt + c_sig * sq_dt * d_w[j]
            run_max = np.maximum(run_max, x[j + 1])
        log_s[:, k0 + 1:k0 + m + 1] = x[1:m + 1].T
        x[0] = x[m]

    for i, info in enumerate(infos):
        log_x = log_s[i]
        if params.z_scale > 0.0:
            z = sample_fbm_values(grid, params.z_hurst, component_rng(info, "Z"))
            log_x = log_x + params.z_scale * z
        meta = {}
        if store_coeffs:
            meta["coefficients"] = readonly(coeffs[i].copy())
        yield SamplePath(grid, readonly(np.exp(log_x)[None, :]), PRICE, info, meta)


def gen_local_vol_mixed(grid: TimeGrid, params: LocalVolMixedParams, seed=0,
                        store_coeffs: bool = False) -> SamplePath:
    """Local-volatility stock times exp(z_scale * Z), simulated in log space.

    Coefficient functionals are evaluated on the discrete past each step;
    log-space stepping keeps the stock strictly positive pathwise.
    """
    info = as_seed(seed)
    return next(_local_vol_batch(grid, params, [info], store_coeffs))


def gen_counterexample_2d(grid: TimeGrid, seed=0) -> SamplePath:
    """Two stocks X1_t = W_{t^1}, X2_t = U W_{t^1} + (t^1), with U stored in metadata.

    U is uniform on [0, 1], drawn once per path from its own substream, so
    metadata-derived trading directions can reconstruct it exactly.
    """
    if not grid.covers_time(1.0):
        raise ValueError(f"counterexample needs horizon >= 1, grid has {grid.horizon}")
    info = as_seed(seed)
    u = float(component_rng(info, "U").random())
    w = _brownian_values(grid, 1, component_rng(info, "W"))[0]
    t_cap_idx = grid.index_at(1.0)
    w_capped = np.array(w)
    w_capped[t_cap_idx:] = w[t_cap_idx]
    t_capped = np.minimum(grid.times, 1.0)
    vals = np.stack([w_capped, u * w_capped + t_capped])
    return SamplePath(grid, readonly(vals), PRICE, info, {"U": u})


def generate_path(model: ModelParams, grid: TimeGrid, seed=0) -> SamplePath:
    """Dispatch a single path for any model variant."""
    if isinstance(model, BrownianParams):
        return gen_brownian(grid, model.dims, seed)
    if isinstance(model, FbmParams):
        return gen_fbm(grid, model.hurst, seed, model.method)
    if isinstance(model, BubbleParams):
        return gen_bubble(grid, seed)
    if isinstance(model, DriftedExpParams):
        return gen_drifted_exp(grid, model.alpha, seed)
    if isinstance(model, MixedFbsParams):
        return gen_mixed_fbs(grid, model, seed)
    if isinstance(model, MixedHestonParams):
        return gen_mixed_heston(grid, model, seed)
    if isinstance(model, LocalVolMixedParams):
        return gen_local_vol_mixed(grid, model, seed)
    if isinstance(model, Counterexample2dParams):
        return gen_counterexample_2d(grid, seed)
    raise TypeError(f"unknown model type {type(model).__name__}")


@dataclass(frozen=True)
class PathEnsemble:
    """Re-iterable, deterministic stream of paths for one (model, grid, seed).

    Path i always uses the substreams of SeedInfo(root, i), so any slice of
    the ensemble can be regenerated independently.  Iteration allocates one
    path at a time (recursive schemes advance in fixed batches internally),
    which keeps very fine grids at 10^4+ paths inside desk-scale memory.
    """

    model: ModelParams
    grid: TimeGrid
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")

    def __len__(self) -> int:
        return self.n_paths

    def __iter__(self) -> Iterator[SamplePath]:
        root = SeedInfo(self.seed)
        if isinstance(self.model, (MixedHestonParams, LocalVolMixedParams)):
            batch_fn = _heston_batch if isinstance(self.model, MixedHestonParams) else _local_vol_batch
            # a batch holds one (batch, steps+1) log-price array, capped here at
            # ~128 MB, plus one time block; paths are yielded one at a time
            batch = max(1, min(_BATCH, 2**24 // (self.grid.steps + 1)))
            for start in range(0, self.n_paths, batch):
                infos = [root.for_path(i) for i in range(start, min(start + batch, self.n_paths))]
                yield from batch_fn(self.grid, self.model, infos)
        else:
            for i in range(self.n_paths):
                yield generate_path(self.model, self.grid, root.for_path(i))
