"""Exact fractional Brownian motion sampling.

Two exact-law methods for the centered Gaussian process with covariance
``0.5 * (t**2H + s**2H - |t-s|**2H)``:

* circulant embedding of the stationary increment process (O(N log N),
  default), and
* dense Cholesky factorization of the covariance matrix (O(N^3), the
  independent oracle and the fallback for moderate N).

Both methods consume a fixed number of normals per path in a fixed order, so
paths are bit-reproducible from their seed stream.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grids import TimeGrid

# Dense Cholesky is the oracle/fallback; beyond this size the factorization
# cost and memory are no longer desk-scale.
CHOLESKY_MAX_STEPS = 2048

# Relative tolerance for calling a circulant eigenvalue "negative": the fGn
# embedding is nonnegative definite in exact arithmetic, so only roundoff-size
# negatives are forgiven.
_EIG_TOL = 1e-9


class CirculantEmbeddingError(ValueError):
    """Raised when the circulant embedding produces genuinely negative eigenvalues."""


def fbm_covariance(t: float, s: float, hurst: float) -> float:
    """Covariance E[Z_t Z_s] = 0.5 (t^2H + s^2H - |t-s|^2H) of fBm with Hurst index `hurst`.

    Serves as the analytic oracle for all generator tests.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if t < 0.0 or s < 0.0:
        raise ValueError("times must be nonnegative")
    h2 = 2.0 * hurst
    return 0.5 * (t**h2 + s**h2 - abs(t - s) ** h2)


def _fgn_autocov(n: int, hurst: float) -> np.ndarray:
    """Autocovariance gamma(0..n) of unit-spacing fractional Gaussian noise."""
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)


@lru_cache(maxsize=16)
def _circulant_sqrt_spectrum(n: int, hurst: float) -> np.ndarray:
    """sqrt(lambda / M) over the half spectrum [0 .. M/2] of the 2n-circulant embedding.

    Raises CirculantEmbeddingError if eigenvalues are negative beyond roundoff.
    """
    gamma = _fgn_autocov(n, hurst)
    row = np.concatenate([gamma[:n], gamma[n:n + 1], gamma[n - 1:0:-1]])  # length 2n
    lam = np.fft.rfft(row).real  # row is symmetric, spectrum is real
    neg = lam.min()
    if neg < -_EIG_TOL * lam.max():
        raise CirculantEmbeddingError(
            f"circulant embedding for steps={n}, hurst={hurst} has negative eigenvalues "
            f"(min {neg:.3e}); fall back to method='cholesky'"
        )
    lam = np.clip(lam, 0.0, None)
    out = np.sqrt(lam / (2 * n))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=8)
def _cholesky_factor(n: int, hurst: float) -> np.ndarray:
    """Lower Cholesky factor of the unit-spacing fBm covariance at times 1..n."""
    if n > CHOLESKY_MAX_STEPS:
        raise ValueError(
            f"dense Cholesky is limited to {CHOLESKY_MAX_STEPS} steps, got {n}; "
            "use method='circulant'"
        )
    t = np.arange(1, n + 1, dtype=float)
    h2 = 2.0 * hurst
    cov = 0.5 * (t[:, None] ** h2 + t[None, :] ** h2 - np.abs(t[:, None] - t[None, :]) ** h2)
    factor = np.linalg.cholesky(cov)
    factor.flags.writeable = False
    return factor


def _half_spectrum(eps: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Complex half spectrum [0 .. n] of the embedding, from 2n normals and sqrt(lambda / M).

    Entries 0 and n are real, eps[0] and eps[1]; entry k in 1..n-1 is
    (eps[2k] + i eps[2k+1]) / sqrt(2); each entry is then scaled by mult[k].
    The parts are written through real views, with no complex temporary, and
    the bits are those of the complex expression: numpy divides a complex
    number by a real one as Smith's division, which multiplies each part by
    the reciprocal of the divisor, and a complex times a real with zero
    imaginary part is exactly a product per part.
    """
    n = mult.size - 1
    w = np.empty(n + 1, dtype=complex)
    re, im = w.real, w.imag
    re[0], re[n] = eps[0], eps[1]
    im[0] = im[n] = 0.0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.multiply(eps[2::2], inv_sqrt2, out=re[1:n])
    np.multiply(eps[3::2], inv_sqrt2, out=im[1:n])
    re *= mult
    im *= mult
    return w


def sample_fgn_circulant(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """One exact draw of n unit-spacing fGn values via circulant embedding.

    Consumes exactly 2n standard normals in a fixed order.  The result is a
    view of the first half of the length-2n inverse FFT, scaled in place.
    """
    m = 2 * n
    w = _half_spectrum(rng.standard_normal(m), _circulant_sqrt_spectrum(n, hurst))
    # w is the half spectrum of a Hermitian sequence; the full FFT is real.
    fgn = np.fft.irfft(w, n=m)[:n]
    fgn *= m
    return fgn


def sample_fbm_increments(n: int, hurst: float, dt: float, rng: np.random.Generator,
                          method: str = "circulant") -> np.ndarray:
    """Exact fBm increments over n uniform steps of length dt.

    Uses self-similarity: unit-spacing increments scaled by dt**hurst.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if method == "circulant":
        fgn = sample_fgn_circulant(n, hurst, rng)
    elif method == "cholesky":
        factor = _cholesky_factor(n, hurst)
        levels = factor @ rng.standard_normal(n)
        fgn = np.diff(levels, prepend=0.0)
    else:
        raise ValueError(f"unknown fbm method {method!r}; choose 'circulant' or 'cholesky'")
    fgn *= dt**hurst
    return fgn


def sample_fbm_values(grid: TimeGrid, hurst: float, rng: np.random.Generator,
                      method: str = "circulant") -> np.ndarray:
    """Exact fBm values on the grid, Z_0 = 0, shape (steps+1,)."""
    inc = sample_fbm_increments(grid.steps, hurst, grid.dt, rng, method)
    out = np.empty(grid.steps + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out
