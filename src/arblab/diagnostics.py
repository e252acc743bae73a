"""Statistical estimators for the two characterizing path properties.

`estimate_noa` estimates the probability that prices never rise by epsilon in
a given direction after a stopping time (the finite-horizon no-obvious-
arbitrage quantity).  `twc_statistic` operationalizes two-way crossing, which
is an almost-sure statement about infima and hence not directly testable: the
discrete surrogate is the probability that the down-crossing follows the
up-crossing within a window h, whose grid-refinement trend separates crossing
models from drift-dominated ones.  `realized_qv` and `holder_estimate` check
the two hypotheses (quadratic variation bounded below linearly, 1/2-Hoelder
perturbation) under which two-way crossing is guaranteed, and `lil_scaling`
measures the iterated-logarithm normalization that drives that guarantee.

All estimators are deterministic functions of their ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .paths import SamplePath
from .stats import wilson_interval
from .stopping import DirectionRule, PathContext, StoppingRule, _context, _first_beyond, accumulate


def _direction_vector(direction, path: SamplePath, at_index: int) -> np.ndarray:
    if isinstance(direction, DirectionRule):
        return direction.vector(path, at_index)
    return np.atleast_1d(np.asarray(direction, dtype=float))


# --------------------------------------------------------------------------
# no-obvious-arbitrage estimate

@dataclass(frozen=True)
class NoaEstimate:
    """Estimated P({sigma < T} and {sup_{t in [sigma,T]} H(X_t - X_sigma) < epsilon})."""

    p_hat: float
    wilson_ci: tuple[float, float]
    epsilon: float
    n_paths: int
    n_sigma_before_horizon: int
    mirrored_p_hat: float
    mirrored_ci: tuple[float, float]
    degenerate: bool
    sigma: "StoppingRule | None" = None
    direction: "DirectionRule | None" = None

    def to_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "wilson_ci": list(self.wilson_ci),
            "epsilon": self.epsilon,
            "n_paths": self.n_paths,
            "n_sigma_before_horizon": self.n_sigma_before_horizon,
            "mirrored_p_hat": self.mirrored_p_hat,
            "mirrored_ci": list(self.mirrored_ci),
            "degenerate": self.degenerate,
            "sigma": self.sigma.to_dict() if self.sigma is not None else None,
            "direction": self.direction.to_dict() if self.direction is not None else None,
        }


class NoaAccumulator:
    def __init__(self, sigma: StoppingRule, direction, epsilon: float, t_max: float | None = None):
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.sigma = sigma
        self.direction = direction
        self.epsilon = epsilon
        self.t_max = t_max
        self.n = 0
        self.n_started = 0
        self.n_quiet = 0
        self.n_quiet_mirror = 0

    def add(self, path: SamplePath, ctx: PathContext | None = None) -> None:
        self.n += 1
        ctx = _context(path, ctx)
        grid = path.grid
        t_max = grid.horizon if self.t_max is None else self.t_max
        stop = ctx.stop(self.sigma)
        # conditioning event {sigma < T}, strict
        if not stop.triggered or stop.time(grid) >= t_max * (1.0 - 1e-12):
            return
        self.n_started += 1
        end = grid.index_at(t_max)
        series = ctx.series(_direction_vector(self.direction, path, stop.index))
        window = series[stop.index:end + 1]
        ref = window[0]
        # rounding is monotone, so max(w - ref) is exactly max(w) - ref
        if window.max() - ref < self.epsilon:
            self.n_quiet += 1
        if -(window.min() - ref) < self.epsilon:
            self.n_quiet_mirror += 1

    def finalize(self) -> NoaEstimate:
        if self.n == 0:
            raise ValueError("estimate needs a nonempty ensemble")
        return NoaEstimate(
            p_hat=self.n_quiet / self.n,
            wilson_ci=wilson_interval(self.n_quiet, self.n),
            epsilon=self.epsilon,
            n_paths=self.n,
            n_sigma_before_horizon=self.n_started,
            mirrored_p_hat=self.n_quiet_mirror / self.n,
            mirrored_ci=wilson_interval(self.n_quiet_mirror, self.n),
            degenerate=self.n_started == 0,
            sigma=self.sigma if isinstance(self.sigma, StoppingRule) else None,
            direction=self.direction if isinstance(self.direction, DirectionRule) else None,
        )


def estimate_noa(paths: Iterable[SamplePath], sigma: StoppingRule, direction,
                 epsilon: float, t_max: float | None = None) -> NoaEstimate:
    """Unconditional fraction of paths that start before T and never rise by epsilon along H.

    The mirrored estimate (direction -H, equivalently prices never falling by
    epsilon) is reported alongside.  A run where no path starts is flagged
    degenerate rather than erroring.
    """
    acc = NoaAccumulator(sigma, direction, epsilon, t_max)
    accumulate(paths, [acc])
    return acc.finalize()


# --------------------------------------------------------------------------
# crossing times and the two-way-crossing surrogate curve

@dataclass(frozen=True)
class CrossingTimes:
    up_index: int
    up_triggered: bool
    down_index: int
    down_triggered: bool


def crossing_times(path: SamplePath, sigma_index: int, direction,
                   ctx: PathContext | None = None) -> CrossingTimes:
    """First strict up- and down-crossing of the level H . X_sigma at or after sigma."""
    n = path.grid.steps
    if not 0 <= sigma_index <= n:
        raise ValueError(f"sigma index {sigma_index} outside grid")
    series = _context(path, ctx).series(_direction_vector(direction, path, sigma_index))
    ref = series[sigma_index]
    up = _first_beyond(series, sigma_index, ref, 0.0)
    down = _first_beyond(series, sigma_index, ref, 0.0, above=False)
    return CrossingTimes(
        up_index=n if up is None else up,
        up_triggered=up is not None,
        down_index=n if down is None else down,
        down_triggered=down is not None,
    )


@dataclass(frozen=True)
class TwcCurve:
    """P(down-crossing within h of the up-crossing | up-crossing before T), per window."""

    windows: tuple[float, ...]
    estimates: tuple[float, ...]
    cis: tuple[tuple[float, float], ...]
    n_paths: int
    n_conditioning: int
    dt: float
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "windows": list(self.windows),
            "estimates": list(self.estimates),
            "cis": [list(c) for c in self.cis],
            "n_paths": self.n_paths,
            "n_conditioning": self.n_conditioning,
            "dt": self.dt,
            "degenerate": self.degenerate,
        }

    def to_csv(self, stream) -> None:
        stream.write("h,p_hat,ci_lo,ci_hi\n")
        for h, p, (lo, hi) in zip(self.windows, self.estimates, self.cis):
            stream.write(f"{h!r},{p!r},{lo!r},{hi!r}\n")


class TwcAccumulator:
    def __init__(self, sigma: StoppingRule, direction, windows: Sequence[float], dt: float):
        windows = tuple(float(h) for h in windows)
        if any(h <= dt for h in windows):
            raise ValueError(f"windows must exceed the grid spacing {dt}")
        self.sigma = sigma
        self.direction = direction
        self.windows = windows
        self.dt = dt
        self.n = 0
        self.n_cond = 0
        self.hits = np.zeros(len(windows), dtype=np.int64)

    def add(self, path: SamplePath, ctx: PathContext | None = None) -> None:
        self.n += 1
        ctx = _context(path, ctx)
        grid = path.grid
        stop = ctx.stop(self.sigma)
        if not stop.triggered:
            return
        ct = crossing_times(path, stop.index, self.direction, ctx)
        if not ct.up_triggered or ct.up_index >= grid.steps:
            return
        self.n_cond += 1
        if not ct.down_triggered:
            return
        gap = grid.times[ct.down_index] - grid.times[ct.up_index]
        for k, h in enumerate(self.windows):
            if gap <= h * (1.0 + 1e-12):
                self.hits[k] += 1

    def finalize(self) -> TwcCurve:
        if self.n_cond == 0:
            return TwcCurve(self.windows, tuple(0.0 for _ in self.windows),
                            tuple((0.0, 1.0) for _ in self.windows),
                            self.n, 0, self.dt, True)
        est = tuple(int(k) / self.n_cond for k in self.hits)
        cis = tuple(wilson_interval(int(k), self.n_cond) for k in self.hits)
        return TwcCurve(self.windows, est, cis, self.n, self.n_cond, self.dt, False)


def twc_statistic(paths: Iterable[SamplePath], sigma: StoppingRule, direction,
                  windows: Sequence[float]) -> TwcCurve:
    """Two-way-crossing surrogate curve over the given windows.

    For crossing models the estimates approach 1 as the grid refines at fixed
    h; a drift-dominated model stays bounded away from 1 at small h.
    """
    acc = None
    for path in paths:
        if acc is None:
            acc = TwcAccumulator(sigma, direction, windows, path.grid.dt)
        acc.add(path)
    if acc is None:
        raise ValueError("twc_statistic needs a nonempty ensemble")
    return acc.finalize()


# --------------------------------------------------------------------------
# realized quadratic variation

@dataclass(frozen=True)
class QvReport:
    """Realized cross-variation per window, eigenvalue slopes and the global floor proxy.

    `window_min_eigs` holds the minimum eigenvalue of (RV over window)/(window
    length) per window; `epsilon_hat` is their minimum, the per-path proxy for
    a variance floor.  `global_slope_min_eig` uses the whole interval.
    """

    window_steps: int
    n_windows: int
    window_min_eigs: tuple[float, ...]
    epsilon_hat: float
    global_slope_min_eig: float
    global_matrix: tuple

    def to_dict(self) -> dict:
        return {
            "window_steps": self.window_steps,
            "n_windows": self.n_windows,
            "window_min_eigs": list(self.window_min_eigs),
            "epsilon_hat": self.epsilon_hat,
            "global_slope_min_eig": self.global_slope_min_eig,
            "global_matrix": [list(r) for r in self.global_matrix],
        }


def realized_qv(path: SamplePath, window: int) -> QvReport:
    """Windowed realized cross-variation of the given path (values used as-is).

    The whole-interval matrix is the sum of the window matrices, so windowed
    and global variation are additive by construction.
    """
    if window < 2:
        raise ValueError("window must span at least 2 grid steps")
    n = path.grid.steps
    dt = path.grid.dt
    inc = np.diff(path.values, axis=1)  # (D, n)
    d = inc.shape[0]
    bounds = list(range(0, n, window)) + [n]
    mats = []
    eigs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = inc[:, lo:hi]
        mat = block @ block.T
        mats.append(mat)
        span = (hi - lo) * dt
        slope = mat / span
        if d == 1:
            eigs.append(float(slope[0, 0]))
        else:
            eigs.append(float(np.linalg.eigvalsh(slope).min()))
    total = np.sum(mats, axis=0)
    span_total = n * dt
    gslope = total / span_total
    gmin = float(gslope[0, 0]) if d == 1 else float(np.linalg.eigvalsh(gslope).min())
    return QvReport(
        window_steps=window,
        n_windows=len(mats),
        window_min_eigs=tuple(eigs),
        epsilon_hat=min(eigs),
        global_slope_min_eig=gmin,
        global_matrix=tuple(tuple(float(x) for x in row) for row in total),
    )


# --------------------------------------------------------------------------
# Hoelder exponent estimate

def holder_estimate(path: SamplePath, n_blocks: int = 64, n_scales: int = 8) -> float:
    """Regression estimate of the path's Hoelder exponent from dyadic block maxima.

    At each dyadic scale s the increments |X_{k+s} - X_k| over the disjoint
    blocks are grouped `n_blocks` at a time; the statistic per scale is the
    mean over groups of the log of the within-group maximum.  Keeping the
    group size fixed across scales keeps the extreme-value factor
    scale-independent so it cancels in the log-log slope, and averaging over
    groups tames the Gumbel noise at fine scales.  Degenerate (constant)
    paths return nan.
    """
    n = path.grid.steps
    if n < 2**8:
        raise ValueError("holder_estimate needs at least 2**8 grid steps")
    j_max = int(math.floor(math.log2(n / n_blocks)))
    j_lo = max(1, j_max - n_scales + 1)
    scales = list(range(j_lo, j_max + 1))
    if len(scales) < 2:
        raise ValueError("grid too coarse for the requested block count")
    vals = path.values
    xs = []
    ys = []
    for j in scales:
        step = 2**j
        starts = np.arange(0, n - step + 1, step)
        n_groups = starts.size // n_blocks
        starts = starts[: n_groups * n_blocks]
        diffs = vals[:, starts + step] - vals[:, starts]
        norms = np.sqrt((diffs**2).sum(axis=0)).reshape(n_groups, n_blocks)
        group_max = norms.max(axis=1)
        if np.any(group_max <= 0.0):
            return float("nan")
        xs.append(math.log(step * path.grid.dt))
        ys.append(float(np.mean(np.log(group_max))))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


# --------------------------------------------------------------------------
# law-of-the-iterated-logarithm scaling statistic

@dataclass(frozen=True)
class LilReport:
    """Ensemble distribution of max_t W_t / sqrt(2 t log log(1/t)) over the probe times."""

    probe_times: tuple[float, ...]
    maxima: np.ndarray
    median: float
    quantiles: dict

    def to_dict(self) -> dict:
        return {
            "probe_times": list(self.probe_times),
            "median": self.median,
            "quantiles": {str(k): v for k, v in self.quantiles.items()},
            "n_paths": int(self.maxima.size),
        }


def default_lil_probes(k_min: int = -14, k_max: int = -4) -> tuple[float, ...]:
    return tuple(2.0**k for k in range(k_min, k_max + 1))


def lil_scaling(paths: Iterable[SamplePath], probe_times: Sequence[float] | None = None) -> LilReport:
    """Per-path running maximum of the LIL-normalized value over dyadic probe times.

    Probes must sit on the grid (below-resolution probes are rejected), stay
    below 1/e so the normalization is real, and span at least three decades.
    """
    probes = tuple(sorted(float(t) for t in (probe_times or default_lil_probes())))
    if probes[0] <= 0.0:
        raise ValueError("probe times must be positive")
    if probes[-1] >= math.exp(-1.0):
        raise ValueError("probe times must stay below 1/e for the loglog normalization")
    if math.log10(probes[-1] / probes[0]) < 3.0 - 1e-9:
        raise ValueError("probe times must span at least 3 decades")
    maxima = []
    denom = None
    idx = None
    for path in paths:
        if path.dims != 1:
            raise ValueError("lil_scaling expects one-dimensional paths")
        if idx is None:
            grid = path.grid
            if probes[0] < grid.dt * (1.0 - 1e-12):
                raise ValueError(
                    f"probe {probes[0]} is below the grid resolution {grid.dt}"
                )
            idx = np.array([grid.index_at(t) for t in probes])
            t_snap = grid.times[idx]
            denom = np.sqrt(2.0 * t_snap * np.log(np.log(1.0 / t_snap)))
        ratios = path.values[0, idx] / denom
        maxima.append(float(ratios.max()))
    if not maxima:
        raise ValueError("lil_scaling needs a nonempty ensemble")
    arr = np.array(maxima)
    qs = {q: float(np.quantile(arr, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
    return LilReport(probes, arr, float(np.median(arr)), qs)
