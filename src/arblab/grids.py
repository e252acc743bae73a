"""Uniform time grids on [0, T]: the substrate for paths, stopping rules and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [0, T] into `steps` intervals (steps+1 points).

    ``times[i] == i * T / steps`` with ``times[0] == 0`` and ``times[-1] == T``
    exactly.  Grids compare and hash by (horizon, steps) so they can key caches.
    """

    horizon: float
    steps: int
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        horizon = float(self.horizon)
        if not np.isfinite(horizon) or horizon <= 0.0:
            raise ValueError(f"grid horizon must be a positive finite number, got {self.horizon!r}")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 1:
            raise ValueError(f"grid steps must be a positive integer, got {self.steps!r}")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "steps", int(self.steps))
        times = np.linspace(0.0, horizon, self.steps + 1)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def index_at(self, t: float) -> int:
        """Smallest grid index whose time is >= t, clipped to [0, steps].

        Times that are a whole number of steps up to rounding noise snap to
        that step instead of the next one.
        """
        if t <= 0.0:
            return 0
        i = int(np.ceil(t / self.dt - 1e-9))
        return min(max(i, 0), self.steps)

    def covers_time(self, t: float) -> bool:
        return t <= self.horizon * (1.0 + 1e-12)


def make_grid(horizon: float, steps: int) -> TimeGrid:
    """Build a uniform grid on [0, horizon] with `steps` intervals."""
    return TimeGrid(horizon, steps)


def grid_tolerance(grid: TimeGrid) -> float:
    """Admissibility slack for statements that hold between grid points only in the limit.

    Set to dt**0.4: asymptotically larger than the dt**0.5 scale of single-step
    diffusion overshoot while still vanishing under refinement.  It separates
    discretization effects from genuine negative excursions only when a
    step's drift is below that scale too.  A drift t**alpha with alpha < 0.4
    moves the first step by about dt**alpha, which exceeds dt**0.4: on the
    `drifted-exp-twc-arb` preset (alpha = 0.25) the first step is 8.5 times
    the tolerance at 2**14 steps and 10.5 times at 2**16, so an entry
    overshoot there reads as a genuine excursion.
    """
    return grid.dt ** 0.4
