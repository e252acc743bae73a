"""Simple strategies, exact wealth evaluation and ensemble arbitrage verdicts.

A simple strategy holds position phi_j = scale_j * H_j on the stochastic
interval (entry_j, exit_j]; wealth is the telescoping sum
v + sum_j phi_j (X_{t ^ exit_j} - X_{t ^ entry_j}) evaluated exactly on the
grid.  Verdicts aggregate terminal signs and running minima over an ensemble
with Wilson intervals, since almost-sure statements can only be estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .grids import TimeGrid
from .paths import SamplePath
from .stats import wilson_interval
from .stopping import (
    Deterministic,
    DirectionRule,
    PathContext,
    StoppingRule,
    StopResult,
    _context,
    _first_beyond,
    direction_from_dict,
    rule_from_dict,
)


class LegOrderingError(ValueError):
    """A leg's entry fell after its exit (or overlapped the previous leg) on some path."""


@dataclass(frozen=True)
class Leg:
    entry: StoppingRule
    exit: StoppingRule
    direction: DirectionRule
    scale: float = 1.0

    def to_dict(self) -> dict:
        return {
            "entry": self.entry.to_dict(),
            "exit": self.exit.to_dict(),
            "direction": self.direction.to_dict(),
            "scale": self.scale,
        }

    @staticmethod
    def from_dict(d: dict) -> "Leg":
        return Leg(
            rule_from_dict(d["entry"]),
            rule_from_dict(d["exit"]),
            direction_from_dict(d["direction"]),
            float(d.get("scale", 1.0)),
        )


@dataclass(frozen=True)
class SimpleStrategy:
    legs: tuple[Leg, ...] = ()
    initial_capital: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple(self.legs))

    def scaled(self, factor: float) -> "SimpleStrategy":
        return SimpleStrategy(
            tuple(Leg(l.entry, l.exit, l.direction, l.scale * factor) for l in self.legs),
            self.initial_capital,
        )

    def to_dict(self) -> dict:
        return {"legs": [l.to_dict() for l in self.legs], "initial_capital": self.initial_capital}


def strategy_from_dict(d: dict) -> SimpleStrategy:
    return SimpleStrategy(
        tuple(Leg.from_dict(ld) for ld in d.get("legs", [])),
        float(d.get("initial_capital", 0.0)),
    )


@dataclass(frozen=True)
class WealthPath:
    """Grid-aligned wealth of one strategy on one path."""

    grid: TimeGrid
    values: np.ndarray

    @property
    def terminal(self) -> float:
        return float(self.values[-1])

    @property
    def running_min(self) -> float:
        return float(self.values.min())

    def to_csv(self, stream) -> None:
        stream.write("t,V\n")
        for t, v in zip(self.grid.times, self.values):
            stream.write(f"{float(t)!r},{float(v)!r}\n")


def _leg_indices(strategy: SimpleStrategy, path: SamplePath,
                 ctx: PathContext | None = None) -> list[tuple[int, int]]:
    """Entry/exit indices per leg, with the pathwise ordering contract enforced."""
    ctx = _context(path, ctx)
    out = []
    prev_exit = 0
    for j, leg in enumerate(strategy.legs):
        ia = ctx.stop(leg.entry).index
        ib = ctx.stop(leg.exit).index
        if ib < ia:
            raise LegOrderingError(
                f"leg {j}: exit index {ib} before entry index {ia} on path seed {path.seed}"
            )
        if ia < prev_exit:
            raise LegOrderingError(
                f"leg {j}: entry index {ia} before previous exit {prev_exit} on path seed {path.seed}"
            )
        out.append((ia, ib))
        prev_exit = ib
    return out


def eval_wealth(strategy: SimpleStrategy, path: SamplePath,
                ctx: PathContext | None = None) -> WealthPath:
    """Exact telescoping wealth on the grid; constant between legs.

    Leg j adds phi_j (X_t - X_entry) on [entry, exit] and its exit value as a
    constant after the exit; before the entry it adds nothing.  The legs'
    stopping rules resolve through `ctx`.  The returned values are read-only.
    """
    n = path.grid.steps
    values = path.values
    v = np.full(n + 1, float(strategy.initial_capital))
    for (ia, ib), leg in zip(_leg_indices(strategy, path, ctx), strategy.legs):
        if ia == ib or leg.scale == 0.0:
            continue
        phi = leg.scale * leg.direction.vector(path, ia)
        gain = phi @ (values[:, ia:ib + 1] - values[:, ia:ia + 1])
        v[ia:ib + 1] += gain
        v[ib + 1:] += gain[-1]
    v.flags.writeable = False
    return WealthPath(path.grid, v)


def terminal_wealth_direct(strategy: SimpleStrategy, path: SamplePath) -> float:
    """Independent terminal wealth: sum over legs of phi_j (X_exit - X_entry)."""
    total = float(strategy.initial_capital)
    for (ia, ib), leg in zip(_leg_indices(strategy, path), strategy.legs):
        phi = leg.scale * leg.direction.vector(path, ia)
        total += float(phi @ (path.values[:, ib] - path.values[:, ia]))
    return total


def admissibility_level(wealth: WealthPath) -> float:
    """Smallest c >= 0 such that the wealth path never drops below -c."""
    return max(0.0, -wealth.running_min)


@dataclass(frozen=True)
class WealthCrossing(StoppingRule):
    """First index where the wealth of a fixed strategy crosses a level.

    Used to mechanize stopping at "first time the portfolio value drops to
    -delta".  Wealth is adapted, so the stopping property is preserved.
    """

    strategy: SimpleStrategy
    level: float
    start: StoppingRule = field(default_factory=lambda: Deterministic(0.0))
    side: str = "below"
    strict: bool = False
    after_start: bool = True

    def __post_init__(self):
        if self.side not in ("below", "above"):
            raise ValueError("side must be 'below' or 'above'")

    def evaluate(self, path, ctx=None):
        ctx = _context(path, ctx)
        anchor = ctx.stop(self.start)
        n = path.grid.steps
        if not anchor.triggered:
            return StopResult(n, False)
        a = anchor.index + 1 if self.after_start else anchor.index
        wealth = ctx.wealth(self.strategy).values
        j = _first_beyond(wealth, a, 0.0, self.level, above=self.side == "above",
                          strict=self.strict)
        if j is None:
            return StopResult(n, False)
        return StopResult(j, True)

    def to_dict(self):
        return {
            "type": "wealth_crossing",
            "strategy": self.strategy.to_dict(),
            "level": self.level,
            "start": self.start.to_dict(),
            "side": self.side,
            "strict": self.strict,
            "after_start": self.after_start,
        }


@dataclass(frozen=True)
class ArbitrageVerdict:
    """Ensemble summary of terminal signs, running minima and the empirical-arbitrage flag.

    The flag is set iff the upper Wilson bound of the negative-terminal
    fraction is below `neg_threshold` while the lower Wilson bound of the
    positive-terminal fraction is above 0.
    """

    n_paths: int
    tol: float
    neg_threshold: float
    p_hat_negative: float
    p_hat_positive: float
    ci_negative: tuple[float, float]
    ci_positive: tuple[float, float]
    min_terminal: float
    max_terminal: float
    min_running: float
    admissibility_level_hat: float
    empirical_arbitrage: bool

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "tol": self.tol,
            "neg_threshold": self.neg_threshold,
            "p_hat_negative": self.p_hat_negative,
            "p_hat_positive": self.p_hat_positive,
            "ci_negative": list(self.ci_negative),
            "ci_positive": list(self.ci_positive),
            "min_terminal": self.min_terminal,
            "max_terminal": self.max_terminal,
            "min_running": self.min_running,
            "admissibility_level_hat": self.admissibility_level_hat,
            "empirical_arbitrage": self.empirical_arbitrage,
        }


class VerdictAccumulator:
    """Streaming reduction of per-path (terminal, running_min) to an ArbitrageVerdict."""

    def __init__(self, tol: float = 1e-12, neg_threshold: float = 1e-3):
        self.tol = tol
        self.neg_threshold = neg_threshold
        self.n = 0
        self.n_negative = 0
        self.n_positive = 0
        self.min_terminal = np.inf
        self.max_terminal = -np.inf
        self.min_running = np.inf

    def add(self, terminal: float, running_min: float) -> None:
        self.n += 1
        if terminal < -self.tol:
            self.n_negative += 1
        if terminal > self.tol:
            self.n_positive += 1
        self.min_terminal = min(self.min_terminal, terminal)
        self.max_terminal = max(self.max_terminal, terminal)
        self.min_running = min(self.min_running, running_min)

    def add_path(self, strategy: SimpleStrategy, path: SamplePath,
                 ctx: PathContext | None = None) -> None:
        w = _context(path, ctx).wealth(strategy)
        self.add(w.terminal, w.running_min)

    def finalize(self) -> ArbitrageVerdict:
        if self.n == 0:
            raise ValueError("verdict needs a nonempty ensemble")
        ci_neg = wilson_interval(self.n_negative, self.n)
        ci_pos = wilson_interval(self.n_positive, self.n)
        return ArbitrageVerdict(
            n_paths=self.n,
            tol=self.tol,
            neg_threshold=self.neg_threshold,
            p_hat_negative=self.n_negative / self.n,
            p_hat_positive=self.n_positive / self.n,
            ci_negative=ci_neg,
            ci_positive=ci_pos,
            min_terminal=float(self.min_terminal),
            max_terminal=float(self.max_terminal),
            min_running=float(self.min_running),
            admissibility_level_hat=max(0.0, -float(self.min_running)),
            empirical_arbitrage=(ci_neg[1] < self.neg_threshold and ci_pos[0] > 0.0),
        )


def classify_outcomes(strategy: SimpleStrategy, paths: Iterable[SamplePath],
                      tol: float = 1e-12, neg_threshold: float = 1e-3) -> ArbitrageVerdict:
    """Evaluate the strategy over an ensemble sharing one grid and summarize outcomes."""
    acc = VerdictAccumulator(tol, neg_threshold)
    grid = None
    for path in paths:
        if grid is None:
            grid = path.grid
        elif path.grid != grid:
            raise ValueError("classify_outcomes needs all paths on one grid")
        acc.add_path(strategy, path)
    return acc.finalize()
