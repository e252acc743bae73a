"""Constructive arbitrage procedures.

Four mechanized constructions connect property violations and strategies:

* ``obvious_arb_from_noa_violation`` turns a certified failure of the
  no-obvious-arbitrage property at (sigma, H, epsilon) into the buy-and-wait
  strategy that enters at sigma (truncated at a finite K) and exits once the
  move along H exceeds epsilon/2;
* ``extract_noa_violation`` runs the converse: given a strategy that is
  empirically an arbitrage but dips below zero, it locates the last dipping
  leg, stops at the first drop to -delta, and certifies that prices must then
  rise by delta/M along the held direction;
* ``reduce_to_elementary`` strips an empirically 0-admissible arbitrage down
  to the single-interval form H 1_{(sigma, tau]};
* ``twc_arb`` converts a certified failure of two-way crossing into the
  0-admissible strategy that buys at the up-crossing and sells at the level-
   1/n overshoot or at the down-crossing, whichever is first.

Almost-sure hypotheses become ensemble hypotheses with Wilson intervals; every
construction records the evidence it consumed so that a failed verdict can be
attributed to discretization or to the property actually holding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .diagnostics import NoaAccumulator, NoaEstimate, crossing_times
from .paths import SamplePath
from .stats import wilson_interval
from .stopping import (
    Before,
    Constant,
    Deterministic,
    DirectionRule,
    FirstCrossing,
    Max,
    Min,
    Never,
    StoppingRule,
    Switch,
    Truncate,
    UnitBasis,
    Negate,
    PathContext,
    _context,
    _first_beyond,
    direction_from_dict,
    rule_from_dict,
)
from .strategies import (
    Leg,
    SimpleStrategy,
    VerdictAccumulator,
    WealthCrossing,
    _leg_indices,
)


class ExtractionError(ValueError):
    """The input strategy does not exhibit the dip pattern the extraction needs."""


@dataclass(frozen=True)
class NoaViolationCertificate:
    """Witness that prices always rise by epsilon along `direction` after `sigma`.

    `evidence` is the estimated probability of the complementary quiet event
    (near 0 for a genuine violation); `horizon` is the finite truncation K.
    """

    sigma: StoppingRule
    direction: DirectionRule
    epsilon: float
    horizon: float
    evidence: NoaEstimate | None = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma.to_dict(),
            "direction": self.direction.to_dict(),
            "epsilon": self.epsilon,
            "horizon": self.horizon,
            "evidence": self.evidence.to_dict() if self.evidence else None,
            "notes": dict(self.notes),
        }

    @staticmethod
    def from_dict(d: dict) -> "NoaViolationCertificate":
        ev = d.get("evidence")
        evidence = None
        if ev:
            evidence = NoaEstimate(
                p_hat=ev["p_hat"], wilson_ci=tuple(ev["wilson_ci"]), epsilon=ev["epsilon"],
                n_paths=ev["n_paths"], n_sigma_before_horizon=ev["n_sigma_before_horizon"],
                mirrored_p_hat=ev["mirrored_p_hat"], mirrored_ci=tuple(ev["mirrored_ci"]),
                degenerate=ev["degenerate"],
                sigma=rule_from_dict(ev["sigma"]) if ev.get("sigma") else None,
                direction=direction_from_dict(ev["direction"]) if ev.get("direction") else None,
            )
        return NoaViolationCertificate(
            rule_from_dict(d["sigma"]), direction_from_dict(d["direction"]),
            float(d["epsilon"]), float(d["horizon"]), evidence, dict(d.get("notes", {})),
        )


@dataclass(frozen=True)
class TwcViolationCertificate:
    """Witness that the up-crossing happens strictly before the down-crossing with positive probability."""

    sigma: StoppingRule
    direction: DirectionRule
    n: int
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma.to_dict(),
            "direction": self.direction.to_dict(),
            "n": self.n,
            "evidence": dict(self.evidence),
        }

    @staticmethod
    def from_dict(d: dict) -> "TwcViolationCertificate":
        return TwcViolationCertificate(
            rule_from_dict(d["sigma"]), direction_from_dict(d["direction"]),
            int(d["n"]), dict(d.get("evidence", {})),
        )


def obvious_arb_from_noa_violation(cert: NoaViolationCertificate) -> SimpleStrategy:
    """Strategy H 1_{(sigma ^ K, tau]} with tau the first epsilon/2 rise after sigma, else K.

    The leg enters at sigma truncated at K and exits when the move along H
    first exceeds epsilon/2; when sigma has not fired by K the leg is empty
    and terminal wealth is exactly 0.  Whenever the exit crossing fires,
    terminal wealth exceeds epsilon/2 pathwise by the crossing definition;
    whether the crossing fires almost surely is what the certificate's
    evidence asserts.
    """
    rho = FirstCrossing(cert.direction, cert.epsilon / 2.0, start=cert.sigma,
                        relative=True, strict=True)
    entry = Truncate(cert.sigma, cert.horizon)
    exit_rule = Switch(cert.sigma, cert.horizon, if_by=rho,
                       if_after=Deterministic(cert.horizon))
    leg = Leg(entry, exit_rule, cert.direction, 1.0)
    return SimpleStrategy((leg,), 0.0)


def twc_arb(cert: TwcViolationCertificate) -> SimpleStrategy:
    """Strategy H 1_{(sigma_H, tau_n]} with tau_n = (sigma_{-H} ^ sigma_{H,n}) on the event
    that the up-crossing is strictly first, realized through Min/Max composition.

    On the complementary event Max collapses tau_n onto sigma_H, so the leg is
    empty and wealth is identically 0; while the position is held the move
    along H stays nonnegative up to grid overshoot, which makes the strategy
    0-admissible at grid scale.
    """
    sigma_h = FirstCrossing(cert.direction, 0.0, start=cert.sigma, relative=True, strict=True)
    sigma_mh = FirstCrossing(Negate(cert.direction), 0.0, start=cert.sigma,
                             relative=True, strict=True)
    sigma_hn = FirstCrossing(cert.direction, 1.0 / cert.n, start=cert.sigma,
                             relative=True, strict=False)
    exit_rule = Max(sigma_h, Min(sigma_mh, sigma_hn))
    leg = Leg(sigma_h, exit_rule, cert.direction, 1.0)
    return SimpleStrategy((leg,), 0.0)


class ExtractScan:
    """Pass-1 statistics for extract_noa_violation: per-leg dip counts and depths."""

    def __init__(self, strategy: SimpleStrategy, tol: float = 1e-12,
                 neg_threshold: float = 1e-3):
        if not strategy.legs:
            raise ExtractionError("cannot extract a violation from an empty strategy")
        self.strategy = strategy
        self.tol = tol
        self.verdict = VerdictAccumulator(tol, neg_threshold)
        n_legs = len(strategy.legs)
        self.dip_counts = np.zeros(n_legs, dtype=np.int64)
        self.dip_depths = np.zeros(n_legs)
        self.horizon = None

    def add(self, path: SamplePath, ctx: PathContext | None = None) -> None:
        if self.horizon is None:
            self.horizon = path.grid.horizon
        ctx = _context(path, ctx)
        wealth = ctx.wealth(self.strategy)
        self.verdict.add(wealth.terminal, wealth.running_min)
        v = wealth.values
        for j, (ia, ib) in enumerate(_leg_indices(self.strategy, path, ctx)):
            if ib <= ia:
                continue
            # window [entry_j, exit_j): dips while leg j is the active holding
            window_min = float(v[ia:ib].min())
            if window_min < -self.tol:
                self.dip_counts[j] += 1
                self.dip_depths[j] = min(self.dip_depths[j], window_min)

    def certificate(self, delta: float | None = None, bound: float | None = None,
                    strict: bool = True) -> NoaViolationCertificate:
        verdict = self.verdict.finalize()
        if strict and not verdict.empirical_arbitrage:
            raise ExtractionError(
                "no violation extractable: strategy is not an empirical arbitrage "
                f"(p_neg={verdict.p_hat_negative:.4g}, p_pos={verdict.p_hat_positive:.4g})"
            )
        if not np.any(self.dip_counts > 0):
            raise ExtractionError(
                "no violation extractable: strategy is 0-admissible on the whole ensemble"
            )
        j0 = int(np.max(np.nonzero(self.dip_counts > 0)[0]))
        leg = self.strategy.legs[j0]
        if leg.scale == 0.0:
            raise ExtractionError(f"leg {j0} dips but holds zero position")
        if delta is None:
            delta = -float(self.dip_depths[j0]) / 2.0
        if delta <= 0.0:
            raise ExtractionError("delta must be positive")
        if bound is None:
            bound = abs(leg.scale)
        direction = leg.direction if leg.scale > 0 else Negate(leg.direction)
        rho = WealthCrossing(self.strategy, -delta, start=leg.entry,
                             side="below", strict=False, after_start=True)
        if 0.0 < abs(leg.scale) <= bound:
            sigma = Before(rho, leg.exit)
        else:
            sigma = Never()
        return NoaViolationCertificate(
            sigma=sigma,
            direction=direction,
            epsilon=delta / bound,
            horizon=self.horizon,
            notes={"leg_index": j0, "delta": delta, "bound": bound,
                   "dip_depth": float(self.dip_depths[j0])},
        )


def extract_noa_violation(strategy: SimpleStrategy, paths: Iterable[SamplePath],
                          delta: float | None = None, bound: float | None = None,
                          tol: float = 1e-12, strict: bool = True,
                          neg_threshold: float = 1e-3) -> NoaViolationCertificate:
    """Certificate of a no-obvious-arbitrage failure extracted from a dipping arbitrage.

    Locates the last leg j0 whose holding window dips strictly negative,
    stops at the first drop of wealth to -delta inside that window (restricted
    to the event that the drop happens before the leg's exit), and certifies
    direction phi_j0/|phi_j0| with epsilon = delta/M.  Defaults: delta is half
    the deepest observed dip of leg j0, M is |phi_j0|.  With `strict` the
    input must be an empirical arbitrage that is not 0-admissible; pass
    strict=False to force a best-effort certificate on negative controls.

    `paths` must be re-iterable: one pass collects dip statistics, a second
    estimates the certificate's evidence and checks that wealth recovery
    forces the certified rise on every stopped path.  A one-shot iterator
    raises TypeError before any path is read.
    """
    if iter(paths) is paths:
        raise TypeError("extract_noa_violation makes two passes over the paths, so they must "
                        "be re-iterable (a list or a PathEnsemble), not a one-shot iterator")
    scan = ExtractScan(strategy, tol, neg_threshold)
    for path in paths:
        scan.add(path)
    cert = scan.certificate(delta, bound, strict)
    evidence = NoaAccumulator(cert.sigma, cert.direction, cert.epsilon)
    implication_failures = 0
    stopped = 0
    for path in paths:
        ctx = PathContext(path)
        evidence.add(path, ctx)
        stop = ctx.stop(cert.sigma)
        if stop.triggered:
            stopped += 1
            series = ctx.series(cert.direction.vector(path, stop.index))
            if _first_beyond(series, stop.index, series[stop.index], cert.epsilon - 1e-12,
                             strict=False) is None:
                implication_failures += 1
    notes = dict(cert.notes)
    notes.update({"implication_failures": implication_failures, "stopped_paths": stopped})
    return NoaViolationCertificate(cert.sigma, cert.direction, cert.epsilon,
                                   cert.horizon, evidence.finalize(), notes)


class ReduceScan:
    """Pass-1 statistics for reduce_to_elementary: entry-wealth zeros and exit flags."""

    def __init__(self, strategy: SimpleStrategy, tol: float = 1e-9,
                 neg_threshold: float = 1e-3):
        if not strategy.legs:
            raise ValueError("cannot reduce an empty strategy")
        self.strategy = strategy
        self.tol = tol
        self.verdict = VerdictAccumulator(tol, neg_threshold)
        self.nonzero_entry = np.zeros(len(strategy.legs), dtype=np.int64)
        self.exit_nontrigger = np.zeros(len(strategy.legs), dtype=np.int64)
        self.horizon = None

    def add(self, path: SamplePath, ctx: PathContext | None = None) -> None:
        if self.horizon is None:
            self.horizon = path.grid.horizon
        ctx = _context(path, ctx)
        wealth = ctx.wealth(self.strategy)
        self.verdict.add(wealth.terminal, wealth.running_min)
        for j, (ia, _ib) in enumerate(_leg_indices(self.strategy, path, ctx)):
            if abs(wealth.values[ia]) > self.tol:
                self.nonzero_entry[j] += 1
            if not ctx.stop(self.strategy.legs[j].exit).triggered:
                self.exit_nontrigger[j] += 1

    def reduced(self, strict: bool = True, admissibility_tol: float = 1e-9) -> SimpleStrategy:
        verdict = self.verdict.finalize()
        if strict:
            if not verdict.empirical_arbitrage:
                raise ExtractionError("input is not an empirical arbitrage")
            if verdict.admissibility_level_hat > admissibility_tol:
                raise ExtractionError(
                    f"input is not 0-admissible (level {verdict.admissibility_level_hat:.4g} "
                    f"> {admissibility_tol:.4g})"
                )
        qualifying = np.nonzero(self.nonzero_entry == 0)[0]
        j0 = int(qualifying.max()) if qualifying.size else 0
        leg = self.strategy.legs[j0]
        if leg.scale != 0.0:
            direction = leg.direction if leg.scale > 0 else Negate(leg.direction)
            exit_rule = leg.exit
            if self.exit_nontrigger[j0] > 0:
                exit_rule = Truncate(exit_rule, self.horizon)
            new_leg = Leg(leg.entry, exit_rule, direction, 1.0)
        else:
            # zero position: stop immediately, wealth identically 0
            new_leg = Leg(leg.entry, leg.entry, UnitBasis(0), 1.0)
        return SimpleStrategy((new_leg,), 0.0)


def reduce_to_elementary(strategy: SimpleStrategy, paths: Iterable[SamplePath],
                         tol: float = 1e-9, strict: bool = True,
                         admissibility_tol: float = 1e-9,
                         neg_threshold: float = 1e-3) -> SimpleStrategy:
    """Reduce an empirically 0-admissible arbitrage to single-interval form H 1_{(sigma, tau]}.

    j0 is the last leg whose entry wealth is 0 on every path (within tol; leg
    0 always qualifies for zero initial capital, and j0 falls back to 0 if
    numerics disqualify everything).  `tol` also sets what terminal size
    counts as a sign for the precondition verdict; statements that hold
    between grid points only in the limit want the grid tolerance here.  The
    reduced position is normalized to unit length, which scales wealth by
    1/|phi_j0| and leaves the verdict fractions unchanged.  Deciding "entry
    wealth is almost surely 0" from finitely many paths is a tolerance
    surrogate and can misidentify j0 on adversarial inputs.
    """
    scan = ReduceScan(strategy, tol, neg_threshold)
    for path in paths:
        scan.add(path)
    return scan.reduced(strict, admissibility_tol)


def example_strategies(model_tag: str, horizon: float = 1.0, cap_count: int = 100) -> SimpleStrategy:
    """The two canonical textbook strategies.

    'bubble': short one unit over (0, T]; the terminal collapse makes the gain
    equal to the initial price on every path.
    'drifted_exp': long one unit from 0 until the price first drops below its
    start or until time 1/cap_count, whichever is first.
    """
    if model_tag == "bubble":
        leg = Leg(Deterministic(0.0), Deterministic(horizon), Constant((-1.0,)), 1.0)
        return SimpleStrategy((leg,), 0.0)
    if model_tag == "drifted_exp":
        below_start = FirstCrossing(Constant((-1.0,)), 0.0, start=Deterministic(0.0),
                                    relative=True, strict=True)
        exit_rule = Min(below_start, Deterministic(1.0 / cap_count))
        leg = Leg(Deterministic(0.0), exit_rule, Constant((1.0,)), 1.0)
        return SimpleStrategy((leg,), 0.0)
    raise ValueError(f"unknown model tag {model_tag!r}; known: ['bubble', 'drifted_exp']")


def best_effort_noa_certificate(paths: Iterable[SamplePath], sigma: StoppingRule,
                                directions: Sequence[DirectionRule],
                                epsilons: Sequence[float],
                                horizon: float) -> NoaViolationCertificate:
    """Pick the (direction, epsilon) with the smallest estimated quiet probability.

    On a model that genuinely violates the property, the winner's estimate is
    near 0 and the derived obvious-arbitrage construction succeeds; on a
    no-arbitrage model every candidate keeps positive mass and the construction
    serves as a negative control.
    """
    accs = [(d, e, NoaAccumulator(sigma, d, e)) for d in directions for e in epsilons]
    for path in paths:
        ctx = PathContext(path)
        for _, _, acc in accs:
            acc.add(path, ctx)
    results = [(d, e, acc.finalize()) for d, e, acc in accs]
    direction, epsilon, estimate = min(results, key=lambda r: (r[2].p_hat, r[1]))
    return NoaViolationCertificate(sigma, direction, epsilon, horizon, estimate,
                                   notes={"candidates": len(results)})


def best_effort_twc_certificate(paths: Iterable[SamplePath], sigma: StoppingRule,
                                directions: Sequence[DirectionRule],
                                n: int) -> TwcViolationCertificate:
    """Pick the direction maximizing the estimated P(up-crossing strictly first)."""
    counts = [[0, 0] for _ in directions]  # [up strictly first, conditioning]
    n_paths = 0
    for path in paths:
        n_paths += 1
        ctx = PathContext(path)
        stop = ctx.stop(sigma)
        if not stop.triggered:
            continue
        for k, d in enumerate(directions):
            ct = crossing_times(path, stop.index, d, ctx)
            if not (ct.up_triggered or ct.down_triggered):
                continue
            counts[k][1] += 1
            if ct.up_triggered and (not ct.down_triggered or ct.up_index < ct.down_index):
                counts[k][0] += 1
    best_k, best_p, best_ci = 0, -1.0, (0.0, 1.0)
    for k, (first, cond) in enumerate(counts):
        p = first / cond if cond else 0.0
        if p > best_p:
            best_k, best_p = k, p
            best_ci = wilson_interval(first, cond) if cond else (0.0, 1.0)
    evidence = {
        "p_up_strictly_first": best_p,
        "wilson_ci": list(best_ci),
        "n_paths": n_paths,
        "n_conditioning": counts[best_k][1],
    }
    return TwcViolationCertificate(sigma, directions[best_k], n, evidence)
