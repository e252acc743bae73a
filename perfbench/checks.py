"""Output checks for the benchmark workloads.

Every check is a property the method must have, never a copy of an earlier
report: the library's wealth against the independent reference evaluator,
monotonicity and mirror identities of the estimators, and the model facts
that a no-arbitrage or an arbitrage preset must show.  A check takes the
report and the probe rows (the first paths of each grid, evaluated by both
evaluators) and returns None when it holds, or a message when it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from arblab import (
    PathEnsemble,
    SeedInfo,
    eval_wealth,
    gen_mixed_heston,
    make_grid,
    model_from_dict,
    strategy_from_dict,
)
from arblab.constructions import (
    NoaViolationCertificate,
    TwcViolationCertificate,
    obvious_arb_from_noa_violation,
    twc_arb,
)

import reference

# paths per grid evaluated by both evaluators
PROBE_PATHS = 4
WEALTH_TOL = 1e-12


@dataclass
class ProbeRow:
    """One (strategy, path) pair: library and reference (terminal, running minimum)."""

    grid_index: int
    strategy: str
    path_index: int
    library: tuple[float, float]
    reference: tuple[float, float]


def library_strategies(report: dict, block: dict) -> dict:
    """Each verdict's strategy as the library builds it from the report's config and blocks."""
    out = {s["name"]: strategy_from_dict(s["strategy"]) for s in report["config"]["strategies"]}
    for name, c in block["constructions"].items():
        if "refused" in c:
            continue
        if "strategy" in c:
            out[name] = strategy_from_dict(c["strategy"])
        elif c["kind"] == "twc_arb":
            out[name] = twc_arb(TwcViolationCertificate.from_dict(c["certificate"]))
        else:
            out[name] = obvious_arb_from_noa_violation(NoaViolationCertificate.from_dict(c["certificate"]))
    return {name: out[name] for name in block["verdicts"]}


def probe(report: dict, n_probe: int = PROBE_PATHS) -> list[ProbeRow]:
    """Evaluate every reported strategy on the first paths of each grid with both evaluators."""
    cfg = report["config"]
    model = model_from_dict(cfg["model"])
    rows = []
    for g, block in enumerate(report["results"]):
        grid = make_grid(block["grid"]["horizon"], block["grid"]["steps"])
        lib = library_strategies(report, block)
        ref = reference.reported_strategies(report, block)
        ensemble = PathEnsemble(model, grid, min(n_probe, cfg["n_paths"]), cfg["seed"])
        for i, path in enumerate(ensemble):
            ref_path = reference.RefPath.of(path)
            for name in block["verdicts"]:
                w = eval_wealth(lib[name], path)
                rows.append(ProbeRow(g, name, i, (w.terminal, w.running_min),
                                     reference.terminal_and_min(ref[name], ref_path)))
    return rows


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= WEALTH_TOL * max(1.0, abs(b))


# ------------------------------------------------ checks on every workload

def reference_wealth(report, rows):
    for r in rows:
        if not (_close(r.library[0], r.reference[0]) and _close(r.library[1], r.reference[1])):
            return (f"grid {r.grid_index} {r.strategy} path {r.path_index}: eval_wealth "
                    f"(terminal, min) {r.library} != reference {r.reference}")
    return None


def reference_fan(report, rows):
    for g, block in enumerate(report["results"]):
        fan = block.get("wealth_fan")
        if fan is None:
            continue
        for r in rows:
            if r.grid_index == g and r.strategy == fan["strategy"]:
                terminal = fan["paths"][r.path_index][-1]
                if not _close(terminal, r.reference[0]):
                    return (f"grid {g} wealth_fan path {r.path_index}: terminal {terminal!r} "
                            f"!= reference {r.reference[0]!r}")
    return None


def reference_bounds(report, rows):
    for r in rows:
        v = report["results"][r.grid_index]["verdicts"][r.strategy]
        terminal, running = r.reference
        if not (v["min_terminal"] <= terminal <= v["max_terminal"] and v["min_running"] <= running):
            return (f"grid {r.grid_index} {r.strategy}: verdict range [{v['min_terminal']!r}, "
                    f"{v['max_terminal']!r}] (min running {v['min_running']!r}) misses reference "
                    f"path {r.path_index} {r.reference}")
    return None


# ------------------------------------------------ drifted exponential

# Standard deviations allowed to one Brownian step in the overshoot bound below.
STEP_SIGMAS = 8.0


def twc_overshoot_bound(alpha: float, dt: float, upper: float) -> float:
    """Largest loss of twc_arb (sigma = 0, H = +1) on the drifted-exponential grid, X_0 = 1.

    The leg enters at the first step with X > X_0 and leaves at the first step
    with X < X_0 or X - X_0 >= upper, so while it is held X stays in
    [X_0, X_0 + upper) and the wealth X_t - X_entry stays above
    X_0 - X_entry.  A loss is therefore the entry overshoot X_entry - X_0 plus
    the drop of the exit step below X_0, each at most one step of the path.
    A step of W + t^alpha rises by at most dt^alpha (the drift's first step)
    plus the Brownian step, taken here at STEP_SIGMAS standard deviations.
    """
    w = STEP_SIGMAS * math.sqrt(dt)
    return math.expm1(dt**alpha + w) - (1.0 + upper) * math.expm1(-w)


def twc_arbitrage_grid_overshoot(report, rows):
    """twc_arbitrage loses on no path more than the one-step grid overshoot.

    The strategy is 0-admissible in continuous time, but on the grid a rare
    path that falls back below X_0 loses the entry overshoot, of order
    dt^alpha and so above grid_tolerance = dt^0.4 when alpha < 0.4.
    """
    alpha = float(report["config"]["model"]["alpha"])
    for block in report["results"]:
        v = block["verdicts"]["twc_arbitrage"]
        upper = 1.0 / block["constructions"]["twc_arbitrage"]["certificate"]["n"]
        bound = twc_overshoot_bound(alpha, block["grid"]["dt"], upper)
        level = v["admissibility_level_hat"]
        if not (-v["min_terminal"] <= level <= bound):
            return (f"N={block['grid']['steps']}: twc_arbitrage admissibility level {level!r} "
                    f"(min terminal {v['min_terminal']!r}) beyond the one-step overshoot {bound!r}")
    return None


def twc_curve_monotone(report, rows):
    for block in report["results"]:
        curve = block["twc_curve"]
        pairs = sorted(zip(curve["windows"], curve["estimates"]))
        if any(b[1] < a[1] for a, b in zip(pairs, pairs[1:])):
            return f"N={block['grid']['steps']}: TWC estimates not nondecreasing in the window: {pairs}"
    return None


# ------------------------------------------------ no-arbitrage batteries

CONSTRUCTION_KINDS = {"obvious_arb_from_noa_violation", "twc_arb",
                      "extract_noa_violation", "reduce_to_elementary"}


def constructions_inert_or_losing(report, rows):
    for block in report["results"]:
        steps = block["grid"]["steps"]
        built = {k: c for k, c in block["constructions"].items() if "refused" not in c}
        kinds = {c["kind"] for c in built.values()}
        if kinds != CONSTRUCTION_KINDS:
            return f"N={steps}: constructions built {sorted(kinds)}, expected every kind"
        for name in built:
            v = block["verdicts"][name]
            losing = v["ci_negative"][0] > 0.0
            inert = v["min_terminal"] == 0.0 and v["max_terminal"] == 0.0
            if v["empirical_arbitrage"] or not (losing or inert):
                return (f"N={steps} {name}: flagged={v['empirical_arbitrage']}, "
                        f"negative CI {v['ci_negative']}, terminal range "
                        f"[{v['min_terminal']!r}, {v['max_terminal']!r}]")
    return None


def noa_monotone_in_epsilon(report, rows):
    for block in report["results"]:
        groups: dict[str, list] = {}
        for name, est in block["noa"].items():
            groups.setdefault(repr((est["sigma"], est["direction"])), []).append((est["epsilon"], est["p_hat"], name))
        for members in groups.values():
            members.sort()
            if any(b[1] < a[1] for a, b in zip(members, members[1:])):
                return f"N={block['grid']['steps']}: NOA p_hat decreases in epsilon: {members}"
    return None


def noa_mirror_identity(report, rows):
    for block in report["results"]:
        noa = block["noa"]
        pairs = 0
        for up_name, up in noa.items():
            for down_name, down in noa.items():
                d_up, d_down = up["direction"], down["direction"]
                if not (d_up["type"] == d_down["type"] == "constant"
                        and [-c for c in d_up["components"]] == d_down["components"]
                        and up["epsilon"] == down["epsilon"] and up["sigma"] == down["sigma"]):
                    continue
                pairs += 1
                if up["mirrored_p_hat"] != down["p_hat"]:
                    return (f"N={block['grid']['steps']}: {up_name}.mirrored_p_hat "
                            f"{up['mirrored_p_hat']!r} != {down_name}.p_hat {down['p_hat']!r}")
        if pairs == 0:
            return f"N={block['grid']['steps']}: no mirrored NOA pair in the report"
    return None


def long_hold_half(report, rows):
    for block in report["results"]:
        v = block["verdicts"]["long_hold"]
        se = math.sqrt(0.25 / v["n_paths"])
        if abs(v["p_hat_positive"] - 0.5) > 4.0 * se:
            return (f"N={block['grid']['steps']}: long_hold p_hat_positive {v['p_hat_positive']!r} "
                    f"more than 4 standard errors ({se:.4g}) from 1/2")
    return None


def qv_slope_sigma2(report, rows):
    sigma2 = float(report["config"]["model"]["sigma"]) ** 2
    for block in report["results"]:
        slope = block["qv"]["median_global_slope"]
        if abs(slope - sigma2) > 0.10 * sigma2:
            return f"N={block['grid']['steps']}: QV slope {slope!r} not within 10% of sigma^2 = {sigma2!r}"
    return None


def holder_median(report, rows):
    for block in report["results"]:
        med = block["holder"]["median"]
        if not 0.65 <= med <= 0.85:
            return f"N={block['grid']['steps']}: Hoelder median {med!r} outside [0.65, 0.85]"
    return None


def _fgn_sq_sum_var(n: int, hurst: float, dt: float) -> float:
    """Variance of sum_k (dZ_k)^2 over n fGn increments of spacing dt (Gaussian fourth moments)."""
    lags = np.arange(n, dtype=float)
    h2 = 2.0 * hurst
    gamma = 0.5 * ((lags + 1.0) ** h2 - 2.0 * lags**h2 + np.abs(lags - 1.0) ** h2)
    return 2.0 * dt ** (2.0 * h2) * (n * gamma[0] ** 2 + 2.0 * float(np.sum((n - lags[1:]) * gamma[1:] ** 2)))


def qv_slope_pathwise(report, rows):
    """Each probe's QV slope against its own integrated variance plus eta^2 N^(1-2H) T^(2H-1).

    Over T the realized variance of log(S e^(eta Z)) has conditional mean
    int v dt + eta^2 N dt^(2H) given the variance path, and its spread is the
    realized-variance noise 2 sum (v dt)^2, the cross term
    4 eta^2 dt^(2H) int v dt, and the fGn term eta^4 Var(sum dZ^2).  The check
    regenerates each probe path's variance and allows 6 standard deviations.
    """
    cfg = report["config"]
    params = model_from_dict(cfg["model"])
    for block in report["results"]:
        g = block["grid"]
        grid = make_grid(g["horizon"], g["steps"])
        n, dt, horizon = g["steps"], g["dt"], g["horizon"]
        z_var = _fgn_sq_sum_var(n, params.hurst, dt)
        for i, slope in enumerate(block["qv"]["global_slope_min_eigs"]):
            v = gen_mixed_heston(grid, params, SeedInfo(cfg["seed"], i), store_variance=True).metadata["variance"]
            iv = float(np.sum(v[:-1])) * dt
            expected = (iv + params.eta**2 * n * dt ** (2.0 * params.hurst)) / horizon
            var = (2.0 * float(np.sum(v[:-1] ** 2)) * dt**2
                   + 4.0 * params.eta**2 * dt ** (2.0 * params.hurst) * iv + params.eta**4 * z_var)
            tol = 6.0 * math.sqrt(var) / horizon
            if abs(slope - expected) > tol:
                return (f"N={n} probe {i}: QV slope {slope!r} not within {tol:.4g} of "
                        f"integrated variance + eta^2 N^(1-2H) = {expected!r}")
    return None


# ------------------------------------------------ two-asset counterexample

def metadata_noa_zero(report, rows):
    for block in report["results"]:
        p = block["noa"]["metadata"]["p_hat"]
        if p != 0.0:
            return f"N={block['grid']['steps']}: metadata-direction NOA p_hat {p!r} != 0"
    return None


def rational_noa_positive(report, rows):
    for block in report["results"]:
        for name, est in block["noa"].items():
            if est["direction"]["type"] == "constant" and est["wilson_ci"][0] <= 0.0:
                return f"N={block['grid']['steps']}: {name} lower Wilson bound {est['wilson_ci'][0]!r} is not above 0"
    return None


def metadata_arbitrage_gain(report, rows):
    for block in report["results"]:
        v = block["verdicts"]["metadata_arbitrage"]
        eps = block["constructions"]["metadata_arbitrage"]["certificate"]["epsilon"]
        floor = eps / 2.0 / math.sqrt(2.0)
        if v["min_terminal"] < floor or v["p_hat_positive"] != 1.0:
            return (f"N={block['grid']['steps']}: metadata_arbitrage min terminal {v['min_terminal']!r} "
                    f"(floor {floor!r}), p_hat_positive {v['p_hat_positive']!r}")
    return None


COMMON = (reference_wealth, reference_fan, reference_bounds)
BATTERY = (constructions_inert_or_losing, noa_monotone_in_epsilon, noa_mirror_identity)

CHECKS = {
    "drifted-exp-twc": COMMON + (twc_arbitrage_grid_overshoot, twc_curve_monotone),
    "mixed-fbs-battery": COMMON + BATTERY + (long_hold_half, qv_slope_sigma2, holder_median),
    "mixed-heston-battery": COMMON + BATTERY + (qv_slope_pathwise,),
    "counterexample-2d-wide": COMMON + (metadata_noa_zero, rational_noa_positive, metadata_arbitrage_gain),
}


def run_checks(workload: str, report: dict, rows: list[ProbeRow] | None = None) -> list[str]:
    """Messages of every failing check of the workload (empty when all hold)."""
    if rows is None:
        rows = probe(report)
    failures = []
    for check in CHECKS[workload]:
        msg = check(report, rows)
        if msg is not None:
            failures.append(f"{check.__name__}: {msg}")
    return failures
