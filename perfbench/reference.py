"""Independent reference evaluator for strategies written as config dicts.

A plain per-step loop over the rule definitions documented in
``arblab/stopping.py`` and ``arblab/strategies.py``.  It shares no code with
the library's evaluator: rules are read from their dict form, every scan walks
the grid one step at a time on Python floats, and wealth is recomputed at each
grid point from the telescoping formula

    V_t = v + sum_j phi_j (X_{t ^ exit_j} - X_{t ^ entry_j}),   phi_j = scale_j H_j.

Only the input paths come from the library.  The two certificate-built
constructions are rebuilt here from the definitions in
``arblab/constructions.py``, so a report block that carries only a
certificate can still be evaluated.
"""

from __future__ import annotations

import json
import math

_TIME_EPS = 1e-9


class RefPath:
    """Path values as Python lists, plus the grid times and the metadata."""

    def __init__(self, times, values, metadata):
        self.times = [float(t) for t in times]
        self.values = [[float(x) for x in row] for row in values]
        self.metadata = dict(metadata)
        self.steps = len(self.times) - 1
        self.horizon = self.times[-1]
        self.dt = self.horizon / self.steps
        self.memo: dict[str, tuple[int, bool]] = {}

    @staticmethod
    def of(path) -> "RefPath":
        return RefPath(path.grid.times, path.values, path.metadata)


def _unit(vec: list[float]) -> list[float]:
    norm = math.sqrt(sum(v * v for v in vec))
    if not math.isfinite(norm) or norm <= 0.0:
        raise ValueError("direction vector must have positive finite norm")
    return [v / norm for v in vec]


def direction(d: dict, path: RefPath) -> list[float]:
    kind = d["type"]
    if kind == "constant":
        return _unit([float(c) for c in d["components"]])
    if kind == "unit_basis":
        e = [0.0] * len(path.values)
        e[int(d["axis"])] = 1.0
        return e
    if kind == "from_metadata":
        value = path.metadata[d["key"]]
        if d.get("transform", "unit") == "counterexample_2d":
            return _unit([-float(value), 1.0])
        return _unit([float(v) for v in (value if isinstance(value, (list, tuple)) else [value])])
    if kind == "negate":
        return [-v for v in direction(d["inner"], path)]
    raise ValueError(f"unknown direction type {kind!r}")


def index_at(path: RefPath, t: float) -> int:
    """Smallest grid index whose time is >= t (rounding noise snaps down), clipped."""
    for i, ti in enumerate(path.times):
        if ti >= t - _TIME_EPS * path.dt:
            return i
    return path.steps


def _dot(h: list[float], path: RefPath, i: int) -> float:
    return sum(hd * row[i] for hd, row in zip(h, path.values))


def stop(rule: dict, path: RefPath) -> tuple[int, bool]:
    """(index, triggered) of a stopping rule on the path; never-firing rules give (N, False)."""
    key = json.dumps(rule, sort_keys=True)
    if key not in path.memo:
        path.memo[key] = _stop(rule, path)
    return path.memo[key]


def _stop(rule: dict, path: RefPath) -> tuple[int, bool]:
    n = path.steps
    kind = rule["type"]
    if kind == "deterministic":
        t = float(rule["time"])
        if t > path.horizon * (1.0 + _TIME_EPS):
            return n, False
        return index_at(path, t), True
    if kind == "never":
        return n, False
    if kind == "min":
        a, b = stop(rule["left"], path), stop(rule["right"], path)
        return min(a[0], b[0]), (a[1] and a[0] <= b[0]) or (b[1] and b[0] <= a[0])
    if kind == "max":
        a, b = stop(rule["left"], path), stop(rule["right"], path)
        return max(a[0], b[0]), a[1] and b[1]
    if kind == "truncate":
        return stop({"type": "min", "left": rule["rule"],
                     "right": {"type": "deterministic", "time": rule["cutoff"]}}, path)
    if kind == "switch":
        test = stop(rule["test"], path)
        cutoff = float(rule["cutoff"])
        by = test[1] and path.times[test[0]] <= cutoff * (1.0 + _TIME_EPS)
        decision = test[0] if by else index_at(path, cutoff)
        result = stop(rule["if_by"] if by else rule["if_after"], path)
        return (decision, result[1]) if result[0] < decision else result
    if kind == "before":
        r, c = stop(rule["rule"], path), stop(rule["competitor"], path)
        if r[1] and not (c[1] and c[0] <= r[0]):
            return r
        return n, False
    if kind == "first_crossing":
        a, fired = stop(rule.get("start", {"type": "deterministic", "time": 0.0}), path)
        if not fired:
            return n, False
        h = direction(rule["direction"], path)
        ref = _dot(h, path, a) if rule.get("relative", True) else 0.0
        level = float(rule.get("level", 0.0))
        strict = rule.get("strict", True)
        for i in range(a, n + 1):
            move = _dot(h, path, i) - ref
            if (move > level) if strict else (move >= level):
                return i, True
        return n, False
    if kind == "wealth_crossing":
        a, fired = stop(rule.get("start", {"type": "deterministic", "time": 0.0}), path)
        if not fired:
            return n, False
        if rule.get("after_start", True):
            a += 1
        if a > n:
            return n, False
        values = wealth(rule["strategy"], path)
        level = float(rule["level"])
        strict = rule.get("strict", False)
        below = rule.get("side", "below") == "below"
        for i in range(a, n + 1):
            v = values[i]
            if below and ((v < level) if strict else (v <= level)):
                return i, True
            if not below and ((v > level) if strict else (v >= level)):
                return i, True
        return n, False
    raise ValueError(f"unknown stopping rule type {kind!r}")


def wealth(strategy: dict, path: RefPath) -> list[float]:
    """Wealth at every grid point; raises ValueError when legs are out of order."""
    legs = []
    prev_exit = 0
    for j, leg in enumerate(strategy.get("legs", [])):
        ia, ib = stop(leg["entry"], path)[0], stop(leg["exit"], path)[0]
        if ib < ia or ia < prev_exit:
            raise ValueError(f"leg {j} out of order: entry {ia}, exit {ib}, previous exit {prev_exit}")
        prev_exit = ib
        phi = [float(leg.get("scale", 1.0)) * h for h in direction(leg["direction"], path)]
        legs.append((ia, ib, phi))
    v0 = float(strategy.get("initial_capital", 0.0))
    out = []
    for t in range(path.steps + 1):
        v = v0
        for ia, ib, phi in legs:
            for hd, row in zip(phi, path.values):
                v += hd * (row[min(t, ib)] - row[min(t, ia)])
        out.append(v)
    return out


def terminal_and_min(strategy: dict, path: RefPath) -> tuple[float, float]:
    values = wealth(strategy, path)
    return values[-1], min(values)


# ------------------------------------------------ certificate constructions

def _crossing(direction_d: dict, level: float, start: dict, strict: bool) -> dict:
    return {"type": "first_crossing", "direction": direction_d, "level": level,
            "start": start, "relative": True, "strict": strict}


def twc_arb_strategy(cert: dict) -> dict:
    """H 1_{(sigma_H, tau_n]}, tau_n = max(sigma_H, min(sigma_{-H}, sigma_{H,1/n}))."""
    sigma, h = cert["sigma"], cert["direction"]
    sigma_h = _crossing(h, 0.0, sigma, True)
    sigma_mh = _crossing({"type": "negate", "inner": h}, 0.0, sigma, True)
    sigma_hn = _crossing(h, 1.0 / int(cert["n"]), sigma, False)
    exit_rule = {"type": "max", "left": sigma_h,
                 "right": {"type": "min", "left": sigma_mh, "right": sigma_hn}}
    return {"legs": [{"entry": sigma_h, "exit": exit_rule, "direction": h, "scale": 1.0}],
            "initial_capital": 0.0}


def obvious_arb_strategy(cert: dict) -> dict:
    """H 1_{(sigma ^ K, tau]}, tau the first epsilon/2 rise after sigma when sigma <= K, else K."""
    sigma, h, horizon = cert["sigma"], cert["direction"], float(cert["horizon"])
    rho = _crossing(h, float(cert["epsilon"]) / 2.0, sigma, True)
    exit_rule = {"type": "switch", "test": sigma, "cutoff": horizon, "if_by": rho,
                 "if_after": {"type": "deterministic", "time": horizon}}
    entry = {"type": "truncate", "rule": sigma, "cutoff": horizon}
    return {"legs": [{"entry": entry, "exit": exit_rule, "direction": h, "scale": 1.0}],
            "initial_capital": 0.0}


def reported_strategies(report: dict, block: dict) -> dict[str, dict]:
    """Strategy dict of every verdict in one grid block of a report."""
    out = {s["name"]: s["strategy"] for s in report["config"]["strategies"]}
    for name, c in block["constructions"].items():
        if "refused" in c:
            continue
        if "strategy" in c:
            out[name] = c["strategy"]
        elif c["kind"] == "twc_arb":
            out[name] = twc_arb_strategy(c["certificate"])
        else:
            out[name] = obvious_arb_strategy(c["certificate"])
    return {name: out[name] for name in block["verdicts"]}
