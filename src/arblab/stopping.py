"""Executable stopping rules and trading directions.

A StoppingRule maps a path to a grid index plus a triggered flag; rules that
never fire return the horizon index flagged as non-triggering, which mirrors
the usual horizon-truncation devices instead of erroring.  Every rule decides
from past values only: re-evaluating a rule on a path whose future is frozen
at the rule's own output index must return the same result (the no-look-ahead
audit in `audit_no_lookahead`).

Directions are unit row vectors measurable at their anchoring time; the
catalog is closed (constants, basis vectors, metadata-derived values and
negations), which covers every direction the experiments use while keeping
measurability checkable.

A `PathContext` holds what has been evaluated on one path: every rule and
every strategy is evaluated at most once per context, and each direction's
series H . X is computed once.  Crossing scans read that series in windows
that grow geometrically and stop at the first hit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .paths import SamplePath, freeze_after

_TIME_EPS = 1e-9

# Width of a crossing scan's first window; each later window is four times
# wider, so a crossing near the anchor costs a few dozen comparisons and a
# scan to the horizon only a handful of windows.
_FIRST_WINDOW = 64
_WINDOW_GROWTH = 4


@dataclass(frozen=True)
class StopResult:
    index: int
    triggered: bool

    def time(self, grid) -> float:
        return float(grid.times[self.index])


class PathContext:
    """Evaluations on one path during one pass over an ensemble.

    `stop` and `wealth` evaluate each rule and each strategy at most once and
    memoize the answer by object identity; the context keeps a reference to
    every key object, so an id cannot be reused while it lives.  `series`
    computes H . X once per direction vector.  A context is valid for its own
    path only: build a fresh one for every path (a `freeze_after` copy is a
    new path) and drop it when the path is done.
    """

    __slots__ = ("path", "_answers", "_series")

    def __init__(self, path: SamplePath):
        self.path = path
        self._answers: dict = {}
        self._series: dict = {}

    def stop(self, rule: "StoppingRule") -> StopResult:
        """The rule's answer on this path, evaluated on the first request only."""
        hit = self._answers.get(id(rule))
        if hit is None:
            hit = self._answers[id(rule)] = (rule, rule.evaluate(self.path, self))
        return hit[1]

    def wealth(self, strategy):
        """The strategy's `WealthPath` on this path (read-only values)."""
        hit = self._answers.get(id(strategy))
        if hit is None:
            from .strategies import eval_wealth

            hit = self._answers[id(strategy)] = (strategy, eval_wealth(strategy, self.path, self))
        return hit[1]

    def series(self, h: np.ndarray) -> np.ndarray:
        """Read-only H . X_t over the whole grid for the direction vector `h`."""
        key = h.tobytes()
        out = self._series.get(key)
        if out is None:
            out = self._series[key] = h @ self.path.values
            out.flags.writeable = False
        return out


def _context(path: SamplePath, ctx: PathContext | None) -> PathContext:
    return PathContext(path) if ctx is None else ctx


def accumulate(paths, accumulators) -> None:
    """One pass over `paths`: every accumulator's `add(path, ctx)` shares one context per path."""
    for path in paths:
        ctx = PathContext(path)
        for acc in accumulators:
            acc.add(path, ctx)


def _windows(start: int, stop: int):
    """Consecutive [lo, hi) windows tiling [start, stop), growing geometrically."""
    lo, width = start, _FIRST_WINDOW
    while lo < stop:
        hi = min(lo + width, stop)
        yield lo, hi
        lo, width = hi, width * _WINDOW_GROWTH


def _first_beyond(series: np.ndarray, start: int, ref: float, level: float,
                  above: bool = True, strict: bool = True) -> int | None:
    """Smallest i >= start where series[i] - ref lies beyond `level`, else None.

    Beyond means above the level, or below it with `above=False`; `strict`
    excludes the level itself.  Rounding is monotone, so a window holds a hit
    iff its extreme value minus `ref` does; only that window is compared
    elementwise.
    """
    if above:
        beyond = operator.gt if strict else operator.ge
    else:
        beyond = operator.lt if strict else operator.le
    for lo, hi in _windows(start, series.shape[0]):
        w = series[lo:hi]
        if beyond((w.max() if above else w.min()) - ref, level):
            return lo + int(beyond(w - ref, level).argmax())
    return None


def _at_time(grid, time: float) -> StopResult:
    if time > grid.horizon * (1.0 + _TIME_EPS):
        return StopResult(grid.steps, False)
    return StopResult(grid.index_at(time), True)


def _earlier(a: StopResult, b: StopResult) -> StopResult:
    index = min(a.index, b.index)
    triggered = (a.triggered and a.index <= b.index) or (b.triggered and b.index <= a.index)
    return StopResult(index, triggered)


class StoppingRule:
    """Base class; subclasses implement evaluate(path, ctx=None) -> StopResult.

    Sub-rules are resolved through `ctx`, the path's `PathContext`; without
    one a rule evaluates on a context of its own.
    """

    def evaluate(self, path: SamplePath, ctx: PathContext | None = None) -> StopResult:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class DirectionRule:
    """Base class; subclasses implement vector(path, at_index) -> unit (D,) array."""

    def vector(self, path: SamplePath, at_index: int) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


def _normalized(vec) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(vec, dtype=float))
    norm = float(np.sqrt(arr.dot(arr)))
    if not np.isfinite(norm) or norm <= 0.0:
        raise ValueError("direction vector must have positive finite norm")
    out = arr / norm
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Constant(DirectionRule):
    """Fixed direction, normalized to unit length at construction."""

    components: tuple

    def __post_init__(self):
        comps = self.components
        if np.isscalar(comps):
            comps = (float(comps),)
        unit = _normalized(comps)
        object.__setattr__(self, "components", tuple(float(c) for c in unit))

    def vector(self, path, at_index):
        return np.asarray(self.components)

    def to_dict(self):
        return {"type": "constant", "components": list(self.components)}


@dataclass(frozen=True)
class UnitBasis(DirectionRule):
    axis: int = 0

    def vector(self, path, at_index):
        if not 0 <= self.axis < path.dims:
            raise ValueError(f"axis {self.axis} outside path dimension {path.dims}")
        e = np.zeros(path.dims)
        e[self.axis] = 1.0
        return e

    def to_dict(self):
        return {"type": "unit_basis", "axis": self.axis}


def _counterexample_direction(u: float) -> np.ndarray:
    return np.array([-u, 1.0])


# Named transforms from a metadata value to a direction vector (normalized
# afterwards).  Metadata is drawn at time 0, so these stay measurable at any
# anchoring time.
METADATA_TRANSFORMS = {
    "unit": lambda value: np.atleast_1d(np.asarray(value, dtype=float)),
    "counterexample_2d": _counterexample_direction,
}


@dataclass(frozen=True)
class FromMetadata(DirectionRule):
    """Direction computed from a per-path metadata entry through a named transform."""

    key: str
    transform: str = "unit"

    def __post_init__(self):
        if self.transform not in METADATA_TRANSFORMS:
            raise ValueError(
                f"unknown metadata transform {self.transform!r}; known: {sorted(METADATA_TRANSFORMS)}"
            )

    def vector(self, path, at_index):
        if self.key not in path.metadata:
            raise KeyError(f"path metadata has no entry {self.key!r}")
        raw = METADATA_TRANSFORMS[self.transform](path.metadata[self.key])
        return _normalized(raw)

    def to_dict(self):
        return {"type": "from_metadata", "key": self.key, "transform": self.transform}


@dataclass(frozen=True)
class Negate(DirectionRule):
    inner: DirectionRule

    def vector(self, path, at_index):
        return -self.inner.vector(path, at_index)

    def to_dict(self):
        return {"type": "negate", "inner": self.inner.to_dict()}


@dataclass(frozen=True)
class Deterministic(StoppingRule):
    """Stop at a fixed calendar time (the matching grid index)."""

    time: float

    def evaluate(self, path, ctx=None):
        return _at_time(path.grid, self.time)

    def to_dict(self):
        return {"type": "deterministic", "time": self.time}


@dataclass(frozen=True)
class FirstCrossing(StoppingRule):
    """First index at or after the anchor where H . X (relative to the anchor value) crosses `level`.

    `strict` chooses the comparison: '>' (the plain crossing time) or '>='
    (the level-1/n approximants, written with '>=').  With `relative` the
    series is H (X_t - X_anchor); otherwise H X_t against the absolute level.
    A never-firing crossing returns the horizon index flagged non-triggering.
    """

    direction: DirectionRule
    level: float = 0.0
    start: StoppingRule = field(default_factory=lambda: Deterministic(0.0))
    relative: bool = True
    strict: bool = True

    def evaluate(self, path, ctx=None):
        ctx = _context(path, ctx)
        anchor = ctx.stop(self.start)
        n = path.grid.steps
        if not anchor.triggered:
            return StopResult(n, False)
        a = anchor.index
        series = ctx.series(self.direction.vector(path, a))
        ref = series[a] if self.relative else 0.0
        j = _first_beyond(series, a, ref, self.level, strict=self.strict)
        if j is None:
            return StopResult(n, False)
        return StopResult(j, True)

    def to_dict(self):
        return {
            "type": "first_crossing",
            "direction": self.direction.to_dict(),
            "level": self.level,
            "start": self.start.to_dict(),
            "relative": self.relative,
            "strict": self.strict,
        }


@dataclass(frozen=True)
class Min(StoppingRule):
    left: StoppingRule
    right: StoppingRule

    def evaluate(self, path, ctx=None):
        ctx = _context(path, ctx)
        return _earlier(ctx.stop(self.left), ctx.stop(self.right))

    def to_dict(self):
        return {"type": "min", "left": self.left.to_dict(), "right": self.right.to_dict()}


@dataclass(frozen=True)
class Max(StoppingRule):
    left: StoppingRule
    right: StoppingRule

    def evaluate(self, path, ctx=None):
        ctx = _context(path, ctx)
        a = ctx.stop(self.left)
        b = ctx.stop(self.right)
        return StopResult(max(a.index, b.index), a.triggered and b.triggered)

    def to_dict(self):
        return {"type": "max", "left": self.left.to_dict(), "right": self.right.to_dict()}


@dataclass(frozen=True)
class Truncate(StoppingRule):
    """rule wedge cutoff: stop at the rule or at the fixed time, whichever is first."""

    rule: StoppingRule
    cutoff: float

    def evaluate(self, path, ctx=None):
        ctx = _context(path, ctx)
        return _earlier(ctx.stop(self.rule), _at_time(path.grid, self.cutoff))

    def to_dict(self):
        return {"type": "truncate", "rule": self.rule.to_dict(), "cutoff": self.cutoff}


@dataclass(frozen=True)
class Switch(StoppingRule):
    """`if_by` when `test` has triggered by time `cutoff`, else `if_after`.

    The branch event is decidable at the earlier of the test's trigger and the
    cutoff; the composite's output is clamped to that decision time so it
    remains a stopping rule under arbitrary composition (for the canonical
    truncation devices the clamp never binds, because the chosen branch starts
    at or after the test).
    """

    test: StoppingRule
    cutoff: float
    if_by: StoppingRule
    if_after: StoppingRule

    def evaluate(self, path, ctx=None):
        ctx = _context(path, ctx)
        t = ctx.stop(self.test)
        grid = path.grid
        cutoff_idx = grid.index_at(self.cutoff)
        by = t.triggered and t.time(grid) <= self.cutoff * (1.0 + _TIME_EPS)
        decision_idx = t.index if by else cutoff_idx
        branch = self.if_by if by else self.if_after
        result = ctx.stop(branch)
        if result.index < decision_idx:
            return StopResult(decision_idx, result.triggered)
        return result

    def to_dict(self):
        return {
            "type": "switch",
            "test": self.test.to_dict(),
            "cutoff": self.cutoff,
            "if_by": self.if_by.to_dict(),
            "if_after": self.if_after.to_dict(),
        }


@dataclass(frozen=True)
class Before(StoppingRule):
    """`rule` restricted to the event that it fires strictly before `competitor`.

    Off the event the result is the horizon index flagged non-triggering,
    realizing set-valued times of the form "rho on A, infinity off A".  The
    decision uses only information up to rule's index: the competitor only
    matters through whether it has already fired by then.
    """

    rule: StoppingRule
    competitor: StoppingRule

    def evaluate(self, path, ctx=None):
        ctx = _context(path, ctx)
        r = ctx.stop(self.rule)
        c = ctx.stop(self.competitor)
        if r.triggered and not (c.triggered and c.index <= r.index):
            return r
        return StopResult(path.grid.steps, False)

    def to_dict(self):
        return {"type": "before", "rule": self.rule.to_dict(), "competitor": self.competitor.to_dict()}


@dataclass(frozen=True)
class Never(StoppingRule):
    """Rule that never fires (horizon index, non-triggering)."""

    def evaluate(self, path, ctx=None):
        return StopResult(path.grid.steps, False)

    def to_dict(self):
        return {"type": "never"}


def eval_stopping(rule: StoppingRule, path: SamplePath) -> StopResult:
    """Evaluate a stopping rule on a path (module-level convenience)."""
    return rule.evaluate(path)


def audit_no_lookahead(rule: StoppingRule, path: SamplePath) -> bool:
    """True iff the rule's answer is unchanged on the path frozen at its own output index.

    Each evaluation runs on a context of its own: the frozen copy is a new path.
    """
    first = rule.evaluate(path)
    frozen = freeze_after(path, first.index)
    second = rule.evaluate(frozen)
    return first == second


def direction_from_dict(d: dict) -> DirectionRule:
    kind = d.get("type")
    if kind == "constant":
        return Constant(tuple(d["components"]))
    if kind == "unit_basis":
        return UnitBasis(int(d["axis"]))
    if kind == "from_metadata":
        return FromMetadata(d["key"], d.get("transform", "unit"))
    if kind == "negate":
        return Negate(direction_from_dict(d["inner"]))
    raise ValueError(f"unknown direction type {kind!r}")


def rule_from_dict(d: dict) -> StoppingRule:
    kind = d.get("type")
    if kind == "deterministic":
        return Deterministic(float(d["time"]))
    if kind == "first_crossing":
        return FirstCrossing(
            direction_from_dict(d["direction"]),
            float(d.get("level", 0.0)),
            rule_from_dict(d["start"]) if "start" in d else Deterministic(0.0),
            bool(d.get("relative", True)),
            bool(d.get("strict", True)),
        )
    if kind == "min":
        return Min(rule_from_dict(d["left"]), rule_from_dict(d["right"]))
    if kind == "max":
        return Max(rule_from_dict(d["left"]), rule_from_dict(d["right"]))
    if kind == "truncate":
        return Truncate(rule_from_dict(d["rule"]), float(d["cutoff"]))
    if kind == "switch":
        return Switch(rule_from_dict(d["test"]), float(d["cutoff"]),
                      rule_from_dict(d["if_by"]), rule_from_dict(d["if_after"]))
    if kind == "before":
        return Before(rule_from_dict(d["rule"]), rule_from_dict(d["competitor"]))
    if kind == "never":
        return Never()
    if kind == "wealth_crossing":
        from .strategies import WealthCrossing, strategy_from_dict
        return WealthCrossing(
            strategy_from_dict(d["strategy"]),
            float(d["level"]),
            rule_from_dict(d["start"]) if "start" in d else Deterministic(0.0),
            d.get("side", "below"),
            bool(d.get("strict", False)),
            bool(d.get("after_start", True)),
        )
    raise ValueError(f"unknown stopping rule type {kind!r}")
