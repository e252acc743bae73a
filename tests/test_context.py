"""The per-path evaluation context: memoized rules and wealth, windowed crossing scans.

Every answer read through a `PathContext` must equal a fresh evaluation, the
windowed scans must equal full-length scans, and sliced wealth must equal the
gather-based telescoping sum it replaced.
"""

from collections import Counter

import numpy as np
import pytest

from arblab import (
    Before,
    Constant,
    Deterministic,
    FirstCrossing,
    FromMetadata,
    Leg,
    Max,
    Min,
    Negate,
    Never,
    SamplePath,
    SimpleStrategy,
    Switch,
    Truncate,
    UnitBasis,
    WealthCrossing,
    audit_no_lookahead,
    eval_wealth,
    gen_brownian,
    gen_counterexample_2d,
    make_grid,
)
from arblab.diagnostics import NoaAccumulator, TwcAccumulator, crossing_times
from arblab.harness import config_from_dict, run_experiment
from arblab.paths import readonly
from arblab.presets import preset_dict
from arblab.stopping import PathContext, StoppingRule, StopResult, _first_beyond, _windows
from arblab.strategies import VerdictAccumulator, terminal_wealth_direct

DET0 = Deterministic(0.0)
UP = Constant((1.0,))
DOWN = Constant((-1.0,))


def _path(grid, series):
    return SamplePath(grid, readonly(np.asarray(series, dtype=float)[None, :].copy()),
                      "log-price")


def _full_scan(series, start, ref, level, above=True, strict=True):
    """Reference: one elementwise comparison over the whole tail."""
    excess = series[start:] - ref
    if above:
        hits = excess > level if strict else excess >= level
    else:
        hits = excess < level if strict else excess <= level
    if hits.size == 0 or not hits.any():
        return None
    return start + int(np.argmax(hits))


def _rules_1d(horizon):
    up = FirstCrossing(UP, 0.0, DET0, relative=True, strict=True)
    down = FirstCrossing(Negate(UP), 0.0, DET0, relative=True, strict=True)
    hold = SimpleStrategy((Leg(DET0, Deterministic(horizon), UP, 1.0),), 0.0)
    return [
        Deterministic(0.0),
        Deterministic(0.3 * horizon),
        Deterministic(2.0 * horizon),
        up,
        down,
        FirstCrossing(UP, 0.05, DET0, relative=True, strict=False),
        FirstCrossing(UP, 0.0, DET0, relative=False, strict=True),
        FirstCrossing(UP, 0.0, DET0, relative=False, strict=False),
        FirstCrossing(DOWN, 0.02, up, relative=True, strict=True),
        Min(up, down),
        Max(up, down),
        Max(up, Min(down, FirstCrossing(UP, 0.1, DET0, strict=False))),
        Truncate(up, 0.5 * horizon),
        Truncate(FirstCrossing(UP, 10.0, DET0), 0.25 * horizon),
        Switch(up, 0.1 * horizon, if_by=down, if_after=Deterministic(horizon)),
        Switch(Never(), 0.1 * horizon, if_by=down, if_after=Deterministic(0.5 * horizon)),
        Before(up, down),
        Before(down, up),
        Never(),
        WealthCrossing(hold, -0.05, DET0, side="below", strict=False),
        WealthCrossing(hold, 0.05, up, side="above", strict=True, after_start=False),
    ]


class TestMemoizedEqualsFresh:
    def test_every_rule_type_one_asset(self):
        grid = make_grid(1.0, 2**10)
        rules = _rules_1d(grid.horizon)
        for k in range(20):
            path = gen_brownian(grid, 1, k)
            ctx = PathContext(path)
            # evaluate everything through one context, in both orders
            shared = [ctx.stop(r) for r in rules] + [ctx.stop(r) for r in reversed(rules)]
            fresh = [r.evaluate(path) for r in rules]
            assert shared[:len(rules)] == fresh
            assert shared[len(rules):] == fresh[::-1]

    def test_first_crossing_metadata_direction_two_assets(self):
        grid = make_grid(1.0, 2**10)
        meta = FromMetadata("U", "counterexample_2d")
        rules = [
            FirstCrossing(meta, 0.25, DET0, relative=True, strict=True),
            FirstCrossing(meta, 0.25, DET0, relative=True, strict=False),
            FirstCrossing(Negate(meta), 0.0, DET0, relative=False, strict=True),
            FirstCrossing(UnitBasis(1), 0.1, DET0),
        ]
        for k in range(20):
            path = gen_counterexample_2d(grid, k)
            ctx = PathContext(path)
            for r in rules:
                assert ctx.stop(r) == r.evaluate(path)
                # the fresh answer also matches a full-length scan of H . X
                anchor = r.start.evaluate(path).index
                series = r.direction.vector(path, anchor) @ path.values
                ref = series[anchor] if r.relative else 0.0
                j = _full_scan(series, anchor, ref, r.level, strict=r.strict)
                assert r.evaluate(path) == (StopResult(grid.steps, False) if j is None
                                            else StopResult(j, True))

    def test_shared_context_series_cache_is_read_only(self):
        path = gen_brownian(make_grid(1.0, 64), 1, 3)
        s = PathContext(path).series(np.array([1.0]))
        with pytest.raises(ValueError):
            s[0] = 1.0


class _Counting(StoppingRule):
    """Wraps a rule and counts its evaluations per path."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def evaluate(self, path, ctx=None):
        self.calls[path.seed] += 1
        return self.inner.evaluate(path, ctx)


def test_counting_rule_evaluated_once_per_path():
    grid = make_grid(1.0, 2**9)
    sigma = _Counting(DET0)
    up = _Counting(FirstCrossing(UP, 0.0, sigma))
    down = FirstCrossing(Negate(UP), 0.0, sigma)
    strategy = SimpleStrategy((Leg(up, Max(up, Min(down, Truncate(up, 0.5))), UP, 1.0),), 0.0)
    verdict = VerdictAccumulator(strategy)
    noa = NoaAccumulator(sigma, UP, 0.05)
    twc = TwcAccumulator(sigma, UP, (0.1,), grid.dt)
    paths = [gen_brownian(grid, 1, k) for k in range(10)]
    for path in paths:
        ctx = PathContext(path)
        verdict.add(path, ctx)
        verdict.add(path, ctx)
        noa.add(path, ctx)
        twc.add(path, ctx)
        WealthCrossing(strategy, -0.01, sigma).evaluate(path, ctx)
    assert set(sigma.calls.values()) == {1} and len(sigma.calls) == len(paths)
    assert set(up.calls.values()) == {1} and len(up.calls) == len(paths)


def test_harness_evaluates_each_rule_once_per_path_and_pass(monkeypatch):
    """Every (rule object, path, grid, pass) is evaluated at most once in a full battery run."""
    import arblab.generators as generators
    import arblab.stopping as stopping
    import arblab.strategies as strategies

    seen = Counter()
    wealth = Counter()
    pass_no = [0]
    original_iter = generators.PathEnsemble.__iter__

    def counting_iter(ensemble):
        pass_no[0] += 1
        return original_iter(ensemble)

    monkeypatch.setattr(generators.PathEnsemble, "__iter__", counting_iter)
    rule_types = [stopping.Deterministic, stopping.FirstCrossing, stopping.Min, stopping.Max,
                  stopping.Truncate, stopping.Switch, stopping.Before, stopping.Never,
                  strategies.WealthCrossing]
    for cls in rule_types:
        def counted(self, path, ctx=None, _orig=cls.evaluate):
            seen[(id(self), path.seed, path.grid.steps, pass_no[0])] += 1
            return _orig(self, path, ctx)
        monkeypatch.setattr(cls, "evaluate", counted)
    original_wealth = strategies.eval_wealth

    def counted_wealth(strategy, path, ctx=None):
        wealth[(id(strategy), path.seed, path.grid.steps, pass_no[0])] += 1
        return original_wealth(strategy, path, ctx)

    monkeypatch.setattr(strategies, "eval_wealth", counted_wealth)

    d = preset_dict("mixed-fbs-no-arb", n_paths=12)
    d["grid"]["steps"] = 256
    d["grid_factors"] = [1, 2]
    d["diagnostics"] = {k: v for k, v in d["diagnostics"].items() if k != "lil"}
    run_experiment(config_from_dict(d), out_dir=None)
    assert pass_no[0] == 4  # two passes per grid
    assert seen and max(seen.values()) == 1
    assert wealth and max(wealth.values()) == 1


class TestWindowedScan:
    def _boundaries(self, n):
        """Offsets where a new window starts, for a scan of n points."""
        return [hi for _, hi in _windows(0, n)][:-1]

    def test_windows_tile_the_range(self):
        for start, stop in [(0, 1), (0, 64), (0, 65), (5, 4097), (100, 65537), (7, 7), (9, 7)]:
            spans = list(_windows(start, stop))
            covered = [i for lo, hi in spans for i in range(lo, hi)]
            assert covered == list(range(start, stop))

    @pytest.mark.parametrize("start", [0, 1, 63, 64, 1000])
    def test_first_hit_at_every_window_boundary(self, start):
        n = 2**14 + 1
        positions = {start, start + 1, n - 1}
        for b in self._boundaries(n - start):
            positions.update({start + b - 1, start + b, start + b + 1})
        for pos in sorted(p for p in positions if start <= p < n):
            series = np.zeros(n)
            series[pos] = 1.0
            series[pos + 1:] = 2.0
            for above, strict, level in [(True, True, 0.5), (True, False, 1.0),
                                         (False, True, -0.5), (False, False, -1.0)]:
                s = series if above else -series
                got = _first_beyond(s, start, 0.0, level, above, strict)
                assert got == pos == _full_scan(s, start, 0.0, level, above, strict)

    def test_ties_at_the_level_follow_strictness(self):
        series = np.array([0.0, 0.25, 0.5, 0.5, 1.0])
        assert _first_beyond(series, 0, 0.0, 0.5, strict=True) == 4
        assert _first_beyond(series, 0, 0.0, 0.5, strict=False) == 2
        assert _first_beyond(series, 1, 0.25, 0.25, strict=False) == 2
        assert _first_beyond(-series, 0, 0.0, -0.5, above=False, strict=True) == 4
        assert _first_beyond(-series, 0, 0.0, -0.5, above=False, strict=False) == 2

    def test_hit_at_index_zero_never_and_at_horizon(self):
        n = 4097
        ones, zeros = np.ones(n), np.zeros(n)
        assert _first_beyond(ones, 0, 0.0, 0.0) == 0
        assert _first_beyond(zeros, 0, 0.0, 0.0) is None
        assert _first_beyond(ones, n - 1, 0.0, 0.0) == n - 1 == _full_scan(ones, n - 1, 0.0, 0.0)
        assert _first_beyond(zeros, n - 1, 0.0, 0.0) is None
        assert _first_beyond(ones, n, 0.0, 0.0) is None

    def test_first_crossing_matches_full_scan_at_boundaries(self):
        n = 2**12
        grid = make_grid(1.0, n)
        rule = FirstCrossing(UP, 0.5, DET0, relative=True, strict=True)
        for pos in [0, 1, 63, 64, 65, 319, 320, 321, 1343, 1344, 1345, n - 1, n]:
            vals = np.zeros(n + 1)
            vals[pos:] = 1.0
            r = rule.evaluate(_path(grid, vals))
            if pos == 0:
                assert r == StopResult(n, False)  # relative to X_0 = 1 it never rises
            else:
                assert r == StopResult(pos, True)
        # anchored at the horizon: only the last value is scanned
        at_end = FirstCrossing(UP, 0.5, Deterministic(1.0), relative=False)
        vals = np.zeros(n + 1)
        vals[-1] = 1.0
        assert at_end.evaluate(_path(grid, vals)) == StopResult(n, True)
        assert at_end.evaluate(_path(grid, np.zeros(n + 1))) == StopResult(n, False)

    def test_crossing_times_and_noa_match_full_scans(self):
        grid = make_grid(1.0, 2**12)
        for k in range(30):
            path = gen_brownian(grid, 1, k)
            for sigma_index in (0, 17, 2**11, 2**12):
                series = path.values[0, sigma_index:]
                excess = series - series[0]
                ct = crossing_times(path, sigma_index, UP)
                up = np.flatnonzero(excess > 0.0)
                down = np.flatnonzero(excess < 0.0)
                assert ct.up_triggered == bool(up.size)
                assert ct.down_triggered == bool(down.size)
                assert ct.up_index == (sigma_index + up[0] if up.size else grid.steps)
                assert ct.down_index == (sigma_index + down[0] if down.size else grid.steps)
            for eps in (0.01, 0.3, 5.0):
                acc = NoaAccumulator(DET0, UP, eps)
                acc.add(path)
                excess = path.values[0] - path.values[0, 0]
                assert acc.n_quiet == int(excess.max() < eps)
                assert acc.n_quiet_mirror == int((-excess).max() < eps)


def _gather_wealth(strategy, path):
    """Reference: the gather form of the telescoping sum over the whole grid."""
    n = path.grid.steps
    v = np.full(n + 1, float(strategy.initial_capital))
    idx = np.arange(n + 1)
    for leg in strategy.legs:
        ia = leg.entry.evaluate(path).index
        ib = leg.exit.evaluate(path).index
        if ia == ib or leg.scale == 0.0:
            continue
        phi = leg.scale * leg.direction.vector(path, ia)
        v += phi @ (path.values[:, np.minimum(idx, ib)] - path.values[:, np.minimum(idx, ia)])
    return v


def _strategies(dims):
    h = UP if dims == 1 else FromMetadata("U", "counterexample_2d")
    up = FirstCrossing(h, 0.0, DET0)
    rise = FirstCrossing(h, 0.05, DET0, strict=False)
    return [
        SimpleStrategy((Leg(DET0, Deterministic(1.0), h, 1.0),), 0.0),
        SimpleStrategy((Leg(up, Max(up, Min(FirstCrossing(Negate(h), 0.0, DET0), rise)), h),), 0.0),
        # zero-length first leg, then two legs back to back
        SimpleStrategy((
            Leg(DET0, DET0, h, 3.0),
            Leg(DET0, Truncate(rise, 0.25), h, -0.5),
            Leg(Truncate(rise, 0.25), Deterministic(0.5), Negate(h), 2.0),
            Leg(Deterministic(0.5), Deterministic(0.5), h, 1.0),
            Leg(Deterministic(0.75), Deterministic(1.0), h, 0.0),
        ), 1.5),
        SimpleStrategy((Leg(Deterministic(0.9), Never(), h, 1.0),), -0.25),
    ]


class TestSlicedWealth:
    def test_one_asset_bit_identical_to_gather(self):
        grid = make_grid(1.0, 2**10)
        for k in range(25):
            path = gen_brownian(grid, 1, k)
            for strategy in _strategies(1):
                w = eval_wealth(strategy, path)
                assert np.array_equal(w.values, _gather_wealth(strategy, path))
                assert w.terminal == pytest.approx(terminal_wealth_direct(strategy, path),
                                                   rel=1e-12, abs=1e-12)

    def test_two_assets_match_gather_to_rounding(self):
        grid = make_grid(1.0, 2**10)
        for k in range(25):
            path = gen_counterexample_2d(grid, k)
            for strategy in _strategies(2):
                w = eval_wealth(strategy, path)
                np.testing.assert_allclose(w.values, _gather_wealth(strategy, path),
                                           rtol=1e-14, atol=1e-14)
                assert w.terminal == pytest.approx(terminal_wealth_direct(strategy, path),
                                                   rel=1e-12, abs=1e-12)

    def test_context_serves_one_wealth_path_per_strategy(self):
        path = gen_brownian(make_grid(1.0, 256), 1, 4)
        strategy = _strategies(1)[1]
        ctx = PathContext(path)
        first = ctx.wealth(strategy)
        assert ctx.wealth(strategy) is first
        assert not first.values.flags.writeable
        assert np.array_equal(first.values, eval_wealth(strategy, path).values)


def test_audit_no_lookahead_with_fresh_context_per_path():
    grid = make_grid(1.0, 2**9)
    for k in range(10):
        path = gen_brownian(grid, 1, k)
        for rule in _rules_1d(grid.horizon):
            assert audit_no_lookahead(rule, path)
        counting = _Counting(FirstCrossing(UP, 0.02, DET0))
        assert audit_no_lookahead(counting, path)
        # the frozen copy is a new path and is evaluated on its own context
        assert sum(counting.calls.values()) == 2
