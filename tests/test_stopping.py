import numpy as np
import pytest

from arblab import (
    Before,
    Constant,
    Deterministic,
    FirstCrossing,
    FromMetadata,
    Max,
    Min,
    Negate,
    Never,
    SamplePath,
    Switch,
    Truncate,
    UnitBasis,
    audit_no_lookahead,
    eval_stopping,
    gen_brownian,
    gen_bubble,
    make_grid,
)
from arblab.paths import readonly
from arblab.stopping import rule_from_dict

SQRT_2PI_INV = 0.3989422804014327


def _path(grid, series):
    return SamplePath(grid, readonly(np.asarray(series, dtype=float)[None, :].copy()),
                      "log-price")


def test_deterministic_lookup():
    grid = make_grid(1.0, 4)
    p = _path(grid, [0, 1, 2, 3, 4])
    assert eval_stopping(Deterministic(0.5), p).index == 2
    r = eval_stopping(Deterministic(2.0), p)
    assert r.index == 4 and not r.triggered


def test_first_crossing_immediate_step():
    grid = make_grid(1.0, 4)
    p = _path(grid, [1.0, 1.5, 0.5, 0.2, 0.1])
    rule = FirstCrossing(Constant((1.0,)), 0.0, Deterministic(0.0), relative=True, strict=True)
    r = eval_stopping(rule, p)
    assert (r.index, r.triggered) == (1, True)


def test_first_crossing_non_triggering_flagged():
    grid = make_grid(1.0, 4)
    p = _path(grid, [1.0, 0.9, 0.8, 0.7, 0.6])
    rule = FirstCrossing(Constant((1.0,)), 0.0, Deterministic(0.0), relative=True, strict=True)
    r = eval_stopping(rule, p)
    assert (r.index, r.triggered) == (4, False)


def test_strict_versus_level_inclusive():
    grid = make_grid(1.0, 4)
    p = _path(grid, [0.0, 0.1, 0.1, 0.2, 0.0])
    up = Constant((1.0,))
    strict = FirstCrossing(up, 0.1, Deterministic(0.0), relative=True, strict=True)
    inclusive = FirstCrossing(up, 0.1, Deterministic(0.0), relative=True, strict=False)
    assert eval_stopping(strict, p).index == 3
    assert eval_stopping(inclusive, p).index == 1


def test_first_crossing_matches_bruteforce_scan_on_bubble():
    grid = make_grid(1.0, 256)
    level = SQRT_2PI_INV / 2.0
    rule = FirstCrossing(Constant((-1.0,)), -level, Deterministic(0.0),
                         relative=False, strict=True)
    for seed in range(1000):
        p = gen_bubble(grid, seed=seed)
        got = eval_stopping(rule, p)
        # independent linear scan for the first X below the level
        expect = None
        for i, x in enumerate(p.values[0]):
            if x < level:
                expect = i
                break
        assert got.triggered and got.index == expect


def test_min_max_truncate_combinators():
    grid = make_grid(1.0, 10)
    p = _path(grid, np.linspace(0, 1, 11))
    a, b = Deterministic(0.3), Deterministic(0.7)
    assert eval_stopping(Min(a, b), p).index == 3
    assert eval_stopping(Max(a, b), p).index == 7
    assert eval_stopping(Truncate(b, 0.5), p).index == 5
    never = Never()
    r = eval_stopping(Min(a, never), p)
    assert r.index == 3 and r.triggered
    r = eval_stopping(Max(a, never), p)
    assert r.index == 10 and not r.triggered


def test_switch_selects_branch_by_trigger_time():
    grid = make_grid(1.0, 10)
    rising = _path(grid, np.linspace(0, 1, 11))
    flat = _path(grid, np.zeros(11))
    cross = FirstCrossing(Constant((1.0,)), 0.05, Deterministic(0.0), relative=True)
    rule = Switch(cross, 0.5, if_by=Deterministic(0.9), if_after=Deterministic(0.2))
    assert eval_stopping(rule, rising).index == 9   # crossing fires early
    # "no crossing by 0.5" is only known at 0.5, so the early branch time
    # clamps to the decision time
    assert eval_stopping(rule, flat).index == 5
    late = Switch(cross, 0.5, if_by=Deterministic(0.9), if_after=Deterministic(0.8))
    assert eval_stopping(late, flat).index == 8


def test_before_restricts_to_strictly_first():
    grid = make_grid(1.0, 10)
    p = _path(grid, np.linspace(0, 1, 11))
    early, late = Deterministic(0.2), Deterministic(0.6)
    r = eval_stopping(Before(early, late), p)
    assert r.triggered and r.index == 2
    r = eval_stopping(Before(late, early), p)
    assert not r.triggered and r.index == 10
    r = eval_stopping(Before(early, early), p)  # ties do not count as before
    assert not r.triggered


def test_directions_unit_norm():
    grid = make_grid(1.0, 4)
    vals = np.array([[0.0, 1, 2, 3, 4], [1.0, 1, 1, 1, 1]])
    p = SamplePath(grid, readonly(vals.copy()), "log-price", metadata={"U": 0.6})
    for rule in (Constant((3.0, 4.0)), UnitBasis(1),
                 FromMetadata("U", "counterexample_2d"), Negate(Constant((2.0,) ))):
        v = rule.vector(p, 0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    meta = FromMetadata("U", "counterexample_2d").vector(p, 0)
    assert np.allclose(meta, np.array([-0.6, 1.0]) / np.hypot(0.6, 1.0))


def test_metadata_direction_bits_match_linalg_norm():
    # the direct sqrt(v . v) is what np.linalg.norm computes for a 1-D vector
    grid = make_grid(1.0, 4)
    vals = np.zeros((2, 5))
    for u in np.random.default_rng(7).random(200):
        p = SamplePath(grid, readonly(vals.copy()), "log-price", metadata={"U": u})
        raw = np.array([-u, 1.0])
        want = raw / float(np.linalg.norm(raw))
        assert np.array_equal(FromMetadata("U", "counterexample_2d").vector(p, 0), want)


def test_direction_errors():
    with pytest.raises(ValueError):
        Constant((0.0, 0.0))
    with pytest.raises(ValueError):
        FromMetadata("U", "no_such_transform")
    grid = make_grid(1.0, 2)
    p = _path(grid, [0, 1, 2])
    with pytest.raises(KeyError):
        FromMetadata("U").vector(p, 0)
    with pytest.raises(ValueError):
        UnitBasis(3).vector(p, 0)


def test_refinement_monotonicity_of_crossing_indices():
    # the same underlying path seen on a finer grid can only cross earlier
    fine = make_grid(1.0, 512)
    coarse = make_grid(1.0, 128)
    rule_t = Deterministic(0.37)
    for seed in range(50):
        pf = gen_brownian(fine, 1, seed=seed)
        pc = SamplePath(coarse, readonly(pf.values[:, ::4].copy()), "log-price", pf.seed)
        for level in (0.05, 0.2, 0.5):
            rule = FirstCrossing(Constant((1.0,)), level, Deterministic(0.0), relative=True)
            rf, rc = eval_stopping(rule, pf), eval_stopping(rule, pc)
            if rc.triggered:
                assert rf.triggered
                assert fine.times[rf.index] <= coarse.times[rc.index] + 1e-12
        tf, tc = eval_stopping(rule_t, pf), eval_stopping(rule_t, pc)
        assert fine.times[tf.index] <= coarse.times[tc.index] + 1e-12


def test_no_lookahead_audit_on_random_composites(grid64):
    rng = np.random.default_rng(2024)
    up, down = Constant((1.0,)), Constant((-1.0,))
    for seed in range(300):
        p = gen_brownian(grid64, 1, seed=seed)
        lvl = float(rng.uniform(0.01, 0.5))
        c1 = FirstCrossing(up, lvl, Deterministic(0.0), relative=True)
        c2 = FirstCrossing(down, lvl / 2, Deterministic(0.0), relative=True)
        rules = [
            c1, c2, Min(c1, c2), Max(c1, c2), Truncate(c1, 0.5),
            Switch(c1, 0.5, c2, Deterministic(0.75)),
            Before(c1, c2),
            FirstCrossing(up, lvl / 4, start=c2, relative=True),
        ]
        for rule in rules:
            assert audit_no_lookahead(rule, p)


def test_rule_serialization_round_trip():
    c1 = FirstCrossing(Constant((1.0,)), 0.1, Deterministic(0.0), relative=True, strict=False)
    rules = [
        Deterministic(0.25),
        c1,
        Min(c1, Deterministic(0.5)),
        Max(c1, Never()),
        Truncate(c1, 0.75),
        Switch(c1, 0.5, Deterministic(0.9), Deterministic(0.1)),
        Before(c1, Deterministic(0.5)),
        FirstCrossing(Negate(FromMetadata("U", "counterexample_2d")), 0.0,
                      start=c1, relative=False, strict=True),
    ]
    for rule in rules:
        assert rule_from_dict(rule.to_dict()) == rule
    with pytest.raises(ValueError, match="unknown stopping rule"):
        rule_from_dict({"type": "spline"})
