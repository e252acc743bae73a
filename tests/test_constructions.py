import numpy as np
import pytest

from arblab import (
    Constant,
    Deterministic,
    ExtractionError,
    FirstCrossing,
    FromMetadata,
    Leg,
    Min,
    NoaViolationCertificate,
    PathEnsemble,
    SimpleStrategy,
    TwcViolationCertificate,
    audit_no_lookahead,
    best_effort_noa_certificate,
    best_effort_twc_certificate,
    classify_outcomes,
    eval_wealth,
    example_strategies,
    extract_noa_violation,
    gen_bubble,
    gen_counterexample_2d,
    gen_drifted_exp,
    grid_tolerance,
    make_grid,
    obvious_arb_from_noa_violation,
    reduce_to_elementary,
    twc_arb,
)
from arblab.models import BubbleParams, DriftedExpParams, MixedFbsParams

SQRT_2PI_INV = 0.3989422804014327
EXP_BM = MixedFbsParams(x0=1.0, sigma=0.2, eta=0.0, nu=-0.02)  # exponential martingale


def bubble_cert():
    return NoaViolationCertificate(Deterministic(0.0), Constant((-1.0,)),
                                   SQRT_2PI_INV, 1.0)


class TestObviousArbFromNoaViolation:
    def test_bubble_gain_floor_on_every_path(self, grid1k):
        strat = obvious_arb_from_noa_violation(bubble_cert())
        eps_half = SQRT_2PI_INV / 2.0
        exit_rule = strat.legs[0].exit
        for seed in range(400):
            p = gen_bubble(grid1k, seed=seed)
            assert exit_rule.evaluate(p).triggered  # the collapse guarantees the exit
            w = eval_wealth(strat, p)
            assert w.terminal >= eps_half

    def test_counterexample_metadata_direction(self):
        grid = make_grid(1.0, 2**10)
        cert = NoaViolationCertificate(Deterministic(0.0),
                                       FromMetadata("U", "counterexample_2d"), 0.5, 1.0)
        strat = obvious_arb_from_noa_violation(cert)
        floor = 0.25 / np.sqrt(2.0)
        for seed in range(200):
            w = eval_wealth(strat, gen_counterexample_2d(grid, seed=seed))
            assert w.terminal > floor

    def test_no_arbitrage_when_property_holds(self):
        # same construction on a martingale model loses on some paths
        grid = make_grid(1.0, 2**10)
        cert = NoaViolationCertificate(Deterministic(0.0), Constant((-1.0,)), 0.2, 1.0)
        strat = obvious_arb_from_noa_violation(cert)
        v = classify_outcomes(strat, PathEnsemble(EXP_BM, grid, 2000, 3), neg_threshold=0.01)
        assert v.p_hat_negative > 0.0 and v.ci_negative[0] > 0.0
        assert not v.empirical_arbitrage

    def test_wealth_zero_when_entry_never_happens(self, grid1k):
        late = FirstCrossing(Constant((1.0,)), 50.0, Deterministic(0.0), relative=True)
        cert = NoaViolationCertificate(late, Constant((1.0,)), 0.1, 1.0)
        strat = obvious_arb_from_noa_violation(cert)
        w = eval_wealth(strat, gen_bubble(grid1k, seed=5))
        assert np.all(w.values == 0.0)

    def test_constructed_rules_pass_no_lookahead_audit(self, grid1k):
        strat = obvious_arb_from_noa_violation(bubble_cert())
        for seed in range(50):
            p = gen_bubble(grid1k, seed=seed)
            assert audit_no_lookahead(strat.legs[0].entry, p)
            assert audit_no_lookahead(strat.legs[0].exit, p)


class TestTwcArb:
    def test_drifted_exp_is_zero_admissible_arbitrage(self):
        grid = make_grid(0.01, 2**12)
        strat = twc_arb(TwcViolationCertificate(Deterministic(0.0), Constant((1.0,)), 10))
        ens = PathEnsemble(DriftedExpParams(0.25), grid, 2000, 7)
        v = classify_outcomes(strat, ens, neg_threshold=0.01)
        assert v.empirical_arbitrage
        assert v.admissibility_level_hat <= grid_tolerance(grid)
        assert v.ci_positive[0] > 0.9

    def test_exp_brownian_exit_at_down_crossing_loses_overshoot_only(self):
        grid = make_grid(1.0, 2**12)
        cert = TwcViolationCertificate(Deterministic(0.0), Constant((1.0,)), 10)
        strat = twc_arb(cert)
        sigma_h = strat.legs[0].entry
        down = FirstCrossing(Constant((-1.0,)), 0.0, Deterministic(0.0), relative=True)
        up_level = FirstCrossing(Constant((1.0,)), 0.1, Deterministic(0.0),
                                 relative=True, strict=False)
        n_down_exits = 0
        for seed in range(300):
            p = gen_bubble(grid, seed=seed) if False else None
        for p in PathEnsemble(EXP_BM, grid, 300, 11):
            w = eval_wealth(strat, p)
            r_dn, r_up = down.evaluate(p), up_level.evaluate(p)
            entered = sigma_h.evaluate(p)
            if entered.triggered and r_dn.triggered and (
                    not r_up.triggered or r_dn.index < r_up.index):
                n_down_exits += 1
                # gain equals the down overshoot, a few grid increments at most
                assert -0.05 < w.terminal <= 0.0
        assert n_down_exits > 100
        v = classify_outcomes(strat, PathEnsemble(EXP_BM, grid, 2000, 11), neg_threshold=0.01)
        assert not v.empirical_arbitrage

    def test_gain_at_least_level_when_up_exit_strictly_first(self):
        grid = make_grid(0.01, 2**12)
        n = 10
        cert = TwcViolationCertificate(Deterministic(0.0), Constant((1.0,)), n)
        strat = twc_arb(cert)
        entry = strat.legs[0].entry
        down = FirstCrossing(Constant((-1.0,)), 0.0, Deterministic(0.0), relative=True)
        level = FirstCrossing(Constant((1.0,)), 1.0 / n, Deterministic(0.0),
                              relative=True, strict=False)
        checked = 0
        for seed in range(100):
            p = gen_drifted_exp(grid, 0.25, seed=seed)
            r_e, r_l, r_d = entry.evaluate(p), level.evaluate(p), down.evaluate(p)
            if r_l.triggered and r_e.index < r_l.index and (
                    not r_d.triggered or r_l.index < r_d.index):
                w = eval_wealth(strat, p)
                overshoot_entry = p.values[0, r_e.index] - p.values[0, 0]
                assert w.terminal >= 1.0 / n - overshoot_entry - 1e-12
                checked += 1
        assert checked > 10

    def test_position_held_only_while_move_nonnegative(self):
        # interior grid points of the holding interval keep H(X - X_sigma) >= 0
        grid = make_grid(1.0, 2**10)
        strat = twc_arb(TwcViolationCertificate(Deterministic(0.0), Constant((1.0,)), 10))
        entry, exit_rule = strat.legs[0].entry, strat.legs[0].exit
        for p in PathEnsemble(EXP_BM, grid, 200, 13):
            ia, ib = entry.evaluate(p).index, exit_rule.evaluate(p).index
            if ib > ia + 1:
                excess = p.values[0, ia + 1: ib] - p.values[0, 0]
                assert np.all(excess >= 0.0)


class TestExtractNoaViolation:
    def test_short_bubble_yields_certified_violation(self, grid1k):
        short = example_strategies("bubble", horizon=1.0)
        ens = PathEnsemble(BubbleParams(), grid1k, 400, 5)
        cert = extract_noa_violation(short, ens, neg_threshold=0.01)
        # the collapse forces the certified rise on every stopped path
        assert cert.evidence.p_hat <= 1.0 / 400
        assert cert.notes["implication_failures"] == 0
        assert cert.notes["stopped_paths"] > 0
        assert cert.epsilon == pytest.approx(cert.notes["delta"] / cert.notes["bound"])

    def test_zero_admissible_input_is_refused(self):
        grid = make_grid(0.01, 2**10)
        strat = example_strategies("drifted_exp", cap_count=100)
        ens = PathEnsemble(DriftedExpParams(0.25), grid, 400, 9)
        with pytest.raises(ExtractionError, match="0-admissible"):
            extract_noa_violation(strat, ens, neg_threshold=0.01)

    def test_direction_has_unit_norm_on_stopped_paths(self, grid1k):
        short = example_strategies("bubble", horizon=1.0)
        ens = PathEnsemble(BubbleParams(), grid1k, 400, 5)
        cert = extract_noa_violation(short, ens, neg_threshold=0.01)
        for p in list(ens)[:20]:
            stop = cert.sigma.evaluate(p)
            if stop.triggered:
                assert np.linalg.norm(cert.direction.vector(p, stop.index)) == pytest.approx(1.0)

    def test_non_arbitrage_input_refused_in_strict_mode(self):
        grid = make_grid(1.0, 256)
        long_hold = SimpleStrategy((Leg(Deterministic(0.0), Deterministic(1.0),
                                        Constant((1.0,))),))
        ens = PathEnsemble(EXP_BM, grid, 400, 3)
        with pytest.raises(ExtractionError, match="not an empirical arbitrage"):
            extract_noa_violation(long_hold, ens)
        cert = extract_noa_violation(long_hold, ens, strict=False)
        assert cert.evidence is not None  # best-effort still certifies mechanically

    def test_one_shot_iterator_rejected_before_any_path_is_read(self):
        long_hold = SimpleStrategy((Leg(Deterministic(0.0), Deterministic(1.0),
                                        Constant((1.0,))),))
        ens = PathEnsemble(MixedFbsParams(eta=0.1), make_grid(1.0, 64), 50, 3)
        once = iter(ens)
        with pytest.raises(TypeError, match="re-iterable"):
            extract_noa_violation(long_hold, once, strict=False)
        assert len(list(once)) == 50
        with pytest.raises(TypeError, match="re-iterable"):
            extract_noa_violation(long_hold, (p for p in ens), strict=False)
        cert = extract_noa_violation(long_hold, list(ens), strict=False)
        assert cert.evidence.n_paths == 50


class TestReduceToElementary:
    def test_zero_prefix_legs_dropped_exactly(self):
        # zero-position legs precede the gain leg; the gain leg enters at 0,
        # so the prefix legs are instantaneous
        grid = make_grid(0.01, 2**12)
        active = example_strategies("drifted_exp", cap_count=100).legs[0]
        padded = SimpleStrategy((
            Leg(Deterministic(0.0), Deterministic(0.0), Constant((1.0,)), 0.0),
            Leg(Deterministic(0.0), Deterministic(0.0), Constant((1.0,)), 0.0),
            active,
        ))
        ens = PathEnsemble(DriftedExpParams(0.25), grid, 400, 7)
        reduced = reduce_to_elementary(padded, ens, tol=grid_tolerance(grid),
                                       neg_threshold=0.01,
                                       admissibility_tol=grid_tolerance(grid))
        assert reduced.legs == (active,)

    def test_elementary_strategy_is_fixed_point_up_to_unit_scale(self):
        grid = make_grid(0.01, 2**12)
        strat = example_strategies("drifted_exp", cap_count=100).scaled(2.5)
        ens = PathEnsemble(DriftedExpParams(0.25), grid, 400, 9)
        reduced = reduce_to_elementary(strat, ens, tol=grid_tolerance(grid),
                                       neg_threshold=0.01,
                                       admissibility_tol=2.5 * grid_tolerance(grid))
        leg, orig = reduced.legs[0], strat.legs[0]
        assert (leg.entry, leg.exit, leg.direction) == (orig.entry, orig.exit, orig.direction)
        assert leg.scale == 1.0

    def test_concatenation_reduces_to_single_leg_still_arbitrage(self):
        grid = make_grid(0.01, 2**12)
        gain_leg = example_strategies("drifted_exp", cap_count=200).legs[0]
        tail_leg = Leg(Deterministic(0.006), Deterministic(0.008), Constant((1.0,)), 1e-3)
        strat = SimpleStrategy((gain_leg, tail_leg))
        ens = PathEnsemble(DriftedExpParams(0.25), grid, 400, 15)
        reduced = reduce_to_elementary(strat, ens, tol=grid_tolerance(grid),
                                       neg_threshold=0.01,
                                       admissibility_tol=grid_tolerance(grid))
        assert len(reduced.legs) == 1
        assert reduced.legs[0].entry == gain_leg.entry
        v = classify_outcomes(reduced, ens, tol=grid_tolerance(grid), neg_threshold=0.01)
        assert v.empirical_arbitrage

    def test_reduction_soundness_verdict_no_weaker(self):
        grid = make_grid(0.01, 2**12)
        gain_leg = example_strategies("drifted_exp", cap_count=200).legs[0]
        tail_leg = Leg(Deterministic(0.006), Deterministic(0.008), Constant((1.0,)), 1e-3)
        strat = SimpleStrategy((gain_leg, tail_leg))
        ens = PathEnsemble(DriftedExpParams(0.25), grid, 400, 17)
        reduced = reduce_to_elementary(strat, ens, tol=grid_tolerance(grid),
                                       neg_threshold=0.01,
                                       admissibility_tol=grid_tolerance(grid))
        tol = grid_tolerance(grid)
        v_in = classify_outcomes(strat, ens, tol=tol, neg_threshold=0.01)
        v_out = classify_outcomes(reduced, ens, tol=tol, neg_threshold=0.01)
        assert v_out.p_hat_positive >= v_in.p_hat_positive - 1e-12
        assert v_out.admissibility_level_hat <= v_in.admissibility_level_hat + 1e-12


class TestExampleStrategies:
    def test_bubble_literal_form(self):
        strat = example_strategies("bubble", horizon=1.0)
        leg = strat.legs[0]
        assert leg.entry == Deterministic(0.0)
        assert leg.exit == Deterministic(1.0)
        assert leg.direction == Constant((-1.0,)) and leg.scale == 1.0

    def test_drifted_exp_literal_form(self):
        strat = example_strategies("drifted_exp", cap_count=100)
        leg = strat.legs[0]
        assert isinstance(leg.exit, Min)
        assert leg.exit.right == Deterministic(0.01)
        assert isinstance(leg.exit.left, FirstCrossing)

    def test_unknown_tag_lists_known(self):
        with pytest.raises(ValueError, match="bubble"):
            example_strategies("garch")


class TestBestEffortCertificates:
    def test_noa_picks_smallest_quiet_probability(self, grid1k):
        ens = PathEnsemble(BubbleParams(), grid1k, 300, 21)
        cert = best_effort_noa_certificate(
            ens, Deterministic(0.0),
            [Constant((1.0,)), Constant((-1.0,))], [0.1, SQRT_2PI_INV], 1.0)
        # shorting the collapsing price is the certain winner
        assert cert.direction == Constant((-1.0,))
        assert cert.evidence.p_hat == 0.0

    def test_twc_picks_strongest_asymmetry(self):
        grid = make_grid(0.01, 2**10)
        ens = PathEnsemble(DriftedExpParams(0.25), grid, 300, 23)
        cert = best_effort_twc_certificate(
            ens, Deterministic(0.0), [Constant((1.0,)), Constant((-1.0,))], 10)
        assert cert.direction == Constant((1.0,))
        assert cert.evidence["p_up_strictly_first"] > 0.95


def test_certificate_serialization_round_trip(grid1k):
    ens = PathEnsemble(BubbleParams(), grid1k, 400, 5)
    cert = extract_noa_violation(example_strategies("bubble"), ens, neg_threshold=0.01)
    clone = NoaViolationCertificate.from_dict(cert.to_dict())
    assert clone.epsilon == cert.epsilon
    assert clone.sigma == cert.sigma
    assert clone.direction == cert.direction
    assert clone.evidence == cert.evidence
    twc_cert = TwcViolationCertificate(Deterministic(0.0), Constant((1.0,)), 10,
                                       {"p_up_strictly_first": 0.99})
    assert TwcViolationCertificate.from_dict(twc_cert.to_dict()) == twc_cert


def test_all_constructed_rules_pass_no_lookahead_audit():
    # proof fidelity: every construction composes auditable combinators only
    grid = make_grid(0.01, 2**10)
    ens = list(PathEnsemble(DriftedExpParams(0.25), grid, 60, 19))
    twc_strat = twc_arb(TwcViolationCertificate(Deterministic(0.0), Constant((1.0,)), 10))
    bubble_grid = make_grid(1.0, 2**10)
    bubble_paths = [gen_bubble(bubble_grid, seed=s) for s in range(60)]
    oa_strat = obvious_arb_from_noa_violation(bubble_cert())
    cert = extract_noa_violation(example_strategies("bubble"),
                                 PathEnsemble(BubbleParams(), bubble_grid, 400, 5),
                                 neg_threshold=0.01)
    for p in ens:
        for leg in twc_strat.legs:
            assert audit_no_lookahead(leg.entry, p)
            assert audit_no_lookahead(leg.exit, p)
    for p in bubble_paths:
        for leg in oa_strat.legs:
            assert audit_no_lookahead(leg.entry, p)
            assert audit_no_lookahead(leg.exit, p)
        assert audit_no_lookahead(cert.sigma, p)
