"""Canonical experiment presets.

Six named configurations cover the laboratory's reference scenarios: the two
textbook arbitrages (bubble collapse, drifted exponential), the two-asset
direction counterexample, and the three mixed no-arbitrage model families
used as negative controls.  Presets are plain config dicts so they validate
against the shipped schema; `preset()` returns the typed config.
"""

from __future__ import annotations

import math

from .constructions import example_strategies
from .harness import ExperimentConfig, config_from_dict

DEFAULT_SEED = 20260808
DEFAULT_PATHS = 10_000

_SQRT_2PI_INV = 1.0 / math.sqrt(2.0 * math.pi)

_DET0 = {"type": "deterministic", "time": 0.0}
_PLUS = {"type": "constant", "components": [1.0]}
_MINUS = {"type": "constant", "components": [-1.0]}


def _long_hold(horizon: float) -> dict:
    return {
        "legs": [{
            "entry": _DET0,
            "exit": {"type": "deterministic", "time": horizon},
            "direction": _PLUS,
            "scale": 1.0,
        }],
        "initial_capital": 0.0,
    }


def _no_arb_constructions(horizon: float) -> list[dict]:
    """The full construction battery run as negative controls on no-arbitrage models."""
    return [
        {"kind": "obvious_arb_from_noa_violation", "name": "obvious_best_effort",
         "best_effort": {"sigma": _DET0, "directions": [_PLUS, _MINUS],
                         "epsilons": [0.05, 0.1], "horizon": horizon}},
        {"kind": "twc_arb", "name": "twc_best_effort",
         "best_effort": {"sigma": _DET0, "directions": [_PLUS, _MINUS], "n": 20}},
        {"kind": "extract_noa_violation", "name": "extract_best_effort",
         "input": "long_hold", "strict": False},
        {"kind": "reduce_to_elementary", "name": "reduce_best_effort",
         "input": "twc_from_zero", "strict": False},
    ]


def _no_arb_diagnostics(horizon: float) -> dict:
    return {
        "noa": [
            {"name": "up_0.05", "sigma": _DET0, "direction": _PLUS, "epsilon": 0.05},
            {"name": "up_0.10", "sigma": _DET0, "direction": _PLUS, "epsilon": 0.10},
            {"name": "down_0.05", "sigma": _DET0, "direction": _MINUS, "epsilon": 0.05},
            {"name": "down_0.10", "sigma": _DET0, "direction": _MINUS, "epsilon": 0.10},
        ],
        "twc": {"sigma": _DET0, "direction": _PLUS,
                "windows": [horizon / 25.0, horizon / 50.0, horizon / 100.0]},
        "qv": {"window": 256, "n_probe": 4, "use_log": True},
        "holder": {"target": "z_component", "n_probe": 4},
        "lil": {"n_probe": 256, "probes": None},
    }


def _no_arb_preset(name: str, model: dict, seed: int, n_paths: int) -> dict:
    horizon = 1.0
    # the reduce control needs a named 0-admissible candidate, so a
    # certificate-built crossing strategy is registered ahead of the
    # best-effort battery
    constructions = [
        {"kind": "twc_arb", "name": "twc_from_zero",
         "certificate": {"sigma": _DET0, "direction": _PLUS, "n": 20, "evidence": {}}},
    ] + _no_arb_constructions(horizon)
    return {
        "name": name,
        "model": model,
        "grid": {"horizon": horizon, "steps": 2**12},
        "n_paths": n_paths,
        "seed": seed,
        "grid_factors": [1, 4],
        "strategies": [{"name": "long_hold", "strategy": _long_hold(horizon)}],
        "constructions": constructions,
        "diagnostics": _no_arb_diagnostics(horizon),
        "wealth_fan": {"strategy": "long_hold", "n_paths": 100},
    }


def _preset_dicts(seed: int, n_paths: int) -> dict[str, dict]:
    eps_bubble = _SQRT_2PI_INV
    ce_meta_dir = {"type": "from_metadata", "key": "U", "transform": "counterexample_2d"}
    diag_sqrt2 = 1.0 / math.sqrt(2.0)
    return {
        "bubble-obvious-arb": {
            "name": "bubble-obvious-arb",
            "model": {"variant": "bubble"},
            "grid": {"horizon": 1.0, "steps": 2**12},
            "n_paths": n_paths,
            "seed": seed,
            "grid_factors": [1],
            "strategies": [{"name": "example_short",
                            "strategy": example_strategies("bubble", horizon=1.0).to_dict()}],
            "constructions": [
                {"kind": "obvious_arb_from_noa_violation", "name": "obvious_arbitrage",
                 "certificate": {"sigma": _DET0, "direction": _MINUS,
                                 "epsilon": eps_bubble, "horizon": 1.0}},
            ],
            "diagnostics": {
                "noa": [{"name": "short_full", "sigma": _DET0, "direction": _MINUS,
                         "epsilon": eps_bubble}],
            },
            "wealth_fan": {"strategy": "example_short", "n_paths": 100},
        },
        "drifted-exp-twc-arb": {
            "name": "drifted-exp-twc-arb",
            "model": {"variant": "drifted_exp", "alpha": 0.25},
            "grid": {"horizon": 0.01, "steps": 2**14},
            "n_paths": n_paths,
            "seed": seed,
            "grid_factors": [1, 4],
            "strategies": [{"name": "example_small_time",
                            "strategy": example_strategies("drifted_exp", cap_count=100).to_dict()}],
            "constructions": [
                {"kind": "twc_arb", "name": "twc_arbitrage",
                 "certificate": {"sigma": _DET0, "direction": _PLUS, "n": 10, "evidence": {}}},
            ],
            "diagnostics": {
                "twc": {"sigma": _DET0, "direction": _PLUS,
                        "windows": [2e-3, 1e-3, 5e-4]},
            },
            "wealth_fan": {"strategy": "twc_arbitrage", "n_paths": 100},
        },
        "counterexample-2d": {
            "name": "counterexample-2d",
            "model": {"variant": "counterexample_2d"},
            "grid": {"horizon": 1.0, "steps": 2**12},
            "n_paths": n_paths,
            "seed": seed,
            "grid_factors": [1],
            "strategies": [],
            "constructions": [
                {"kind": "obvious_arb_from_noa_violation", "name": "metadata_arbitrage",
                 "certificate": {"sigma": _DET0, "direction": ce_meta_dir,
                                 "epsilon": 0.5, "horizon": 1.0}},
            ],
            "diagnostics": {
                "noa": [
                    {"name": "rational_e1", "sigma": _DET0,
                     "direction": {"type": "constant", "components": [1.0, 0.0]}, "epsilon": 0.5},
                    {"name": "rational_e2", "sigma": _DET0,
                     "direction": {"type": "constant", "components": [0.0, 1.0]}, "epsilon": 0.5},
                    {"name": "rational_diag", "sigma": _DET0,
                     "direction": {"type": "constant", "components": [diag_sqrt2, diag_sqrt2]},
                     "epsilon": 0.5},
                    {"name": "metadata", "sigma": _DET0, "direction": ce_meta_dir, "epsilon": 0.5},
                ],
            },
            "wealth_fan": {"strategy": "metadata_arbitrage", "n_paths": 100},
        },
        "mixed-fbs-no-arb": _no_arb_preset(
            "mixed-fbs-no-arb",
            {"variant": "mixed_fbs", "x0": 1.0, "sigma": 0.2, "eta": 0.1,
             "nu": 0.0, "mu": 0.0, "hurst": 0.75},
            seed, n_paths,
        ),
        "mixed-heston-no-arb": _no_arb_preset(
            "mixed-heston-no-arb",
            {"variant": "mixed_heston", "s0": 1.0, "v0": 0.04, "kappa": 1.5,
             "theta": 0.04, "xi": 0.3, "rho": -0.6, "mu": 0.0, "hurst": 0.75, "eta": 1.0},
            seed, n_paths,
        ),
        "local-vol-no-arb": _no_arb_preset(
            "local-vol-no-arb",
            {"variant": "local_vol_mixed", "s0": 1.0, "mu_bar": 0.1, "sigma_bar": 1.25,
             "drift_fn": "long", "vol_fn": "running_max", "z_hurst": 0.75, "z_scale": 1.0},
            seed, n_paths,
        ),
    }


PRESET_NAMES = tuple(sorted(_preset_dicts(DEFAULT_SEED, DEFAULT_PATHS)))


def preset_dict(name: str, seed: int = DEFAULT_SEED, n_paths: int = DEFAULT_PATHS) -> dict:
    table = _preset_dicts(seed, n_paths)
    if name not in table:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(table))}")
    return table[name]


def preset(name: str, seed: int = DEFAULT_SEED, n_paths: int = DEFAULT_PATHS) -> ExperimentConfig:
    """Canonical config for a named scenario; unknown names list the choices."""
    return config_from_dict(preset_dict(name, seed, n_paths))
