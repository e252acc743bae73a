import dataclasses
import json

import pytest

from arblab.harness import (
    ConfigError,
    config_from_dict,
    emit_plots,
    run_experiment,
    validate_config,
    write_artifacts,
)
from arblab.constructions import (
    TwcViolationCertificate,
    best_effort_noa_certificate,
    best_effort_twc_certificate,
    extract_noa_violation,
    reduce_to_elementary,
    twc_arb,
)
from arblab.generators import PathEnsemble
from arblab.grids import grid_tolerance, make_grid
from arblab.presets import PRESET_NAMES, preset, preset_dict
from arblab.stopping import direction_from_dict, rule_from_dict


def small(name, n_paths=60, steps=256, factors=(1,)):
    d = preset_dict(name, n_paths=n_paths)
    d["grid"]["steps"] = steps
    d["grid_factors"] = list(factors)
    if "lil" in d.get("diagnostics", {}):
        # auto probes need >= 3 decades; drop the block on tiny test grids
        d["diagnostics"] = {k: v for k, v in d["diagnostics"].items() if k != "lil"}
    return config_from_dict(d)


class TestConfigValidation:
    def test_presets_all_validate(self):
        for name in PRESET_NAMES:
            cfg = validate_config(preset_dict(name, n_paths=10))
            assert cfg.name == name
            assert cfg.seed >= 0

    def test_missing_seed_rejected_with_path(self):
        d = preset_dict("bubble-obvious-arb")
        del d["seed"]
        with pytest.raises(ConfigError, match="seed"):
            validate_config(d)

    def test_feller_violation_names_model_field(self):
        d = preset_dict("mixed-heston-no-arb")
        d["model"]["xi"] = 1.0
        with pytest.raises(ConfigError, match="model"):
            validate_config(d)

    def test_schema_rejects_unknown_top_level_field(self):
        d = preset_dict("bubble-obvious-arb")
        d["n_pahts"] = 5
        with pytest.raises(ConfigError):
            validate_config(d)

    def test_unknown_construction_kind(self):
        d = preset_dict("bubble-obvious-arb")
        d["constructions"][0]["kind"] = "teleport"
        with pytest.raises(ConfigError, match="kind"):
            validate_config(d)

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ValueError) as err:
            preset("heston-vanilla")
        assert "bubble-obvious-arb" in str(err.value)

    def test_bad_grid_rejected(self):
        d = preset_dict("bubble-obvious-arb")
        d["grid"]["steps"] = 0
        with pytest.raises(ConfigError, match="grid"):
            validate_config(d)


class TestRunExperiment:
    def test_bubble_preset_small(self):
        report = run_experiment(small("bubble-obvious-arb", n_paths=400, steps=512))
        block = report["results"][0]
        v = block["verdicts"]["example_short"]
        assert v["p_hat_positive"] == 1.0 and v["p_hat_negative"] == 0.0
        oa = block["verdicts"]["obvious_arbitrage"]
        assert oa["min_terminal"] >= 0.199471
        assert block["noa"]["short_full"]["p_hat"] == 0.0
        fan = block["wealth_fan"]
        assert len(fan["paths"]) == 100
        assert len(fan["t"]) == len(fan["paths"][0])

    def test_determinism_modulo_wall_time(self):
        cfg = small("counterexample-2d", n_paths=50)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        a.pop("wall_time_seconds"), b.pop("wall_time_seconds")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_no_arb_preset_produces_all_constructions(self):
        report = run_experiment(small("mixed-fbs-no-arb", n_paths=80, steps=512))
        block = report["results"][0]
        built = {k: v for k, v in block["constructions"].items() if "refused" not in v}
        assert set(built) == {"twc_from_zero", "obvious_best_effort", "twc_best_effort",
                              "extract_best_effort", "reduce_best_effort"}
        for name in built:
            assert not block["verdicts"][name]["empirical_arbitrage"]
        # extract evidence is attached to the certificate echo
        assert "evidence" in block["constructions"]["extract_best_effort"]["certificate"]

    def test_holder_z_component_probes_the_paths_own_cholesky_fbm(self):
        from arblab import FbmParams, SeedInfo, generate_path, holder_estimate, make_grid

        model = FbmParams(hurst=0.75, method="cholesky")
        cfg = config_from_dict({
            "name": "fbm-cholesky-holder",
            "model": {"variant": "fbm", "hurst": 0.75, "method": "cholesky"},
            "grid": {"horizon": 1.0, "steps": 1024},
            "n_paths": 3,
            "seed": 5,
            "diagnostics": {"holder": {"target": "z_component", "n_probe": 3}},
        })
        grid = make_grid(1.0, 1024)
        own = [holder_estimate(generate_path(model, grid, SeedInfo(5, i))) for i in range(3)]
        assert run_experiment(cfg)["results"][0]["holder"]["estimates"] == own

    def test_two_grid_factors_produce_two_blocks(self):
        report = run_experiment(small("drifted-exp-twc-arb", n_paths=50,
                                      steps=512, factors=(1, 2)))
        assert [r["grid"]["steps"] for r in report["results"]] == [512, 1024]


class TestLibraryAgreement:
    """The harness builds each deferred construction as its library function does."""

    @staticmethod
    def _run(d):
        cfg = config_from_dict(d)
        block = run_experiment(cfg)["results"][0]
        grid = make_grid(cfg.horizon, cfg.steps)
        return cfg, block, grid, PathEnsemble(cfg.model, grid, cfg.n_paths, cfg.seed)

    def test_extract_uses_the_configs_neg_threshold(self):
        d = preset_dict("mixed-fbs-no-arb", n_paths=200)
        d["grid"]["steps"] = 512
        d["grid_factors"] = [1]
        d["neg_threshold"] = 0.9
        d["constructions"] = [{"kind": "extract_noa_violation", "name": "extract",
                               "input": "long_hold"}]
        d["diagnostics"] = {}
        cfg, block, _, ens = self._run(d)
        assert block["verdicts"]["long_hold"]["empirical_arbitrage"]
        built = block["constructions"]["extract"]
        assert "refused" not in built
        lib = extract_noa_violation(cfg.strategies[0].strategy, ens, tol=cfg.tol,
                                    neg_threshold=0.9)
        assert built["certificate"]["epsilon"] == lib.epsilon

    def test_deferred_constructions_match_the_library(self):
        cfg, block, grid, ens = self._run(small("mixed-fbs-no-arb", n_paths=40).to_dict())
        built = block["constructions"]
        specs = {c.name: c for c in cfg.constructions}
        named = {s.name: s.strategy for s in cfg.strategies}

        be = specs["obvious_best_effort"].best_effort
        noa = best_effort_noa_certificate(
            ens, rule_from_dict(be["sigma"]), [direction_from_dict(x) for x in be["directions"]],
            be["epsilons"], be["horizon"])
        assert built["obvious_best_effort"]["certificate"] == noa.to_dict()

        be = specs["twc_best_effort"].best_effort
        twc = best_effort_twc_certificate(
            ens, rule_from_dict(be["sigma"]), [direction_from_dict(x) for x in be["directions"]],
            be["n"])
        assert built["twc_best_effort"]["certificate"] == twc.to_dict()

        extract = extract_noa_violation(named["long_hold"], ens, tol=cfg.tol, strict=False,
                                        neg_threshold=cfg.neg_threshold).to_dict()
        got = built["extract_best_effort"]["certificate"]
        for key in ("sigma", "direction", "epsilon", "evidence"):
            assert got[key] == extract[key]

        from_zero = twc_arb(TwcViolationCertificate.from_dict(specs["twc_from_zero"].certificate))
        reduced = reduce_to_elementary(from_zero, ens, strict=False,
                                       admissibility_tol=grid_tolerance(grid),
                                       neg_threshold=cfg.neg_threshold)
        assert built["reduce_best_effort"]["strategy"] == reduced.to_dict()


class TestArtifacts:
    def test_atomic_write_and_plots(self, tmp_path):
        report = run_experiment(small("mixed-fbs-no-arb", n_paths=60, steps=512))
        out = tmp_path / "run"
        files = write_artifacts(report, out)
        names = {p.name for p in files}
        assert "report.json" in names
        assert any(n.startswith("twc_curve") for n in names)
        assert any(n.startswith("wealth_fan") for n in names)
        assert any(n.startswith("noa_estimates") for n in names)
        assert not list(out.glob(".tmp*"))
        loaded = json.loads((out / "report.json").read_text())
        assert loaded["name"] == "mixed-fbs-no-arb"
        twc_csv = next(p for p in files if p.name.startswith("twc_curve"))
        assert twc_csv.read_text().splitlines()[0] == "h,p_hat,ci_lo,ci_hi"

    def test_interrupted_run_leaves_no_report(self, tmp_path, monkeypatch):
        report = run_experiment(small("bubble-obvious-arb", n_paths=30, steps=256))
        out = tmp_path / "run"

        import arblab.harness as hmod
        real = hmod.report_json

        def boom(rep):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(hmod, "report_json", boom)
        with pytest.raises(RuntimeError):
            write_artifacts(report, out)
        assert not (out / "report.json").exists()
        assert not list(out.glob(".tmp*"))
        monkeypatch.setattr(hmod, "report_json", real)
        write_artifacts(report, out)
        assert (out / "report.json").exists()

    def test_emit_plots_skips_missing_blocks(self, tmp_path, capsys):
        report = run_experiment(small("bubble-obvious-arb", n_paths=30, steps=256))
        for block in report["results"]:
            block.pop("twc_curve", None)
            block.pop("wealth_fan", None)
            block.pop("noa", None)
        written = emit_plots(report, tmp_path)
        assert written == []
        assert "notice" in capsys.readouterr().out

    def test_run_experiment_writes_when_out_dir_given(self, tmp_path):
        cfg = small("counterexample-2d", n_paths=30)
        run_experiment(cfg, tmp_path / "ce")
        assert (tmp_path / "ce" / "report.json").exists()


def test_output_dir_resolution_env(tmp_path, monkeypatch):
    from arblab.harness import resolve_output_dir
    cfg = small("bubble-obvious-arb")
    monkeypatch.setenv("ARB_LAB_OUT", str(tmp_path / "envout"))
    assert resolve_output_dir(cfg) == tmp_path / "envout" / "bubble-obvious-arb"
    assert resolve_output_dir(cfg, tmp_path / "cli") == tmp_path / "cli"
    cfg2 = dataclasses.replace(cfg, output_dir=str(tmp_path / "cfg"))
    assert resolve_output_dir(cfg2) == tmp_path / "cfg"
    monkeypatch.delenv("ARB_LAB_OUT")
    assert resolve_output_dir(cfg) is None
