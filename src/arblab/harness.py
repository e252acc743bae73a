"""Experiment configuration, orchestration and reporting.

A run is fully determined by its config (model, grid, ensemble size, root
seed, strategies, constructions, diagnostics): rerunning the echoed config
reproduces every number.  Reports are JSON, series are CSV, and all artifacts
are written through a temp directory with atomic renames, the report last, so
interrupted runs never leave a partial report behind.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .constructions import (
    ExtractionError,
    ExtractScan,
    NoaViolationCertificate,
    ReduceScan,
    TwcViolationCertificate,
    obvious_arb_from_noa_violation,
    twc_arb,
)
from .diagnostics import (
    NoaAccumulator,
    TwcAccumulator,
    crossing_times,
    holder_estimate,
    lil_scaling,
    realized_qv,
)
from .generators import PathEnsemble, gen_brownian, gen_fbm
from .grids import grid_tolerance, make_grid
from .models import (
    FbmParams,
    LocalVolMixedParams,
    MixedFbsParams,
    MixedHestonParams,
    ModelParams,
    model_from_dict,
    model_to_dict,
)
from .paths import LOG_PRICE, SamplePath, readonly
from .seeds import SeedInfo
from .stats import wilson_interval
from .stopping import (
    DirectionRule,
    PathContext,
    StoppingRule,
    direction_from_dict,
    rule_from_dict,
)
from .strategies import SimpleStrategy, VerdictAccumulator, strategy_from_dict


class ConfigError(ValueError):
    """Configuration rejected; `path` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# --------------------------------------------------------------------------
# config model

@dataclass(frozen=True)
class NamedStrategy:
    name: str
    strategy: SimpleStrategy


@dataclass(frozen=True)
class NoaSpec:
    name: str
    sigma: StoppingRule
    direction: DirectionRule
    epsilon: float


@dataclass(frozen=True)
class TwcSpec:
    sigma: StoppingRule
    direction: DirectionRule
    windows: tuple[float, ...]


@dataclass(frozen=True)
class QvSpec:
    window: int = 256
    n_probe: int = 4
    use_log: bool = True


@dataclass(frozen=True)
class HolderSpec:
    target: str = "z_component"  # z_component | log_path | path
    n_probe: int = 4


@dataclass(frozen=True)
class LilSpec:
    n_probe: int = 512
    probes: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ConstructionSpec:
    kind: str
    name: str
    certificate: dict | None = None
    best_effort: dict | None = None
    input: str | None = None
    strict: bool = True


@dataclass(frozen=True)
class DiagnosticsSpec:
    noa: tuple[NoaSpec, ...] = ()
    twc: TwcSpec | None = None
    qv: QvSpec | None = None
    holder: HolderSpec | None = None
    lil: LilSpec | None = None


@dataclass(frozen=True)
class WealthFanSpec:
    strategy: str
    n_paths: int = 100


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    model: ModelParams
    horizon: float
    steps: int
    n_paths: int
    seed: int
    grid_factors: tuple[int, ...] = (1,)
    tol: float = 1e-12
    neg_threshold: float = 1e-3
    strategies: tuple[NamedStrategy, ...] = ()
    constructions: tuple[ConstructionSpec, ...] = ()
    diagnostics: DiagnosticsSpec = field(default_factory=DiagnosticsSpec)
    wealth_fan: WealthFanSpec | None = None
    output_dir: str | None = None

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "model": model_to_dict(self.model),
            "grid": {"horizon": self.horizon, "steps": self.steps},
            "n_paths": self.n_paths,
            "seed": self.seed,
            "grid_factors": list(self.grid_factors),
            "tol": self.tol,
            "neg_threshold": self.neg_threshold,
            "strategies": [
                {"name": s.name, "strategy": s.strategy.to_dict()} for s in self.strategies
            ],
            "constructions": [
                {k: v for k, v in {
                    "kind": c.kind, "name": c.name, "certificate": c.certificate,
                    "best_effort": c.best_effort, "input": c.input, "strict": c.strict,
                }.items() if v is not None}
                for c in self.constructions
            ],
            "diagnostics": {
                "noa": [
                    {"name": s.name, "sigma": s.sigma.to_dict(),
                     "direction": s.direction.to_dict(), "epsilon": s.epsilon}
                    for s in self.diagnostics.noa
                ],
            },
            "wealth_fan": (
                {"strategy": self.wealth_fan.strategy, "n_paths": self.wealth_fan.n_paths}
                if self.wealth_fan else None
            ),
            "output_dir": self.output_dir,
        }
        if self.diagnostics.twc:
            d["diagnostics"]["twc"] = {
                "sigma": self.diagnostics.twc.sigma.to_dict(),
                "direction": self.diagnostics.twc.direction.to_dict(),
                "windows": list(self.diagnostics.twc.windows),
            }
        if self.diagnostics.qv:
            d["diagnostics"]["qv"] = {
                "window": self.diagnostics.qv.window,
                "n_probe": self.diagnostics.qv.n_probe,
                "use_log": self.diagnostics.qv.use_log,
            }
        if self.diagnostics.holder:
            d["diagnostics"]["holder"] = {
                "target": self.diagnostics.holder.target,
                "n_probe": self.diagnostics.holder.n_probe,
            }
        if self.diagnostics.lil:
            d["diagnostics"]["lil"] = {
                "n_probe": self.diagnostics.lil.n_probe,
                "probes": list(self.diagnostics.lil.probes) if self.diagnostics.lil.probes else None,
            }
        return d


def _parse(path: str, fn, *args):
    try:
        return fn(*args)
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


_CONSTRUCTION_KINDS = (
    "obvious_arb_from_noa_violation",
    "twc_arb",
    "extract_noa_violation",
    "reduce_to_elementary",
)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Typed parse of a config dict; raises ConfigError naming the failing field."""
    if not isinstance(d, dict):
        raise ConfigError("$", "config must be a JSON object")
    for key in ("name", "model", "grid", "n_paths", "seed"):
        if key not in d:
            raise ConfigError(key, "required field missing (root seed and grid are mandatory)")
    model = _parse("model", model_from_dict, d["model"])
    grid_d = d["grid"]
    horizon = _parse("grid.horizon", float, grid_d.get("horizon"))
    steps = _parse("grid.steps", int, grid_d.get("steps"))
    _parse("grid", make_grid, horizon, steps)
    n_paths = _parse("n_paths", int, d["n_paths"])
    if n_paths < 1:
        raise ConfigError("n_paths", "must be >= 1")
    seed = _parse("seed", int, d["seed"])
    if seed < 0:
        raise ConfigError("seed", "must be a nonnegative integer")
    factors = tuple(int(f) for f in d.get("grid_factors", [1]))
    if any(f < 1 for f in factors):
        raise ConfigError("grid_factors", "factors must be positive integers")

    strategies = []
    for i, sd in enumerate(d.get("strategies", [])):
        name = _parse(f"strategies[{i}].name", str, sd.get("name"))
        strat = _parse(f"strategies[{i}].strategy", strategy_from_dict, sd.get("strategy", {}))
        strategies.append(NamedStrategy(name, strat))

    constructions = []
    for i, cd in enumerate(d.get("constructions", [])):
        kind = cd.get("kind")
        if kind not in _CONSTRUCTION_KINDS:
            raise ConfigError(f"constructions[{i}].kind",
                              f"unknown kind {kind!r}; known: {list(_CONSTRUCTION_KINDS)}")
        name = cd.get("name") or f"{kind}_{i}"
        spec = ConstructionSpec(
            kind=kind, name=name,
            certificate=cd.get("certificate"),
            best_effort=cd.get("best_effort"),
            input=cd.get("input"),
            strict=bool(cd.get("strict", True)),
        )
        if kind in ("obvious_arb_from_noa_violation", "twc_arb"):
            if (spec.certificate is None) == (spec.best_effort is None):
                raise ConfigError(f"constructions[{i}]",
                                  "provide exactly one of 'certificate' or 'best_effort'")
            if spec.certificate is not None:
                parser = (NoaViolationCertificate.from_dict if kind.startswith("obvious")
                          else TwcViolationCertificate.from_dict)
                _parse(f"constructions[{i}].certificate", parser, spec.certificate)
        else:
            if spec.input is None:
                raise ConfigError(f"constructions[{i}].input",
                                  "extract/reduce need an 'input' strategy or construction name")
        constructions.append(spec)

    diag_d = d.get("diagnostics", {}) or {}
    noa_specs = []
    for i, nd in enumerate(diag_d.get("noa", [])):
        noa_specs.append(NoaSpec(
            name=nd.get("name", f"noa_{i}"),
            sigma=_parse(f"diagnostics.noa[{i}].sigma", rule_from_dict, nd["sigma"]),
            direction=_parse(f"diagnostics.noa[{i}].direction", direction_from_dict, nd["direction"]),
            epsilon=_parse(f"diagnostics.noa[{i}].epsilon", float, nd["epsilon"]),
        ))
    twc_spec = None
    if diag_d.get("twc"):
        td = diag_d["twc"]
        twc_spec = TwcSpec(
            sigma=_parse("diagnostics.twc.sigma", rule_from_dict, td["sigma"]),
            direction=_parse("diagnostics.twc.direction", direction_from_dict, td["direction"]),
            windows=tuple(float(h) for h in td["windows"]),
        )
    qv_spec = None
    if diag_d.get("qv"):
        qd = diag_d["qv"]
        qv_spec = QvSpec(int(qd.get("window", 256)), int(qd.get("n_probe", 4)),
                         bool(qd.get("use_log", True)))
    holder_spec = None
    if diag_d.get("holder"):
        hd = diag_d["holder"]
        target = hd.get("target", "z_component")
        if target not in ("z_component", "log_path", "path"):
            raise ConfigError("diagnostics.holder.target", f"unknown target {target!r}")
        holder_spec = HolderSpec(target, int(hd.get("n_probe", 4)))
    lil_spec = None
    if diag_d.get("lil"):
        ld = diag_d["lil"]
        probes = tuple(float(p) for p in ld["probes"]) if ld.get("probes") else None
        lil_spec = LilSpec(int(ld.get("n_probe", 512)), probes)

    fan = None
    if d.get("wealth_fan"):
        fd = d["wealth_fan"]
        fan = WealthFanSpec(_parse("wealth_fan.strategy", str, fd.get("strategy")),
                            int(fd.get("n_paths", 100)))

    return ExperimentConfig(
        name=str(d["name"]),
        model=model,
        horizon=horizon,
        steps=steps,
        n_paths=n_paths,
        seed=seed,
        grid_factors=factors,
        tol=float(d.get("tol", 1e-12)),
        neg_threshold=float(d.get("neg_threshold", 1e-3)),
        strategies=tuple(strategies),
        constructions=tuple(constructions),
        diagnostics=DiagnosticsSpec(tuple(noa_specs), twc_spec, qv_spec, holder_spec, lil_spec),
        wealth_fan=fan,
        output_dir=d.get("output_dir"),
    )


def validate_config(d: dict) -> ExperimentConfig:
    """Schema validation (when jsonschema is available) followed by the typed parse."""
    try:
        import jsonschema
    except ImportError:
        jsonschema = None
    if jsonschema is not None:
        schema = load_schema("experiment_config")
        validator = jsonschema.Draft202012Validator(schema)
        errors = sorted(validator.iter_errors(d), key=lambda e: list(e.absolute_path))
        if errors:
            err = errors[0]
            where = ".".join(str(p) for p in err.absolute_path) or "$"
            raise ConfigError(where, err.message)
    return config_from_dict(d)


def load_schema(name: str) -> dict:
    schema_path = Path(__file__).parent / "schemas" / f"{name}.schema.json"
    with open(schema_path, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# model-aware component regeneration for diagnostics

def _mixing_component(model: ModelParams) -> tuple[float, str] | None:
    """(Hurst index, fBm sampling method) of the model's fractional component Z, if any."""
    if isinstance(model, (MixedFbsParams, MixedHestonParams)):
        return model.hurst, "circulant"
    if isinstance(model, LocalVolMixedParams):
        return model.z_hurst, "circulant"
    if isinstance(model, FbmParams):
        return model.hurst, model.method
    return None


def _log_path(path: SamplePath) -> SamplePath:
    if path.kind == LOG_PRICE:
        return path
    return SamplePath(path.grid, readonly(np.log(np.asarray(path.values))),
                      LOG_PRICE, path.seed, dict(path.metadata))


# --------------------------------------------------------------------------
# run orchestration

def _decimation_indices(steps: int, max_points: int = 256) -> np.ndarray:
    if steps <= max_points:
        return np.arange(steps + 1)
    return np.unique(np.linspace(0, steps, max_points + 1).round().astype(int))


def _run_grid(config: ExperimentConfig, factor: int) -> dict:
    grid = make_grid(config.horizon, config.steps * factor)
    ensemble = PathEnsemble(config.model, grid, config.n_paths, config.seed)
    notices: list[str] = []
    diag = config.diagnostics

    named: dict[str, SimpleStrategy] = {s.name: s.strategy for s in config.strategies}
    verdict_accs: dict[str, VerdictAccumulator] = {
        s.name: VerdictAccumulator(config.tol, config.neg_threshold) for s in config.strategies
    }
    construction_blocks: dict[str, dict] = {}

    # constructions with explicit certificates are known upfront (pass 1);
    # best-effort and extract/reduce constructions need pass-1 statistics.
    deferred: list[ConstructionSpec] = []
    extract_scans: dict[str, ExtractScan] = {}
    reduce_scans: dict[str, ReduceScan] = {}
    for spec in config.constructions:
        if spec.kind == "obvious_arb_from_noa_violation" and spec.certificate is not None:
            cert = NoaViolationCertificate.from_dict(spec.certificate)
            strat = obvious_arb_from_noa_violation(cert)
            named[spec.name] = strat
            verdict_accs[spec.name] = VerdictAccumulator(config.tol, config.neg_threshold)
            construction_blocks[spec.name] = {"kind": spec.kind, "certificate": cert.to_dict()}
        elif spec.kind == "twc_arb" and spec.certificate is not None:
            cert = TwcViolationCertificate.from_dict(spec.certificate)
            strat = twc_arb(cert)
            named[spec.name] = strat
            verdict_accs[spec.name] = VerdictAccumulator(config.tol, config.neg_threshold)
            construction_blocks[spec.name] = {"kind": spec.kind, "certificate": cert.to_dict()}
        else:
            deferred.append(spec)
            if spec.kind in ("extract_noa_violation", "reduce_to_elementary"):
                if spec.input not in named:
                    raise ConfigError(
                        f"constructions.{spec.name}.input",
                        f"references unknown strategy {spec.input!r} "
                        "(must be a named strategy or an earlier certificate construction)",
                    )
                if spec.kind == "extract_noa_violation":
                    extract_scans[spec.name] = ExtractScan(named[spec.input], config.tol)
                else:
                    reduce_scans[spec.name] = ReduceScan(named[spec.input])

    noa_accs = [
        (s, NoaAccumulator(s.sigma, s.direction, s.epsilon)) for s in diag.noa
    ]
    best_effort_noa_accs: dict[str, list] = {}
    best_effort_twc_counts: dict[str, list] = {}
    for spec in deferred:
        if spec.kind == "obvious_arb_from_noa_violation":
            be = spec.best_effort
            sigma = rule_from_dict(be["sigma"])
            dirs = [direction_from_dict(x) for x in be["directions"]]
            eps = [float(e) for e in be["epsilons"]]
            best_effort_noa_accs[spec.name] = [
                (dd, ee, NoaAccumulator(sigma, dd, ee), sigma, float(be.get("horizon", config.horizon)))
                for dd in dirs for ee in eps
            ]
        elif spec.kind == "twc_arb":
            be = spec.best_effort
            sigma = rule_from_dict(be["sigma"])
            dirs = [direction_from_dict(x) for x in be["directions"]]
            best_effort_twc_counts[spec.name] = [sigma, dirs, [[0, 0] for _ in dirs], int(be.get("n", 20))]

    twc_acc = None
    if diag.twc:
        twc_acc = TwcAccumulator(diag.twc.sigma, diag.twc.direction, diag.twc.windows, grid.dt)

    fan_values = []
    fan_spec = config.wealth_fan
    dec_idx = _decimation_indices(grid.steps)

    qv_results = []
    holder_results = []

    # ------------------------------------------------ pass 1
    # one PathContext per path and pass: every rule and strategy is evaluated
    # once per path, and the context is dropped with the path
    for i, path in enumerate(ensemble):
        ctx = PathContext(path)
        for name, acc in verdict_accs.items():
            acc.add_path(named[name], path, ctx)
        for _, acc in noa_accs:
            acc.add(path, ctx)
        for rows in best_effort_noa_accs.values():
            for _, _, acc, _, _ in rows:
                acc.add(path, ctx)
        for sigma, dirs, counts, _ in best_effort_twc_counts.values():
            stop = ctx.stop(sigma)
            if stop.triggered:
                for k, dd in enumerate(dirs):
                    ct = crossing_times(path, stop.index, dd, ctx)
                    if ct.up_triggered or ct.down_triggered:
                        counts[k][1] += 1
                        if ct.up_triggered and (not ct.down_triggered or ct.up_index < ct.down_index):
                            counts[k][0] += 1
        for scan in extract_scans.values():
            scan.add(path, ctx)
        for scan in reduce_scans.values():
            scan.add(path, ctx)
        if twc_acc is not None:
            twc_acc.add(path, ctx)
        if fan_spec and i < fan_spec.n_paths and fan_spec.strategy in named:
            fan_values.append(ctx.wealth(named[fan_spec.strategy]).values[dec_idx])
        if diag.qv and i < diag.qv.n_probe:
            target = _log_path(path) if diag.qv.use_log else path
            qv_results.append(realized_qv(target, diag.qv.window))
        if diag.holder and i < diag.holder.n_probe:
            if diag.holder.target == "z_component":
                mixing = _mixing_component(config.model)
                if mixing is None:
                    notices.append("holder: model has no mixing component; block skipped")
                else:
                    z_path = gen_fbm(grid, mixing[0], SeedInfo(config.seed, i), mixing[1])
                    holder_results.append(holder_estimate(z_path))
            elif diag.holder.target == "log_path":
                holder_results.append(holder_estimate(_log_path(path)))
            else:
                holder_results.append(holder_estimate(path))

    # ------------------------------------------------ build deferred constructions
    pass2_accs: dict[str, VerdictAccumulator] = {}
    pass2_strategies: dict[str, SimpleStrategy] = {}
    extract_evidence: dict[str, NoaAccumulator] = {}
    for spec in deferred:
        try:
            if spec.kind == "obvious_arb_from_noa_violation":
                rows = best_effort_noa_accs[spec.name]
                results = [(dd, ee, acc.finalize(), sigma, hor) for dd, ee, acc, sigma, hor in rows]
                dd, ee, est, sigma, hor = min(results, key=lambda r: (r[2].p_hat, r[1]))
                cert = NoaViolationCertificate(sigma, dd, ee, hor, est,
                                               notes={"candidates": len(results)})
                strat = obvious_arb_from_noa_violation(cert)
            elif spec.kind == "twc_arb":
                sigma, dirs, counts, n_level = best_effort_twc_counts[spec.name]
                best = max(range(len(dirs)),
                           key=lambda k: counts[k][0] / counts[k][1] if counts[k][1] else 0.0)
                first, cond = counts[best]
                cert = TwcViolationCertificate(sigma, dirs[best], n_level, {
                    "p_up_strictly_first": first / cond if cond else 0.0,
                    "wilson_ci": list(wilson_interval(first, cond)) if cond else [0.0, 1.0],
                    "n_conditioning": cond,
                })
                strat = twc_arb(cert)
            elif spec.kind == "extract_noa_violation":
                cert = extract_scans[spec.name].certificate(strict=spec.strict)
                extract_evidence[spec.name] = NoaAccumulator(cert.sigma, cert.direction, cert.epsilon)
                strat = obvious_arb_from_noa_violation(cert)
            else:  # reduce_to_elementary
                eps_grid = grid_tolerance(grid)
                strat = reduce_scans[spec.name].reduced(spec.strict, admissibility_tol=eps_grid)
                cert = None
        except ExtractionError as exc:
            notices.append(f"construction {spec.name}: {exc}")
            construction_blocks[spec.name] = {"kind": spec.kind, "refused": str(exc)}
            continue
        block = {"kind": spec.kind, "strategy": strat.to_dict()}
        if cert is not None:
            block["certificate"] = cert.to_dict()
        if spec.input:
            block["input"] = spec.input
        construction_blocks[spec.name] = block
        pass2_strategies[spec.name] = strat
        pass2_accs[spec.name] = VerdictAccumulator(config.tol, config.neg_threshold)

    # ------------------------------------------------ pass 2 (only if needed)
    if pass2_accs or extract_evidence:
        for path in ensemble:
            ctx = PathContext(path)
            for name, acc in pass2_accs.items():
                acc.add_path(pass2_strategies[name], path, ctx)
            for acc in extract_evidence.values():
                acc.add(path, ctx)

    # ------------------------------------------------ assemble the block
    verdicts = {name: acc.finalize().to_dict() for name, acc in verdict_accs.items()}
    for name, acc in pass2_accs.items():
        verdicts[name] = acc.finalize().to_dict()
    for name, acc in extract_evidence.items():
        block = construction_blocks[name]
        cert_d = block.get("certificate")
        if cert_d is not None:
            cert_d["evidence"] = acc.finalize().to_dict()

    result: dict = {
        "grid": {"horizon": grid.horizon, "steps": grid.steps, "factor": factor,
                 "dt": grid.dt, "grid_tolerance": grid_tolerance(grid)},
        "verdicts": verdicts,
        "constructions": construction_blocks,
        "notices": notices,
    }
    if noa_accs:
        result["noa"] = {s.name: acc.finalize().to_dict() for s, acc in noa_accs}
    if twc_acc is not None:
        result["twc_curve"] = twc_acc.finalize().to_dict()
    if qv_results:
        result["qv"] = {
            "window": diag.qv.window,
            "global_slope_min_eigs": [r.global_slope_min_eig for r in qv_results],
            "epsilon_hats": [r.epsilon_hat for r in qv_results],
            "median_global_slope": float(np.median([r.global_slope_min_eig for r in qv_results])),
        }
    if holder_results:
        result["holder"] = {
            "target": diag.holder.target,
            "estimates": holder_results,
            "median": float(np.median(holder_results)),
        }
    if diag.lil:
        probes = diag.lil.probes
        if probes is None:
            k_min = int(np.ceil(np.log2(grid.dt)))
            probes = tuple(2.0**k for k in range(k_min, -1))
        try:
            lil_paths = (gen_brownian(grid, 1, SeedInfo(config.seed, i))
                         for i in range(min(diag.lil.n_probe, config.n_paths)))
            result["lil"] = lil_scaling(lil_paths, probes).to_dict()
        except ValueError as exc:
            notices.append(f"lil: {exc}")
    if fan_values:
        result["wealth_fan"] = {
            "strategy": fan_spec.strategy,
            "t": [float(grid.times[j]) for j in dec_idx],
            "paths": [[float(v) for v in row] for row in fan_values],
        }
    elif fan_spec:
        notices.append(f"wealth_fan: strategy {fan_spec.strategy!r} not found; block skipped")
    return result


def run_experiment(config: ExperimentConfig, out_dir: str | os.PathLike | None = None) -> dict:
    """Execute a config over all its grid factors and persist report + CSV artifacts.

    Returns the report dict.  Artifacts are staged in a temp directory inside
    the output directory and moved into place one atomic rename at a time,
    report.json last; a crash mid-run leaves no report behind.
    """
    start = time.perf_counter()
    results = [_run_grid(config, f) for f in config.grid_factors]
    report = {
        "name": config.name,
        "config": config.to_dict(),
        "software_version": __version__,
        "grids": [r["grid"] for r in results],
        "results": results,
        "wall_time_seconds": time.perf_counter() - start,
    }
    target = resolve_output_dir(config, out_dir)
    if target is not None:
        write_artifacts(report, target)
    return report


def resolve_output_dir(config: ExperimentConfig, out_dir=None) -> Path | None:
    """CLI flag wins, then config, then the ARB_LAB_OUT environment variable."""
    if out_dir is not None:
        return Path(out_dir)
    if config.output_dir:
        return Path(config.output_dir)
    env = os.environ.get("ARB_LAB_OUT")
    if env:
        return Path(env) / config.name
    return None


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def write_artifacts(report: dict, out_dir: str | os.PathLike) -> list[Path]:
    """Write report.json plus plot-ready CSVs atomically; returns the final paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / f".tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    written: list[Path] = []
    try:
        staged: list[tuple[Path, Path]] = []
        for name, text in _plot_files(report):
            p = tmp / name
            p.write_text(text, encoding="utf-8")
            staged.append((p, out / name))
        p = tmp / "report.json"
        p.write_text(report_json(report), encoding="utf-8")
        staged.append((p, out / "report.json"))  # report last: its presence marks completeness
        for src, dst in staged:
            os.replace(src, dst)
            written.append(dst)
    finally:
        for leftover in tmp.glob("*"):
            leftover.unlink()
        tmp.rmdir()
    return written


def _plot_files(report: dict) -> list[tuple[str, str]]:
    files = []
    for result in report.get("results", []):
        steps = result["grid"]["steps"]
        curve = result.get("twc_curve")
        if curve:
            rows = ["h,p_hat,ci_lo,ci_hi"]
            for h, p, ci in zip(curve["windows"], curve["estimates"], curve["cis"]):
                rows.append(f"{h!r},{p!r},{ci[0]!r},{ci[1]!r}")
            files.append((f"twc_curve_N{steps}.csv", "\n".join(rows) + "\n"))
        fan = result.get("wealth_fan")
        if fan:
            n_cols = len(fan["paths"])
            header = "t," + ",".join(f"path_{k + 1}" for k in range(n_cols))
            rows = [header]
            for r_i, t in enumerate(fan["t"]):
                rows.append(",".join([repr(t)] + [repr(fan["paths"][k][r_i]) for k in range(n_cols)]))
            files.append((f"wealth_fan_N{steps}.csv", "\n".join(rows) + "\n"))
        noa = result.get("noa")
        if noa:
            rows = ["name,epsilon,p_hat,ci_lo,ci_hi,mirrored_p_hat"]
            for name, est in sorted(noa.items()):
                rows.append(
                    f"{name},{est['epsilon']!r},{est['p_hat']!r},"
                    f"{est['wilson_ci'][0]!r},{est['wilson_ci'][1]!r},{est['mirrored_p_hat']!r}"
                )
            files.append((f"noa_estimates_N{steps}.csv", "\n".join(rows) + "\n"))
    return files


def emit_plots(report: dict, out_dir: str | os.PathLike) -> list[Path]:
    """Write the plot-ready CSV series derivable from a report; notices for missing blocks."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = _plot_files(report)
    if not files:
        print("notice: report contains no plottable blocks (twc_curve, wealth_fan, noa)")
    written = []
    for name, text in files:
        tmp = out / f".tmp-{os.getpid()}-{name}"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out / name)
        written.append(out / name)
    return written
