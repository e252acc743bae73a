"""arblab: a desk-scale laboratory for simple-arbitrage experiments.

Exact seeded path generators for Brownian, fractional and mixed market
models; an exact evaluator for stopping-time trading strategies; the
constructive procedures linking property violations to concrete arbitrages;
and statistical diagnostics for the no-obvious-arbitrage and two-way-crossing
properties, all orchestrated by a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .grids import TimeGrid, grid_tolerance, make_grid
from .seeds import SeedInfo, component_rng
from .fbm import CirculantEmbeddingError, fbm_covariance
from .models import (
    BrownianParams,
    BubbleParams,
    Counterexample2dParams,
    DriftedExpParams,
    FbmParams,
    LocalVolMixedParams,
    MixedFbsParams,
    MixedHestonParams,
    model_from_dict,
    model_to_dict,
)
from .paths import SamplePath, freeze_after, path_to_csv
from .generators import (
    PathEnsemble,
    gen_brownian,
    gen_bubble,
    gen_counterexample_2d,
    gen_drifted_exp,
    gen_fbm,
    gen_local_vol_mixed,
    gen_mixed_fbs,
    gen_mixed_heston,
    generate_path,
)
from .stopping import (
    Before,
    Constant,
    Deterministic,
    FirstCrossing,
    FromMetadata,
    Max,
    Min,
    Negate,
    Never,
    PathContext,
    StopResult,
    Switch,
    Truncate,
    UnitBasis,
    audit_no_lookahead,
    eval_stopping,
)
from .strategies import (
    ArbitrageVerdict,
    Leg,
    LegOrderingError,
    SimpleStrategy,
    WealthCrossing,
    WealthPath,
    admissibility_level,
    classify_outcomes,
    eval_wealth,
    strategy_from_dict,
)
from .constructions import (
    ExtractionError,
    NoaViolationCertificate,
    TwcViolationCertificate,
    best_effort_noa_certificate,
    best_effort_twc_certificate,
    example_strategies,
    extract_noa_violation,
    obvious_arb_from_noa_violation,
    reduce_to_elementary,
    twc_arb,
)
from .diagnostics import (
    LilReport,
    NoaEstimate,
    QvReport,
    TwcCurve,
    crossing_times,
    estimate_noa,
    holder_estimate,
    lil_scaling,
    realized_qv,
    twc_statistic,
)
from .stats import wilson_interval
