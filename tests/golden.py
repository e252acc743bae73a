"""Golden digests: SHA-256 pins of every preset's canonical report and of
every model's sample paths.

A run is a deterministic function of its config, numpy's bit generators and
pocketfft, so a change to any reported number shows as a changed digest.
The canonical report is the run's report without `wall_time_seconds`,
serialized with `json.dumps(..., sort_keys=True)`.  A path digest covers the
values, kind, seed and metadata (scheme counters such as Heston
`clipped_steps`, and the stored variance or coefficient arrays, which no
report shows) of a few paths per model, generated both one at a time and
through `PathEnsemble`, which batches the recursive schemes.

Regenerate the pins (after a deliberate, explained change of the numbers, or
after a numpy or Python upgrade) from the repository root with

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

PINS = Path(__file__).with_name("golden_digests.json")
N_PATHS = 64
# Path pins: PATH_COUNT paths per model on [0, 1] with PATH_STEPS steps, which
# is not a multiple of the time block of the Heston and local-vol schemes.
PATH_STEPS = 5_000
PATH_COUNT = 8
PATH_SEED = 414121434
REGEN_COMMAND = "PYTHONPATH=src python tests/golden.py"


def canonical_report(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "wall_time_seconds"},
                      sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def preset_report(name: str) -> dict:
    from arblab.harness import run_experiment
    from arblab.presets import preset

    return run_experiment(preset(name, n_paths=N_PATHS), out_dir=None)


def report_digests(report: dict) -> dict:
    """Digest of the whole canonical report plus one per grid factor's result block."""
    return {
        "report": sha256(canonical_report(report)),
        "grids": {str(r["grid"]["factor"]): sha256(json.dumps(r, sort_keys=True))
                  for r in report["results"]},
    }


def path_models() -> dict:
    """One parameter set per model, plus a Heston set that is Feller-valid but clips often."""
    from arblab.models import (
        BrownianParams,
        BubbleParams,
        Counterexample2dParams,
        DriftedExpParams,
        FbmParams,
        LocalVolMixedParams,
        MixedFbsParams,
        MixedHestonParams,
    )

    return {
        "brownian": BrownianParams(dims=2),
        "fbm": FbmParams(hurst=0.7),
        "bubble": BubbleParams(),
        "drifted-exp": DriftedExpParams(alpha=0.3),
        "mixed-fbs": MixedFbsParams(x0=(1.0, 2.0), sigma=((0.2, 0.0), (0.1, 0.3)),
                                    eta=0.1, hurst=0.6),
        "mixed-heston": MixedHestonParams(),
        "mixed-heston-clipping": MixedHestonParams(v0=0.001, kappa=5.0, theta=0.04, xi=0.63),
        "local-vol": LocalVolMixedParams(vol_fn="running_max"),
        "counterexample-2d": Counterexample2dParams(),
    }


def paths_digest(paths) -> str:
    """SHA-256 of each path's kind, seed, values and metadata, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(json.dumps([path.kind, path.seed.to_dict(), path.values.shape]).encode())
        h.update(np.ascontiguousarray(path.values, dtype="<f8").tobytes())
        for key in sorted(path.metadata):
            value = path.metadata[key]
            if isinstance(value, np.ndarray):
                h.update(f"{key}{value.shape}".encode())
                h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
            else:
                h.update(f"{key}={value!r}".encode())
    return h.hexdigest()


def path_digests() -> dict:
    """Per model: the paths from `generate_path` and from `PathEnsemble` iteration.

    The clipping Heston set also pins `store_variance=True`, and the local-vol
    set `store_coeffs=True`, both through the single-path generators.
    """
    from arblab.generators import PathEnsemble, gen_local_vol_mixed, gen_mixed_heston, generate_path
    from arblab.grids import make_grid
    from arblab.seeds import SeedInfo

    grid = make_grid(1.0, PATH_STEPS)
    seeds = [SeedInfo(PATH_SEED, i) for i in range(PATH_COUNT)]
    models = path_models()
    out = {
        name: {
            "generate_path": paths_digest(generate_path(model, grid, s) for s in seeds),
            "ensemble": paths_digest(PathEnsemble(model, grid, PATH_COUNT, PATH_SEED)),
        }
        for name, model in models.items()
    }
    out["mixed-heston-clipping"]["store_variance"] = paths_digest(
        gen_mixed_heston(grid, models["mixed-heston-clipping"], s, store_variance=True) for s in seeds)
    out["local-vol"]["store_coeffs"] = paths_digest(
        gen_local_vol_mixed(grid, models["local-vol"], s, store_coeffs=True) for s in seeds)
    return out


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def main() -> int:
    from arblab.presets import PRESET_NAMES

    pins = {
        "versions": versions(),
        "n_paths": N_PATHS,
        "digests": {name: report_digests(preset_report(name)) for name in PRESET_NAMES},
        "paths": path_digests(),
    }
    PINS.write_text(json.dumps(pins, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {PINS} for numpy {pins['versions']['numpy']}, "
          f"Python {pins['versions']['python']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
