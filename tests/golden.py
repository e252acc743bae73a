"""Golden report digests: SHA-256 pins of every preset's canonical report.

A run is a deterministic function of its config, numpy's bit generators and
pocketfft, so a change to any reported number shows as a changed digest.
The canonical report is the run's report without `wall_time_seconds`,
serialized with `json.dumps(..., sort_keys=True)`.

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


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def main() -> int:
    from arblab.presets import PRESET_NAMES

    pins = {
        "versions": versions(),
        "n_paths": N_PATHS,
        "digests": {name: report_digests(preset_report(name)) for name in PRESET_NAMES},
    }
    PINS.write_text(json.dumps(pins, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {PINS} for numpy {pins['versions']['numpy']}, "
          f"Python {pins['versions']['python']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
