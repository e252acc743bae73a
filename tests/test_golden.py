"""Reproducibility across commits: each preset's report and each model's paths
must match their pinned digests.

A refactor that moves any reported number or path value, even by one ulp, or
a path's metadata (such as the Heston clip count), fails here.  A
deliberate change re-pins with `PYTHONPATH=src python tests/golden.py` and
says why in CHANGES.md.
"""

import json

import pytest

from arblab.presets import PRESET_NAMES

from golden import (
    PINS,
    REGEN_COMMAND,
    path_digests,
    path_models,
    preset_report,
    report_digests,
    versions,
)

PINNED = json.loads(PINS.read_text(encoding="utf-8"))


def test_pins_cover_every_preset():
    assert sorted(PINNED["digests"]) == sorted(PRESET_NAMES)


def test_pins_cover_every_model():
    assert sorted(PINNED["paths"]) == sorted(path_models())


def test_pinned_versions_match():
    pinned, current = PINNED["versions"], versions()
    for lib in ("numpy", "python"):
        assert pinned[lib] == current[lib], (
            f"golden digests were pinned with {lib} {pinned[lib]}, this run uses {lib} "
            f"{current[lib]}; the bits rest on numpy's generators and pocketfft, so "
            f"regenerate the pins with `{REGEN_COMMAND}` and say why in CHANGES.md"
        )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_report_digest(name, monkeypatch):
    monkeypatch.delenv("ARB_LAB_OUT", raising=False)
    pinned, current = PINNED["versions"], versions()
    if pinned != current:
        pytest.skip(f"pins are for {pinned}, this run uses {current}; see test_pinned_versions_match")
    got = report_digests(preset_report(name))
    want = PINNED["digests"][name]
    assert got["grids"] == want["grids"], f"{name}: per-grid digests moved"
    assert got["report"] == want["report"], f"{name}: report digest moved"


@pytest.fixture(scope="module")
def current_path_digests():
    return path_digests()


@pytest.mark.parametrize("name", sorted(path_models()))
def test_path_digest(name, current_path_digests):
    pinned, current = PINNED["versions"], versions()
    if pinned != current:
        pytest.skip(f"pins are for {pinned}, this run uses {current}; see test_pinned_versions_match")
    assert current_path_digests[name] == PINNED["paths"][name], f"{name}: path digests moved"
