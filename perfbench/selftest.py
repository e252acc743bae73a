"""Self-tests for the benchmark's output checks.

From the repository root:

    python3 perfbench/selftest.py

Runs every workload once at a reduced path count and requires all of its
checks to hold.  Then, for each check, it corrupts a copy of the report (or
of the probe rows) the way a broken program would, and requires that check
to fail.  Finally it runs one workload twice and requires the two reports to
be bit-identical apart from the timing field, and a changed number to be
caught.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arblab.harness import run_experiment, validate_config  # noqa: E402
from arblab.presets import preset_dict  # noqa: E402

import checks  # noqa: E402
from run import WORKLOADS, canonical  # noqa: E402

SEED = 20260808
PATHS = {"drifted-exp-twc": 100, "mixed-fbs-battery": 100, "mixed-heston-battery": 100,
         "counterexample-2d-wide": 500}


def flip_largest_library_terminal(report, rows):
    r = max(rows, key=lambda r: abs(r.library[0]))
    r.library = (-r.library[0], r.library[1])


def flip_fan_terminal(report, rows):
    fan = report["results"][0]["wealth_fan"]
    k = max(range(checks.PROBE_PATHS), key=lambda k: abs(fan["paths"][k][-1]))
    fan["paths"][k][-1] = -fan["paths"][k][-1]


def empty_verdict_range(report, rows):
    r = max(rows, key=lambda r: abs(r.reference[0]))
    v = report["results"][r.grid_index]["verdicts"][r.strategy]
    v["max_terminal"] = v["min_terminal"] - 1.0


def loss_beyond_overshoot(report, rows):
    block = report["results"][-1]
    bound = checks.twc_overshoot_bound(report["config"]["model"]["alpha"], block["grid"]["dt"], 0.1)
    v = block["verdicts"]["twc_arbitrage"]
    v["p_hat_negative"] = 1.0 / v["n_paths"]
    v["min_terminal"] = v["min_running"] = -2.0 * bound
    v["admissibility_level_hat"] = 2.0 * bound


def terminal_below_level(report, rows):
    v = report["results"][0]["verdicts"]["twc_arbitrage"]
    v["min_terminal"] = -v["admissibility_level_hat"] - 1e-3


def widest_window_below_narrowest(report, rows):
    curve = report["results"][0]["twc_curve"]
    est = curve["estimates"]
    wide = curve["windows"].index(max(curve["windows"]))
    narrow = curve["windows"].index(min(curve["windows"]))
    est[wide] = est[narrow] - 1.0 / max(curve["n_conditioning"], 1)


def flag_a_construction(report, rows):
    report["results"][0]["verdicts"]["twc_best_effort"]["empirical_arbitrage"] = True


def make_a_construction_win(report, rows):
    v = report["results"][1]["verdicts"]["obvious_best_effort"]
    v.update(p_hat_negative=0.0, ci_negative=[0.0, 0.01], min_terminal=0.01, max_terminal=0.5)


def swap_noa_epsilons(report, rows):
    noa = report["results"][0]["noa"]
    a, b = noa["up_0.05"], noa["up_0.10"]
    assert a["p_hat"] != b["p_hat"], "corruption needs two distinct estimates"
    a["p_hat"], b["p_hat"] = b["p_hat"], a["p_hat"]


def move_one_mirrored_path(report, rows):
    est = report["results"][1]["noa"]["down_0.10"]
    est["p_hat"] += 1.0 / est["n_paths"]


def long_hold_off_half(report, rows):
    v = report["results"][0]["verdicts"]["long_hold"]
    v["p_hat_positive"] = 0.5 + 5.0 * (0.25 / v["n_paths"]) ** 0.5


def qv_slope_scaled(report, rows):
    report["results"][1]["qv"]["median_global_slope"] *= 1.2


def brownian_holder(report, rows):
    report["results"][0]["holder"]["median"] = 0.5


def probe_slope_scaled(report, rows):
    report["results"][1]["qv"]["global_slope_min_eigs"][2] *= 1.25


def metadata_quiet_path(report, rows):
    est = report["results"][0]["noa"]["metadata"]
    est["p_hat"] = 1.0 / est["n_paths"]


def rational_never_quiet(report, rows):
    est = report["results"][0]["noa"]["rational_diag"]
    est["wilson_ci"] = [0.0, est["wilson_ci"][1]]


def metadata_gain_short(report, rows):
    v = report["results"][0]["verdicts"]["metadata_arbitrage"]
    v["min_terminal"] = 0.1


# check -> corruptions that must make it fail
CORRUPTIONS = {
    checks.reference_wealth: [flip_largest_library_terminal],
    checks.reference_fan: [flip_fan_terminal],
    checks.reference_bounds: [empty_verdict_range],
    checks.twc_arbitrage_grid_overshoot: [loss_beyond_overshoot, terminal_below_level],
    checks.twc_curve_monotone: [widest_window_below_narrowest],
    checks.constructions_inert_or_losing: [flag_a_construction, make_a_construction_win],
    checks.noa_monotone_in_epsilon: [swap_noa_epsilons],
    checks.noa_mirror_identity: [move_one_mirrored_path],
    checks.long_hold_half: [long_hold_off_half],
    checks.qv_slope_sigma2: [qv_slope_scaled],
    checks.holder_median: [brownian_holder],
    checks.qv_slope_pathwise: [probe_slope_scaled],
    checks.metadata_noa_zero: [metadata_quiet_path],
    checks.rational_noa_positive: [rational_never_quiet],
    checks.metadata_arbitrage_gain: [metadata_gain_short],
}


def run_workload(name: str) -> dict:
    preset, _ = WORKLOADS[name]
    config = validate_config(preset_dict(preset, seed=SEED, n_paths=PATHS[name]))
    with tempfile.TemporaryDirectory() as tmp:
        return run_experiment(config, tmp)


def main() -> int:
    problems = []
    missing = {c.__name__ for cs in checks.CHECKS.values() for c in cs} - {c.__name__ for c in CORRUPTIONS}
    if missing:
        problems.append(f"checks without a corruption: {sorted(missing)}")
    for workload, workload_checks in checks.CHECKS.items():
        report = run_workload(workload)
        rows = checks.probe(report)
        failures = checks.run_checks(workload, report, rows)
        if failures:
            problems.append(f"{workload}: clean report fails {failures}")
        for check in workload_checks:
            for corrupt in CORRUPTIONS.get(check, []):
                bad_report, bad_rows = copy.deepcopy(report), [dataclasses.replace(r) for r in rows]
                corrupt(bad_report, bad_rows)
                caught = check(bad_report, bad_rows) is not None
                print(f"{workload}: {check.__name__} on {corrupt.__name__}: "
                      f"{'fails as it must' if caught else 'MISSED'}")
                if not caught:
                    problems.append(f"{workload}: {check.__name__} missed {corrupt.__name__}")

    workload = "counterexample-2d-wide"
    first, second = run_workload(workload), run_workload(workload)
    if canonical(first) != canonical(second):
        problems.append(f"{workload}: two runs differ apart from timing")
    changed = json.loads(json.dumps(second))
    est = changed["results"][0]["noa"]["rational_e1"]
    est["p_hat"] = math.nextafter(est["p_hat"], math.inf)
    if canonical(first) == canonical(changed):
        problems.append("determinism check missed a changed number")
    print(f"{workload}: repeated runs bit-identical apart from timing: "
          f"{canonical(first) == canonical(second)}")

    for p in problems:
        print(f"SELFTEST PROBLEM {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
