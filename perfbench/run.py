"""Benchmark runner: run one workload repeatedly for a fixed time and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload mixed-fbs-battery --seed 1 --seconds 25 --trace 0

One operation is one `run_experiment` call on the workload's preset, written
into a fresh temporary directory under `perfbench/out/`, followed by the
workload's output checks.  Operations repeat until `--seconds` have passed.
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics (`setup_s`, `run_s`, `peak_rss_mb`); with `--trace 1` each round is
one untraced and one traced operation, the line carries the per-layer
metrics, and the spans of the last traced operation are written to
`perfbench/out/trace-<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# workload -> (preset, paths per run).  Path counts keep one operation at a few
# seconds, so that a run holds several operations and its median is steady.
WORKLOADS = {
    "drifted-exp-twc": ("drifted-exp-twc-arb", 500),
    "mixed-fbs-battery": ("mixed-fbs-no-arb", 400),
    "mixed-heston-battery": ("mixed-heston-no-arb", 300),
    "counterexample-2d-wide": ("counterexample-2d", 10_000),
}

# A cold set-up in a fresh interpreter: import the package, schema-check and parse the config.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import arblab; "
    "from arblab.presets import preset_dict; "
    "arblab.harness.validate_config(preset_dict(sys.argv[2], seed=int(sys.argv[3]), "
    "n_paths=int(sys.argv[4])))"
)


def time_setup(preset: str, seed: int, n_paths: int) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), preset, str(seed), str(n_paths)],
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def canonical(report: dict) -> str:
    """The report without its timing field, serialized with every digit."""
    return json.dumps({k: v for k, v in report.items() if k != "wall_time_seconds"}, sort_keys=True)


def run_op(workload: str, config, tracer=None) -> dict:
    from arblab.harness import run_experiment

    import checks

    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            report = run_experiment(config, tmp)
            run_s = perf_counter() - t0
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures = checks.run_checks(workload, report)
        on_disk = json.loads((tmp / "report.json").read_text(encoding="utf-8"))
        if canonical(on_disk) != canonical(report):
            failures.append("artifacts: report.json differs from the returned report")
        report_bytes = sum(p.stat().st_size for p in tmp.iterdir())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"run_s": run_s, "rss_mb": rss_mb, "report": report, "failures": failures,
            "report_bytes": report_bytes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "arblab" / "__init__.py").is_file():
        print(f"error: no arblab package under {SRC}", file=sys.stderr)
        return 2
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads

    preset, n_paths = WORKLOADS[args.workload]
    setup_s = time_setup(preset, args.seed, n_paths)

    sys.path.insert(0, str(SRC))
    from arblab.harness import validate_config
    from arblab.presets import preset_dict

    from tracing import Tracer, layer_metrics

    config = validate_config(preset_dict(preset, seed=args.seed, n_paths=n_paths))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None

    attempted = failed = 0
    correct = True
    first = None
    run_times, traced_times, layers = [], [], []
    peak_rss_mb = None
    t_start = perf_counter()
    while attempted == 0 or perf_counter() - t_start < args.seconds:
        for traced in ((False, True) if tracer else (False,)):
            attempted += 1
            try:
                op = run_op(args.workload, config, tracer if traced else None)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            canon = canonical(op["report"])
            first = canon if first is None else first
            if canon != first:
                op["failures"].append("determinism: report differs from the first operation's")
            for msg in op["failures"]:
                print(f"CHECK FAILED {msg}", file=sys.stderr)
            correct = correct and not op["failures"]
            print(f"op {attempted}{' traced' if traced else ''}: run_s {op['run_s']:.4f}, "
                  f"{len(op['failures'])} failed checks", file=sys.stderr)
            if not traced:
                run_times.append(op["run_s"])
                # the high-water mark of one run, before any check has allocated
                peak_rss_mb = op["rss_mb"] if peak_rss_mb is None else peak_rss_mb
                continue
            traced_times.append(op["run_s"])
            layers.append({**layer_metrics(tracer.spans), "harness.report_bytes": op["report_bytes"]})

    if tracer:
        if tracer.spans:
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed})
        # median_low keeps the exact counts integers
        values = {name: statistics.median_low(row[name] for row in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(run_times)
        kind = "per_layer"
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(run_times),
            "peak_rss_mb": peak_rss_mb,
        }
        kind = "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared(kind).items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def declared(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer") from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
