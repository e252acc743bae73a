"""Per-layer tracing of one run, from outside the library.

`Tracer.install` replaces the public functions and methods of each layer
module of `arblab` with wrappers that record a span (name, start, end,
parent) per call; `uninstall` puts the originals back, so untraced runs pay
nothing.  A layer is a module, and a span's name is ``<layer>.<qualname>``.
Module-level functions are also rebound in every arblab namespace that
imported them by name, so calls between modules are seen too.

Path-ensemble iteration gets two extra kinds of span: one per yielded path
(``generators.PathEnsemble.__iter__``) and one per pass over the ensemble
(``harness.pass1``, ``harness.pass2``), so that pass-2 regeneration shows.
Spans stay in memory until `layer_metrics` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

LAYERS = ("generators", "fbm", "seeds", "stopping", "strategies", "diagnostics",
          "constructions", "harness")

# span record fields
NAME, START, END, PARENT, ERROR, KEY = range(6)

PROBES = {"diagnostics.realized_qv", "diagnostics.holder_estimate", "diagnostics.lil_scaling"}
ACCUMULATOR_ADDS = {"diagnostics.NoaAccumulator.add", "diagnostics.TwcAccumulator.add"}
SCAN_ADDS = {"constructions.ExtractScan.add", "constructions.ReduceScan.add"}
ENSEMBLE_NEXT = "generators.PathEnsemble.__iter__"


class Tracer:
    def __init__(self):
        import arblab

        self.namespaces = [arblab] + [
            importlib.import_module(f"arblab.{m.name}") for m in pkgutil.iter_modules(arblab.__path__)
        ]
        self.modules = {ns.__name__.rpartition(".")[2]: ns for ns in self.namespaces}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pass_no = 0
        self._passes_per_ensemble: dict[int, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------ recording

    def _open(self, name: str, key=None) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None, key]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        keyed = name.endswith(".evaluate")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = None
            if keyed and len(args) > 1:
                path = args[1]
                key = (args[0], path.seed, path.grid.steps, self._pass_no)
            rec = self._open(name, key)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(rec)

        return wrapper

    def _wrap_ensemble_iter(self, fn):
        @functools.wraps(fn)
        def wrapper(ensemble):
            self._passes_per_ensemble[id(ensemble)] += 1
            self._pass_no += 1
            rec_pass = self._open(f"harness.pass{self._passes_per_ensemble[id(ensemble)]}")
            try:
                it = fn(ensemble)
                while True:
                    rec = self._open(ENSEMBLE_NEXT)
                    try:
                        path = next(it)
                    except StopIteration:
                        rec[ERROR] = "StopIteration"
                        return
                    finally:
                        self._close(rec)
                    yield path
            finally:
                self._close(rec_pass)

        return wrapper

    # ------------------------------------------------ patching

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.spans = []
        self._stack = []
        self._pass_no = 0
        self._passes_per_ensemble.clear()
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{name}", obj)
                    for ns in self.namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{attr}"
            if qual == ENSEMBLE_NEXT:
                self._set(cls, attr, self._wrap_ensemble_iter(val))
            elif attr.startswith("_"):
                continue
            elif isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(qual, val.__func__)))
            elif inspect.isfunction(val):
                self._set(cls, attr, self._wrap(qual, val))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------ output

    def dump(self, path, meta: dict) -> None:
        """Write the spans as JSON: a name table plus [name, start, end, parent] rows."""
        names: dict[str, int] = {}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[names.setdefault(s[NAME], len(names)), s[START] - t0, s[END] - t0, s[PARENT]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": list(names), "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self time per layer and the per-layer counters named in the benchmark."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def layer(i: int) -> str:
        return spans[i][NAME].partition(".")[0]

    def has_ancestor(i: int, pred) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if pred(p):
                return True
            p = spans[p][PARENT]
        return False

    out = {f"{name}.self_s": 0.0 for name in LAYERS}
    total = defaultdict(float)
    count = defaultdict(int)
    self_by_name = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        out[f"{layer(i)}.self_s"] += dur - child_time[i]
        self_by_name[s[NAME]] += dur - child_time[i]
        total[s[NAME]] += dur
        count[s[NAME]] += 1

    def is_generator_call(i: int) -> bool:
        name = spans[i][NAME]
        return name.startswith("generators.gen_") or name == "generators.generate_path"

    direct_paths = sum(1 for i in range(len(spans)) if is_generator_call(i)
                       and not has_ancestor(i, lambda p: layer(p) == "generators"))
    ensemble_paths = sum(1 for s in spans if s[NAME] == ENSEMBLE_NEXT and s[ERROR] is None)
    evaluations = [s for s in spans if s[NAME].startswith("stopping.") and s[NAME].endswith(".evaluate")]
    nested_wealth = sum(1 for i, s in enumerate(spans) if s[NAME] == "strategies.eval_wealth"
                        and has_ancestor(i, lambda p: spans[p][NAME].endswith(".evaluate")))
    refused = sum(1 for i, s in enumerate(spans) if s[ERROR] == "ExtractionError"
                  and layer(i) == "constructions"
                  and not (s[PARENT] >= 0 and layer(s[PARENT]) == "constructions"))
    out.update({
        "generators.paths": ensemble_paths + direct_paths,
        "fbm.draws": count["fbm.sample_fbm_increments"],
        "seeds.streams": count["seeds.component_rng"],
        "stopping.first_crossing_s": self_by_name["stopping.FirstCrossing.evaluate"],
        "stopping.evaluations": len(evaluations),
        "stopping.useful_ratio": (len({s[KEY] for s in evaluations}) / len(evaluations)
                                  if evaluations else 1.0),
        "strategies.wealth_evals": count["strategies.eval_wealth"],
        "strategies.nested_wealth_evals": nested_wealth,
        "diagnostics.adds": sum(count[n] for n in ACCUMULATOR_ADDS),
        "diagnostics.probe_s": sum(total[n] for n in PROBES),
        "constructions.scan_adds": sum(count[n] for n in SCAN_ADDS),
        "constructions.refused": refused,
        "harness.passes": count["harness.pass1"] + count["harness.pass2"],
        "harness.pass2_s": total["harness.pass2"],
        "harness.write_s": total["harness.write_artifacts"],
    })
    return out
