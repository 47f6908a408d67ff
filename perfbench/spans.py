"""Per-layer spans recorded from outside the package.

While a `Tracer` is installed, the public functions of each mergemix layer are
replaced by timing wrappers at every module attribute that refers to them, so a
call made through `from .x import y` in another module is caught as well.
`GradientBoostedRegressor.fit` and `.predict` are wrapped on the class.
Uninstalling restores the original objects; untraced runs see the unmodified
package.

A span records its name, start, end and the id of the span that caused it.
Functions called tens of thousands of times per run (`raw_capability`,
`merge`, `utility`, regressor predict) are not given a span per call: their
call count and busy time are aggregated under the enclosing span. Everything
is kept in memory until `to_dict` is called at the end of the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (home module, attribute, span name, kind). "span" records one span per
# call; "leaf" aggregates calls and busy time under the enclosing span.
TARGETS = (
    ("mergemix.config", "parse_config", "config.load", "span"),
    ("mergemix.config", "build_world", "config.build_world", "span"),
    ("mergemix.training", "train_expert", "training.train_expert", "span"),
    ("mergemix.training", "train_on_mixture", "training.train_on_mixture", "span"),
    ("mergemix.worlds", "raw_capability", "worlds.raw_capability", "leaf"),
    ("mergemix.merging", "merge", "merging.merge", "leaf"),
    ("mergemix.surface", "run_search_stage", "surface.stage", "span"),
    ("mergemix.surface", "sample_seed_configs", "surface.design", "span"),
    ("mergemix.surface", "collect_samples", "surface.collect", "span"),
    ("mergemix.surface", "fit_surface", "surface.fit", "span"),
    ("mergemix.surface", "search_optimum", "surface.search", "span"),
    ("mergemix.surface", "verify_optimum", "surface.verify", "span"),
    ("mergemix.simplex", "simplex_lattice", "simplex.lattice", "span"),
    ("mergemix.simplex", "boxed_lattice", "simplex.refine", "span"),
    ("mergemix.stats", "utility", "stats.utility", "leaf"),
    ("mergemix.hierarchy", "optimize_top_down", "hierarchy.optimize", "span"),
    ("mergemix.hierarchy", "optimize_bottom_up", "hierarchy.optimize", "span"),
    ("mergemix.theory", "discrepancy", "theory.discrepancy", "span"),
    ("mergemix.theory", "horizon_scaling_check", "theory.scaling_check", "span"),
    ("mergemix.theory", "relative_curvature", "theory.curvature", "span"),
    ("mergemix.persist", "write_json", "persist.write", "span"),
    ("mergemix.persist", "write_csv", "persist.write", "span"),
    ("mergemix.persist", "save_checkpoint", "persist.write", "span"),
    ("mergemix.persist", "file_digest", "persist.write", "span"),
)
CLASS_TARGETS = (
    ("mergemix.gbt", "GradientBoostedRegressor", "fit", "gbt.fit", "span"),
    ("mergemix.gbt", "GradientBoostedRegressor", "predict", "gbt.predict", "leaf"),
)
ROOT = "pipeline.run"


def _search_points(args, kwargs, result):
    return {"surface.search_points": result.evaluated_points}


def _train_steps(args, kwargs, result):
    # train_expert and train_on_mixture both take the config fourth.
    config = kwargs["config"] if "config" in kwargs else args[3]
    return {"training.steps": config.steps}


def _trees(args, kwargs, result):
    return {"gbt.trees": len(args[0].trees)}


def _predict_rows(args, kwargs, result):
    return {"gbt.predict_rows": len(result)}


# Work counters taken from a call's arguments and result.
COUNTERS = {
    "training.train_expert": _train_steps,
    "training.train_on_mixture": _train_steps,
    "surface.search": _search_points,
    "simplex.lattice": lambda a, k, r: {"simplex.lattice_points": len(r)},
    "simplex.refine": lambda a, k, r: {"simplex.refine_points": len(r)},
    "gbt.fit": _trees,
    "gbt.predict": _predict_rows,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent id, start, end]
        self.leaves: dict = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, busy]
        self.counters: dict = defaultdict(int)
        self._stack: list[int] = [0]  # 0 is the implicit outermost parent
        self._saved: list = []

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        span_id = len(self.spans) + 1
        self.spans.append([span_id, name, self._stack[-1], time.perf_counter(), None])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id - 1][4] = time.perf_counter()
        self._stack.pop()

    def add(self, counts: dict) -> None:
        for key, n in counts.items():
            self.counters[key] += n

    def _wrap(self, fn, name: str, kind: str):
        tracer = self
        count = COUNTERS.get(name)

        if kind == "leaf":
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                entry = tracer.leaves[(tracer._stack[-1], name)]
                entry[0] += 1
                entry[1] += time.perf_counter() - start
                if count is not None:
                    tracer.add(count(args, kwargs, result))
                return result
        else:
            def wrapper(*args, **kwargs):
                span_id = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span_id)
                if count is not None:
                    tracer.add(count(args, kwargs, result))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "mergemix" or key.startswith("mergemix.")]
        for home, attr, name, kind in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(original, name, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        for home, cls_name, attr, name, kind in CLASS_TARGETS:
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction ------------------------------------------------------

    def busy(self, name: str) -> float:
        """Time inside spans called `name`, counting nested ones once."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span_id, span_name, parent, start, end in self.spans:
            if span_name != name:
                continue
            outer = parent
            while outer and by_id[outer][1] != name:
                outer = by_id[outer][2]
            if not outer:
                total += end - start
        return total

    def leaf_totals(self, name: str) -> tuple[int, float]:
        calls, busy = 0, 0.0
        for (_, leaf_name), (n, t) in self.leaves.items():
            if leaf_name == name:
                calls += n
                busy += t
        return calls, busy

    def self_time(self, name: str) -> float:
        """Summed over spans called `name`: duration minus the time covered
        by their direct child spans and the leaf calls aggregated under them."""
        ids = {s[0] for s in self.spans if s[1] == name}
        covered = 0.0
        for span_id, _, parent, start, end in self.spans:
            if parent in ids:
                covered += end - start
        for (parent, _), (_, t) in self.leaves.items():
            if parent in ids:
                covered += t
        total = sum(s[4] - s[3] for s in self.spans if s[1] == name)
        return total - covered

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def to_dict(self) -> dict:
        return {
            "spans": [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                      for i, n, p, s, e in self.spans],
            "leaves": [{"parent": p, "name": n, "calls": c, "busy_s": t}
                       for (p, n), (c, t) in self.leaves.items()],
            "counters": dict(self.counters),
        }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    out = {
        "config.load_s": tracer.busy("config.load"),
        "config.build_world_s": tracer.busy("config.build_world"),
    }
    for name in ("train_expert", "train_on_mixture"):
        out[f"training.{name}_s"] = tracer.busy(f"training.{name}")
        out[f"training.{name}_calls"] = tracer.calls(f"training.{name}")
    out["training.steps"] = tracer.counters["training.steps"]
    for layer, name in (("worlds", "raw_capability"), ("merging", "merge"),
                        ("stats", "utility")):
        calls, busy = tracer.leaf_totals(f"{layer}.{name}")
        out[f"{layer}.{name}_s"] = busy
        out[f"{layer}.{name}_calls"] = calls
    for stage in ("design", "collect", "fit", "search", "verify"):
        out[f"surface.{stage}_s"] = tracer.busy(f"surface.{stage}")
    out["surface.search_points"] = tracer.counters["surface.search_points"]
    out["surface.stage_calls"] = tracer.calls("surface.stage")
    out["gbt.fit_s"] = tracer.busy("gbt.fit")
    out["gbt.trees"] = tracer.counters["gbt.trees"]
    _, predict_s = tracer.leaf_totals("gbt.predict")
    rows = tracer.counters["gbt.predict_rows"]
    out["gbt.predict_s"] = predict_s
    out["gbt.predict_rows"] = rows
    out["gbt.predict_rows_per_s"] = rows / predict_s if predict_s > 0 else 0.0
    for kind in ("lattice", "refine"):
        out[f"simplex.{kind}_s"] = tracer.busy(f"simplex.{kind}")
        out[f"simplex.{kind}_points"] = tracer.counters[f"simplex.{kind}_points"]
    searched = out["surface.search_points"]
    out["simplex.refine_share"] = (out["simplex.refine_points"] / searched
                                   if searched else 0.0)
    out["hierarchy.optimize_s"] = tracer.busy("hierarchy.optimize")
    out["hierarchy.self_s"] = tracer.self_time("hierarchy.optimize")
    out["theory.discrepancy_s"] = tracer.busy("theory.discrepancy")
    out["theory.discrepancy_calls"] = tracer.calls("theory.discrepancy")
    out["theory.scaling_check_s"] = tracer.busy("theory.scaling_check")
    out["theory.curvature_s"] = tracer.busy("theory.curvature")
    out["persist.write_s"] = tracer.busy("persist.write")
    out["pipeline.self_s"] = tracer.self_time(ROOT)
    return out
