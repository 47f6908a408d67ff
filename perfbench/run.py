"""mergemix benchmark: time, memory and mixture quality of three workloads.

One workload, in the form BENCHMARK.json's command is run:

    python3 perfbench/run.py --workload k6-search --seed 1 --seconds 25 --trace 0

All workloads at the default seed, with every metric in one table:

    python3 perfbench/run.py --all [--seconds 25] [--trace 0|1]

A run first times several cold starts of mergemix (`setup_s`), then repeats
complete pipeline runs for `--seconds` seconds, checks every run's outputs,
and prints its metrics, then one JSON line. With `--trace 0` the JSON
carries the end-to-end metrics (`wall_s`, `setup_s`, `peak_rss_mb`); the
quality metrics, `fail_share` and the artifact digest drift are printed
above it. With `--trace 1` traced runs alternate with untraced ones and the
JSON carries the per-layer metrics of `spans.py`.

Everything is written under `.bench_build/perfbench/` in the checkout. The
benchmark imports mergemix from `src/` next to this directory and exits
with status 2 if it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
SETUP_STARTS = 5  # cold starts per run; setup_s is their median
# Runs per invocation at the least, even past --seconds, so that a median
# never rests on one or two runs; the first run of a process is the slowest.
MIN_RUNS = 3
MIN_TRACED_RUNS = 2  # of each kind, traced and untraced, with --trace 1
# With --trace 1 the first run only warms the process up and is not timed,
# so that its extra cost does not land on one side of trace.overhead_s.
SIMPLEX_TOL = 1e-9
UTILITY_TOL = 1e-9
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# End-to-end figures that BENCHMARK.json cannot bound: each is n/a on at
# least one workload, and regret can be zero or negative.
QUALITY_UNITS = {"utility_actual": "utility", "regret": "utility",
                 "surrogate_gap": "score", "theory_residual": "norm"}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no mergemix sources next to it)."""


def import_mergemix():
    if not (SRC / "mergemix" / "__init__.py").is_file():
        raise BenchmarkError(f"no mergemix package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mergemix

    if Path(mergemix.__file__).resolve().parent != SRC / "mergemix":
        raise BenchmarkError(f"imported mergemix from {mergemix.__file__}, "
                             f"not from {SRC}")
    return mergemix


# ---------------------------------------------------------------------------
# Environment and artifacts
# ---------------------------------------------------------------------------

def _commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": _commit(),
        "src_digest": _tree_digest(SRC / "mergemix"),
    }


def artifact_digests(run_dir: Path) -> dict:
    """sha256 of every file of a run except the (timestamped) manifest."""
    return {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def digest_drift(digests: dict, reference: dict) -> int:
    """Artifacts that differ from, or are missing in, either digest set."""
    return sum(digests.get(k) != reference.get(k)
               for k in set(digests) | set(reference))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _on_simplex(weights, k: int, label: str) -> list[str]:
    w = [float(x) for x in weights]
    if len(w) != k or min(w) < 0 or abs(sum(w) - 1.0) > SIMPLEX_TOL:
        return [f"{label} {w} is not a point of the {k}-simplex"]
    return []


def check_pipeline_run(run_dir: Path, cfg) -> list[str]:
    problems = []
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    listed = json.loads(manifest_path.read_text("utf-8"))["artifacts"]
    on_disk = artifact_digests(run_dir)
    if set(listed) != set(on_disk):
        problems.append(f"manifest lists {sorted(set(listed) ^ set(on_disk))} "
                        "differently from the files on disk")
    problems += [f"manifest digest of {k} does not match the file"
                 for k in sorted(set(listed) & set(on_disk))
                 if listed[k] != on_disk[k]]
    report = json.loads((run_dir / "report.json").read_text("utf-8"))
    k = len(report["world"]["domains"])
    optimum = report["optimum"]["weights"]
    if "hierarchy" in report:
        problems += _on_simplex(optimum, len(cfg.hierarchy["children"]),
                                "root optimum")
        problems += _on_simplex(report["hierarchy"]["leaf_ratios"], k,
                                "hierarchy leaf ratios")
    else:
        problems += _on_simplex(optimum, k, "optimum")
    return problems


def check_theory_run(run_dir: Path, cfg) -> list[str]:
    import jsonschema
    from mergemix.config import THEORY_REPORT_SCHEMA
    from mergemix.simplex import lattice_size, lattice_steps

    expected = {"delta_sweep.csv", "curvature_matrix.csv",
                "task_vector_cosine.csv", "theory_report.json"}
    found = {p.name for p in run_dir.iterdir()}
    if found != expected:
        return [f"theory run wrote {sorted(found)}, expected {sorted(expected)}"]
    report = json.loads((run_dir / "theory_report.json").read_text("utf-8"))
    try:
        jsonschema.validate(report, THEORY_REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        return [f"theory report fails its schema: {exc.message}"]
    k = len(report["world"]["domains"])
    rows = lattice_size(k, lattice_steps(cfg.theory["sweep_resolution"]))
    lines = (run_dir / "delta_sweep.csv").read_text("utf-8").count("\n")
    if report["sweep"]["rows"] != rows or lines != rows + 1:
        return [f"sweep has {report['sweep']['rows']} rows and {lines - 1} "
                f"CSV rows, expected {rows}"]
    return []


def quality(name: str, run_dir: Path) -> dict:
    """Mixture-quality figures a run reports about itself."""
    if name == "theory-sweep":
        report = json.loads((run_dir / "theory_report.json").read_text("utf-8"))
        return {"theory_residual": report["sweep"]["max_residual_norm"]}
    report = json.loads((run_dir / "report.json").read_text("utf-8"))
    block = report["hierarchy"] if "hierarchy" in report else report["optimum"]
    return {"utility_actual": block["actual_utility"],
            "surrogate_gap": report["optimum"]["max_abs_gap"]}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def cold_start_seconds(config_path: Path) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def one_run(name: str, data: dict, out_dir: Path, tracer=None):
    """Parse the config and run the workload once; returns (cfg, run dir, s).

    Only the `run_*` call is timed. Modules are looked up at call time so
    an installed tracer's wrappers are the ones called."""
    import mergemix.config
    import mergemix.pipeline
    from spans import ROOT as ROOT_SPAN

    cfg = mergemix.config.parse_config(data)
    runner = (mergemix.pipeline.run_theory if name == "theory-sweep"
              else mergemix.pipeline.run_pipeline)
    span = tracer.open(ROOT_SPAN) if tracer else None
    start = time.perf_counter()
    try:
        run_dir = runner(cfg, out_dir)
    finally:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(span)
    return cfg, Path(run_dir), seconds


def measure(name: str, data: dict, work: Path, seconds: float,
            traced: bool) -> dict:
    """Repeat complete runs for about `seconds`, checking each one.

    Stops at the first run that raises. With `traced`, traced and untraced
    runs alternate after one untimed warm-up run."""
    import spans

    check = check_theory_run if name == "theory-sweep" else check_pipeline_run
    m = {"plain": [], "traced": [], "layers": [], "problems": [],
         "attempted": 0, "failed": 0, "digests": None, "cfg": None,
         "run_dir": None, "spans": None}
    start = time.perf_counter()
    while True:
        warmup = traced and m["attempted"] == 0
        tracer = (spans.Tracer() if traced and not warmup
                  and len(m["traced"]) < len(m["plain"]) else None)
        out_dir = work / f"run{m['attempted']}"
        m["attempted"] += 1
        try:
            if tracer:
                with tracer:
                    cfg, run_dir, wall = one_run(name, data, out_dir, tracer)
            else:
                cfg, run_dir, wall = one_run(name, data, out_dir)
        except Exception:
            m["failed"] += 1
            m["problems"].append(traceback.format_exc())
            return m
        found = check(run_dir, cfg)
        digests = artifact_digests(run_dir)
        if m["digests"] is not None and digests != m["digests"]:
            found.append("artifacts differ from the first run of this seed")
        if found:
            m["failed"] += 1
            m["problems"] += found
        if tracer:
            m["traced"].append(wall)
            layers = spans.layer_metrics(tracer)
            files = [p for p in run_dir.rglob("*") if p.is_file()]
            layers["persist.files"] = len(files)
            layers["persist.bytes"] = sum(p.stat().st_size for p in files)
            m["layers"].append(layers)
            m["spans"] = tracer.to_dict()
        elif not warmup:
            m["plain"].append(wall)
        if m["run_dir"] is not None:
            shutil.rmtree(m["run_dir"], ignore_errors=True)
        m["digests"] = m["digests"] or digests
        m["cfg"], m["run_dir"] = cfg, run_dir
        if traced:
            enough = min(len(m["plain"]), len(m["traced"])) >= MIN_TRACED_RUNS
        else:
            enough = len(m["plain"]) >= MIN_RUNS
        elapsed = time.perf_counter() - start
        if enough and elapsed + elapsed / m["attempted"] > seconds:
            return m


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads

    reference = json.loads(REFERENCE.read_text("utf-8"))
    work = OUT / f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(workloads.config_text(name, seed), "utf-8")
        setup = [cold_start_seconds(config_path) for _ in range(SETUP_STARTS)]
        m = measure(name, workloads.config_for(name, seed), work, seconds, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        result = {
            "workload": name, "seed": seed, "trace": int(traced),
            "seconds": seconds, "environment": environment(),
            "setup_runs": setup, "wall_runs": m["plain"],
            "metrics": {"wall_s": statistics.median(m["plain"]) if m["plain"] else None,
                        "setup_s": statistics.median(setup),
                        "peak_rss_mb": peak_rss_mb},
        }
        if not m["failed"]:
            result["quality"] = quality(name, m["run_dir"])
            result["digests"] = m["digests"]
            if seed == reference["default_seed"]:
                result["digest_drift"] = digest_drift(
                    m["digests"], reference["digests"][name])
            if not traced and name != "theory-sweep":
                import oracle

                found = oracle.regret(m["cfg"], m["run_dir"])
                result["oracle"] = found
                result["quality"]["regret"] = found["regret"]
                if abs(found["utility_recomputed"] - found["utility_actual"]) \
                        > UTILITY_TOL:
                    m["failed"] += 1
                    m["problems"].append(
                        f"reported actual utility {found['utility_actual']} "
                        f"is not the true utility {found['utility_recomputed']} "
                        "of the reported mixture")
        if m["layers"]:
            per_layer = {key: statistics.median_low(run[key] for run in m["layers"])
                         for key in m["layers"][0]}
            per_layer["trace.overhead_s"] = (statistics.median(m["traced"])
                                             - statistics.median(m["plain"]))
            result["per_layer"] = per_layer
            result["traced_wall_runs"] = m["traced"]
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            spans_path.write_text(json.dumps(m["spans"]), "utf-8")
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        result.update(attempted=m["attempted"], failed=m["failed"],
                      problems=m["problems"], correct=m["failed"] == 0)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def describe(result: dict) -> list[str]:
    """Every metric of one workload run, by name with unit and sample count."""
    name = result["workload"]
    lines = [f"workload {name}  seed {result['seed']}  trace {result['trace']}",
             f"environment {json.dumps(result['environment'], sort_keys=True)}"]
    m = result["metrics"]
    lines.append(f"  wall_s           {_fmt(m['wall_s'])} s  "
                 f"(median of {len(result['wall_runs'])} untraced runs: "
                 f"{', '.join(f'{w:.3f}' for w in result['wall_runs'])})")
    lines.append(f"  setup_s          {_fmt(m['setup_s'])} s  "
                 f"(median of {len(result['setup_runs'])} cold starts)")
    lines.append(f"  peak_rss_mb      {_fmt(m['peak_rss_mb'])} MB  (1 process)")
    q = result.get("quality", {})
    lines.append(f"  fail_share       {_fmt(result['failed'] / result['attempted'])}"
                 f" ratio  ({result['failed']} of {result['attempted']} runs)")
    for key in QUALITY_UNITS:
        lines.append(f"  {key:<16} {_fmt(q.get(key))} {QUALITY_UNITS[key]}"
                     + ("  (last run; every run's artifacts are identical)"
                        if key in q else ""))
    drift = result.get("digest_drift")
    lines.append(f"  persist.digest_drift {_fmt(drift)} count"
                 + ("" if drift is not None else "  (reference is at the default seed)"))
    for key, value in sorted(result.get("per_layer", {}).items()):
        lines.append(f"  {key:<32} {_fmt(value)}")
    if result.get("per_layer"):
        lines.append(f"  per-layer figures: median of "
                     f"{len(result['traced_wall_runs'])} traced runs; "
                     f"spans in {result['spans_file']}")
    lines.append("  waiting: none (no queues, no retries); consistency: not exercised")
    lines += [f"  PROBLEM: {p.rstrip()}" for p in result["problems"]]
    return lines


def result_line(result: dict) -> str:
    """The last output line: the metrics BENCHMARK.json names for this mode."""
    if result["trace"]:
        section, source = "per_layer", result.get("per_layer", {})
    else:
        section, source = "end_to_end", result["metrics"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {e["name"]: {"value": source.get(e["name"]), "unit": e["unit"]}
                    for e in _benchmark()[section]},
    })


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run_all(seconds: float, traced: bool) -> int:
    """Each workload in its own process at the default seed, then one table."""
    import workloads

    reference = json.loads(REFERENCE.read_text("utf-8"))
    seed = reference["default_seed"]
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        path = OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json"
        if proc.returncode != 0 or not path.is_file():
            print(f"workload {name} exited with {proc.returncode}")
            return 1
        results[name] = json.loads(path.read_text("utf-8"))

    names = list(workloads.WORKLOADS)
    print()
    print(f"{'metric':<34}{'unit':<7}" + "".join(f"{n:>14}" for n in names))
    rows = [(e["name"], e["unit"], lambda r, k=e["name"]: r["metrics"][k])
            for e in _benchmark()["end_to_end"]]
    rows.append(("fail_share", "ratio", lambda r: r["failed"] / r["attempted"]))
    rows += [(k, u, lambda r, k=k: r.get("quality", {}).get(k))
             for k, u in QUALITY_UNITS.items()]
    rows.append(("persist.digest_drift", "count", lambda r: r.get("digest_drift")))
    if traced:
        rows += [(e["name"], e["unit"], lambda r, k=e["name"]: r["per_layer"][k])
                 for e in _benchmark()["per_layer"]]
    for key, unit, get in rows:
        print(f"{key:<34}{unit:<7}"
              + "".join(f"{_fmt(get(results[n])):>14}" for n in names))
    counts = {n: (len(r["wall_runs"]), len(r["setup_runs"])) for n, r in results.items()}
    print("samples: " + ", ".join(f"{n}: {w} timed runs, {s} cold starts"
                                  for n, (w, s) in counts.items()))
    for key, why in sorted(reference["unmeasured"].items()):
        print(f"not measured: {key}: {why}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload at the default seed")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_mergemix()
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    if args.all:
        return run_all(args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    seed = args.seed
    if seed is None:
        seed = json.loads(REFERENCE.read_text("utf-8"))["default_seed"]
    result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    path = OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True), "utf-8")
    for line in describe(result):
        print(line)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
