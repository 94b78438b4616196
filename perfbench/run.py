"""activescan benchmark: one workload, one seed, one line of JSON.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {pa-detect,hub-rank,sbm-eval} \
        --seed N --seconds S --trace {0,1}

Set-up (graphs, edge lists, references) runs SETUP_REPEATS times in this
process and `setup_s` is its median. The operations then run in one fresh
child process (child.py), timed from outside through the CLI and library
calls, and every output is checked. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The full
report (environment, per-operation timings, quality, digests and counts)
is printed above that line and written under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # the child is killed if the whole run would pass this

# per-operation timings of the report: operation kind -> (metric, scale)
OP_METRICS = {
    "detect": ("detect_s", "s"), "topq": ("topq_s", "s"),
    "topq_w2": ("topq_w2_s", "s"), "sweep": ("sweep_s", "s"),
    "roc_k1": ("roc_k1_run_ms", "run_ms"), "roc_k2": ("roc_k2_run_ms", "run_ms"),
    "ari": ("ari_run_ms", "run_ms"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["pa-detect", "hub-rank", "sbm-eval"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def fingerprint(env: dict) -> str:
    """Identity of the program, the benchmark and the numeric environment."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    h.update(json.dumps({k: env[k] for k in ("python", "numpy", "scipy", "blas",
                                             "blas_threads")}).encode())
    return h.hexdigest()[:16]


def timing_stats(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    stats = {"median": statistics.median(values), "n": len(values)}
    n = len(values)
    if n >= 11:
        p = math.floor(100 * (n - 10) / n)
        stats[f"p{p}"] = sorted(values)[math.ceil(p / 100 * n) - 1]
    return stats


def ledger_check(key: str, record: dict) -> list[str]:
    """Compare digests and counts with earlier runs of the same code and seed."""
    path = WORK_ROOT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    prior = ledger.get(key, {})
    diffs = [name for name in sorted(set(prior) & set(record)) if prior[name] != record[name]]
    ledger[key] = {**prior, **record}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return diffs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "activescan" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {SRC / 'activescan'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = WORK_ROOT / tag
    results = WORK_ROOT / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    t_run = time.perf_counter()

    setup_fn = workloads.WORKLOADS[args.workload][0]
    setup_times, spec = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            core = setup_fn(args.seed, work)
        except workloads.SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 3
        setup_times.append(time.perf_counter() - t0)
        if spec is not None and core != spec:
            print("error: set-up is not deterministic under the seed", file=sys.stderr)
            return 3
        spec = core

    spec = dict(spec, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, src=str(SRC), work=str(work),
                result=str(work / "child.json"), spans=str(results / f"{tag}-spans.json"))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_LIMIT_S - (time.perf_counter() - t_run))
    except subprocess.TimeoutExpired:
        print("error: the operations did not finish in time", file=sys.stderr)
        return 4
    if proc.returncode != 0:
        print(f"error: the operations process exited with {proc.returncode}\n"
              f"{proc.stderr[-4000:]}", file=sys.stderr)
        return 4
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    child = json.loads(Path(spec["result"]).read_text())

    ops = child["ops"]
    failed_ops = [op for op in ops if op["errors"]]
    timings = {}
    for kind, (name, scale) in OP_METRICS.items():
        values = [op["seconds"] * 1e3 / op["runs"] if scale == "run_ms" else op["seconds"]
                  for op in ops if op["kind"] == kind and not op["traced"]]
        if values:
            timings[name] = timing_stats(values)
    record = {f"digest:{kind}/{name}": d
              for kind, files in child["digests"].items() for name, d in files.items()}
    record.update({f"count:{k}": v for k, v in child["counts"].items()})
    record.update({f"count:setup:{k}": v for k, v in spec["counts"].items()})
    env = child["env"]
    ledger_diffs = ledger_check(f"{args.workload}|{args.seed}|{fingerprint(env)}", record)
    unsteady = child["unsteady"] + [f"{name} differs from an earlier run of the same code "
                                    f"and seed" for name in ledger_diffs]
    self_check_ok = bool(child["self_check"]) and all(child["self_check"].values())
    correct = not failed_ops and self_check_ok and not unsteady

    if args.trace:
        metrics = {name: {"value": child["layers"][name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
    else:
        plain = [r["seconds"] for r in child["rounds"] if not r["traced"]]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "round_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "setup_s": setup_times, "peak_rss_mb": peak_rss_mb,
        "timings": timings, "quality": child["quality"],
        "rounds": child["rounds"], "failed_ops": failed_ops,
        "self_check": child["self_check"], "unsteady": unsteady,
        "digests": child["digests"], "counts": child["counts"],
        "layers": child.get("layers"), "metrics": metrics,
    }
    report_path = results / f"{tag}.json"
    report_path.write_text(json.dumps(report, indent=1))

    print(f"# {tag}: env {json.dumps(env)}")
    for name, stats in {**timings, **child["quality"]}.items():
        print(f"# {name}: {json.dumps(stats)}")
    print(f"# counts {json.dumps(child['counts'])}")
    print(f"# gate self-check {json.dumps(child['self_check'])}")
    for op in failed_ops:
        print(f"# FAILED {op['kind']}: {'; '.join(op['errors'])}")
    for line in unsteady:
        print(f"# UNSTEADY {line}")
    print(f"# report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
