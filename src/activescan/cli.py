"""Command-line interface: detect, topq, sbm, eval, bench-trim.

Option precedence is flags > --config file > defaults. All randomness
flows from --seed; per-stage seeds are derived by labeled hashing.
ACTIVE_SCAN_THREADS (a positive integer) supplies the default of
--workers, which sizes eval's Monte-Carlo process pool; topq, detect and
bench-trim accept it but always search in one thread, with identical
results for any value.

The trim counters of topq, bench-trim and detect's diagnostics.json are,
with t the final Q-th value: computed_count, the vertices whose exact
statistic was evaluated (those whose smaller bound is >= t);
est1_count / est2_count, the vertices whose deg^2 + deg / capped bound
is >= t, i.e. what that bound alone would leave to compute.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .graph import load_edge_list, write_edge_list
from .sbm import (generate_sbm, monte_carlo_ari, monte_carlo_roc, paper_params,
                  params_from_json, params_to_json)
from .seeds import derive_seed
from .similarity import build_similarity_matrix, write_similarity_csv
from .spectral import (auto_sigma, classical_mds, eigengap_floor_applied,
                       estimate_num_clusters, model_selection_affinity,
                       normalized_affinity_spectrum, rbf_affinity,
                       spectral_cluster)
from .trimming import topQ_lstat_parallel, topQ_sweep, write_trim_report


def _default_workers() -> int:
    env = os.environ.get("ACTIVE_SCAN_THREADS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"ACTIVE_SCAN_THREADS must be a positive integer, got {env!r}")
    return workers


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults; flags left at None fall through."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = json.loads(Path(config_path).read_text())
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty CSV: {path}")
    return rows[0], rows[1:]


def _parse_q_values(text: str) -> list[int]:
    vals = [int(tok) for tok in text.replace(",", " ").split()]
    if not vals:
        raise ValueError("empty q-values")
    return vals


def _load_params(args):
    if getattr(args, "paper", False):
        return paper_params()
    if getattr(args, "params", None):
        return params_from_json(args.params)
    raise ValueError("either --paper or --params is required")


# ---------------------------------------------------------------------------
# commands


DETECT_DEFAULTS = dict(input=None, out="out", k=1, q=2000, similarity_k=None,
                       sigma=None, clusters=None, max_clusters=10,
                       workers=None, seed=0, emit_similarity=False)


def _cmd_detect(args) -> int:
    cfg = _merge_config(args, DETECT_DEFAULTS)
    if cfg["workers"] is None:
        cfg["workers"] = _default_workers()
    if args.dump_config:
        print(json.dumps(cfg, indent=2))
    if not cfg["input"]:
        raise ValueError("--input is required")
    if cfg["q"] < 1:
        raise ValueError("Q must be >= 1")
    if cfg["k"] < 0:
        raise ValueError("k must be >= 0")
    if cfg["workers"] < 1:
        raise ValueError("workers must be >= 1")

    in_path = Path(cfg["input"])
    if not in_path.exists():
        raise FileNotFoundError(f"input graph not found: {in_path}")
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    g = load_edge_list(in_path)
    if cfg["k"] == 1:
        result = topQ_lstat_parallel(g, cfg["q"], cfg["workers"])
    else:  # the bound-driven search is order-1 only
        result = topQ_sweep(g, cfg["q"], cfg["k"])
    _write_csv(out_dir / "topq.csv", ["vertex", f"psi{cfg['k']}"],
               [(v, val) for v, val in result.entries])

    selected = np.array([v for v, _ in result.entries[:cfg["q"]]], dtype=np.int64)
    sim_k = cfg["similarity_k"] if cfg["similarity_k"] is not None else max(cfg["k"], 1)
    sim = build_similarity_matrix(g, selected, sim_k)
    if cfg["emit_similarity"]:
        write_similarity_csv(sim, out_dir / "similarity.csv")

    sigma = cfg["sigma"] if cfg["sigma"] is not None else auto_sigma(sim.values)
    w = rbf_affinity(sim, sigma)
    max_c = min(cfg["max_clusters"], sim.order)
    floor_applied = False
    if cfg["clusters"] is not None:
        num_clusters = cfg["clusters"]
    elif sim.order < 2 or max_c < 2:
        num_clusters, floor_applied = 1, False
    else:
        evals = normalized_affinity_spectrum(model_selection_affinity(sim), max_c)
        num_clusters = estimate_num_clusters(evals, max_c)
        floor_applied = eigengap_floor_applied(evals, max_c)
    assignment, diag = spectral_cluster(
        w, num_clusters, derive_seed(cfg["seed"], "spectral"), vertices=selected)
    _write_csv(out_dir / "clusters.csv", ["vertex", "cluster"],
               zip(assignment.vertices.tolist(), assignment.labels.tolist()))

    mds = classical_mds(sim, dims=min(2, sim.order))
    coords = mds.coords if mds.coords.shape[1] == 2 else \
        np.column_stack([mds.coords, np.zeros(sim.order)])
    _write_csv(out_dir / "mds.csv", ["vertex", "x", "y"],
               [(int(v), repr(float(x)), repr(float(y)))
                for v, (x, y) in zip(selected, coords)])

    diagnostics = {
        "n": g.n, "m": g.m, "q": cfg["q"], "k": cfg["k"], "similarity_k": sim_k,
        "sigma": sigma, "num_clusters": int(num_clusters),
        "cluster_floor_applied": bool(floor_applied),
        "eigenvalues": [float(x) for x in diag.eigenvalues],
        "kmeans_inertia": diag.kmeans_inertia,
        "restarts_used": diag.restarts_used,
        "mds_negative_clamped": mds.negative_clamped,
        "computed_count": result.computed_count,
        "est1_count": result.est1_count,
        "est2_count": result.est2_count,
        "trim_wall_ms": result.wall_ms,
        "seed": cfg["seed"], "workers": cfg["workers"],
    }
    (out_dir / "diagnostics.json").write_text(json.dumps(diagnostics, indent=2) + "\n")
    return 0


TOPQ_DEFAULTS = dict(input=None, q=2000, workers=None, out=None, format="json")


def _cmd_topq(args) -> int:
    cfg = _merge_config(args, TOPQ_DEFAULTS)
    if cfg["workers"] is None:
        cfg["workers"] = _default_workers()
    if args.dump_config:
        print(json.dumps(cfg, indent=2))
    if not cfg["input"]:
        raise ValueError("--input is required")
    in_path = Path(cfg["input"])
    if not in_path.exists():
        raise FileNotFoundError(f"input graph not found: {in_path}")
    g = load_edge_list(in_path)
    result = topQ_lstat_parallel(g, cfg["q"], cfg["workers"])
    if cfg["out"]:
        write_trim_report(result, cfg["q"], cfg["out"], cfg["format"])
    else:
        print(f"q={cfg['q']} computed={result.computed_count} "
              f"est1={result.est1_count} est2={result.est2_count} "
              f"wall_ms={result.wall_ms:.1f}")
    return 0


SBM_DEFAULTS = dict(params=None, paper=False, seed=None, out="sbm")


def _cmd_sbm(args) -> int:
    cfg = _merge_config(args, SBM_DEFAULTS)
    if args.dump_config:
        print(json.dumps(cfg, indent=2))
    params = _load_params(argparse.Namespace(**cfg))
    if cfg["seed"] is not None:
        from dataclasses import replace
        params = replace(params, seed=cfg["seed"])
    lg = generate_sbm(params)
    prefix = Path(cfg["out"])
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_edge_list(lg.graph, prefix.with_suffix(".edges"))
    _write_csv(prefix.parent / f"{prefix.name}_labels.csv", ["vertex", "block"],
               enumerate(lg.labels.tolist()))
    params_to_json(params, prefix.parent / f"{prefix.name}_params.json")
    print(f"n={lg.graph.n} m={lg.graph.m}")
    return 0


EVAL_DEFAULTS = dict(mode=None, params=None, paper=False, runs=200, k=1,
                     q_values="61,70,100,150,200", seed=0, workers=None,
                     out="eval")


def _cmd_eval(args) -> int:
    cfg = _merge_config(args, EVAL_DEFAULTS)
    if cfg["workers"] is None:
        cfg["workers"] = _default_workers()
    if args.dump_config:
        print(json.dumps(cfg, indent=2))
    if cfg["mode"] not in ("roc", "ari"):
        raise ValueError("--mode must be roc or ari")
    if cfg["runs"] < 1:
        raise ValueError("runs must be >= 1")
    params = _load_params(argparse.Namespace(**cfg))
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg["mode"] == "roc":
        res = monte_carlo_roc(params, cfg["runs"], cfg["k"], cfg["seed"],
                              workers=cfg["workers"])
        _write_csv(out_dir / "roc_mean_curve.csv", ["fpr", "mean_tpr"],
                   [(repr(float(f)), repr(float(t)))
                    for f, t in zip(res.grid_fpr, res.mean_tpr)])
        _write_csv(out_dir / "roc_runs.csv", ["run_id", "auc"],
                   [(i, repr(float(a))) for i, a in enumerate(res.run_aucs)])
        print(f"mean_auc={res.mean_auc:.6f}")
    else:
        q_values = _parse_q_values(cfg["q_values"])
        res = monte_carlo_ari(params, cfg["runs"], cfg["k"], q_values,
                              cfg["seed"], workers=cfg["workers"])
        rows = []
        for run_id in range(res.values.shape[0]):
            for qi, q in enumerate(res.q_values):
                rows.append((run_id, q, repr(float(res.values[run_id, qi]))))
        _write_csv(out_dir / "ari_runs.csv", ["run_id", "q", "ari"], rows)
        _write_csv(out_dir / "ari_summary.csv", ["q", "mean_ari", "sd_ari"],
                   [(q, repr(float(m)), repr(float(s)))
                    for q, m, s in zip(res.q_values, res.mean, res.sd)])
        for q, m, s in zip(res.q_values, res.mean, res.sd):
            print(f"q={q} mean_ari={m:.4f} sd={s:.4f}")
    return 0


BENCH_DEFAULTS = dict(input=None, q_values=None, workers=None, out="bench.csv")


def _cmd_bench_trim(args) -> int:
    cfg = _merge_config(args, BENCH_DEFAULTS)
    if cfg["workers"] is None:
        cfg["workers"] = _default_workers()
    if args.dump_config:
        print(json.dumps(cfg, indent=2))
    if not cfg["input"]:
        raise ValueError("--input is required")
    if not cfg["q_values"]:
        raise ValueError("--q-values is required")
    q_values = _parse_q_values(cfg["q_values"])
    if any(b <= a for a, b in zip(q_values, q_values[1:])):
        raise ValueError("q-values must be strictly ascending")
    in_path = Path(cfg["input"])
    if not in_path.exists():
        raise FileNotFoundError(f"input graph not found: {in_path}")
    g = load_edge_list(in_path)
    rows = []
    for q in q_values:
        result = topQ_lstat_parallel(g, q, cfg["workers"])
        rows.append((q, f"{result.wall_ms:.3f}", result.computed_count,
                     result.est1_count, result.est2_count))
    _write_csv(cfg["out"], ["q", "wall_ms", "computed_count",
                            "est1_count", "est2_count"], rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activescan",
        description="Active-community detection in large directed graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--dump-config", action="store_true",
                       help="print effective configuration")

    p = sub.add_parser("detect", help="run the full detection pipeline")
    p.add_argument("--input")
    p.add_argument("--out")
    p.add_argument("--k", type=int)
    p.add_argument("--Q", dest="q", type=int)
    p.add_argument("--similarity-k", dest="similarity_k", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--clusters", type=int)
    p.add_argument("--max-clusters", dest="max_clusters", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--emit-similarity", dest="emit_similarity",
                   action="store_const", const=True)
    common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("topq", help="top-Q locality statistics with trim report")
    p.add_argument("--input")
    p.add_argument("--Q", dest="q", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])
    common(p)
    p.set_defaults(func=_cmd_topq)

    p = sub.add_parser("sbm", help="sample a stochastic block model graph")
    p.add_argument("--params", help="JSON file with block_sizes/p/seed")
    p.add_argument("--paper", action="store_const", const=True,
                   help="use the benchmark configuration")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output prefix")
    common(p)
    p.set_defaults(func=_cmd_sbm)

    p = sub.add_parser("eval", help="Monte-Carlo ROC/ARI evaluation")
    p.add_argument("--mode", choices=["roc", "ari"])
    p.add_argument("--params")
    p.add_argument("--paper", action="store_const", const=True)
    p.add_argument("--runs", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q-values", dest="q_values")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench-trim", help="trimming cost against Q")
    p.add_argument("--input")
    p.add_argument("--q-values", dest="q_values")
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=_cmd_bench_trim)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # machine-readable failure for scripting
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, FileNotFoundError):
            payload["path"] = str(exc).rsplit(": ", 1)[-1]
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
