"""Command-line interface: detect, topq, sbm, eval, bench-trim.

Each command's options are declared once, in OPTIONS, which drives the
parser, the defaults, the config-file keys and --dump-config. Option
precedence is flags > --config file > defaults, and each config-file value
is type-checked against its option's entry. All randomness flows from
--seed; per-stage seeds are derived by labeled hashing.
ACTIVE_SCAN_THREADS (a positive integer) supplies the default of
--workers, which sizes the thread pool eval maps its Monte-Carlo runs in;
outputs are identical for every count, and BLAS thread counts are not
touched. topq, detect and bench-trim accept it and leave it unused: they
search in one thread, with identical results for any value.

Every output names a vertex by its id in the input edge list (Graph.ids);
the library works on the dense ids that load_edge_list assigns in id order,
so input ids that are already 0..n-1 come out unchanged.

The trim counters of topq, bench-trim and detect's diagnostics.json are,
with t the final Q-th value: computed_count, the vertices whose exact
statistic was evaluated (those whose smaller bound is >= t);
est1_count / est2_count, the vertices whose deg^2 + deg / capped bound
is >= t, i.e. what that bound alone would leave to compute. At a detect
--k other than 1 there are no bounds: all n vertices are computed and
both estimates are 0.

detect also writes timings.json: its wall time and, for each stage (load,
rank, similarity, model selection, clustering, MDS, write), the wall ms
spent in it and the process's peak resident set (VmHWM, kB) read after
it, null where /proc/self/status is missing. The other outputs never hold
a timing other than diagnostics.json's trim_wall_ms.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import replace
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
from .trimming import topQ_lstat_parallel, write_trim_report


def _default_workers() -> int:
    env = os.environ.get("ACTIVE_SCAN_THREADS")
    try:
        workers = int(env or 1)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"ACTIVE_SCAN_THREADS must be a positive integer, got {env!r}")
    return workers


INT = dict(type=int)
ORDER = dict(INT, low=0)
COUNT = dict(INT, low=1)
SWITCH = dict(action="store_const", const=True)
Q = dict(COUNT, flag="--Q")
UNUSED = dict(COUNT, help="accepted and unused: the search runs in one thread")

# command -> config key -> (default, add_argument kwargs), in --dump-config
# order. The flag is --key with dashes unless the kwargs name one; an absent
# flag stays None and falls through to the --config file, then the default.
# A `low` entry is the smallest value the option takes, checked before any
# work starts.
OPTIONS = {
    "detect": {
        "input": (None, {}), "out": ("out", {}), "k": (1, ORDER),
        "q": (2000, Q), "similarity_k": (None, COUNT),
        "sigma": (None, dict(type=float)), "clusters": (None, COUNT),
        "max_clusters": (10, COUNT), "workers": (None, UNUSED), "seed": (0, INT),
        "emit_similarity": (False, SWITCH)},
    "topq": {
        "input": (None, {}), "q": (2000, Q), "workers": (None, UNUSED), "out": (None, {}),
        "format": ("json", dict(choices=["csv", "json"]))},
    "sbm": {
        "params": (None, dict(help="JSON file with block_sizes/p/seed")),
        "paper": (False, dict(SWITCH, help="use the benchmark configuration")),
        "seed": (None, INT), "out": ("sbm", dict(help="output prefix"))},
    "eval": {
        "mode": (None, dict(choices=["roc", "ari"])), "params": (None, {}),
        "paper": (False, SWITCH), "runs": (200, COUNT), "k": (1, ORDER),
        "q_values": ("61,70,100,150,200", {}), "seed": (0, INT),
        "workers": (None, COUNT), "out": ("eval", {})},
    "bench-trim": {
        "input": (None, {}), "q_values": (None, {}), "workers": (None, UNUSED),
        "out": ("bench.csv", {})},
}


def _check_config_value(key: str, value, default, kwargs: dict) -> None:
    """A config value must be one its flag could give, or null for a None default."""
    if value is None and default is None:
        return
    kind = bool if "const" in kwargs else kwargs.get("type", str)
    choices = kwargs.get("choices")
    # type(), not isinstance: JSON true is not an integer; any number is a float
    if (type(value) not in ((int, float) if kind is float else (kind,))
            or choices and value not in choices):
        want = f"one of {choices}" if choices else kind.__name__
        raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


def _options(args: argparse.Namespace) -> dict:
    """Flags > --config file > defaults, then the ACTIVE_SCAN_THREADS
    default of workers, --dump-config, the --input requirement and each
    option's lowest value."""
    table = OPTIONS[args.command]
    cfg = {key: default for key, (default, _) in table.items()}
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text())
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object, "
                             f"got {type(file_cfg).__name__}")
        unknown = set(file_cfg) - set(table)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_config_value(key, value, *table[key])
        cfg.update(file_cfg)
    for key in table:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if "workers" in cfg and cfg["workers"] is None:
        cfg["workers"] = _default_workers()
    if args.dump_config:
        print(json.dumps(cfg, indent=2))
    if "input" in cfg and not cfg["input"]:
        raise ValueError("--input is required")
    for key, (_, kwargs) in table.items():
        if "low" in kwargs and cfg[key] is not None and cfg[key] < kwargs["low"]:
            name = kwargs.get("flag", key).lstrip("-")
            raise ValueError(f"{name} must be >= {kwargs['low']}")
    return cfg


def _input_path(cfg: dict) -> Path:
    path = Path(cfg["input"])
    if not path.exists():
        raise FileNotFoundError(f"input graph not found: {path}")
    return path


def _write_csv(path, header, rows) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _parse_q_values(text: str) -> list[int]:
    vals = []
    for pos, tok in enumerate(text.replace(",", " ").split(), 1):
        try:
            vals.append(int(tok))
        except ValueError:
            raise ValueError(f"--q-values: token {pos}, {tok!r}, is not an integer") from None
    if not vals:
        raise ValueError("empty q-values")
    return vals


def _load_params(cfg: dict):
    if cfg["paper"]:
        return paper_params()
    if cfg["params"]:
        return params_from_json(cfg["params"])
    raise ValueError("either --paper or --params is required")


PROC_STATUS = "/proc/self/status"


def _vm_hwm_kb() -> int | None:
    """The process's peak resident set in kB, None where /proc has no status."""
    try:
        with open(PROC_STATUS) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class _StageClock:
    """Wall ms per stage, summed over a stage's laps, and VmHWM after its last."""

    def __init__(self, stages):
        self.start = self.mark = time.perf_counter()
        self.stages = {name: {"wall_ms": 0.0, "vm_hwm_kb": None} for name in stages}

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[stage]["wall_ms"] += (now - self.mark) * 1e3
        self.stages[stage]["vm_hwm_kb"] = _vm_hwm_kb()
        self.mark = now

    def report(self) -> dict:
        return {"wall_ms": (time.perf_counter() - self.start) * 1e3, "stages": self.stages}


def _named(g, result):
    """result with each vertex named by its input id."""
    return replace(result, entries=[(int(g.ids[v]), val) for v, val in result.entries])


def _cmd_detect(cfg: dict) -> int:
    clock = _StageClock(("load", "rank", "similarity", "model_selection", "clustering",
                         "mds", "write"))
    if cfg["sigma"] is not None and not cfg["sigma"] > 0:
        raise ValueError("sigma must be positive")
    if cfg["clusters"] is not None and cfg["clusters"] > cfg["q"]:
        raise ValueError(f"clusters must be <= Q, got {cfg['clusters']} > {cfg['q']}")
    in_path = _input_path(cfg)
    out_dir = Path(cfg["out"])

    g = load_edge_list(in_path)
    clock.lap("load")
    result = topQ_lstat_parallel(g, cfg["q"], cfg["workers"], cfg["k"])
    clock.lap("rank")
    _write_csv(out_dir / "topq.csv", ["vertex", f"psi{cfg['k']}"], _named(g, result).entries)
    clock.lap("write")

    selected = np.array([v for v, _ in result.entries[:cfg["q"]]], dtype=np.int64)
    names = g.ids[selected].tolist()
    sim_k = cfg["similarity_k"] if cfg["similarity_k"] is not None else max(cfg["k"], 1)
    sim = build_similarity_matrix(g, selected, sim_k)
    clock.lap("similarity")
    if cfg["emit_similarity"]:
        write_similarity_csv(replace(sim, vertices=names), out_dir / "similarity.csv")
        clock.lap("write")

    max_c = min(cfg["max_clusters"], sim.order)
    floor_applied = False
    if cfg["clusters"] is not None:
        num_clusters = cfg["clusters"]
    elif sim.order < 2 or max_c < 2:
        num_clusters = 1
    else:
        evals = normalized_affinity_spectrum(model_selection_affinity(sim.values), max_c,
                                             overwrite_w=True)
        num_clusters = estimate_num_clusters(evals, max_c)
        floor_applied = eigengap_floor_applied(evals, max_c)
    clock.lap("model_selection")
    sigma = cfg["sigma"] if cfg["sigma"] is not None else auto_sigma(sim.values)
    # formed only now and held by no name here: model selection's arrays
    # are gone, and MDS forms its own after the clustering returns
    labels, diag = spectral_cluster(rbf_affinity(sim.values, sigma), num_clusters,
                                    derive_seed(cfg["seed"], "spectral"), overwrite_w=True)
    clock.lap("clustering")
    _write_csv(out_dir / "clusters.csv", ["vertex", "cluster"],
               zip(names, labels.tolist()))
    clock.lap("write")

    mds = classical_mds(sim.values, dims=min(2, sim.order))
    clock.lap("mds")
    coords = mds.coords if mds.coords.shape[1] == 2 else \
        np.column_stack([mds.coords, np.zeros(sim.order)])
    _write_csv(out_dir / "mds.csv", ["vertex", "x", "y"],
               [(v, repr(x), repr(y))
                for v, (x, y) in zip(names, coords.tolist())])

    diagnostics = {
        "n": g.n, "m": g.m, "q": cfg["q"], "k": cfg["k"], "similarity_k": sim_k,
        "sigma": sigma, "num_clusters": int(num_clusters),
        "cluster_floor_applied": bool(floor_applied),
        "eigenvalues": [float(x) for x in diag.eigenvalues],
        "kmeans_inertia": diag.kmeans_inertia, "restarts_used": diag.restarts_used,
        "mds_negative_clamped": mds.negative_clamped,
        "computed_count": result.computed_count, "est1_count": result.est1_count,
        "est2_count": result.est2_count, "trim_wall_ms": result.wall_ms,
        "seed": cfg["seed"], "workers": cfg["workers"],
    }
    (out_dir / "diagnostics.json").write_text(json.dumps(diagnostics, indent=2) + "\n")
    clock.lap("write")
    (out_dir / "timings.json").write_text(json.dumps(clock.report(), indent=2) + "\n")
    return 0


def _cmd_topq(cfg: dict) -> int:
    g = load_edge_list(_input_path(cfg))
    result = topQ_lstat_parallel(g, cfg["q"], cfg["workers"])
    if cfg["out"]:
        write_trim_report(_named(g, result), cfg["q"], cfg["out"], cfg["format"])
    else:
        print(f"q={cfg['q']} computed={result.computed_count} "
              f"est1={result.est1_count} est2={result.est2_count} "
              f"wall_ms={result.wall_ms:.1f}")
    return 0


def _cmd_sbm(cfg: dict) -> int:
    params = _load_params(cfg)
    if cfg["seed"] is not None:
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


def _cmd_eval(cfg: dict) -> int:
    if cfg["mode"] not in ("roc", "ari"):
        raise ValueError("--mode must be roc or ari")
    q_values = _parse_q_values(cfg["q_values"]) if cfg["mode"] == "ari" else None
    params = _load_params(cfg)
    out_dir = Path(cfg["out"])
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
        res = monte_carlo_ari(params, cfg["runs"], cfg["k"], q_values,
                              cfg["seed"], workers=cfg["workers"])
        _write_csv(out_dir / "ari_runs.csv", ["run_id", "q", "ari"],
                   [(run_id, q, repr(float(res.values[run_id, qi])))
                    for run_id in range(res.values.shape[0])
                    for qi, q in enumerate(res.q_values)])
        _write_csv(out_dir / "ari_summary.csv", ["q", "mean_ari", "sd_ari"],
                   [(q, repr(float(m)), repr(float(s)))
                    for q, m, s in zip(res.q_values, res.mean, res.sd)])
        for q, m, s in zip(res.q_values, res.mean, res.sd):
            print(f"q={q} mean_ari={m:.4f} sd={s:.4f}")
    return 0


def _cmd_bench_trim(cfg: dict) -> int:
    if not cfg["q_values"]:
        raise ValueError("--q-values is required")
    q_values = _parse_q_values(cfg["q_values"])
    if min(q_values) < 1:
        raise ValueError("q-values must be >= 1")
    if any(b <= a for a, b in zip(q_values, q_values[1:])):
        raise ValueError("q-values must be strictly ascending")
    g = load_edge_list(_input_path(cfg))
    rows = []
    for q in q_values:
        result = topQ_lstat_parallel(g, q, cfg["workers"])
        rows.append((q, f"{result.wall_ms:.3f}", result.computed_count,
                     result.est1_count, result.est2_count))
    _write_csv(cfg["out"], ["q", "wall_ms", "computed_count",
                            "est1_count", "est2_count"], rows)
    return 0


COMMANDS = {
    "detect": ("run the full detection pipeline", _cmd_detect),
    "topq": ("top-Q locality statistics with trim report", _cmd_topq),
    "sbm": ("sample a stochastic block model graph", _cmd_sbm),
    "eval": ("Monte-Carlo ROC/ARI evaluation", _cmd_eval),
    "bench-trim": ("trimming cost against Q", _cmd_bench_trim),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activescan",
        description="Active-community detection in large directed graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (_, kwargs) in OPTIONS[command].items():
            kwargs = dict(kwargs)
            kwargs.pop("low", None)
            p.add_argument(kwargs.pop("flag", "--" + key.replace("_", "-")),
                           dest=key, **kwargs)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--dump-config", action="store_true",
                       help="print effective configuration")
        p.set_defaults(func=func)
    return parser


# built on the first main() call; parsing leaves the parser unchanged
_cached_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _cached_parser().parse_args(argv)
    try:
        return args.func(_options(args))
    except Exception as exc:  # machine-readable failure for scripting
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, FileNotFoundError):
            # the OS names the file; the CLI's own message ends with it
            payload["path"] = str(exc.filename or str(exc).rsplit(": ", 1)[-1])
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
