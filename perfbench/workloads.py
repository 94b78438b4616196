"""The three workloads of the activescan benchmark.

Each workload has two halves. `setup_*` runs in the benchmark's parent
process: it generates the graphs from the workload seed, writes the edge
lists the program reads, and computes the references the gates compare
against. The workload class runs in a fresh child process: it calls the
CLI and library on the written files, one round of operations at a time,
and checks every output. README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import activescan
from activescan import Graph, VertexMarker, local_stat, paper_params
from activescan.cli import main as cli_main
from activescan.seeds import derive_seed


class SetupError(RuntimeError):
    """A generated input is not the input the workload promises."""


# Criterion 9 of the acceptance suite: this generator at these values gives
# exactly this graph. Set-up fails when it does not.
PA_N, PA_ATTACH, PA_SEED, PA_M = 100_000, 3, 7, 299_418
PA_Q = 2000
PA_WARM_N, PA_WARM_Q = 3000, 300  # prefix graph for the untimed warm-up

HUB_N = 10_000
HUB_Q = 1000
HUB_SAMPLE = 32  # vertices checked against local_stat, vertex 0 included

SBM_RUNS = {"roc_k1": 20, "roc_k2": 4, "ari": 4}
SBM_Q_VALUES = (70, 200)
SBM_REF_RUNS = 4  # leading Monte-Carlo runs with an independent AUC reference
AUC_TOL = 1e-9


@dataclass
class Op:
    """One timed operation: `run` does the work, the gates read its output."""

    kind: str
    run: Callable[[], dict]
    runs: int = 1  # Monte-Carlo runs inside the operation
    cli: bool = True  # the operation is one call of the CLI's main()


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _digest_files(out_dir: Path, names) -> dict[str, str]:
    return {name: _digest_bytes((out_dir / name).read_bytes()) for name in names}


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _write_pairs(path: Path, src, dst) -> None:
    path.write_text("".join(f"{a} {b}\n" for a, b in zip(src.tolist(), dst.tolist())))


def _call_cli(argv: list[str]) -> int:
    # eval prints a summary line; keep it out of the benchmark's own output
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


# ---------------------------------------------------------------------------
# gates, shared by the operations and by the self-check that proves they fire


def topq_gate(values: list[int], reference: list[int]) -> list[str]:
    """The first Q values equal the reference top Q as a multiset."""
    q = len(reference)
    if len(values) < q:
        return [f"top-Q has {len(values)} values, expected at least {q}"]
    if sorted(values[:q]) != sorted(reference):
        return ["top-Q values differ from the reference"]
    return []


def identity_gate(first: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Every output is byte-identical to the first operation's."""
    return [f"{name} differs from the first operation"
            for name in sorted(first) if digests.get(name) != first[name]]


def range_gate(label: str, values, lo: float, hi: float) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and lo <= v <= hi)]
    return [f"{label}: {len(bad)} value(s) outside [{lo}, {hi}]"] if bad else []


# ---------------------------------------------------------------------------
# pa-detect


def preferential_attachment(n: int, attach: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Directed preferential attachment, edge for edge as criterion 9 builds it."""
    rng = np.random.default_rng(seed)
    src, dst = [], []
    pool = [0]  # endpoint pool repeats vertices once per incident edge
    for v in range(1, n):
        picks = set()
        for _ in range(min(attach, v)):
            picks.add(pool[rng.integers(len(pool))])
        for u in picks:
            src.append(v)
            dst.append(u)
            pool.append(u)
        pool.append(v)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def setup_pa_detect(seed: int, work: Path) -> dict:
    src, dst = preferential_attachment(PA_N, PA_ATTACH, PA_SEED)
    g = Graph.from_edges(PA_N, src, dst)
    if (g.n, g.m) != (PA_N, PA_M):
        raise SetupError(f"PA generator gave n={g.n}, m={g.m}; criterion 9 "
                         f"needs n={PA_N}, m={PA_M}")
    # The workload seed relabels the vertices: the graph stays criterion 9's,
    # while vertex ids, and with them every id tie-break, change.
    perm = np.random.default_rng(derive_seed(seed, "relabel")).permutation(PA_N)
    s, d = g.edge_arrays()
    _write_pairs(work / "pa.edges", perm[s], perm[d])
    warm = s < PA_WARM_N  # attachment only reaches back, so this is a PA graph
    _write_pairs(work / "pa_warm.edges", s[warm], d[warm])
    top = np.sort(activescan.psi_all(g, 1))[::-1][:PA_Q]
    return {"reference_top": top.tolist(), "counts": {"graph.edges": g.m}}


class PaDetect:
    """`detect --Q 2000 --k 1 --workers 1` on criterion 9's PA graph."""

    def __init__(self, spec: dict, work: Path):
        self.seed = spec["seed"]
        self.reference = spec["reference_top"]
        self.work = work

    def _detect(self, edges: Path, q: int, out: Path) -> dict:
        rc = _call_cli(["detect", "--input", str(edges), "--Q", str(q),
                        "--k", "1", "--workers", "1", "--seed", str(self.seed),
                        "--out", str(out)])
        return {"rc": rc, "dir": out}

    def warmup(self) -> None:
        self._detect(self.work / "pa_warm.edges", PA_WARM_Q, self.work / "warm")

    def ops(self) -> list[Op]:
        return [Op("detect", lambda: self._detect(self.work / "pa.edges", PA_Q,
                                                  self.work / "detect"))]

    @staticmethod
    def parse(out: dict) -> dict:
        d = out["dir"]
        topq = [(int(v), int(x)) for v, x in _read_csv(d / "topq.csv")]
        clusters = [(int(v), int(c)) for v, c in _read_csv(d / "clusters.csv")]
        mds = [(int(v), float(x), float(y)) for v, x, y in _read_csv(d / "mds.csv")]
        return {"topq": topq, "clusters": clusters, "mds": mds}

    def gate_parsed(self, p: dict) -> list[str]:
        errors = topq_gate([x for _, x in p["topq"]], self.reference)
        selected = {v for v, _ in p["topq"][:len(self.reference)]}
        if {v for v, _ in p["clusters"]} != selected or len(p["clusters"]) != len(selected):
            errors.append("clusters.csv does not cover exactly the selected vertices")
        if {v for v, _, _ in p["mds"]} != selected or len(p["mds"]) != len(selected):
            errors.append("mds.csv does not cover exactly the selected vertices")
        errors += range_gate("mds coordinates", [c for _, x, y in p["mds"] for c in (x, y)],
                             -math.inf, math.inf)
        return errors

    def check(self, kind: str, out: dict) -> list[str]:
        if out["rc"] != 0:
            return [f"detect exited with {out['rc']}"]
        return self.gate_parsed(self.parse(out))

    def digests(self, kind: str, out: dict) -> dict[str, str]:
        d = out["dir"]
        digests = _digest_files(d, ("topq.csv", "clusters.csv", "mds.csv"))
        diag = json.loads((d / "diagnostics.json").read_text())
        diag.pop("trim_wall_ms")  # a timing, not an output
        digests["diagnostics.json"] = _digest_bytes(json.dumps(diag, sort_keys=True).encode())
        return digests

    def counts(self, kind: str, out: dict) -> dict[str, int]:
        diag = json.loads((out["dir"] / "diagnostics.json").read_text())
        return {f"trimming.{key}": diag[key]
                for key in ("computed_count", "est1_count", "est2_count")}

    def quality(self, kind: str, out: dict) -> dict[str, float]:
        return {}

    def self_check(self, kind: str, out: dict, first: dict[str, str]) -> dict[str, bool]:
        """Corrupt a copy of real outputs; each corruption must fail a gate."""
        p = self.parse(out)
        last = len(self.reference) - 1
        vertex, value = p["topq"][last]
        p["topq"][last] = (vertex, value - 1)
        clusters = (out["dir"] / "clusters.csv").read_bytes().splitlines(keepends=True)
        member, label = clusters[1].decode().strip().split(",")
        clusters[1] = f"{member},{int(label) + 1}\n".encode()
        changed = dict(first, **{"clusters.csv": _digest_bytes(b"".join(clusters))})
        return {"top-Q value decremented": bool(self.gate_parsed(p)),
                "clusters.csv differs between operations": bool(identity_gate(first, changed))}


# ---------------------------------------------------------------------------
# hub-rank


def setup_hub_rank(seed: int, work: Path) -> dict:
    rng = np.random.default_rng(derive_seed(seed, "hub"))
    leaves = np.arange(1, HUB_N, dtype=np.int64)
    hub = np.zeros(HUB_N - 1, dtype=np.int64)
    rnd_src = rng.integers(0, HUB_N, 2 * HUB_N)
    rnd_dst = rng.integers(0, HUB_N, 2 * HUB_N)
    # from_edges drops the random self-loops and repeats
    g = Graph.from_edges(HUB_N, np.concatenate([hub, leaves, rnd_src]),
                         np.concatenate([leaves, hub, rnd_dst]))
    _write_pairs(work / "hub.edges", *g.edge_arrays())
    sample = np.concatenate([[0], 1 + rng.choice(HUB_N - 1, HUB_SAMPLE - 1, replace=False)])
    marker = VertexMarker(g.n)
    return {"counts": {"graph.edges": g.m}, "sample": sample.tolist(),
            "sample_psi": [local_stat(g, int(v), marker).value for v in sample]}


class HubRank:
    """psi_1 ranking of a hub graph: topq with 1 and 2 workers, and psi_all."""

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        self.work = work
        self.edges = work / "hub.edges"
        self.graph = activescan.load_edge_list(self.edges)
        if self.graph.m != spec["counts"]["graph.edges"]:
            raise SetupError(f"hub graph read back with m={self.graph.m}")
        self.sweep_top: list[int] | None = None
        self.entries_w1: str | None = None

    def _topq(self, workers: int) -> dict:
        out = self.work / f"topq_w{workers}.json"
        rc = _call_cli(["topq", "--input", str(self.edges), "--Q", str(HUB_Q),
                        "--workers", str(workers), "--out", str(out)])
        return {"rc": rc, "path": out}

    def _sweep(self) -> dict:
        return {"scores": activescan.psi_all(self.graph, 1)}

    def warmup(self) -> None:
        for op in self.ops():
            op.run()

    def ops(self) -> list[Op]:
        # the sweep goes first: its top Q is the reference for both searches
        return [Op("sweep", self._sweep, cli=False),
                Op("topq", lambda: self._topq(1)),
                Op("topq_w2", lambda: self._topq(2))]

    @staticmethod
    def report(out: dict) -> dict:
        return json.loads(out["path"].read_text())

    def gate_sweep(self, scores: np.ndarray) -> list[str]:
        if scores.shape != (HUB_N,):
            return [f"psi_all returned shape {scores.shape}"]
        got = scores[np.array(self.spec["sample"])].tolist()
        if got != self.spec["sample_psi"]:
            return ["psi_all disagrees with local_stat on the sampled vertices"]
        return []

    def gate_topq(self, values: list[int]) -> list[str]:
        if self.sweep_top is None:
            return ["no sweep reference to check top-Q against"]
        return topq_gate(values, self.sweep_top)

    def check(self, kind: str, out: dict) -> list[str]:
        if kind == "sweep":
            errors = self.gate_sweep(out["scores"])
            if not errors:
                self.sweep_top = np.sort(out["scores"])[::-1][:HUB_Q].tolist()
            return errors
        if out["rc"] != 0:
            return [f"topq exited with {out['rc']}"]
        report = self.report(out)
        errors = self.gate_topq([x for _, x in report["entries"]])
        entries = _digest_bytes(json.dumps(report["entries"]).encode())
        if kind == "topq":
            self.entries_w1 = entries
        elif entries != self.entries_w1:
            errors.append("topq --workers 2 entries differ from --workers 1")
        return errors

    def digests(self, kind: str, out: dict) -> dict[str, str]:
        if kind == "sweep":
            return {"psi_all": _digest_bytes(out["scores"].astype("<i8").tobytes())}
        report = self.report(out)
        digests = {"entries": _digest_bytes(json.dumps(report["entries"]).encode())}
        if kind == "topq":
            # the threaded search's counters vary from run to run by design
            digests["counters"] = _digest_bytes(json.dumps(
                [report[k] for k in ("q", "computed_count", "est1_count", "est2_count")]).encode())
        return digests

    def counts(self, kind: str, out: dict) -> dict[str, int]:
        if kind != "topq":
            return {}
        report = self.report(out)
        return {f"trimming.{key}": report[key]
                for key in ("computed_count", "est1_count", "est2_count")}

    def quality(self, kind: str, out: dict) -> dict[str, float]:
        return {}

    def self_check(self, kind: str, out: dict, first: dict[str, str]) -> dict[str, bool]:
        if kind != "topq":
            return {}
        values = [x for _, x in self.report(out)["entries"]]
        values[HUB_Q - 1] -= 1
        return {"top-Q value decremented": bool(self.gate_topq(values))}


# ---------------------------------------------------------------------------
# sbm-eval


def dense_psi(g: Graph, k: int) -> np.ndarray:
    """Order-k statistic of every vertex by dense matrix products.

    Independent of the library's sparse sweep; for small graphs only.
    """
    src, dst = g.edge_arrays()
    adj = np.zeros((g.n, g.n))
    adj[src, dst] = 1.0
    hood = ((adj + adj.T + np.eye(g.n)) > 0).astype(float)
    reach = hood
    for _ in range(k - 1):
        reach = ((reach @ hood) > 0).astype(float)
    return np.rint(((reach @ adj) * reach).sum(axis=1)).astype(np.int64)


def pairwise_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """P(score of a positive > score of a negative), ties counted one half."""
    neg = np.sort(scores[~positive])
    pos = scores[positive]
    below = np.searchsorted(neg, pos, "left")
    ties = np.searchsorted(neg, pos, "right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (pos.size * neg.size))


def setup_sbm_eval(seed: int, work: Path) -> dict:
    # `eval --seed s` samples run r with seed derive_seed(s, "run:r")
    refs: dict[str, list[float]] = {"roc_k1": [], "roc_k2": []}
    edges = 0
    for r in range(SBM_REF_RUNS):
        lg = activescan.generate_sbm(replace(paper_params(), seed=derive_seed(seed, f"run:{r}")))
        edges += lg.graph.m
        for k in (1, 2):
            refs[f"roc_k{k}"].append(pairwise_auc(dense_psi(lg.graph, k), lg.labels >= 2))
    return {"reference_auc": refs, "counts": {"sbm.edges": edges}}


class SbmEval:
    """`eval --paper --workers 1`: ROC at k=1 and k=2, ARI at Q=70,200."""

    files = {"roc": ("roc_runs.csv", "roc_mean_curve.csv"),
             "ari": ("ari_runs.csv", "ari_summary.csv")}

    def __init__(self, spec: dict, work: Path):
        self.seed = spec["seed"]
        self.reference = spec["reference_auc"]
        self.work = work

    def _eval(self, kind: str, runs: int, out: Path) -> dict:
        mode = kind.split("_")[0]
        argv = ["eval", "--mode", mode, "--paper", "--runs", str(runs),
                "--seed", str(self.seed), "--workers", "1", "--out", str(out)]
        if mode == "roc":
            argv += ["--k", kind[-1]]
        else:
            argv += ["--k", "1", "--q-values", ",".join(map(str, SBM_Q_VALUES))]
        return {"rc": _call_cli(argv), "dir": out, "mode": mode}

    def warmup(self) -> None:
        for kind in SBM_RUNS:
            self._eval(kind, 1, self.work / "warm")

    def ops(self) -> list[Op]:
        return [Op(kind, lambda kind=kind, runs=runs: self._eval(kind, runs, self.work / kind),
                   runs=runs) for kind, runs in SBM_RUNS.items()]

    @staticmethod
    def parse(out: dict) -> dict:
        d = out["dir"]
        if out["mode"] == "roc":
            return {"auc": [float(a) for _, a in _read_csv(d / "roc_runs.csv")],
                    "tpr": [float(t) for _, t in _read_csv(d / "roc_mean_curve.csv")]}
        return {"ari": [float(a) for _, _, a in _read_csv(d / "ari_runs.csv")],
                "summary": [(int(q), float(m), float(s))
                            for q, m, s in _read_csv(d / "ari_summary.csv")]}

    def gate_parsed(self, kind: str, p: dict) -> list[str]:
        runs = SBM_RUNS[kind]
        if kind.startswith("roc"):
            errors = range_gate("AUC", p["auc"], 0.0, 1.0)
            errors += range_gate("mean TPR", p["tpr"], 0.0, 1.0)
            if len(p["auc"]) != runs:
                errors.append(f"{len(p['auc'])} AUC rows for {runs} runs")
            if any(b < a for a, b in zip(p["tpr"], p["tpr"][1:])):
                errors.append("mean ROC curve is not monotone")
            ref = self.reference[kind]
            if any(abs(a - b) > AUC_TOL for a, b in zip(p["auc"], ref)):
                errors.append("AUC differs from the dense reference")
            return errors
        errors = range_gate("ARI", p["ari"], -1.0, 1.0)
        errors += range_gate("mean ARI", [m for _, m, _ in p["summary"]], -1.0, 1.0)
        errors += range_gate("sd ARI", [s for _, _, s in p["summary"]], 0.0, 1.0)
        if len(p["ari"]) != runs * len(SBM_Q_VALUES):
            errors.append(f"{len(p['ari'])} ARI rows for {runs} runs")
        if tuple(q for q, _, _ in p["summary"]) != SBM_Q_VALUES:
            errors.append("ARI summary has the wrong Q values")
        return errors

    def check(self, kind: str, out: dict) -> list[str]:
        if out["rc"] != 0:
            return [f"eval exited with {out['rc']}"]
        return self.gate_parsed(kind, self.parse(out))

    def digests(self, kind: str, out: dict) -> dict[str, str]:
        return _digest_files(out["dir"], self.files[out["mode"]])

    def counts(self, kind: str, out: dict) -> dict[str, int]:
        return {}

    def quality(self, kind: str, out: dict) -> dict[str, float]:
        p = self.parse(out)
        if kind.startswith("roc"):
            return {f"auc_k{kind[-1]}": float(np.mean(p["auc"]))}
        return {f"ari_q{q}": m for q, m, _ in p["summary"]}

    def self_check(self, kind: str, out: dict, first: dict[str, str]) -> dict[str, bool]:
        if not kind.startswith("roc"):
            return {}
        p = self.parse(out)
        p["auc"][0] -= 1e-3
        return {f"{kind} AUC shifted": bool(self.gate_parsed(kind, p))}


WORKLOADS = {
    "pa-detect": (setup_pa_detect, PaDetect),
    "hub-rank": (setup_hub_rank, HubRank),
    "sbm-eval": (setup_sbm_eval, SbmEval),
}
