"""Runs one workload's operations in a fresh process.

Usage: python3 perfbench/child.py SPEC_JSON

run.py writes the spec after set-up and starts this script, so that the
peak RSS of this process is the operations' own. The script warms up,
then runs rounds of the workload's operations until the time budget is
spent, timing each operation from outside and checking its output after
the clock stops. With tracing on, rounds alternate untraced and traced;
the difference between the two is the tracing overhead. The result, and
the spans of a traced run, are written to the paths the spec names.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

MIN_ROUNDS = 2  # outputs are compared across operations, and traced vs untraced
HARD_LIMIT_S = 120  # no round starts later than this, whatever the budget


class Outputs:
    """What the first operation of each kind produced; later ones must match."""

    def __init__(self, wl, identity_gate):
        self.wl = wl
        self.identity_gate = identity_gate
        self.digests: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self.quality: dict[str, float] = {}
        self.self_check: dict[str, bool] = {}

    def verify(self, kind: str, out: dict) -> list[str]:
        errors = self.wl.check(kind, out)
        if errors:
            return errors
        digests = self.wl.digests(kind, out)
        counts = {f"{kind}:{k}": v for k, v in self.wl.counts(kind, out).items()}
        if kind not in self.digests:
            self.digests[kind] = digests
            self.counts.update(counts)
            self.quality.update(self.wl.quality(kind, out))
            self.self_check.update(self.wl.self_check(kind, out, digests))
        return self.identity_gate(self.digests[kind], digests) + [
            f"{k} changed between operations" for k, v in counts.items() if self.counts[k] != v]


def run_op(op, op_id: int, tracer) -> tuple[dict | None, float, list[str]]:
    """Time one operation; with a tracer, inside the operation's span."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.span("op.cli" if op.cli else "op.library", op=op_id):
                out = op.run()
    except Exception as exc:  # an operation that raised is a failed one
        return None, time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
    return out, time.perf_counter() - t0, []


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import envinfo
    import tracing
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]][1](spec, Path(spec["work"]))
    outputs = Outputs(wl, workloads.identity_gate)
    tracer = tracing.Tracer() if spec["trace"] else None
    wl.warmup()

    ops: list[dict] = []
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        first_op = len(ops)
        if traced:
            tracer.install()
        try:
            for op in wl.ops():
                out, seconds, errors = run_op(op, len(ops), tracer if traced else None)
                if not errors:
                    try:
                        errors = outputs.verify(op.kind, out)
                    except (OSError, ValueError, KeyError, IndexError) as exc:
                        errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
                ops.append({"kind": op.kind, "seconds": seconds, "runs": op.runs,
                            "traced": traced, "errors": errors})
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "ops": list(range(first_op, len(ops))),
                       "seconds": sum(op["seconds"] for op in ops[first_op:])})
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["seconds"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and (elapsed + typical > spec["seconds"]
                                          or elapsed > HARD_LIMIT_S):
            break

    result = {"env": envinfo.environment(spec["seed"]), "ops": ops, "rounds": rounds,
              "digests": outputs.digests, "counts": outputs.counts,
              "quality": outputs.quality, "self_check": outputs.self_check,
              "unsteady": []}
    if tracer is not None:
        per_round = [tracing.round_metrics(tracer.spans, set(r["ops"]))
                     for r in rounds if r["traced"]]
        for key in ("similarity.pairs", "sbm.edges", "spectral.order"):
            if len({m[key] for m in per_round}) != 1:
                result["unsteady"].append(f"{key} differs between traced rounds")
            result["counts"][key] = per_round[0][key]
        layers = tracing.median_metrics(per_round)
        plain = statistics.median(r["seconds"] for r in rounds if not r["traced"])
        traced_s = statistics.median(r["seconds"] for r in rounds if r["traced"])
        layers["trace.overhead_pct"] = 100.0 * (traced_s - plain) / plain
        result["layers"] = layers
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
