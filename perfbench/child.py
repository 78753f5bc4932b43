"""One workload run in its own process: closed loop, one client, no threads.

Usage (started by run.py):
    python3 perfbench/child.py --workload NAME --seed N --seconds S
        [--mode setup|run|trace] [--tiny]

After importing fracpack from ./src and building the op list it prints
READY, so the parent can time set-up.  In run mode it then issues the
ops one at a time, in passes over the whole list, and starts no new pass
once --seconds have elapsed.  Trace mode spends half the time untraced
and half traced and adds per-layer metrics.  The last stdout line is one
JSON object with every execution's latency, exit code and stdout digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fracpack  # noqa: E402
import fracpack.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(fracpack.__file__).resolve().parent != ROOT / "src" / "fracpack":
    sys.exit(f"fracpack imported from {fracpack.__file__}, not from {ROOT / 'src'}")


def _encode(value):
    """JSON-ready form of a library result; big fractions go out as hex."""
    if isinstance(value, Fraction):
        return [hex(value.numerator), hex(value.denominator)]
    return value


def _call(op: dict) -> str:
    module, name = op["func"].split(".")
    fn = getattr(getattr(fracpack, module), name)
    a = op["args"]
    if name == "tail_report":
        r = fn(a["N"], Fraction(a["p"]), a["M"])
        payload = {"N": r.N, "p": str(r.p), "M": r.M, "exact_tail": _encode(r.exact_tail),
                   "hoeffding": r.hoeffding, "flagged": r.flagged}
    else:  # empirical_X_law
        lam = fracpack.make_lacunary(a["lam"])
        payload = fn(lam, a["j"], a["trials"], a["seed"]).to_dict()
    return json.dumps(payload, sort_keys=True)


def run_op(op: dict):
    """(exit code or exception text, stdout text) of one op."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["kind"] == "cli":
                code = fracpack.cli.main(list(op["argv"]))
            else:
                out.write(_call(op))
                code = 0
    except Exception as exc:  # an uncaught error is a failed op; record it
        return f"{type(exc).__name__}: {str(exc)[:200]}", out.getvalue()
    return code, out.getvalue()


def reference_kernel() -> None:
    """Fixed pure-Python work: bytecode dispatch and big-integer products.

    It is timed right before every op.  Identical work on a shared host can
    run up to half again slower for seconds or minutes at a time; the ratio
    of an op's time to the kernel's time next to it barely moves.
    """
    x, s = 3 ** 200, 0
    for i in range(2000):
        s += (x * i) % 1000003


def run_passes(ops, seconds, tracer=None):
    """Whole passes over ops until `seconds` have elapsed.

    Returns one [op index, latency s, exit code or error, stdout digest,
    reference kernel s] record per execution, the first stdout of each op,
    and each pass's duration.
    """
    records, outputs, pass_s = [], {}, []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            k0 = time.perf_counter()
            reference_kernel()
            kernel_s = time.perf_counter() - k0
            root = tracer.begin("op", i) if tracer else None
            t0 = time.perf_counter()
            code, out = run_op(op)
            dt = time.perf_counter() - t0
            if root is not None:
                tracer.end(root)
            records.append([i, dt, code, hashlib.sha256(out.encode()).hexdigest(), kernel_s])
            outputs.setdefault(i, out)
        pass_s.append(time.perf_counter() - t_pass)
    return records, outputs, pass_s


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None, help="write the trace spans to this file")
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed, args.tiny)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {"passes": [], "records": [], "outputs": {}}
    phases = [(None, args.seconds)]
    if args.mode == "trace":
        phases = [(None, args.seconds / 2), (tracing.Tracer(), args.seconds / 2)]
    for tracer, seconds in phases:
        if tracer is not None:
            tracer.install()
        records, outputs, pass_s = run_passes(ops, seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.layer_metrics(tracer, len(pass_s), len(records))
            if args.spans:
                _write_spans(args.spans, tracer)
        result["passes"].append({"traced": tracer is not None, "pass_s": pass_s})
        result["records"] += records
        for i, out in outputs.items():
            result["outputs"].setdefault(i, out)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def _write_spans(path: str, tracer: tracing.Tracer) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    rows = [[s.sid, s.parent, s.op, s.name, s.t0, s.t1, s.child_s, s.leaf_s, s.leaf_calls]
            for s in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["sid", "parent", "op", "name", "t0", "t1", "child_s",
                              "leaf_s", "leaf_calls"], "spans": rows}, fh)


if __name__ == "__main__":
    sys.exit(main())
