"""fracpack benchmark: one closed-loop workload per run, outputs checked.

    python3 perfbench/run.py --workload ball-dfs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each run starts one child process (child.py) that imports fracpack from
./src, builds the seeded op list and issues the ops one at a time.  The
parent times set-up over several extra set-up-only children, checks every
op's output (checks.py, and at the default seed the recorded digests),
prints a report of every metric with its unit and the run metadata, and
ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from a traced child.  --workload all runs every workload
both ways and prints everything.  README.md explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 10     # set-up-only children per run, besides the measured one
RUN_LIMIT_S = 170     # the whole run, oracle checks included, must end before 180 s
# child.reference_kernel's time at full speed on the host the benchmark was
# defined on (2-core VM, Python 3.11.7).  Timings are reported at that speed.
KERNEL_REF_S = 0.00025


class BenchError(RuntimeError):
    pass


def _run(workload, seed, seconds, mode, tiny, deadline, extra=()):
    """Start one child; return (seconds from spawn to READY, its stdout)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, *(["--tiny"] if tiny else []), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        if not ready or proc.stdout.readline().strip() != "READY":
            raise BenchError(f"{mode} child did not start")
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child ran past the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    return setup, out


def run_child(workload, seed, seconds, trace, tiny=False, spans=None):
    """Set-up times and the measured child's raw result."""
    deadline = time.monotonic() + RUN_LIMIT_S - 30
    setups = [_run(workload, seed, seconds, "setup", tiny, deadline)[0]
              for _ in range(SETUP_PROBES)]
    extra = ("--spans", str(spans)) if spans else ()
    setup, out = _run(workload, seed, seconds, "trace" if trace else "run", tiny, deadline, extra)
    setups.append(setup)
    return setups, json.loads(out.strip().splitlines()[-1])


def check_ops(ops, raw, recorded):
    """Failure reason per op index (None when the op passed), and whether all outputs were right.

    recorded maps op keys to stdout digests, or is None to skip that check.
    The known-failing op is exempt: its output will change when it is fixed.
    """
    codes = [set() for _ in ops]
    digests = [set() for _ in ops]
    for i, _, code, digest, _ in raw["records"]:
        codes[i].add(code)
        digests[i].add(digest)
    reasons, wrong = {}, False
    for i, op in enumerate(ops):
        reason = None
        raised = [c for c in codes[i] if isinstance(c, str)]
        if raised:
            reason = "raised " + raised[0]
        elif len(codes[i]) > 1 or len(digests[i]) > 1:
            reason, wrong = "output differs between passes", True
        elif (recorded is not None and not op["known"]
              and {recorded.get(op["key"])} != digests[i]):
            reason, wrong = "stdout digest differs from the recorded one", True
        else:
            try:
                checks.check(op, next(iter(codes[i])), raw["outputs"][str(i)])
            except checks.CheckError as exc:
                reason, wrong = f"check failed: {exc}", True
            except oracle.Undecided as exc:
                reason, wrong = f"oracle undecided: {exc}", True
        reasons[i] = reason
    return reasons, wrong


def _percentile(sorted_xs, q):
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_xs) * q // 100) - 1)
    return sorted_xs[int(k)]


def _best_latencies(records, n_ops, scaled=True):
    """Each op's fastest execution over the passes, in seconds.

    Scaled, an execution counts as its time times KERNEL_REF_S over the
    time of the reference kernel around it, which takes out the host's
    speed at that moment.  The kernel runs before every op, so the one
    before the next op also follows this one; the smaller of the two drops
    a single delayed kernel run.  The minimum over passes takes out timer
    and scheduling jitter.
    """
    best = [float("inf")] * n_ops
    for j, (i, dt, _, _, kernel_s) in enumerate(records):
        if scaled:
            after = records[j + 1][4] if j + 1 < len(records) else kernel_s
            dt *= KERNEL_REF_S / min(kernel_s, after)
        best[i] = min(best[i], dt)
    return best


def summarize(workload, seed, seconds, trace, tiny=False, spans=None, record=False):
    """Run one workload and compute its metrics.  With record, the digests
    of this run are returned for digests.json instead of being checked."""
    ops = workloads.build(workload, seed, tiny)
    setups, raw = run_child(workload, seed, seconds, trace, tiny, spans)
    recorded = None
    if seed == DEFAULT_SEED and not tiny and not record:
        recorded = json.loads(DIGESTS.read_text())[workload]
    reasons, wrong = check_ops(ops, raw, recorded)
    records = raw["records"]
    failed = sum(1 for r in records if reasons[r[0]] is not None)
    ok = [i for i, why in reasons.items() if why is None]
    phases = raw["passes"]
    split = len(phases[0]["pass_s"]) * len(ops)   # records of the untraced phase
    best = _best_latencies(records[:split], len(ops))
    ok_lat = sorted(best[i] for i in ok)
    kernel = sorted(r[4] for r in records[:split])
    info = {
        "ops_per_pass": len(ops),
        "passes": [len(p["pass_s"]) for p in phases],
        "latency_samples": len(ok_lat),
        "kernel_ms": (1000 * kernel[0], 1000 * kernel[len(kernel) // 2]),
        "unscaled_ops_per_s": len(ok) / sum(_best_latencies(records[:split], len(ops), False)),
        "failures": sorted({(ops[i]["key"], why) for i, why in reasons.items() if why}),
    }
    # Completed ops per second of a pass made of each op's best execution.
    ops_per_s = len(ok) / sum(best)
    if trace:
        traced = sum(_best_latencies(records[split:], len(ops)))
        metrics = dict(raw["layers"])
        metrics["trace.ops_per_s"] = (len(ok) / traced, "1/s")
        metrics["trace.untraced_ops_per_s"] = (ops_per_s, "1/s")
        metrics["trace.overhead"] = (traced / sum(best), "ratio")
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (1000 * _percentile(ok_lat, 50), "ms"),
            "latency_p90_ms": (1000 * _percentile(ok_lat, 90), "ms"),
            "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "fail_rate": (failed / len(records), "ratio"),
        }
    digests = {ops[i]["key"]: d for i, _, _, d, _ in records if not ops[i]["known"]}
    return {"correct": not wrong, "attempted": len(records), "failed": failed,
            "metrics": metrics, "info": info, "digests": digests}


def _commit() -> str:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(seed):
    return {"commit": _commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed}


def report(title, res) -> None:
    info = res["info"]
    print(f"== {title}: {info['ops_per_pass']} ops per pass, passes {info['passes']}, "
          f"{res['attempted']} attempted, {res['failed']} failed, "
          f"outputs {'correct' if res['correct'] else 'WRONG'}")
    for name, (value, unit) in res["metrics"].items():
        note = f"  (n={info['latency_samples']} samples)" if name.startswith("latency_") else ""
        print(f"   {name:32s} {value:14.6g} {unit}{note}")
    print(f"   host speed: reference kernel {info['kernel_ms'][0]:.4f} ms fastest, "
          f"{info['kernel_ms'][1]:.4f} ms median (timings scaled to {1000 * KERNEL_REF_S} ms); "
          f"unscaled ops_per_s {info['unscaled_ops_per_s']:.6g}")
    for key, why in info["failures"]:
        print(f"   failed op: {key[:90]} -> {why}")


def run_all(args) -> int:
    """Every workload, untraced and traced, each by a fresh run.py process.

    A fresh parent per run matters for peak_rss_mb: a child's ru_maxrss
    starts from its parent's resident size when it is spawned, and this
    parent grows while it checks outputs.
    """
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    modes = (0,) if args.record_digests else (0, 1)
    for name in workloads.WORKLOADS:
        for trace in modes:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            cmd += ["--tiny"] * args.tiny + ["--record-digests"] * args.record_digests
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_LIMIT_S + 10)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[1:-1]), flush=True)   # drop the repeated metadata line
            if proc.returncode != 0:
                print(f"error: {name} run exited with {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            total["metrics"].update({f"{name}.{m}": v for m, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the self-tests")
    ap.add_argument("--record-digests", action="store_true",
                    help=f"rewrite {DIGESTS.name} from this run (seed {DEFAULT_SEED} only)")
    args = ap.parse_args(argv)
    if args.record_digests and (args.seed != DEFAULT_SEED or args.tiny or args.trace):
        ap.error(f"--record-digests needs --seed {DEFAULT_SEED}, full sizes and --trace 0")
    if not (ROOT / "src" / "fracpack" / "__init__.py").is_file():
        print(f"error: no fracpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("metadata: " + json.dumps(_metadata(args.seed), sort_keys=True), flush=True)
    if args.workload == "all":
        return run_all(args)
    name, trace = args.workload, args.trace
    spans = ROOT / ".bench_build" / f"spans-{name}-seed{args.seed}.json" if trace else None
    try:
        res = summarize(name, args.seed, args.seconds, trace, args.tiny, spans,
                        args.record_digests)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(f"{name} ({'traced' if trace else 'untraced'})", res)
    if args.record_digests:
        if not res["correct"]:
            print("error: outputs failed their checks; digests not recorded", file=sys.stderr)
            return 1
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[name] = dict(sorted(res["digests"].items()))
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    metrics = {m: {"value": value, "unit": unit} for m, (value, unit) in res["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
