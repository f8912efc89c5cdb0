"""Outside-in benchmark of sphmark: end-to-end metrics, or a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload embed|robustness|all \\
        --seed N --seconds T --trace 0|1

It drives sphmark from outside, through ``sphmark.cli.main`` called in
process and the public library API, from the sources under ``src/``.  The
workloads are described in ``workloads.py``.  Every step runs in a fresh
child interpreter (see ``worker.py``) whose environment pins BLAS and
OpenMP to one thread, so the figures are a single-threaded baseline:

1. input generation (robustness only; untimed),
2. set-up alone, twice: ``import sphmark`` plus warming the op's lazy
   tables,
3. the workload: ops in a closed loop for T seconds, each op timed with
   ``time.perf_counter``,
4. the output checks of every op, in their own process.

Every step starts with that same cold start and times it, so ``setup_s``
is the median of four (embed) or five (robustness) samples spread over
the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs T/2
untraced and T/2 with spans around sphmark's public functions and prints
the per-layer metrics.  Human-readable lines come first; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only if every op passed its check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("embed", "robustness")
SETUP_CHILDREN = 2  # plus the cold start of every other step
BUDGET_S = 170.0  # per workload; a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "SPHMARK_THREADS")
THREAD_CAP = "1"

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
              "peak_rss_mb": "MB", "psnr_db.min": "dB", "ssim.min": "1",
              "bit_accuracy.mean": "fraction", "invariant_cosine.min": "1",
              "invariant_digits.min": "digits"}
PER_LAYER = {}
for _name in tracing.SPAN_NAMES:
    PER_LAYER[_name + ".calls_per_op"] = "count"
    PER_LAYER[_name + ".self_ms_per_op"] = "ms"
PER_LAYER.update({"coupling.wigner_3j.setup_calls": "count",
                  "trace.coverage": "ratio", "trace.overhead": "ratio"})
UNITS = dict(END_TO_END, **PER_LAYER)


class BenchError(Exception):
    pass


def timing_summary(times):
    """Median, sample count, and p90 only when ten samples lie beyond it."""
    out = {"n": len(times), "p50": statistics.median(times)}
    if len(times) >= 100:
        out["p90"] = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return out


def per_layer(spans, traced_s, plain_s):
    """Per-layer metrics from the spans of the traced ops."""
    n = len(traced_s)
    totals = tracing.layer_totals(spans)
    out = {}
    for name in tracing.SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        out[name + ".calls_per_op"] = calls / n
        out[name + ".self_ms_per_op"] = 1000.0 * self_s / n
    out["trace.coverage"] = sum(t[1] for t in totals.values()) / sum(traced_s)
    out["trace.overhead"] = (n / sum(traced_s)) / (len(plain_s) / sum(plain_s))
    return out


def child_env(root):
    env = dict(os.environ)
    env.update({v: THREAD_CAP for v in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def host_info():
    info = {"nproc": os.cpu_count(), "loadavg": os.getloadavg(), "cpu": "?"}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return info


class Runner:
    """Starts worker processes for one workload run inside its work dir."""

    def __init__(self, root, workdir, workload, seed, deadline):
        self.root, self.dir = root, workdir
        self.workload, self.seed = workload, seed
        self.deadline = deadline
        self.env = child_env(root)
        self.n = 0
        self.step_s = {}

    def child(self, role, seconds=0.0, trace=False):
        self.n += 1
        start = time.monotonic()
        out = os.path.join(self.dir, "%s-%d.json" % (role, self.n))
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), role,
               "--workload", self.workload, "--seed", str(self.seed),
               "--dir", self.dir, "--out", out, "--seconds", str(seconds)]
        if trace:
            cmd.append("--trace")
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget spent before the %s step" % role)
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("%s step of %s ran out of time"
                             % (role, self.workload)) from None
        if proc.returncode != 0:
            raise BenchError("%s step of %s exited %d:\n%s"
                             % (role, self.workload, proc.returncode,
                                proc.stderr[-3000:]))
        spent = time.monotonic() - start
        self.step_s[role] = self.step_s.get(role, 0.0) + spent
        with open(out) as fh:
            return json.load(fh)


def run_workload(root, workload, seed, seconds, trace):
    """One workload: returns (metrics, sample counts, attempted, failed,
    notes)."""
    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    run = Runner(root, workdir, workload, seed, time.monotonic() + BUDGET_S)
    try:
        steps = []
        if workload != "embed":
            steps.append(run.child("gen"))
        if trace:
            setup = run.child("setup", trace=True)
        else:
            steps += [run.child("setup") for _ in range(SETUP_CHILDREN)]
        work = run.child("work", seconds=seconds, trace=trace)
        check = run.child("check")
        setups = [r["setup_s"] for r in steps + [work, check]]
        if trace:
            spans_path = os.path.join(base, "spans-%s-%d.json"
                                      % (workload, seed))
            os.replace(os.path.join(workdir, "spans.json"), spans_path)
            with open(spans_path) as fh:
                spans = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = work["records"]
    plain = [r["s"] for r in records if not r["traced"]]
    summary = timing_summary(plain)
    notes = ["ops=%d failed=%d failed_frac=%.4g"
             % (len(records), len(check["failed"]),
                len(check["failed"]) / len(records)),
             "op_s p50=%.6g s%s (n=%d)"
             % (summary["p50"], " p90=%.6g s" % summary["p90"]
                if "p90" in summary else " p90=n/a (needs n>=100)",
                summary["n"])]
    notes.append("step wall times: " + ", ".join(
        "%s %.1f s" % kv for kv in run.step_s.items()))
    notes += check["messages"][:5]
    if trace:
        traced = [r["s"] for r in records if r["traced"]]
        metrics = per_layer(spans, traced, plain)
        metrics["coupling.wigner_3j.setup_calls"] = setup["wigner_3j_calls"]
        counts = {k: len(traced) for k in metrics if k.endswith("_per_op")}
        notes.append("traced ops n=%d, untraced ops n=%d; spans in %s"
                     % (len(traced), len(plain),
                        os.path.relpath(spans_path, root)))
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "ops_per_s": len(plain) / sum(plain),
                   "op_s.p50": summary["p50"],
                   "peak_rss_mb": work["peak_rss_mb"]}
        metrics.update(check["quality"])
        counts = {"setup_s": len(setups), "ops_per_s": len(plain),
                  "op_s.p50": len(plain)}
        notes.append("setup_s runs: %s" % " ".join("%.4f" % s for s in setups))
    env = work["env"]
    notes.append("worker: numpy %s, scipy %s, %s, %s thread(s) in process, "
                 "cap %s=%s" % (env["numpy"], env["scipy"], env["blas"],
                                env.get("threads", "?"), "/".join(THREAD_VARS),
                                THREAD_CAP))
    return metrics, counts, len(records), len(check["failed"]), notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sphmark", "__init__.py")):
        print("error: src/sphmark not found; run from the repository root",
              file=sys.stderr)
        return 2
    host = host_info()
    print("host: %s, nproc %s, loadavg at start %s"
          % (host["cpu"], host["nproc"],
             " ".join("%.2f" % x for x in host["loadavg"])))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    expected = PER_LAYER if args.trace else END_TO_END
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, counts, attempted, failed, notes = run_workload(
                root, name, args.seed, args.seconds, args.trace == 1)
        except BenchError as e:
            print("error: %s: %s" % (name, e), file=sys.stderr)
            return 1
        prefix = "" if len(names) == 1 else name + "."
        for line in notes:
            print("%s: %s" % (name, line))
        missing = sorted(set(expected) - set(metrics))
        if missing:
            # only when no op produced the output the metric is read from
            print("%s: no value for %s" % (name, ", ".join(missing)))
            result["correct"] = False
        for key in expected:
            if key in metrics:
                print("%s: %-40s %.6g %s%s"
                      % (name, key, metrics[key], UNITS[key],
                         " (n=%d)" % counts[key] if key in counts else ""))
                result["metrics"][prefix + key] = {"value": metrics[key],
                                                   "unit": UNITS[key]}
        result["attempted"] += attempted
        result["failed"] += failed
    result["correct"] = result["correct"] and result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
