"""One child process of the benchmark; run.py starts it, never a user.

    python3 perfbench/worker.py ROLE --workload W --seed S --dir D --out F
        [--seconds T] [--trace]

Roles, each in a fresh interpreter:

* ``gen``    makes the workload's input pool in D (untimed).
* ``setup``  only the cold start described below; with --trace it counts
             ``coupling.wigner_3j`` calls in it instead of timing it.
* ``work``   runs one untimed round of ops, then ops in a closed loop for
             T seconds, timing each one; with --trace it runs T/2
             untraced, then T/2 traced.
* ``check``  checks every op the work role recorded.

Every role but the traced ``setup`` first times its own cold start,
``import sphmark`` plus warming the op's lazy tables, and reports it as
``setup_s``, so a run gets set-up samples spread over its whole length.
Results go to the JSON file F.  run.py sets PYTHONPATH and pins BLAS and
OpenMP to one thread in this process's environment before it starts.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _environment():
    import numpy
    import scipy
    env = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    try:
        with open("/proc/self/status") as fh:
            env["threads"] = int(next(line.split()[1] for line in fh
                                      if line.startswith("Threads:")))
    except (OSError, StopIteration):
        pass
    return env


def _run_phase(wl, seconds, first, tracer=None):
    """Whole rounds of ops until ``seconds`` have passed; one record per op."""
    records = []
    i = first
    end = time.perf_counter() + seconds
    while True:
        for _ in range(wl.round_size):
            error = out = None
            if tracer is not None:
                tracer.op = i
            t = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception:  # a failed op is counted, not fatal
                error = traceback.format_exc(limit=-3)
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.op = None
            records.append({"i": i, "s": dt, "error": error, "out": out,
                            "traced": tracer is not None})
            i += 1
        if time.perf_counter() >= end:
            return records


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=("gen", "setup", "work", "check"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    if args.role == "setup" and args.trace:
        import tracing
        import workloads
        tracer = tracing.Tracer()
        tracer.install([("coupling", "wigner_3j")])
        tracer.op = 0
        try:
            workloads.warm(args.workload)
        finally:
            tracer.op = None
            tracer.restore()
        with open(args.out, "w") as fh:
            json.dump({"wigner_3j_calls": len(tracer.spans)}, fh)
        return 0

    # every other role starts with the cold start a user pays: import
    # sphmark and warm the op's lazy tables; it is one setup_s sample
    t = time.perf_counter()
    import workloads
    workloads.warm(args.workload)
    result = {"setup_s": time.perf_counter() - t}
    if args.role == "gen":
        workloads.generate_pool(args.seed, args.dir)
    elif args.role == "work":
        import tracing
        wl = workloads.WORKLOAD_CLASSES[args.workload](args.seed, args.dir)
        wl.prepare()
        # one untimed round fills the caches the first call of each op
        # shape would otherwise fill inside the timings
        first = len(_run_phase(wl, 0.0, 0))
        if args.trace:
            records = _run_phase(wl, args.seconds / 2, first)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records += _run_phase(wl, args.seconds / 2,
                                      first + len(records), tracer)
            finally:
                tracer.restore()
            with open(os.path.join(args.dir, "spans.json"), "w") as fh:
                json.dump(tracer.spans, fh)
        else:
            records = _run_phase(wl, args.seconds, first)
        with open(os.path.join(args.dir, "ops.json"), "w") as fh:
            json.dump(records, fh)
        result.update(
            records=[{k: r[k] for k in ("i", "s", "error", "traced")}
                     for r in records],
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=_environment())
    elif args.role == "check":
        with open(os.path.join(args.dir, "ops.json")) as fh:
            records = json.load(fh)
        failed, quality, messages = workloads.check_ops(
            args.workload, args.seed, args.dir, records)
        result.update(failed=failed, messages=messages,
                      quality=workloads.summarize_quality(quality))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
