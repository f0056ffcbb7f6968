"""Benchmark worker: one fresh interpreter running one workload.

``probe`` times a single set-up (import plus every model and engine the
workload builds) in-process and exits.  ``serve`` sets the workload up once,
then runs one batch per ``batch <traced>`` line read from stdin and answers
with one JSON line; ``quit`` ends it with the peak resident memory.  The
benchmark (run.py) starts it; run it by hand as

    PYTHONPATH=src python3 perfbench/worker.py serve --workload cmc_corpus --seed 1 --trace 0

and type ``batch 0`` then ``quit``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time

import workloads


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _import(workload: str):
    """Import the package and the modules the workload uses; return the package."""
    for name in workloads.IMPORTS[workload]:
        importlib.import_module(name)
    return sys.modules["warpcmc"]


def probe(workload: str, seed: int, outdir: str) -> None:
    spec = workloads.SPECS[workload](seed)
    t0 = time.perf_counter()
    warpcmc = _import(workload)
    workloads.setup(warpcmc, workload, spec, os.path.join(outdir, "cli"))
    _emit({"setup_s": time.perf_counter() - t0})


def run_batch(wc, ctx, tracer) -> dict:
    """Run every case once; oracles run after the timed loop.

    An untraced batch times the host-speed kernel before each case and
    after the last, so that every case lies between two kernels; the kernel
    time is left out of the batch's wall time.
    """
    import calibrate

    cases = ctx["spec"]["cases"]
    latencies, outcomes, kernels = [], [], []
    clock = time.perf_counter
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = clock()
        for index, case in enumerate(cases):
            if tracer is not None:
                tracer.case = case["id"]
            else:
                kernels.append(calibrate.time_kernel())
            t = clock()
            try:
                outcome = workloads.run_case(wc, ctx, index)
            except (Exception, SystemExit) as exc:  # a failed case is recorded, never fatal
                outcome = exc
            latencies.append(clock() - t)
            outcomes.append(outcome)
        if tracer is None:
            kernels.append(calibrate.time_kernel())
        wall = clock() - start - sum(kernels)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, BaseException):
            reason = f"raised {type(outcome).__name__}: {outcome}"
        else:
            reason = workloads.check_case(ctx, index, outcome)
        if reason is not None:
            failures.append([cases[index]["id"], reason, workloads.ledger_item(ctx, index, reason)])
    result = {"wall_s": wall, "latencies": latencies, "failures": failures}
    if tracer is None:
        result["kernels"] = kernels
        result["scaled"] = calibrate.scale_cases(latencies, kernels)
    else:
        from tracer import aggregate

        result["trace"] = aggregate(tracer.spans)
    return result


def serve(workload: str, seed: int, outdir: str, traced: bool) -> None:
    spec = workloads.SPECS[workload](seed)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    cli_dir = os.path.join(outdir, "cli")
    t0 = time.perf_counter()
    warpcmc = _import(workload)
    import_s = time.perf_counter() - t0
    tracer = setup_trace = None
    if traced:
        from tracer import Tracer, aggregate

        tracer = Tracer()
        tracer.case = "setup"
        tracer.install()
    try:
        ctx = workloads.setup(warpcmc, workload, spec, cli_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        setup_spans = tracer.spans
        setup_trace = aggregate(setup_spans)

    import numpy
    import scipy

    from tracer import installed_wrappers

    mix = [case["id"] for case in spec["cases"]]
    _emit({
        "ready": True,
        "import_s": import_s,
        "setup_trace": setup_trace,
        "table_bytes": ctx["table_bytes"],
        "cases": len(mix),
        "case_mix_sha256": hashlib.sha256("\n".join(mix).encode()).hexdigest(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    for line in sys.stdin:
        command = line.split()
        if not command:
            continue
        if command[0] == "quit":
            break
        want_trace = command[1] == "1"
        result = run_batch(warpcmc, ctx, tracer if want_trace else None)
        result["wrappers_after"] = installed_wrappers()
        _emit(result)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        # the set-up spans and those of the last traced batch, one per line:
        # [layer, start, end, parent index, case id, size]
        with open(os.path.join(outdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for group in (setup_spans, tracer.spans):
                fh.write("\n".join(json.dumps(span) for span in group) + "\n")
    _emit({"peak_rss_mb": peak_kib / 1024.0})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "serve"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", default=".perfbench_out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "probe":
        probe(args.workload, args.seed, args.outdir)
    else:
        serve(args.workload, args.seed, args.outdir, bool(args.trace))


if __name__ == "__main__":
    main()
