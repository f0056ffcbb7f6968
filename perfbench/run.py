"""warpcmc benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload cmc_corpus --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One client sends one case at a time (closed loop) to one worker
process; BLAS and OpenMP are pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib only)

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
WARMUP_BATCHES = 1
MIN_BATCHES = 3  # measured batches per untraced run; fixes the tail percentile
MIN_TRACED = 2  # traced and untraced batches each, per traced run
SETUP_PROBES = 5  # counted fresh-interpreter set-ups per untraced run
PERCENTILES = (50, 75, 90, 95, 99)
RUN_LIMIT_S = 150.0  # stop starting batches here; a run must end within 180 s


class BenchError(RuntimeError):
    pass


def tail_percentile(cases_per_batch: int) -> int:
    """Highest listed percentile with at least 10 cases beyond it."""
    least = MIN_BATCHES * cases_per_batch
    return max(p for p in PERCENTILES if least * (100 - p) / 100.0 >= 10)


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "thread_pins": THREAD_PINS,
    }


class Worker:
    """One serving worker process, driven over stdin/stdout."""

    def __init__(self, cmd, env):
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def batch(self, traced: bool) -> dict:
        self.proc.stdin.write(f"batch {int(traced)}\n")
        self.proc.stdin.flush()
        return self.read()

    def quit(self) -> dict:
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        out = self.read()
        self.proc.wait(timeout=30)
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description="warpcmc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "warpcmc", "__init__.py")):
        print("error: run from a warpcmc checkout (src/warpcmc not found)", file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".perfbench_out", args.workload)
    env = dict(os.environ, PYTHONPATH=src, **THREAD_PINS)
    worker_py = os.path.join(HERE, "worker.py")
    base = [sys.executable, worker_py, "--workload", args.workload, "--seed", str(args.seed),
            "--outdir", outdir]

    probe_walls: list[float] = []

    def probe() -> float:
        t = time.perf_counter()
        out = subprocess.run(base[:2] + ["probe"] + base[2:], env=env, stdout=subprocess.PIPE,
                             text=True, timeout=120, check=True).stdout
        probe_walls.append(time.perf_counter() - t)
        return json.loads(out.splitlines()[-1])["setup_s"]

    started = time.perf_counter()
    setups: list[float] = []
    # the worker's own set-up, which is not counted, compiles the bytecode
    # and warms the file cache before the first probe
    worker = Worker(base[:2] + ["serve"] + base[2:] + ["--trace", str(args.trace)], env)
    try:
        ready = worker.read()
        probe_walls.append(time.perf_counter() - started)  # a first estimate
        t = time.perf_counter()
        batches = [worker.batch(False) for _ in range(WARMUP_BATCHES)]
        # wall of each batch round trip, oracles and IPC included
        batch_walls = [(time.perf_counter() - t) / WARMUP_BATCHES]
        measured: list[dict] = []
        traced: list[dict] = []
        loop_start = time.perf_counter()
        budget = max(args.seconds - (loop_start - started), 1e-9)
        while True:
            now = time.perf_counter()
            if args.trace:
                enough = min(len(measured), len(traced)) >= MIN_TRACED
                owed = 0.0
            else:
                enough = len(measured) >= MIN_BATCHES
                owed = (SETUP_PROBES - len(setups)) * max(probe_walls)
            # end near --seconds: start a batch only if it and the probes
            # still owed fit
            if enough and now - started + max(batch_walls) + owed > args.seconds:
                break
            if now - started > RUN_LIMIT_S:
                break
            if args.trace:
                # alternate so that drift in machine speed hits both sides
                result = worker.batch(len(traced) <= len(measured))
                (traced if "trace" in result else measured).append(result)
            else:
                measured.append(worker.batch(False))
            batch_walls.append(time.perf_counter() - now)
            if not args.trace:
                # spread the set-up probes over the run, between batches
                share = (time.perf_counter() - loop_start) / budget
                while len(setups) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * share)):
                    setups.append(probe())
        while not args.trace and len(setups) < SETUP_PROBES:
            setups.append(probe())
        final = worker.quit()
    finally:
        worker.kill()
    batches += measured + traced

    info = dict(machine(), **ready["versions"])
    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"workload: {args.workload} seed {args.seed} cases/batch {ready['cases']} "
          f"case mix sha256 {ready['case_mix_sha256']} closed loop, 1 client, 1 worker")

    attempted = ready["cases"] * len(batches)
    failures = [f for b in batches for f in b["failures"]]
    unexplained = [f for f in failures if f[2] is None]
    for case_id, reason, item in sorted({tuple(f) for f in failures}):
        tag = f"ledger {item}" if item else "UNEXPLAINED"
        print(f"failure [{tag}] {case_id}: {reason}")
    wrapped = sorted({w for b in measured for w in b["wrappers_after"]})
    checks = {"failures explained by the ledger": not unexplained,
              "untraced batches ran with no wrappers installed": not wrapped}

    if args.trace:
        metrics, trace_checks = per_layer(ready, measured, traced)
        checks.update(trace_checks)
    else:
        metrics = end_to_end(measured, setups, final, ready["cases"])
    for name, ok in checks.items():
        print(f"check: {name}: {'ok' if ok else 'FAILED'}")
    for name, m in metrics.items():
        print(f"metric: {name} = {m['value']:.6g} {m['unit']}")
    print(f"run: {time.perf_counter() - started:.1f} s wall, {len(batches)} batches")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def end_to_end(measured, setups, final, cases_per_batch) -> dict:
    """End-to-end metrics; case and batch times at reference host speed (calibrate.py)."""
    scaled = [b["scaled"] for b in measured]
    tail = tail_percentile(cases_per_batch)
    kernels = [k for b in measured for k in b["kernels"]]
    print(f"host: kernel median {statistics.median(kernels) * 1e3:.3f} ms over {len(kernels)} kernels")
    print(f"setup_s: median of {len(setups)} fresh interpreters, not scaled: "
          + " ".join(f"{s:.3f}" for s in setups))
    print(f"batch_s: median of {len(measured)} batches after {WARMUP_BATCHES} warm-up, raw: "
          + " ".join(f"{b['wall_s']:.3f}" for b in measured))
    print(f"case_s.tail: p{tail} over {sum(map(len, scaled))} cases")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "batch_s": {"value": statistics.median(sum(c) for c in scaled), "unit": "s"},
        # median over batches of each batch's median case: every batch holds the
        # same cases, so machine-speed drift between batches cannot pull the
        # pooled order statistic across a gap between case clusters
        "case_s.p50": {"value": statistics.median(statistics.median(c) for c in scaled), "unit": "s"},
        "case_s.tail": {"value": percentile([t for c in scaled for t in c], tail), "unit": "s"},
        "peak_rss_mb": {"value": final["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(ready, untraced, traced):
    """Per-layer metrics: traced set-up plus one traced batch (median self times)."""
    setup = ready["setup_trace"]
    batches = [b["trace"] for b in traced]
    layers = list(setup["layers"])

    def exact(get):
        values = [get(t) for t in batches]
        return values[0], all(v == values[0] for v in values)

    metrics, repeat = {}, []

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def count(name, get, unit="count"):
        value, same = exact(get)
        repeat.append(same)
        put(name, value + get(setup), unit)

    def seconds(name, get):
        put(name, get(setup) + statistics.median(get(t) for t in batches), "s")

    put("warpcmc.import_s", ready["import_s"], "s")
    for layer in layers:
        count(f"{layer}.calls", lambda t, l=layer: t["layers"][l]["calls"])
        seconds(f"{layer}.self_s", lambda t, l=layer: t["layers"][l]["self_s"])
    count("models.inverse.points", lambda t: t["layers"]["models.inverse"]["size"])
    count("warping.jet.points", lambda t: t["layers"]["warping.jet"]["size"])
    put("spectral.table_mb", ready["table_bytes"] / 1e6, "MB")
    count("spectral.transform.table_mb", lambda t: t["layers"]["spectral.transform"]["size"] / 1e6, "MB")
    count("cli.write.mb", lambda t: t["layers"]["cli.write"]["size"] / 1e6, "MB")
    count("cmc.iterations", lambda t: t["cmc"]["iterations"])
    count("cmc.iterations.max", lambda t: t["cmc"]["iterations_max"])
    solves, _ = exact(lambda t: t["layers"]["cmc.solve"]["calls"])
    converged, _ = exact(lambda t: t["cmc"]["converged"])
    put("cmc.converged_share", converged / solves if solves else 0.0, "ratio")
    count("flow.step.jet_calls", lambda t: t["flow"]["step_jet_calls"])
    count("flow.nodes_deactivated", lambda t: t["flow"]["nodes_deactivated"])

    traced_wall = statistics.median(b["wall_s"] for b in traced)
    plain_wall = statistics.median(b["wall_s"] for b in untraced)
    put("trace.overhead_share", (traced_wall - plain_wall) / plain_wall, "ratio")
    unattributed = [b["wall_s"] - t["roots_s"] for b, t in zip(traced, batches)]
    put("trace.unattributed_s", statistics.median(unattributed), "s")
    put("host.kernel_s", statistics.median(k for b in untraced for k in b["kernels"]), "s")

    # self times plus unattributed time must rebuild each traced batch's wall
    closure = max(abs(sum(l["self_s"] for l in t["layers"].values()) + u - b["wall_s"])
                  for b, t, u in zip(traced, batches, unattributed))
    tree = max([t["tree_error_s"] for t in batches] + [setup["tree_error_s"]])
    print(f"trace: {len(traced)} traced and {len(untraced)} untraced batches, "
          f"{batches[0]['spans']} spans per batch; closure error {closure:.2e} s, "
          f"tree error {tree:.2e} s")
    checks = {
        "self times plus unattributed add up to each traced batch": closure <= 1e-6,
        "self times in each span tree add up to the root": tree <= 1e-6,
        "exact counts repeat across traced batches": all(repeat),
    }
    return metrics, checks


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
