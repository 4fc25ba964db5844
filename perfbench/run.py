"""topoidx benchmark: three workloads, exact-output checks, per-layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see perfbench/DESIGN.md):

  sparse-large      17 catalog and standalone names on a seeded G(n, m)
                    graph, n = 2*10^4, m = 10^5, read from an edge-list file
  verify-wide       `topoidx verify --range 3..20 --format csv`, in-process
  catalog-families  all 462 names on wheel(4), sunflower(100), regular(400,4)
                    and RL7-RL12 on wheel(1000), then `compute --all` probes

Load is one process, single-threaded, closed loop.  Each repetition runs in a
fresh interpreter (perfbench/worker.py); repetitions continue while the next
one is expected to end within S seconds.  Set-up is also measured in
set-up-only interpreters, so its median rests on many samples.

--trace 0 prints the end-to-end metrics: set-up median, speed-corrected wall
time (best of each operation over the repetitions), share of operations that
did not fail, and peak RSS.
--trace 1 runs each of the three workloads once with spans around every call
into the program, writes the spans under .perfbench/, prints the per-layer
metrics, and reports tracing overhead as traced minus untraced wall_ref_s of
the chosen workload.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only if every repetition ran; a
failed output check sets "correct" to false.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
DATA = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("sparse-large", "verify-wide", "catalog-families")

SPARSE_N = 20_000
SPARSE_M = 100_000
SETUP_SAMPLES = 4  # at least this many set-up-only interpreters per run, after one warm-up
SETUP_SECONDS = 2  # and more while this time has not passed
MIN_REPS = 2       # so that every operation's time is a best of at least two
DEADLINE_S = 170   # the whole run ends well inside 180 s


def write_sparse_graph(seed: int) -> None:
    """G(n, m): m distinct edges drawn uniformly, written sorted as an edge list."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < SPARSE_M:
        u, v = rng.randrange(SPARSE_N), rng.randrange(SPARSE_N)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    lines = [f"# G(n={SPARSE_N}, m={SPARSE_M}) seed {seed}", f"n {SPARSE_N}"]
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    with open(os.path.join(DATA, f"sparse-large-{seed}.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_worker(deadline, workload, seed, *extra):
    """Run one repetition in a fresh interpreter and return its report.

    ``deadline`` is a ``time.monotonic()`` value; the worker is killed at it.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [
        sys.executable, "-X", f"pycache_prefix={os.path.join(DATA, 'pycache')}",
        os.path.join(HERE, "worker.py"), workload, "--data", DATA, "--seed", str(seed), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_reference(workload, seed):
    """Reference digests for this workload and seed, or None if none is shipped."""
    path = os.path.join(HERE, "reference", f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if workload == "sparse-large":
        return ref["seeds"].get(str(seed))
    return ref["digests"]


class Tally:
    """Attempted and failed operations over all repetitions of a run.

    An operation fails when it raised anything but a TopoidxError (digest
    ``RAISED:...``) or when its output differs from the reference.  Only the
    second kind, and a failed identity check, make the run incorrect.
    """

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, report):
        if self.reference is None:  # unreferenced seed: repetitions must agree
            self.reference = {k: v for k, v in report["digests"].items()
                              if not v.startswith("RAISED:")}
        got = report["digests"]
        keys = set(self.reference) | set(got)
        self.attempted += len(keys)
        for key in sorted(keys):
            actual, expected = got.get(key), self.reference.get(key)
            if actual == expected:
                continue
            self.failed += 1
            if actual is None or not actual.startswith("RAISED:"):
                self.problems.append(f"{key}: got {actual}, expected {expected}")
        self.problems += report["checks"]


def metric_specs(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def best_sum(reps, field):
    """Each operation's fastest time over the repetitions, summed over operations.

    Contention on the shared machine only ever slows an operation down; the
    per-operation minimum discards what the speed correction leaves of it.
    """
    return sum(min(r[field][key] for r in reps) for key in reps[0][field])


def untraced(opts, deadline):
    """End-to-end metrics over fresh-process repetitions."""
    tally = Tally(load_reference(opts.workload, opts.seed))
    run_worker(deadline, opts.workload, opts.seed, "--setup-only")  # warm-up, not counted
    setups = []
    setup_start = time.perf_counter()
    while len(setups) < SETUP_SAMPLES or time.perf_counter() - setup_start < SETUP_SECONDS:
        setups.append(run_worker(deadline, opts.workload, opts.seed, "--setup-only")["setup_s"])
    reps = []
    loop_start = time.perf_counter()
    elapsed = 0.0
    # Another repetition starts only if, at the mean pace so far, it ends
    # within --seconds.
    while len(reps) < MIN_REPS or elapsed * (len(reps) + 1) / len(reps) <= opts.seconds:
        report = run_worker(deadline, opts.workload, opts.seed)
        tally.add(report)
        reps.append(report)
        elapsed = time.perf_counter() - loop_start
    setups += [r["setup_s"] for r in reps]
    measured = {
        "setup_s": statistics.median(setups),
        "wall_ref_s": best_sum(reps, "ref_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_share": 1 - tally.failed / tally.attempted,
    }
    print(f"# {opts.workload} seed {opts.seed}: {len(reps)} repetitions, "
          f"{len(setups)} set-up samples, {tally.attempted} operations, "
          f"{tally.failed} failed; measured wall time, best of each operation: "
          f"{best_sum(reps, 'op_s'):.3f} s", file=sys.stderr)
    return tally, measured


def traced(opts, deadline):
    """Per-layer metrics: each workload once with spans, plus one untraced repetition."""
    layers = {}
    tally = traced_wall = None
    for workload in WORKLOADS:
        trace_file = os.path.join(DATA, f"trace-{workload}-{opts.seed}.json")
        report = run_worker(deadline, workload, opts.seed, "--trace", trace_file)
        if workload == opts.workload:
            tally = Tally(load_reference(workload, opts.seed))
            tally.add(report)
            traced_wall = sum(report["ref_s"].values())
        for name, value in report["layers"].items():
            layers[name] = layers.get(name, 0) + value
    plain = run_worker(deadline, opts.workload, opts.seed)
    tally.add(plain)
    layers["trace.overhead_s"] = traced_wall - sum(plain["ref_s"].values())
    return tally, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "topoidx", "__init__.py")):
        print("error: run from a topoidx checkout (src/topoidx is missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(DATA, exist_ok=True)
    if opts.workload == "sparse-large" or opts.trace:
        write_sparse_graph(opts.seed)

    try:
        if opts.trace:
            tally, measured = traced(opts, deadline)
            specs = metric_specs("per_layer")
        else:
            tally, measured = untraced(opts, deadline)
            specs = metric_specs("end_to_end")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in tally.problems[:20]:
        print(f"# CHECK FAILED {problem}", file=sys.stderr)
    metrics = {s["name"]: {"value": measured[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
