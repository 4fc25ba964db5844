"""One repetition of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py <workload> --data DIR [--seed N] [--trace FILE] [--setup-only]

``run.py`` starts this script once per repetition.  A fresh process matters:
``vertex_table`` caches tables by graph structure (``Graph.__eq__`` compares
``n`` and the edges), so a second evaluation of the same graph in one process
would be served warm, while a command-line user pays cold tables on every
invocation.

The last line of stdout is one JSON object: set-up seconds, the measured and
the speed-corrected seconds of every timed operation, peak RSS, one digest per
operation output, failed identity checks and, with ``--trace``, the per-layer
metrics.  Digests never convert an int to decimal
text (see ``encode``), so they work on values of any size without touching
``sys.set_int_max_str_digits``.
"""

import sys
import time

# set-up time starts before the program is imported
T0 = time.perf_counter()

import os  # noqa: E402  (already loaded by the interpreter; costs nothing)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from topoidx import cli  # noqa: E402

# Modules the program has loaded already, so importing them here costs no set-up time.
import argparse  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from fractions import Fraction  # noqa: E402

from topoidx import (  # noqa: E402
    Descriptor,
    ExpPoly,
    TopoidxError,
    all_index_names,
    evaluate,
    generate_family,
    lookup,
    read_graph,
    run_verification,
    write_graph,
)
from topoidx.functionals import vertex_table  # noqa: E402

# In evaluation order.  MRL1, MRLKV1, MTRL1 and IRLKV1 are left out for run
# length: on this graph they cost 14 s, 184 s, 293 s and 320 s with topoidx 0.1.0.
SPARSE_NAMES = (
    "RL1", "HRL1", "IRL1", "GRL1(a=3)", "RL4", "RRL2", "TRL1", "RLKV1", "NRL1",
    "DRL1", "MIRL1", "RL1exp", "BRL1exp", "RLKV1exp", "RL5", "RL13", "HeronianRL",
)
# Identity-transform, sum-aggregated polynomials: p(1) counts the edges.
SPARSE_EDGE_COUNTING = ("RL1exp", "BRL1exp", "RLKV1exp")
SPARSE_TABLE_SOURCES = ("plain", "revan", "temperature", "kv", "nbd", "cl")
SPARSE_PAIR_SOURCES = ("plain", "temperature", "kv", "nbd")

VERIFY_ARGV = ["verify", "--range", "3..20", "--format", "csv"]
ORACLE_FAMILIES = (
    "complete", "cycle", "double_star", "k1n", "kmn", "knn",
    "path", "regular", "star", "sunflower", "wheel", "windmill",
)

# Graphs that `compute --all` is probed on, as (label, family, params).
CATALOG_GRAPHS = (
    ("wheel_4", "wheel", (4,)),
    ("sunflower_100", "sunflower", (100,)),
    ("regular_400_4", "regular", (400, 4)),
)
CLOSENESS_GRAPH = ("wheel_1000", "wheel", (1000,))
CLOSENESS_NAMES = ("RL7", "RL8", "RL9", "RL10", "RL11", "RL12")
GENERAL_A = Fraction(2)  # what `compute --all` uses for general transforms


# --- spans -------------------------------------------------------------------


_NO_SPAN = nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer.stack
        self.record["parent"] = stack[-1] if stack else None
        self.record["id"] = len(self.tracer.spans)
        self.tracer.spans.append(self.record)
        stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory spans (name, start, end, parent, attributes).

    Disabled, ``span`` hands back one shared no-op object, so the untraced
    run pays one method call per operation and records nothing.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []

    def span(self, name, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, {"name": name, **attrs})

    def total(self, name, **match):
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        )

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced


# --- machine-speed correction ------------------------------------------------
#
# The benchmark machine is a shared 2-vCPU VM whose speed drifts by up to
# 1.5x over tens of seconds as neighbours load the host.  A fixed calibration
# loop, timed just before and just after each block of operations, measures
# how slow the core is at that moment; the block's operation times are divided
# by that slowdown.  The loop calls nothing in the program, so a change to the
# program cannot move it.

REF_UNIT_S = 140e-6    # one calibration unit on an uncontended core of the reference VM
CALIBRATION_S = 0.05   # shortest calibration
CALIBRATION_SHARE = 0.05  # a calibration after a long block lasts this share of it
BLOCK_S = 0.5          # operation time between two calibrations


def _calibration_unit():
    # Rational sums, big-int products and gcds, bit operations and dict stores,
    # as in the program.
    frac = Fraction(0)
    for k in range(1, 40):
        frac += Fraction(1, k)
    acc = 1
    for k in range(1, 200):
        acc = acc * (k | 1) ^ (acc >> 7)
    g = math.gcd(acc, acc >> 3)
    table = {}
    for k in range(200):
        table[k * 7919 % 1013] = k
    return frac, g


def slowdown(seconds) -> float:
    """Time per calibration unit over about ``seconds``, as a multiple of ``REF_UNIT_S``."""
    start = time.perf_counter()
    units = 0
    while True:
        _calibration_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / units / REF_UNIT_S


# --- output digests ----------------------------------------------------------


def _field(x: int) -> bytes:
    raw = x.to_bytes((x.bit_length() + 8) // 8, "big", signed=True)
    return len(raw).to_bytes(8, "big") + raw


def _encode_terms(terms) -> bytes:
    """Terms as (Fraction exponent, int coefficient), descending exponent."""
    return b"P" + b"".join(
        _field(e.numerator) + _field(e.denominator) + _field(c) for e, c in terms
    )


def encode(value) -> bytes:
    """Exact byte encoding of an index value; no int-to-decimal conversion."""
    if isinstance(value, ExpPoly):
        return _encode_terms(value.terms())
    if isinstance(value, float):
        return b"D" + value.hex().encode()
    value = Fraction(value)
    return b"Q" + _field(value.numerator) + _field(value.denominator)


def digest_bytes(data: bytes) -> str:
    import hashlib  # after set-up is measured

    return hashlib.sha256(data).hexdigest()[:16]


def outcome_digest(outcome) -> str:
    """Digest of a value; ``ERROR:<type>`` for a TopoidxError; ``RAISED:<type>`` otherwise."""
    if isinstance(outcome, TopoidxError):
        return f"ERROR:{type(outcome).__name__}"
    if isinstance(outcome, BaseException):
        return f"RAISED:{type(outcome).__name__}"
    return digest_bytes(encode(outcome))


def _parse_int(text: str) -> int:
    # Chunked, so that values beyond the int-from-text digit limit parse too.
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def rendered_digest(text: str) -> str:
    """Digest of a value as `compute` renders it, comparable with ``outcome_digest``."""
    if text.startswith("ERROR:"):
        return text
    if text.startswith("~"):
        return digest_bytes(b"D" + float(text[1:]).hex().encode())
    if "x^" in text or text == "0":
        terms = []
        if text != "0":
            for part in text.split(" + "):
                coeff, _, exponent = part.partition("*x^")
                num, _, den = exponent.partition("/")
                terms.append((Fraction(_parse_int(num), _parse_int(den or "1")), _parse_int(coeff)))
        terms.sort(key=lambda t: t[0], reverse=True)
        return digest_bytes(_encode_terms(terms))
    num, _, den = text.partition("/")
    return digest_bytes(encode(Fraction(_parse_int(num), _parse_int(den))))


# --- shared pieces -----------------------------------------------------------


def category(name: str) -> str:
    resolved, _ = lookup(name)
    if not isinstance(resolved, Descriptor):
        return "standalone"
    if resolved.form == "exponential":
        return "poly"
    return resolved.aggregation


class Run:
    """Outputs and counters of one repetition."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.setup_s = None
        self.op_s = {}   # measured seconds per timed operation
        self.ref_s = {}  # the same, divided by the slowdown around its block
        self.block = []
        self.slowdown = None
        self.digests = {}
        self.values = {}
        self.checks = []  # failed identity checks
        self.peak_rss_mb = None
        self.layers = {}

    def evaluate(self, key, g, name, a=None):
        """One timed `evaluate` operation; its outcome is kept under ``key``."""
        with self.tracer.span("indices.evaluate", index=name, category=category(name)):
            start = time.perf_counter()
            try:
                outcome = evaluate(g, name, a)
            except Exception as exc:  # counted as a failed operation, never fatal
                outcome = exc
            self.record(key, time.perf_counter() - start)
        self.values[key] = outcome
        self.digests[key] = outcome_digest(outcome)
        return outcome

    def start_timing(self):
        self.slowdown = slowdown(5 * CALIBRATION_S)

    def record(self, key, seconds):
        self.op_s[key] = seconds
        self.block.append(key)
        if sum(self.op_s[k] for k in self.block) >= BLOCK_S:
            self.end_block()

    def end_block(self):
        if not self.block:
            return
        block_s = sum(self.op_s[key] for key in self.block)
        after = slowdown(max(CALIBRATION_S, CALIBRATION_SHARE * block_s))
        factor = (self.slowdown + after) / 2
        for key in self.block:
            self.ref_s[key] = self.op_s[key] / factor
        self.slowdown = after
        self.block = []

    def mark_peak_rss(self):
        """Peak RSS so far: called when the program's work is done, before the checks."""
        import resource  # after set-up is measured

        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self, ok, message):
        if not ok:
            self.checks.append(message)

    def value_layers(self):
        """Per-layer metrics of the evaluations of this repetition."""
        tr = self.tracer
        bits = terms = 0
        for outcome in self.values.values():
            if isinstance(outcome, ExpPoly):
                terms += len(outcome)
            elif isinstance(outcome, Fraction):
                bits += outcome.numerator.bit_length() + outcome.denominator.bit_length()
        self.layers.update({
            "exact.result_bits": bits,
            "exact.poly_terms": terms,
            "indices.standalone_s": tr.total("indices.evaluate", category="standalone"),
        })
        for cat in ("sum", "product", "poly"):
            self.layers[f"indices.eval_s.{cat}"] = tr.total("indices.evaluate", category=cat)

    def warm_folds(self, ops):
        """Re-evaluate catalog names with the tables already cached."""
        tr = self.tracer
        for g, name, a in ops:
            cat = category(name)
            if cat != "standalone":
                with tr.span("indices.fold", category=cat):
                    try:
                        evaluate(g, name, a)
                    except TopoidxError:
                        pass
        for cat in ("sum", "product", "poly"):
            self.layers[f"indices.fold_s.{cat}"] = tr.total("indices.fold", category=cat)


def captured_cli(argv):
    """Run the command line in-process; returns (exit code or exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = cli.main(argv)
        except Exception as exc:  # e.g. ValueError from the int-to-text limit
            result = exc
    return result, out.getvalue(), err.getvalue()


# --- workloads ---------------------------------------------------------------


def sparse_large(opts, tr, run):
    path = os.path.join(opts.data, f"sparse-large-{opts.seed}.txt")
    with tr.span("graph.read_graph"):
        g = read_graph(path)
    run.setup_s = time.perf_counter() - T0
    if opts.setup_only:
        return
    run.start_timing()
    for name in SPARSE_NAMES:
        run.evaluate(name, g, name)
    run.end_block()
    run.mark_peak_rss()

    # Identities that go through neither the program's reader nor its evaluation.
    v = run.values
    with open(path, encoding="utf-8") as fh:
        lines = [line.split() for line in fh if not line.startswith("#")]
    n = int(lines[0][1])
    edges = [(int(a), int(b)) for a, b in lines[1:]]
    run.check(g.n == n and list(g.edges) == edges, f"file of {len(edges)} edges read as {g!r}")
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    rl1 = sum(degree[a] ** 2 + degree[b] ** 2 + degree[a] * degree[b] for a, b in edges)
    run.check(v["RL1"] == rl1, "RL1 differs from an integer loop over the edges")
    for name in SPARSE_EDGE_COUNTING:
        p = v[name]
        run.check(isinstance(p, ExpPoly) and p.evaluate(1) == len(edges), f"{name}(1) != m")
    p = v["RL1exp"]
    run.check(isinstance(p, ExpPoly) and p.derivative_at_one() == v["RL1"],
              "RL1exp'(1) != RL1")
    run.check(run.digests["DRL1"] == "ERROR:GraphTooLarge", "DRL1 did not refuse the graph")

    if tr.enabled:
        run.value_layers()
        run.layers["graph.read_s"] = tr.total("graph.read_graph")
        run.layers["graph.edges"] = g.edge_count
        vertex_table.cache_clear()
        for source in SPARSE_TABLE_SOURCES:
            with tr.span("functionals.vertex_table", source=source):
                vertex_table(g, source)
            run.layers[f"functionals.table_s.{source}"] = tr.total(
                "functionals.vertex_table", source=source)
        for source in SPARSE_PAIR_SOURCES:
            t = vertex_table(g, source)
            classes = {(t[a], t[b]) if t[a] <= t[b] else (t[b], t[a]) for a, b in g.edges}
            run.layers[f"functionals.pair_classes.{source}"] = len(classes)
        run.warm_folds((g, name, None) for name in SPARSE_NAMES)


def verify_wide(opts, tr, run):
    run.setup_s = time.perf_counter() - T0
    if opts.setup_only:
        return
    if tr.enabled:
        cli.run_verification = tr.wrap("oracles.run_verification", run_verification)
        ExpPoly.render = tr.wrap("exact.render", ExpPoly.render)
    run.start_timing()
    with tr.span("cli.main", argv="verify"):
        start = time.perf_counter()
        result, out, err = captured_cli(VERIFY_ARGV)
        run.record("verify", time.perf_counter() - start)
    run.end_block()
    run.mark_peak_rss()
    if tr.enabled:
        cli.run_verification = run_verification
        ExpPoly.render = ExpPoly.render.__wrapped__

    with open(os.path.join(ROOT, "src", "topoidx", "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    rows = list(csv.reader(out.splitlines()))[1:]
    deviations = 0
    verdicts = {}
    for row in rows:
        oracle_id, params, _, _, verdict = row
        key = f"{oracle_id}|{params}"
        run.digests[key] = digest_bytes("\x1f".join(row).encode())
        record = baseline.get(oracle_id, {})
        expected = record.get("exceptions", {}).get(params, record.get("default"))
        deviations += verdict != expected
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    if not isinstance(result, int):
        run.digests["verify"] = outcome_digest(result)
    run.check(result == 0, f"verify ended with {result!r}: {err[-300:]}")
    run.check(deviations == 0, f"{deviations} verdicts deviate from baseline.json")

    if tr.enabled:
        main_s = tr.total("cli.main")
        run.layers.update({
            "cli.verify_self_s": main_s - tr.total("oracles.run_verification"),
            "exact.render_s": tr.total("exact.render"),
            "oracles.checks": len(rows),
            "oracles.confirmed": verdicts.get("CONFIRMED", 0),
            "oracles.discrepant": verdicts.get("DISCREPANT", 0),
            "oracles.deviations": deviations,
        })
        for family in ORACLE_FAMILIES:
            vertex_table.cache_clear()
            with tr.span("oracles.family", family=family):
                run_verification(families=[family], lo=3, hi=20)
            run.layers[f"oracles.family_s.{family}"] = tr.total("oracles.family", family=family)
        vertex_table.cache_clear()
        for n in range(3, 21):
            star = generate_family("star", n)
            with tr.span("functionals.domination"):
                vertex_table(star, "domination")
        run.layers["functionals.domination_s"] = tr.total("functionals.domination")


def catalog_families(opts, tr, run):
    graphs = {}
    paths = {}
    for label, family, params in CATALOG_GRAPHS + (CLOSENESS_GRAPH,):
        with tr.span("graph.generate_family", family=family):
            graphs[label] = generate_family(family, *params)
    for label, _, _ in CATALOG_GRAPHS:
        paths[label] = os.path.join(opts.data, f"{label}.txt")
        write_graph(graphs[label], paths[label], comment=label)
    run.setup_s = time.perf_counter() - T0
    if opts.setup_only:
        return

    names = all_index_names()
    ops = [(label, graphs[label], name, GENERAL_A) for label, _, _ in CATALOG_GRAPHS for name in names]
    wheel = graphs[CLOSENESS_GRAPH[0]]
    ops += [(CLOSENESS_GRAPH[0], wheel, name, None) for name in CLOSENESS_NAMES]
    run.start_timing()
    for label, g, name, a in ops:
        run.evaluate(f"{label}|{name}", g, name, a)
    run.end_block()
    hits, misses = vertex_table.cache_info()[:2]

    if tr.enabled:
        run.value_layers()
        run.layers["graph.generate_s"] = tr.total("graph.generate_family")
        run.layers["functionals.cache_hits"] = hits
        run.layers["functionals.cache_misses"] = misses
        with tr.span("indices.lookup"):
            for name in names:
                lookup(name)
        run.layers["indices.lookup_s"] = tr.total("indices.lookup")
        run.warm_folds((g, name, a) for _, g, name, a in ops)
        vertex_table.cache_clear()
        with tr.span("functionals.vertex_table", source="closeness"):
            vertex_table(wheel, "closeness")
        run.layers["functionals.table_s.closeness"] = tr.total(
            "functionals.vertex_table", source="closeness")

    # Correctness probe, timed apart from the workload: `compute --all` from
    # the command line, cold, checked row by row against the values above.
    probes = {}
    for label, _, _ in CATALOG_GRAPHS:
        vertex_table.cache_clear()
        with tr.span("cli.compute", graph=label):
            probes[label] = captured_cli(["compute", paths[label], "--all", "--format", "csv"])
    run.mark_peak_rss()
    failed_invocations = 0
    for label, (result, out, _) in probes.items():
        key = f"probe|{label}"
        if result != 0:
            failed_invocations += 1
            run.digests[key] = outcome_digest(result) if isinstance(result, BaseException) \
                else f"EXIT:{result}"
            continue
        seen = {}
        for _, index_label, value, _ in csv.reader(out.splitlines()[1:]):
            seen[index_label.split("(a=")[0]] = rendered_digest(value)
        expected = {name: run.digests[f"{label}|{name}"] for name in names}
        run.digests[key] = "OK" if seen == expected else f"MISMATCH:{len(seen)}"
    if tr.enabled:
        run.layers["cli.output_bytes"] = sum(len(out.encode()) for _, out, _ in probes.values())
        run.layers["cli.failed_invocations"] = failed_invocations
        for label, _, _ in CATALOG_GRAPHS:
            run.layers[f"cli.compute_s.{label}"] = tr.total("cli.compute", graph=label)


WORKLOADS = {
    "sparse-large": sparse_large,
    "verify-wide": verify_wide,
    "catalog-families": catalog_families,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True, help="directory of generated inputs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", help="write spans to this JSON file and report layers")
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args(argv)

    tracer = Tracer(bool(opts.trace))
    run = Run(tracer)
    WORKLOADS[opts.workload](opts, tracer, run)

    report = {
        "setup_s": run.setup_s,
        "op_s": run.op_s,
        "ref_s": run.ref_s,
        "peak_rss_mb": run.peak_rss_mb,
        "digests": run.digests,
        "checks": run.checks,
        "layers": run.layers,
    }
    if opts.trace:
        with open(opts.trace, "w", encoding="utf-8") as fh:
            json.dump({"workload": opts.workload, "spans": tracer.spans}, fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
