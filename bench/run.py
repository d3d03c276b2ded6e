"""Benchmark harness for tablebounds; see bench/README.md.

    python3 bench/run.py --workload sweep|deep|audit|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It imports tablebounds from that checkout's
``src`` and nothing else. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_QUERIES = 100  # so the p90 has ten samples beyond it
SETUP_SAMPLES = 5  # this process plus four probe children
PROBES = 5  # interpreter and import probes per traced run
PAIR_BLOCK = 5  # queries per block of the traced run (see traced_loop)
SPAN_DUMP_QUERIES = 200
# Pool entries run once after a traced loop (see floor_queries): audit's
# second entry is built to pass the MTP2 scans, so its scans run to the end.
FLOOR = {"sweep": [0], "deep": [0], "audit": [1], "cli": [0, 1, 2]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "deep", "audit", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def set_up(workload, seed, workdir):
    """Import tablebounds and generate the inputs: the part ``setup_s`` times."""
    start = perf_counter()
    import workloads

    pool = workloads.make_pool(workload, seed, str(workdir))
    return workloads, pool, perf_counter() - start


def setup_probe(args):
    """Time set-up in a fresh interpreter, as a user starting cold pays it."""
    code, out, err, _ = run_child_plain(
        [str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-probe"])
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')}")
    return float(out.decode().strip().splitlines()[-1])


def run_child_plain(argv):
    import workloads

    return workloads.run_child(argv, workloads.child_env(), str(ROOT))


def commit():
    """The checked-out commit, read from ``.git`` without leaving the
    checkout; None when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context():
    import numpy

    lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit(), "src_lines": lines}


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_loop(workloads, pool, query, seconds):
    """Closed loop, one client: run queries until ``seconds`` have passed and
    at least MIN_QUERIES completed, calibrating after each. Returns the
    per-query latencies and calibrations (s), and the failures."""
    import speed

    tr = tracing.NullTracer()
    latencies, calibrations, failures = [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(latencies) < MIN_QUERIES:
        qid = len(latencies)
        latency, errors = workloads.run_one(pool, query, tr, qid)
        latencies.append(latency)
        calibrations.append(speed.calibrate())
        if errors:
            failures.append((qid, errors))
    return latencies, calibrations, failures


def end_to_end(args, workloads, pool, query, setup):
    """The gated metrics, their times adjusted for machine speed (see
    speed.py), and the unadjusted figures for the record."""
    import speed

    def calibrations():
        return [speed.calibrate() for _ in range(speed.WINDOW)]

    setups = [(setup, calibrations())]
    for _ in range(SETUP_SAMPLES - 1):
        cal = calibrations()
        setups.append((setup_probe(args), cal))
    lat, cals, failures = timed_loop(workloads, pool, query, args.seconds)
    peak_kib = (query.peak_rss_kib if args.workload == "cli"
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def times(latencies, setup_times):
        return {"queries_per_s": metric(len(latencies) / sum(latencies), "1/s"),
                "latency_p50_ms": metric(1e3 * quantile(latencies, 50), "ms"),
                "latency_p90_ms": metric(1e3 * quantile(latencies, 90), "ms"),
                "setup_s": metric(statistics.median(setup_times), "s")}

    metrics = times(speed.adjust_series(lat, cals), [speed.adjust(t, c) for t, c in setups])
    metrics["peak_rss_mb"] = metric(peak_kib / 1024, "MB")
    metrics["ok_ratio"] = metric(1 - len(failures) / len(lat), "ratio")
    raw = {k: v["value"] for k, v in times(lat, [t for t, _ in setups]).items()}
    raw["calibration_ms"] = 1e3 * statistics.median(cals)
    return len(lat), failures, metrics, {"unadjusted": raw}


def per_layer(spans, paired, first_pass_calls, interpreter_ms, import_ms):
    """Per-layer metrics from a traced run's spans (see README). Oracle counts
    are summed over the first ``first_pass_calls`` oracle calls."""
    s = tracing.summarize(spans)
    by_name, wall = s["by_name"], s["wall"]
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.calls"] = metric(s["calls"][layer], "count")
        m[f"{layer}.busy_s"] = metric(s["busy"][layer], "s")
        m[f"{layer}.share"] = metric(s["busy"][layer] / wall, "ratio")

    def mean(name, scale, unit):
        return metric(tracing.mean_duration(by_name, name, scale), unit)

    m["table.marginalize_us"] = mean("table.marginalize", 1e6, "us")
    m["table.margin_fn_us"] = mean("table.margin_fn", 1e6, "us")
    for op in ("decreasing", "supermodular_local", "supermodular_exhaustive"):
        m[f"lattice.{op}_us"] = mean(f"lattice.{op}", 1e6, "us")
    m["bounds.family_build_us"] = mean("bounds.family_build", 1e6, "us")
    m["bounds.formula_us_per_cell"] = mean("bounds.formula", 1e6, "us")
    m["bounds.best_us_per_cell"] = mean("bounds.best", 1e6, "us")

    oracle = by_name.get("oracle.sharp_bounds_all", [])
    first_pass = oracle[:first_pass_calls]
    nodes = [t["nodes"] for _, t in oracle]
    times = [d for d, _ in oracle]
    fixed, slope = tracing.linear_fit(nodes, times)
    m["oracle.nodes"] = metric(sum(t["nodes"] for _, t in first_pass), "count")
    m["oracle.tables"] = metric(sum(t["tables"] for _, t in first_pass), "count")
    m["oracle.exhausted"] = metric(sum(t["exhausted"] for _, t in oracle), "count")
    m["oracle.nodes_per_s"] = metric(sum(nodes) / sum(times) if times else 0.0, "1/s")
    m["oracle.node_ns"] = metric(1e9 * slope, "ns")
    m["oracle.fixed_us"] = metric(1e6 * fixed, "us")

    m["positivity.mtp2_exhaustive_us"] = mean("positivity.mtp2_exhaustive", 1e6, "us")
    m["positivity.mtp2_local_us"] = mean("positivity.mtp2_local", 1e6, "us")
    full = [(d, t["pairs"]) for name in ("positivity.mtp2_exhaustive", "positivity.mtp2_local")
            for d, t in by_name.get(name, []) if t]
    full_time = sum(d for d, _ in full)
    m["positivity.pairs_per_s"] = metric(
        sum(p for _, p in full) / full_time if full_time else 0.0, "1/s")
    m["positivity.relabel_ms"] = mean("positivity.relabel", 1e3, "ms")

    m["io.load_family_ms"] = mean("io.load_family", 1e3, "ms")
    m["io.load_table_ms"] = mean("io.load_table", 1e3, "ms")
    m["cli.interpreter_ms"] = metric(interpreter_ms, "ms")
    m["cli.import_ms"] = metric(import_ms, "ms")
    for cmd in ("bounds", "oracle", "check"):
        m[f"cli.main_ms.{cmd}"] = mean(f"cli.main.{cmd}", 1e3, "ms")
    process_ms = tracing.mean_duration(by_name, "cli.process", 1e3)
    mains = [d for name in ("cli.main.bounds", "cli.main.oracle", "cli.main.check")
             for d, _ in by_name.get(name, [])]
    main_ms = 1e3 * sum(mains) / len(mains) if mains else 0.0
    m["cli.accounted_share"] = metric(
        (interpreter_ms + import_ms + main_ms) / process_ms
        if process_ms else 0.0, "ratio")

    # Tracing overhead, over the same blocks of queries run both ways.
    traced_s, untraced_s, n = paired
    qps_u, qps_t = (n / untraced_s, n / traced_s) if n else (0.0, 0.0)
    m["trace.untraced_queries_per_s"] = metric(qps_u, "1/s")
    m["trace.queries_per_s"] = metric(qps_t, "1/s")
    m["trace.overhead"] = metric(1 - qps_t / qps_u if n else 0.0, "ratio")
    m["trace.layer_share"] = metric(1 - s["harness"] / wall, "ratio")
    return m


def per_layer_run(args, workloads, pool, query, workdir):
    """The traced run: per-layer metrics, with a few queries of every other
    workload after the timed loop (see floor_queries)."""
    interpreter_ms, import_ms = probe_cli_floor()
    tr = tracing.SpanTracer()
    undo = workloads.traced_io(tr)
    try:
        lat, failures, traced, paired = traced_loop(workloads, pool, query, tr, args.seconds)
        for i, (q, other) in enumerate(floor_queries(workloads, args.workload, args.seed,
                                                      workdir)):
            latency, errors = workloads.run_one([q], other, tr, traced + i)
            lat.append(latency)
            if errors:
                failures.append((traced + i, errors))
    finally:
        undo()
    if traced < len(pool):
        print(f"warning: traced queries did not cover the pool once "
              f"({traced} of {len(pool)}); oracle counts cover what ran", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tr.dump(OUT / f"spans_{args.workload}.jsonl", SPAN_DUMP_QUERIES)
    first_pass = len(pool) if traced >= len(pool) else None
    metrics = per_layer(tr.spans, paired, first_pass, interpreter_ms, import_ms)
    return len(lat), failures, metrics, {}


def traced_loop(workloads, pool, query, tr, seconds):
    """Run blocks of queries traced, in pool order, for ``seconds``. Every
    third block is also run untraced, before or after the traced run in
    turn, so tracing overhead is priced on the same queries at the same
    moment. Returns all latencies, all failures, the number of traced
    queries, and the paired block times (traced, untraced, query count)."""
    null = tracing.NullTracer()
    latencies, failures = [], []
    paired = [0.0, 0.0, 0]
    start = perf_counter()
    qid = 0
    while perf_counter() - start < seconds:
        block = qid // PAIR_BLOCK
        tracers = (tr,)
        if block % 3 == 1:
            tracers = (tr, null) if block % 2 else (null, tr)
            paired[2] += PAIR_BLOCK
        for t in tracers:
            for i in range(qid, qid + PAIR_BLOCK):
                latency, errors = workloads.run_one(pool, query, t, i)
                latencies.append(latency)
                if len(tracers) == 2:
                    paired[t is null] += latency
                if errors:
                    failures.append((i, errors))
        qid += PAIR_BLOCK
    return latencies, failures, qid, paired


def floor_queries(workloads, workload, seed, workdir):
    """A few queries from every other workload's pool (one per subcommand
    for ``cli``), run traced after the timed loop so that every per-layer
    figure is measured on every workload."""
    out = []
    for name, picks in FLOOR.items():
        if name != workload:
            query = (workloads.CliRunner(str(ROOT)) if name == "cli"
                     else workloads.QUERY[name])
            pool = workloads.make_pool(name, seed, str(workdir))
            out += [(pool[i], query) for i in picks]
    return out


def probe_cli_floor():
    """Median wall time of a bare interpreter, and median in-child time of
    ``import tablebounds.cli``, in ms."""
    bare, imports = [], []
    stamp = ("import time; t = time.perf_counter(); import tablebounds.cli; "
             "print(time.perf_counter() - t)")
    for _ in range(PROBES):
        t0 = perf_counter()
        run_child_plain(["-c", "pass"])
        bare.append(perf_counter() - t0)
        code, out, err, _ = run_child_plain(["-c", stamp])
        if code != 0:
            raise RuntimeError(f"import probe failed: {err.decode(errors='replace')}")
        imports.append(float(out))
    return 1e3 * statistics.median(bare), 1e3 * statistics.median(imports)


def run(args, workdir):
    workloads, pool, setup = set_up(args.workload, args.seed, workdir)
    if args.setup_probe:
        print(setup)
        return 0
    if args.workload == "cli":
        query = workloads.CliRunner(str(ROOT))
    else:
        query = workloads.QUERY[args.workload]
    if args.trace:
        attempted, failures, metrics, extra = per_layer_run(args, workloads, pool, query, workdir)
    else:
        attempted, failures, metrics, extra = end_to_end(args, workloads, pool, query, setup)

    for qid, errors in failures[:20]:
        print(f"query {qid} failed: {'; '.join(errors[:3])}", file=sys.stderr)
    print(json.dumps({"context": context(), "workload": args.workload, "seed": args.seed,
                      "queries": attempted, "pool": len(pool),
                      "fail_ratio": len(failures) / attempted, **extra}))
    for name, m in metrics.items():
        print(f"{args.workload:6s} {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tablebounds" / "__init__.py").is_file():
        print(f"error: no tablebounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
