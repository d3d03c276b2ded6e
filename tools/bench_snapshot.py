"""Write BENCH_<pr>.json: a snapshot of every benchmark workload.

    python3 tools/bench_snapshot.py <pr>

Runs ``bench/run.py`` for each workload at seed 3 and 10 s per run: three
times with ``--trace 0``, whose end-to-end metrics it keeps with their
median, and once with ``--trace 1``, whose per-layer metrics it keeps. The
file, written at the root of the checkout, also holds the context line of
the first run (nproc, Python, numpy, commit, ``src/`` lines) and the line
count of each ``src/tablebounds/*.py``, as ``wc -l`` gives it. On a 2-core
box the whole run takes about 4 minutes. Run from the root of a checkout; it
exits with 1 if a run fails or reports a wrong answer. Two snapshots, one
per tree, give a change's before and after figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "deep", "audit", "cli")
SEED = 3
SECONDS = 10
REPEATS = 3  # untraced runs per workload, whose median is kept


def bench_run(workload: str, trace: int) -> tuple[dict, dict]:
    """(context line, last line) of one ``bench/run.py`` run."""
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    lines = [json.loads(x) for x in done.stdout.splitlines() if x.startswith("{")]
    context = next(x for x in lines if "context" in x)
    last = lines[-1]
    if not last["correct"]:
        failed = last["failed"]
        raise SystemExit(f"{workload} --trace {trace}: {failed} failed queries\n{done.stderr}")
    return context, last


def line_counts() -> dict:
    """``wc -l src/tablebounds/*.py``: newlines per file, and their total."""
    files = sorted((ROOT / "src" / "tablebounds").glob("*.py"))
    counts = {f.name: f.read_bytes().count(b"\n") for f in files}
    return {"files": counts, "total": sum(counts.values())}


def snapshot(pr: int) -> dict:
    doc = {"pr": pr, "seed": SEED, "seconds": SECONDS, "context": None, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for _ in range(REPEATS):
            context, last = bench_run(workload, 0)
            doc["context"] = doc["context"] or context["context"]
            runs.append({k: m["value"] for k, m in last["metrics"].items()})
            print(f"{workload} run {len(runs)}: {runs[-1]}", file=sys.stderr)
        _, traced = bench_run(workload, 1)
        doc["workloads"][workload] = {
            "units": {k: m["unit"] for k, m in last["metrics"].items()},
            "runs": runs,
            "median": {k: statistics.median(r[k] for r in runs) for k in runs[0]},
            "traced": {k: m["value"] for k, m in traced["metrics"].items()},
            "traced_units": {k: m["unit"] for k, m in traced["metrics"].items()},
        }
    doc["src_lines"] = line_counts()
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("pr", type=int, help="the number in the file name BENCH_<pr>.json")
    args = p.parse_args(argv)
    doc = snapshot(args.pr)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
