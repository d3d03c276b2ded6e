"""Seeded inputs, queries and output checks for the four benchmark workloads.

``make_pool(workload, seed, workdir)`` builds a fixed pool of queries from the
seed; the timed loop cycles through it, so every run sees the same mix of
shapes and sizes and only the counts change with the seed. A query function,
``QUERY[workload]`` or a ``CliRunner``, runs one query through a tracer and
returns a list of failure messages, empty when every output was checked and
found correct; ``run_one`` times it.

Each check takes a route independent of the formula under test: the DFS
oracle, the table the family was released from, a theorem, a construction
whose answer is known, or the library's in-process answer for the CLI.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import threading
from math import prod
from time import perf_counter

import numpy as np

from tablebounds import (
    ContingencyTable,
    Decomposition,
    EnumerationBudget,
    MarginalFamily,
    VarSet,
    best_bounds,
    cell_margin_fn,
    certify,
    decomposition_bound,
    fan_lower_bound,
    frechet_3way,
    frechet_ddim,
    is_decreasing,
    is_mtp2_additive,
    is_mtp2_multiplicative,
    is_supermodular,
    lead_path,
    lead_table,
    marginalize,
    search_mtp2_relabeling,
    sharp_bounds_all,
    simple_frechet,
)
from tablebounds import io as tbio

WORKLOADS = ("sweep", "deep", "audit", "cli")
CHILD_TIMEOUT_S = 60


def _subsets(l, groups):
    return tuple(VarSet.from_vars(g, l) for g in groups)


def _cells(cards):
    return list(itertools.product(*(range(c) for c in cards)))


def _table(cards, flat):
    return ContingencyTable.from_flat(cards, [int(v) for v in flat])


def _random_table(rng, cards, max_count):
    return _table(cards, rng.integers(0, max_count + 1, size=prod(cards)))


def _convex_table(rng, cards):
    """Counts c + b * 2**(sum of coordinates): convex and log-convex in the
    coordinate sum, so both MTP2 conditions hold at every pair and the pair
    scans run to the end."""
    c, b = int(rng.integers(0, 4)), int(rng.integers(1, 4))
    s = np.indices(cards).sum(axis=0).reshape(-1)
    return _table(cards, c + b * 2**s)


def _contains(report, lo, hi):
    return report.lower <= lo and hi <= report.upper


# ---------------------------------------------------------------- sweep

def _formulas(kind):
    """Every formula that applies to a sweep family, except best_bounds."""
    if kind == "2way":
        ones = _subsets(2, [[1], [2]])
        return [
            simple_frechet,
            lambda f, c: frechet_ddim(f, c, 1),
            lambda f, c: decomposition_bound(f, Decomposition(ones), c),
            lambda f, c: fan_lower_bound(f, ones, 1, c),
        ]
    if kind == "3way-one":
        ones = _subsets(3, [[1], [2], [3]])
        return [
            lambda f, c: frechet_3way(f, c, "one-dim"),
            lambda f, c: frechet_ddim(f, c, 1),
            lambda f, c: decomposition_bound(f, Decomposition(ones), c),
            lambda f, c: fan_lower_bound(f, ones, 1, c),
        ]
    if kind == "3way-two":
        cover = _subsets(3, [[1, 2], [2, 3]])
        xs = _subsets(3, [[1, 2], [1, 3]])
        return [
            lambda f, c: frechet_3way(f, c, "two-dim"),
            lambda f, c: frechet_ddim(f, c, 2),
            lambda f, c: decomposition_bound(f, Decomposition(cover), c),
            lambda f, c: fan_lower_bound(f, xs, 1, c),
        ]
    cover = _subsets(4, [[1, 2], [2, 3], [3, 4]])
    xs = _subsets(4, [[1, 2], [3, 4]])
    return [
        lambda f, c: frechet_ddim(f, c, 2),
        lambda f, c: decomposition_bound(f, Decomposition(cover), c),
        lambda f, c: fan_lower_bound(f, xs, 1, c),
    ]


SWEEP_KINDS = {
    # kind: (released subsets, cardinality choices, max cell count)
    "2way": ([[1], [2]], (2, 3), 4),
    "3way-one": ([[1], [2], [3]], (2,), 3),
    "3way-two": ([[1, 2], [1, 3], [2, 3]], (2,), 3),
    "4way-pairs": ([list(p) for p in itertools.combinations(range(1, 5), 2)], (2,), 2),
}
SWEEP_POOL = 400


def _sweep_pool(rng):
    pool = []
    kinds = list(SWEEP_KINDS)
    for i in range(SWEEP_POOL):
        kind = kinds[i % len(kinds)]
        groups, card_choices, max_count = SWEEP_KINDS[kind]
        l = max(max(g) for g in groups)
        cards = tuple(int(rng.choice(card_choices)) for _ in range(l))
        table = _random_table(rng, cards, max_count)
        pool.append((kind, table, _subsets(l, groups), _formulas(kind)))
    return pool


def _family(tr, table, subsets):
    """Marginalize, then build, so validation is timed apart from the sums."""
    margs = [tr.call("table.marginalize", marginalize, table, a) for a in subsets]
    return tr.call("bounds.family_build", MarginalFamily, table.cardinalities, margs)


def _oracle(tr, fam):
    budget = EnumerationBudget()
    mins, maxs, budget = tr.call("oracle.sharp_bounds_all", sharp_bounds_all, fam, budget)
    tr.tag(nodes=budget.nodes, tables=budget.tables,
           exhausted=int(budget.outcome != "complete"))
    return mins, maxs, budget


def sweep_query(q, tr):
    kind, table, subsets, formulas = q
    fam = _family(tr, table, subsets)
    mins, maxs, budget = _oracle(tr, fam)
    errors = []
    if budget.outcome != "complete":
        errors.append(f"oracle outcome {budget.outcome}")
    for cell in _cells(table.cardinalities):
        lo, hi = int(mins[cell]), int(maxs[cell])
        if not lo <= table.value(cell) <= hi:
            errors.append(f"seed table value outside oracle range at {cell}")
        for fn in formulas:
            rep = tr.call("bounds.formula", fn, fam, cell)
            if not _contains(rep, lo, hi):
                errors.append(f"{rep.formula} [{rep.lower}, {rep.upper}] "
                              f"misses sharp [{lo}, {hi}] at {cell}")
            if rep.formula == "simple" and (rep.lower, rep.upper) != (lo, hi):
                errors.append(f"simple not sharp at {cell}")
        rep = tr.call("bounds.best", best_bounds, fam, cell)
        if not _contains(rep, lo, hi):
            errors.append(f"best misses sharp at {cell}")
    return errors


# ---------------------------------------------------------------- deep

DEEP_SPECS = (
    # (cardinalities, released subsets, base count, cells one above base):
    # near-uniform tables with a fixed total, whose enumeration cost varies
    # little from seed to seed (the seed places the extra ones). Slot costs
    # are about 40, 40, 90, 130 and 130 ms, so the median and the 90th
    # percentile fall inside a slot's latencies rather than on the edge
    # between two.
    ((3, 3), [[1], [2]], 4, 4),
    ((2, 2, 2), [[1], [2], [3]], 4, 4),
    ((3, 3), [[1], [2]], 5, 4),
    ((2, 2, 2, 2), [list(p) for p in itertools.combinations(range(1, 5), 2)], 3, 8),
    ((3, 3, 3), [[1, 2], [1, 3], [2, 3]], 1, 13),
)
DEEP_POOL = 100


def _deep_pool(rng):
    pool = []
    for i in range(DEEP_POOL):
        cards, groups, base, ones = DEEP_SPECS[i % len(DEEP_SPECS)]
        extra = np.zeros(prod(cards), dtype=np.int64)
        extra[rng.choice(extra.size, size=ones, replace=False)] = 1
        pool.append((_table(cards, base + extra), _subsets(len(cards), groups)))
    return pool


def deep_query(q, tr):
    table, subsets = q
    fam = _family(tr, table, subsets)
    mins, maxs, budget = _oracle(tr, fam)
    errors = []
    if budget.outcome != "complete":
        errors.append(f"oracle outcome {budget.outcome}")
    for cell in _cells(table.cardinalities):
        lo, hi = int(mins[cell]), int(maxs[cell])
        if not lo <= table.value(cell) <= hi:
            errors.append(f"seed table value outside oracle range at {cell}")
        rep = tr.call("bounds.best", best_bounds, fam, cell)
        if not _contains(rep, lo, hi):
            errors.append(f"best [{rep.lower}, {rep.upper}] misses sharp "
                          f"[{lo}, {hi}] at {cell}")
    return errors


# ---------------------------------------------------------------- audit

AUDIT_SHAPES = (
    # Slot latencies run from about 30 ms to 330 ms. The two l=10 slots make
    # the top fifth, so the 90th percentile falls inside them, and the slots
    # either side of the median cost about the same (75-90 ms).
    ((3, 3, 2, 2), "random"),
    ((3, 4, 2, 2), "convex"),
    ((3, 3, 3, 2), "random"),
    ((3, 4, 2, 2, 2), "convex"),
    ((3, 3, 2, 2, 2), "random"),
    ((3, 3, 2, 2, 2), "convex"),
    ((3, 3, 3, 3), "convex"),
    ((2,) * 6, "random"),
    ((2,) * 10, "convex"),
    ((2,) * 10, "convex"),
)
AUDIT_POOL = 40
# Larger tables are audited at a seeded sample of cells and skip the local
# MTP2 scans, a Python loop over cells and axis pairs (over 1 s at l=10).
AUDIT_ALL_CELLS = 128
AUDIT_SAMPLE = 16
AUDIT_EXHAUSTIVE_ANCHORS = 2


def _audit_pool(rng):
    pool = []
    for i in range(AUDIT_POOL):
        cards, kind = AUDIT_SHAPES[i % len(AUDIT_SHAPES)]
        table = _convex_table(rng, cards) if kind == "convex" else _random_table(rng, cards, 9)
        cells = _cells(cards)
        if len(cells) > AUDIT_ALL_CELLS:
            picks = rng.choice(len(cells), size=AUDIT_SAMPLE, replace=False)
            cells = [cells[int(k)] for k in sorted(picks)]
        pool.append((table, kind == "convex", cells))
    return pool


def _full_scan_pairs(cards, local):
    """Pairs a passing MTP2 scan visits (computed, not counted)."""
    n = prod(cards)
    if not local:
        return n * (n - 1) // 2
    return sum((ci - 1) * (cj - 1) * n // (ci * cj)
               for ci, cj in itertools.combinations(cards, 2))


def _pair_sides(counts, x, y, multiplicative):
    """Both sides of the MTP2 inequality at cells x and y."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    vx, vy, vl, vh = (int(counts[tuple(c)]) for c in (x, y, lo, hi))
    if multiplicative:
        return vx * vy, vl * vh
    return vx + vy, vl + vh


def _mtp2_holds(counts, multiplicative):
    """All-pairs MTP2 check written independently of the library's scan."""
    coords = np.indices(counts.shape).reshape(counts.ndim, -1).T
    for x, y in itertools.combinations(coords, 2):
        lhs, rhs = _pair_sides(counts, x, y, multiplicative)
        if lhs > rhs:
            return False
    return True


def _check_mtp2(tr, table, convex, errors):
    counts = table.counts
    modes = ("exhaustive", "local") if counts.size <= AUDIT_ALL_CELLS else ("exhaustive",)
    results = {}
    for multiplicative, fn in ((False, is_mtp2_additive), (True, is_mtp2_multiplicative)):
        for mode in modes:
            res = tr.call(f"positivity.mtp2_{mode}", fn, table, mode)
            if res.ok:
                tr.tag(pairs=_full_scan_pairs(table.cardinalities, mode == "local"))
            results[multiplicative, mode] = res
            what = f"mtp2 {'mult' if multiplicative else 'add'} {mode}"
            if convex and not res.ok:
                errors.append(f"{what} rejects a table built to pass")
            elif not res.ok:
                w = res.witness
                lhs, rhs = _pair_sides(counts, np.array(w.a), np.array(w.b), multiplicative)
                if not (lhs > rhs and (lhs, rhs) == (w.lhs, w.rhs)):
                    errors.append(f"{what} witness {w} does not reproduce")
            elif not convex and mode == "exhaustive" and not _mtp2_holds(counts, multiplicative):
                errors.append(f"{what} passes a violating table")
    # The additive condition is a supermodularity, so local pairs decide it.
    if "local" in modes and results[False, "local"].ok != results[False, "exhaustive"].ok:
        errors.append("additive local and exhaustive scans disagree")


def _check_relabel(tr, table, convex, errors):
    l = table.num_vars
    two = tr.call("table.marginalize", marginalize, table, VarSet.from_vars([1, 2], l)).table
    found = tr.call("positivity.relabel", search_mtp2_relabeling, two, "additive")
    if found is None:
        if convex:
            errors.append("relabel search misses the identity on a convex margin")
        return
    relabeled = np.empty_like(two.counts)
    relabeled[np.ix_(*found.perms)] = two.counts
    if not _mtp2_holds(relabeled, False):
        errors.append(f"relabeling {found.perms} does not pass")


def audit_query(q, tr):
    table, convex, cells = q
    l = table.num_vars
    pairs = _subsets(l, [list(p) for p in itertools.combinations(range(1, l + 1), 2)])
    chain = Decomposition(_subsets(l, [[j, j + 1] for j in range(1, l)]))
    fam = _family(tr, table, pairs)
    errors = []
    for cell in cells:
        truth = table.value(cell)
        best = tr.call("bounds.best", best_bounds, fam, cell)
        ddim = tr.call("bounds.formula", frechet_ddim, fam, cell, 2)
        dec = tr.call("bounds.formula", decomposition_bound, fam, chain, cell)
        for rep in (best, ddim, dec):
            if not rep.contains(truth):
                errors.append(f"{rep.formula} excludes the true value at {cell}")
        if not (best.lower >= ddim.lower and best.upper <= min(ddim.upper, dec.upper)):
            errors.append(f"best looser than a formula it intersects at {cell}")
    for k, anchor in enumerate(cells):
        fn = tr.call("table.margin_fn", cell_margin_fn, table, anchor)
        if fn.values[0] != table.total or fn.values[-1] != table.value(anchor):
            errors.append(f"margin fn ends wrong at {anchor}")
        if not tr.call("lattice.decreasing", is_decreasing, fn).ok:
            errors.append(f"margin fn not decreasing at {anchor}")
        if not tr.call("lattice.supermodular_local", is_supermodular, fn, "local").ok:
            errors.append(f"margin fn not supermodular (local) at {anchor}")
        if k < AUDIT_EXHAUSTIVE_ANCHORS and not tr.call(
            "lattice.supermodular_exhaustive", is_supermodular, fn, "exhaustive"
        ).ok:
            errors.append(f"margin fn not supermodular (exhaustive) at {anchor}")
    _check_mtp2(tr, table, convex, errors)
    if table.cardinalities[:2] in ((3, 3), (3, 4)):
        _check_relabel(tr, table, convex, errors)
    return errors


# ---------------------------------------------------------------- cli

CLI_GENERATED = 3


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _family_file(path, table, groups):
    fam = MarginalFamily.from_table(table, _subsets(table.num_vars, groups))
    return fam, _write(path, tbio.family_to_doc(fam))


def _cell_arg(cell):
    return ",".join(str(x) for x in cell)


def _bounds_cmd(fam, path, cell):
    rep = best_bounds(fam, cell)
    argv = ["bounds", path, "--cell", _cell_arg(cell), "--method", "best"]
    return argv, {"lower": rep.lower, "upper": rep.upper}


def _oracle_cmd(fam, path, cell):
    cert = certify(simple_frechet(fam, cell), fam)
    argv = ["oracle", path, "--cell", _cell_arg(cell), "--certify", "simple"]
    return argv, {"certified": True,
                  "sharp": {"min": cert.sharp.min_count, "max": cert.sharp.max_count}}


def _supermodular_cmd(table, path, anchor):
    ok = is_supermodular(cell_margin_fn(table, anchor), "exhaustive").ok
    argv = ["check", path, "--property", "supermodular", "--anchor", _cell_arg(anchor)]
    return argv, {"ok": ok}


def _cli_pool(rng, workdir):
    lead = lead_table()
    lead_fam, lead_fam_path = _family_file(
        os.path.join(workdir, "lead_family.json"), lead, [[1], [2]])
    pool = [
        _bounds_cmd(lead_fam, lead_fam_path, (0, 0)),
        _oracle_cmd(lead_fam, lead_fam_path, (0, 0)),
        _supermodular_cmd(lead, lead_path(), (0, 0)),
    ]
    for g in range(CLI_GENERATED):
        two = _random_table(rng, (3, 3), 4)
        fam2, path2 = _family_file(os.path.join(workdir, f"two_{g}.json"), two, [[1], [2]])
        three = _random_table(rng, (2, 3, 3), 4)
        fam3, path3 = _family_file(
            os.path.join(workdir, f"three_{g}.json"), three, [[1, 2], [1, 3], [2, 3]])
        path_t = _write(os.path.join(workdir, f"table_{g}.json"), tbio.table_to_doc(three))
        # A convex 3x4 table with its categories shuffled: some relabeling passes.
        base = _convex_table(rng, (3, 4)).counts
        shuffled = base[np.ix_(rng.permutation(3), rng.permutation(4))]
        mtp = _table((3, 4), shuffled.reshape(-1))
        path_m = _write(os.path.join(workdir, f"mtp2_{g}.json"), tbio.table_to_doc(mtp))
        found = search_mtp2_relabeling(mtp, "additive")
        pool += [
            _bounds_cmd(fam3, path3, tuple(int(rng.integers(0, c)) for c in three.cardinalities)),
            _oracle_cmd(fam2, path2, (int(rng.integers(0, 3)), int(rng.integers(0, 3)))),
            _supermodular_cmd(three, path_t, tuple(int(rng.integers(0, c)) for c in three.cardinalities)),
            (["check", path_m, "--property", "mtp2-additive", "--relabel"],
             {"ok": True, "relabeling": [list(p) for p in found.perms]}),
        ]
    return pool


def child_env():
    """The environment for child interpreters: this checkout's ``src`` first,
    one numeric thread."""
    import tablebounds

    src = os.path.dirname(os.path.dirname(tablebounds.__file__))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv, env, cwd):
    """Run one child interpreter to the end; returns (exit code, stdout,
    stderr, peak RSS in KiB). A child still running after CHILD_TIMEOUT_S is
    killed, and still waited for."""
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err[0], usage.ru_maxrss


def check_cli_output(code, out, expected):
    """Exit code 0, stdout one JSON document, and every expected field equal."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(out)
    except ValueError:
        return ["stdout is not JSON"]
    errors = []
    for key, want in expected.items():
        got = doc.get(key)
        if isinstance(want, dict):
            got = {k: (got or {}).get(k) for k in want}
        if got != want:
            errors.append(f"{key}: got {got!r}, want {want!r}")
    return errors


class CliRunner:
    """State a CLI query needs: the child environment, the working directory,
    and the largest child RSS seen."""

    def __init__(self, cwd):
        self.env = child_env()
        self.cwd = cwd
        self.peak_rss_kib = 0

    def __call__(self, q, tr):
        argv, expected = q
        code, out, err, rss = tr.call(
            "cli.process", run_child, ["-m", "tablebounds.cli", *argv], self.env, self.cwd)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        errors = check_cli_output(code, out, expected)
        if tr.enabled:
            errors += self.replay(argv, expected, tr)
        return [f"{argv[0]} {argv[1]}: {e}" for e in errors]

    @staticmethod
    def replay(argv, expected, tr):
        """Run ``main(argv)`` in-process, with its io loads traced, so the
        traced run can split a call into io and the rest of the CLI."""
        from tablebounds import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tr.call(f"cli.main.{argv[0]}", cli.main, argv)
        return [f"in-process {e}" for e in check_cli_output(code, buf.getvalue(), expected)]


def traced_io(tr):
    """Wrap the io loaders the CLI calls so each load is a span; returns an
    undo function."""
    saved = tbio.load_family, tbio.load_table
    tbio.load_family = lambda path: tr.call("io.load_family", saved[0], path)
    tbio.load_table = lambda path: tr.call("io.load_table", saved[1], path)

    def undo():
        tbio.load_family, tbio.load_table = saved
    return undo


# ---------------------------------------------------------------- entry

def make_pool(workload, seed, workdir):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep":
        return _sweep_pool(rng)
    if workload == "deep":
        return _deep_pool(rng)
    if workload == "audit":
        return _audit_pool(rng)
    return _cli_pool(rng, workdir)


QUERY = {"sweep": sweep_query, "deep": deep_query, "audit": audit_query}


def run_one(pool, query, tr, qid):
    """Run query ``qid`` (cycling through the pool); returns its latency (s)
    and failure messages. A raised error is a failed query."""
    q = pool[qid % len(pool)]
    t0 = perf_counter()
    try:
        errors = tr.query(qid, query, q, tr)
    except Exception as err:
        errors = [f"{type(err).__name__}: {err}"]
    return perf_counter() - t0, errors
