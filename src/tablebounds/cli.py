"""Command-line interface: marginalize, bounds, check, oracle, expfam, fan.

All regular output is a single JSON document on stdout; diagnostics go to
stderr. Exit codes are a stable contract:

    0  success / property holds
    1  property fails (witness included) or certification violated
    2  schema or document error
    3  range error (bad index, parameter, or value)
    4  required marginal missing (message lists the gaps)
    5  enumeration budget exhausted where completeness was required

Variable indices in flags and files are 1-based; cell coordinates are
0-based integers or category names when the file carries labels.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import io as tbio
from .bounds import BoundReport, method_report
from .errors import (
    BudgetExhaustedError,
    CertificationError,
    InconsistentFamilyError,
    MissingMarginalError,
    NonpositiveValueError,
    RangeError,
    SchemaError,
    SearchSpaceError,
    TableBoundsError,
    UnnormalizedError,
)
from .lattice import Witness, fan_evaluate, is_decreasing, is_supermodular
from .oracle import EnumerationBudget, certify, sharp_bounds
from .positivity import (
    ExpFamily,
    anchored_margin_observable,
    _density,
    expfam_log_density,
    fkg_covariance,
    is_log_supermodular,
    is_mtp2_additive,
    is_mtp2_multiplicative,
    search_mtp2_relabeling,
)
from .table import cell_margin_fn, parse_cell
from .varset import VarSet

SCHEMA = tbio.SCHEMA_VERSION


def _jsonify(value):
    if isinstance(value, Fraction):
        return (
            int(value)
            if value.denominator == 1
            else f"{value.numerator}/{value.denominator}"
        )
    if isinstance(value, VarSet):
        return list(value.vars)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def _witness_doc(witness: Optional[Witness]) -> Optional[dict]:
    if witness is None:
        return None
    def side(x):
        if isinstance(x, VarSet):
            return list(x.vars)
        return [int(v) + 1 for v in x]  # cells reported 1-based, as printed
    return {
        "kind": witness.kind,
        "a": side(witness.a),
        "b": side(witness.b),
        "lhs": _jsonify(witness.lhs),
        "rhs": _jsonify(witness.rhs),
    }


def _report_doc(report: BoundReport) -> dict:
    return {
        "schema": SCHEMA,
        "cell": list(report.cell),
        "lower": _jsonify(report.lower),
        "upper": _jsonify(report.upper),
        "formula": report.formula,
        "subsets": [list(a.vars) for a in report.subsets],
        "terms": _jsonify(dict(report.terms)),
    }


def cmd_marginalize(args) -> tuple[dict, int]:
    table = tbio.load_table(args.table)
    subset = VarSet.parse(args.vars, table.num_vars)
    from .table import marginalize

    marg = marginalize(table, subset)
    return tbio.marginal_to_doc(marg), 0


def cmd_bounds(args) -> tuple[dict, int]:
    fam = tbio.load_family(args.family)
    cell = parse_cell(args.cell.split(","), fam.cardinalities, fam.labels)
    report = method_report(fam, args.method, cell)
    return _report_doc(report), 0


def cmd_check(args) -> tuple[dict, int]:
    prop = args.property
    if args.relabel and not prop.startswith("mtp2-"):
        raise RangeError(f"--relabel applies to the mtp2 properties, not {prop!r}")
    if args.relabel and args.mode == "local":
        raise RangeError("--relabel searches with the exhaustive scan; drop --mode local")
    if args.mode is not None and prop in ("decreasing", "log-supermodular"):
        raise RangeError(f"--mode applies to supermodular and the mtp2 properties, not {prop!r}")
    if args.anchor is not None and prop.startswith("mtp2-"):
        raise RangeError(f"--anchor applies to the lattice properties, not {prop!r}")
    mode = args.mode or "exhaustive"
    table = tbio.load_table(args.table)
    doc: dict = {"schema": SCHEMA, "property": prop}

    def anchor_fn():
        if args.anchor is None:
            raise RangeError(f"property {prop!r} needs --anchor")
        anchor = parse_cell(args.anchor.split(","), table.cardinalities, table.labels)
        doc["anchor"] = list(anchor)
        return cell_margin_fn(table, anchor)

    if prop == "decreasing":
        result = is_decreasing(anchor_fn())
    elif prop == "supermodular":
        result = is_supermodular(anchor_fn(), mode)
    elif prop == "log-supermodular":
        result = is_log_supermodular(anchor_fn())
    elif prop in ("mtp2-additive", "mtp2-multiplicative"):
        checker = (
            is_mtp2_additive if prop == "mtp2-additive" else is_mtp2_multiplicative
        )
        if args.relabel:
            criterion = "additive" if prop == "mtp2-additive" else "multiplicative"
            relabeling = search_mtp2_relabeling(table, criterion)
            if relabeling is None:
                doc["relabeling"] = None
                doc["ok"] = False
                return doc, 1
            doc["relabeling"] = [list(p) for p in relabeling.perms]
            doc["ok"] = True
            return doc, 0
        result = checker(table, mode)
    else:
        raise RangeError(f"unknown property {prop!r}")
    doc["ok"] = result.ok
    doc["witness"] = _witness_doc(result.witness)
    return doc, 0 if result.ok else 1


def cmd_oracle(args) -> tuple[dict, int]:
    fam = tbio.load_family(args.family)
    cell = parse_cell(args.cell.split(","), fam.cardinalities, fam.labels)
    budget = EnumerationBudget()
    if args.budget is not None:
        budget = EnumerationBudget(max_nodes=args.budget)
    if args.certify is not None:
        report = method_report(fam, args.certify, cell)
        try:
            cert = certify(report, fam, budget)
        except CertificationError as err:
            return (
                {
                    "schema": SCHEMA,
                    "certified": False,
                    "error": str(err),
                    "violating_table": list(err.table) if err.table else None,
                },
                1,
            )
        return (
            {
                "schema": SCHEMA,
                "certified": True,
                "report": _report_doc(cert.report),
                "sharp": {
                    "min": cert.sharp.min_count,
                    "max": cert.sharp.max_count,
                    "tables": cert.sharp.tables_found,
                    "nodes": budget.nodes,
                    "outcome": cert.sharp.outcome,
                },
                "slack": [_jsonify(cert.slack_lower), _jsonify(cert.slack_upper)],
            },
            0,
        )
    sharp = sharp_bounds(fam, cell, budget)
    return (
        {
            "schema": SCHEMA,
            "cell": list(cell),
            "min": sharp.min_count,
            "max": sharp.max_count,
            "tables": sharp.tables_found,
            "nodes": budget.nodes,
            "outcome": sharp.outcome,
            "sharp": sharp.is_sharp,
        },
        0,
    )


def _parameters(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise RangeError(f"cannot parse {flag} {text!r} as comma-separated numbers") from None


def cmd_expfam(args) -> tuple[dict, int]:
    table = tbio.load_table(args.table)
    anchors = tuple(
        parse_cell(part.split(","), table.cardinalities, table.labels)
        for part in args.anchors.split("|")
    )
    theta = _parameters(args.theta, "--theta")
    alpha = VarSet.parse(args.alpha, table.num_vars) if args.alpha is not None else None
    theta2 = _parameters(args.theta2, "--theta2") if args.theta2 is not None else None
    fam = ExpFamily(anchors=anchors, theta=theta, alpha=alpha, theta2=theta2)
    log_mu = expfam_log_density(fam, table)
    mu = _density(log_mu)
    if args.action == "density":
        return (
            {
                "schema": SCHEMA,
                "log_norm": fam.log_norm,
                "sum": float(mu.values.sum()),
                "density": [float(v) for v in mu.values],
                "is_log_supermodular": bool(is_supermodular(log_mu, "local")),
            },
            0,
        )
    if args.action.startswith("fkg:"):
        body = args.action.split(":", 1)[1]
        parts = body.split("},{")
        if len(parts) != 2:
            raise RangeError(
                f"fkg action needs 'fkg:{{...}},{{...}}', got {args.action!r}"
            )
        set_a = VarSet.parse(parts[0] + "}", table.num_vars)
        set_b = VarSet.parse("{" + parts[1], table.num_vars)
        h1 = anchored_margin_observable(table, anchors[0], set_a)
        h2 = anchored_margin_observable(
            table, anchors[min(1, len(anchors) - 1)], set_b
        )
        cov = fkg_covariance(mu, h1, h2)
        return (
            {
                "schema": SCHEMA,
                "alpha": list(set_a.vars),
                "beta": list(set_b.vars),
                "covariance": cov,
                "nonnegative": cov >= -1e-12,
            },
            0,
        )
    raise RangeError(f"unknown expfam action {args.action!r}")


def cmd_fan(args) -> tuple[dict, int]:
    table = tbio.load_table(args.table)
    anchor = parse_cell(args.anchor.split(","), table.cardinalities, table.labels)
    fn = cell_margin_fn(table, anchor)
    xs = [VarSet.parse(part, table.num_vars) for part in args.xs.split("|")]
    ev = fan_evaluate(fn, xs, args.p, args.form)
    return (
        {
            "schema": SCHEMA,
            "form": ev.form,
            "p": ev.p,
            "lhs": _jsonify(ev.lhs),
            "rhs": _jsonify(ev.rhs),
            "holds": ev.holds,
            "rhs_terms": [
                {
                    "k": t.k,
                    "coefficient": t.coefficient,
                    "subset": list(t.subset.vars),
                    "value": _jsonify(t.value),
                    "term": _jsonify(t.term),
                }
                for t in ev.rhs_terms
            ],
        },
        0,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tablebounds",
        description=(
            "Cell-entry bounds for multiway contingency tables from released "
            "marginals, with exact enumeration certification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("marginalize", help="sum a table onto a subset of axes")
    p.add_argument("table", help="table file (.json or 2-way .csv)")
    p.add_argument(
        "--vars",
        required=True,
        help="comma-separated 1-based variables; empty string for the total",
    )
    p.set_defaults(func=cmd_marginalize)

    p = sub.add_parser("bounds", help="compute cell bounds from a family")
    p.add_argument("family", help="family file (.json)")
    p.add_argument("--cell", required=True, help="0-based indices or category names")
    p.add_argument(
        "--method",
        required=True,
        help="simple | 3way[:one-dim|:two-dim] | ddim:<d> | decomp:<cover> | "
        "fan:<xs>,<p> | best  (cover/xs like {1,2}|{1,3})",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check", help="check a structural property of a table")
    p.add_argument("table", help="table file (.json or 2-way .csv)")
    p.add_argument(
        "--property",
        required=True,
        choices=[
            "decreasing",
            "supermodular",
            "mtp2-additive",
            "mtp2-multiplicative",
            "log-supermodular",
        ],
    )
    p.add_argument("--anchor", help="anchor cell for the lattice properties")
    p.add_argument(
        "--mode",
        choices=["exhaustive", "local"],
        help="pair scan mode for supermodular/mtp2 checks (default exhaustive; "
        "log-supermodular always runs the local scan)",
    )
    p.add_argument(
        "--relabel",
        action="store_true",
        help="search for a category relabeling satisfying the mtp2 property "
        "(exhaustive scan; mtp2 properties only)",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="enumeration-sharp bounds / certification")
    p.add_argument("family", help="family file (.json)")
    p.add_argument("--cell", required=True)
    p.add_argument("--budget", type=int, help="max search nodes (default 10^7)")
    p.add_argument("--certify", help="bounds method to certify against the oracle")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("expfam", help="lattice exponential family / FKG")
    p.add_argument("table", help="table file")
    p.add_argument("--anchors", required=True, help="cells separated by |")
    p.add_argument("--theta", required=True, help="comma-separated parameters >= 0")
    p.add_argument("--alpha", help="interaction subset, e.g. 1,2")
    p.add_argument("--theta2", help="interaction parameters >= 0")
    p.add_argument(
        "--action",
        required=True,
        help="density | fkg:{a},{b} (sets of 1-based variables)",
    )
    p.set_defaults(func=cmd_expfam)

    p = sub.add_parser("fan", help="evaluate both sides of the Fan inequality")
    p.add_argument("table", help="table file")
    p.add_argument("--anchor", required=True, help="anchor cell")
    p.add_argument("--xs", required=True, help="subsets like {1}|{2}|{3}")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--form", default="primal", choices=["primal", "dual"])
    p.set_defaults(func=cmd_fan)
    return parser


_EXIT_CODES = (
    (SchemaError, 2),
    (InconsistentFamilyError, 2),
    (MissingMarginalError, 4),
    (BudgetExhaustedError, 5),
    (SearchSpaceError, 3),
    (NonpositiveValueError, 3),
    (UnnormalizedError, 3),
    (RangeError, 3),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.func(args)
    except TableBoundsError as err:
        for cls, code in _EXIT_CODES:
            if isinstance(err, cls):
                print(f"error: {err}", file=sys.stderr)
                return code
        print(f"error: {err}", file=sys.stderr)
        return 3
    json.dump(doc, sys.stdout, indent=2)
    print()
    return code


if __name__ == "__main__":
    sys.exit(main())
