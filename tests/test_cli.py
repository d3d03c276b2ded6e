"""Command-line surface: formats, round-trips, outputs, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tablebounds
from tablebounds import ContingencyTable, CountRangeError, SchemaError, VarSet
from tablebounds.bounds import BoundReport, MarginalFamily
from tablebounds.cli import main
from tablebounds.datasets import lead_path, lead_table
from tablebounds.io import (
    family_from_doc,
    family_to_doc,
    load_table,
    table_from_doc,
    table_to_doc,
)

LEAD_FAMILY_DOC = {
    "schema": 1,
    "cardinalities": [3, 3],
    "labels": [["Poor", "Medium", "Good"], ["Low", "Medium", "High"]],
    "marginals": [
        {"vars": [1], "counts": [25, 5, 4]},
        {"vars": [2], "counts": [8, 7, 19]},
    ],
}


@pytest.fixture
def lead_family_file(tmp_path):
    path = tmp_path / "leadfam.json"
    path.write_text(json.dumps(LEAD_FAMILY_DOC))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.err


class TestRoundTrip:
    def test_table_doc(self):
        lead = lead_table()
        again = table_from_doc(table_to_doc(lead))
        assert again.cardinalities == lead.cardinalities
        assert np.array_equal(again.counts, lead.counts)
        assert again.labels == lead.labels
        assert table_to_doc(again) == table_to_doc(lead)

    def test_family_doc(self):
        fam = family_from_doc(LEAD_FAMILY_DOC)
        doc = family_to_doc(fam)
        again = family_from_doc(doc)
        assert family_to_doc(again) == doc

    def test_real_table_doc(self):
        t = ContingencyTable.from_flat((2,), [0.5, 1.5], kind="real")
        again = table_from_doc(table_to_doc(t))
        assert again.kind == "real"
        assert np.allclose(again.counts, t.counts)


class TestSchemaValidation:
    def test_count_length_mismatch(self):
        with pytest.raises(SchemaError):
            table_from_doc({"cardinalities": [2, 2], "counts": [1, 2, 3]})

    def test_unknown_schema_version(self):
        with pytest.raises(SchemaError):
            table_from_doc({"schema": 9, "cardinalities": [2], "counts": [1, 2]})

    def test_integer_kind_rejects_floats(self):
        with pytest.raises(SchemaError):
            table_from_doc({"cardinalities": [2], "counts": [1.5, 2.0]})

    @pytest.mark.parametrize(
        "doc",
        [{"schema": True, "cardinalities": [2], "counts": [1, 2]},
         {"cardinalities": [True, 2], "counts": [1, 2]},
         {"cardinalities": [2], "marginals": [{"vars": [True], "counts": [1, 2]}]}],
        ids=["schema", "cardinality", "vars"],
    )
    def test_json_true_is_not_one(self, doc):
        with pytest.raises(SchemaError):
            (family_from_doc if "marginals" in doc else table_from_doc)(doc)

    def test_family_needs_marginals(self):
        with pytest.raises(SchemaError):
            family_from_doc({"cardinalities": [2, 2], "marginals": []})

    def test_family_duplicate_vars(self):
        with pytest.raises(SchemaError):
            family_from_doc(
                {
                    "cardinalities": [2, 2],
                    "marginals": [{"vars": [1, 1], "counts": [1, 1]}],
                }
            )


class TestCsv:
    def test_two_way_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",Low,High\nPoor,3,2\nGood,1,4\n")
        t = load_table(str(path))
        assert t.cardinalities == (2, 2)
        assert t.labels == (("Poor", "Good"), ("Low", "High"))
        assert t.counts.tolist() == [[3, 2], [1, 4]]
        assert t.kind == "integer"

    def test_csv_real_counts(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",a,b\nx,0.5,1.5\ny,1.0,2.0\n")
        assert load_table(str(path)).kind == "real"

    def test_csv_repeated_column_name_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text(",x,x\na,1,2\nb,3,4\n")
        code, doc, err = run_cli(capsys, "check", str(path), "--property", "decreasing", "--anchor", "0,0")
        assert (code, doc) == (2, None)
        assert err == f"error: {path}: labels of axis 2 name the category 'x' twice\n"

    def test_csv_ragged_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",a,b\nx,1\n")
        with pytest.raises(SchemaError):
            load_table(str(path))


    def test_csv_integers_are_exact(self, tmp_path):
        # Past 2**53 a float would round 9007199254740993 to ...992.
        path = tmp_path / "t.csv"
        path.write_text(",a,b\nx,9007199254740993,1\ny,3.0,2\n")
        t = load_table(str(path))
        assert t.kind == "integer"
        assert t.counts.tolist() == [[9007199254740993, 1], [3, 2]]

    @pytest.mark.parametrize(
        "field", ["inf", "-inf", "nan", "1e400", "x", "", "--5", "1" * 400 + "x"]
    )
    def test_csv_unusable_count_exit_2(self, tmp_path, capsys, field):
        path = tmp_path / "t.csv"
        path.write_text(f",a,b\nx,{field},1\ny,2,3\n")
        with pytest.raises(SchemaError):
            load_table(str(path))
        code, doc, err = run_cli(capsys, "marginalize", str(path), "--vars", "1")
        assert (code, doc) == (2, None) and err.startswith("error: ")
        assert len(err) < len(str(path)) + 150  # a long field is quoted by a short prefix

    def test_csv_negative_count_exit_2_as_in_json(self, tmp_path, capsys):
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
        csv_path.write_text(",a,b\nx,-1,1\ny,2,3\n")
        json_path.write_text(json.dumps({"cardinalities": [2, 2], "counts": [-1, 1, 2, 3]}))
        for path in (csv_path, json_path):
            code, _, _ = run_cli(capsys, "check", str(path), "--property", "mtp2-additive")
            assert code == 2

    @pytest.mark.parametrize(
        "count", [2**63, 10**400, "1" * 5001, "-" + "1" * 5001],
        ids=["2^63", "10^400", "5001-digits", "minus-5001-digits"],
    )
    def test_csv_count_past_int64_exit_3(self, tmp_path, capsys, count):
        # Past 4,300 digits int() refuses the field: still a count past int64.
        path = tmp_path / "t.csv"
        path.write_text(f",a,b\nx,{count},1\ny,2,3\n")
        with pytest.raises(CountRangeError):
            load_table(str(path))
        code, _, err = run_cli(capsys, "marginalize", str(path), "--vars", "1")
        assert code == 3 and "int64" in err and len(err) < len(str(path)) + 150


class TestMarginalizeCommand:
    def test_rows(self, capsys):
        code, doc, _ = run_cli(capsys, "marginalize", lead_path(), "--vars", "1")
        assert code == 0
        assert doc["counts"] == [25, 5, 4]

    def test_full(self, capsys):
        code, doc, _ = run_cli(capsys, "marginalize", lead_path(), "--vars", "1,2")
        assert code == 0
        assert doc["counts"] == [7, 5, 13, 1, 1, 3, 0, 1, 3]

    def test_total(self, capsys):
        code, doc, _ = run_cli(capsys, "marginalize", lead_path(), "--vars", "")
        assert code == 0
        assert doc["total"] == 34

    def test_range_error_exit_3(self, capsys):
        code, doc, err = run_cli(capsys, "marginalize", lead_path(), "--vars", "5")
        assert code == 3
        assert doc is None and "range" in err or err

    def test_repeated_variable_exit_3(self, capsys):
        code, doc, err = run_cli(capsys, "marginalize", lead_path(), "--vars", "1,1")
        assert (code, doc) == (3, None)
        assert err == "error: variable 1 listed twice\n"

    def test_schema_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cardinalities": [2], "counts": [1]}')
        code, _, _ = run_cli(capsys, "marginalize", str(bad), "--vars", "1")
        assert code == 2

    def test_real_marginal_reads_back_as_real(self, capsys, tmp_path):
        # Without its kind the marginal would read back as an integer
        # document and be refused for its fractional counts.
        table = ContingencyTable.from_flat((2, 2), [0.5, 1.25, 2.0, 3.5], kind="real")
        path, out = tmp_path / "real.json", tmp_path / "marginal.json"
        path.write_text(json.dumps(table_to_doc(table)))
        code, doc, _ = run_cli(capsys, "marginalize", str(path), "--vars", "1")
        assert (code, doc["counts"]) == (0, [1.75, 5.5])
        out.write_text(json.dumps(doc))
        again = load_table(str(out))
        assert again.kind == "real"
        assert again.counts.tolist() == [1.75, 5.5]


class TestBoundsCommand:
    def test_simple_with_labels(self, capsys, lead_family_file):
        code, doc, _ = run_cli(
            capsys, "bounds", lead_family_file, "--cell", "Poor,Low",
            "--method", "simple",
        )
        assert code == 0
        assert (doc["lower"], doc["upper"]) == (0, 8)

    @pytest.mark.parametrize("method", ["simple", "best", "ddim:1"])
    def test_real_rounding_is_not_a_crossing(self, capsys, tmp_path, method):
        # At cell (0, 1), row + col - total rounds to 0.300048828125, above the
        # upper 0.3 by far less than 1e-9 of the total.
        path = tmp_path / "real.json"
        path.write_text(json.dumps({
            "schema": 1, "kind": "real", "cardinalities": [2, 2],
            "marginals": [
                {"vars": [1], "counts": [1000000000000.3, 0.0]},
                {"vars": [2], "counts": [1000000000000.0, 0.3]},
            ],
        }))
        code, doc, _ = run_cli(capsys, "bounds", str(path), "--cell", "0,1", "--method", method)
        assert code == 0
        assert doc["lower"] == doc["upper"] == 0.3

    @pytest.mark.parametrize("method", ["3way", "best"])
    @pytest.mark.parametrize("kind", ["integer", "real"])
    def test_infeasible_pair_family_exit_3(self, capsys, tmp_path, kind, method):
        # The pairs agree on every 1-way margin, yet no table has them: at
        # cell (0, 0, 1) a pair lower of 1 crosses the upper 0, in either kind.
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({
            "schema": 1, "kind": kind, "cardinalities": [2, 2, 2],
            "marginals": [
                {"vars": [1, 2], "counts": [1, 0, 0, 1]},
                {"vars": [1, 3], "counts": [0, 1, 1, 0]},
                {"vars": [2, 3], "counts": [1, 0, 0, 1]},
            ],
        }))
        code, doc, err = run_cli(
            capsys, "bounds", str(path), "--cell", "0,0,1", "--method", method
        )
        assert (code, doc) == (3, None)
        assert err.startswith("error: crossed bounds") and err.count("\n") == 1

    def test_ddim_on_uniform(self, capsys, tmp_path):
        fam = MarginalFamily.from_table(
            ContingencyTable.from_flat((2, 2, 2), [1] * 8),
            [VarSet.from_vars(v, 3) for v in ([1, 2], [1, 3], [2, 3])],
        )
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(family_to_doc(fam)))
        code, doc, _ = run_cli(
            capsys, "bounds", str(path), "--cell", "0,0,0", "--method", "ddim:2"
        )
        assert code == 0
        assert (doc["lower"], doc["upper"]) == (0, 2)

    def test_decomp_method(self, capsys, tmp_path):
        fam = MarginalFamily.from_table(
            ContingencyTable.from_flat((2, 2, 2), list(range(8))),
            [VarSet.from_vars(v, 3) for v in ([1, 2], [1, 3])],
        )
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(family_to_doc(fam)))
        code, doc, _ = run_cli(
            capsys, "bounds", str(path), "--cell", "0,0,0",
            "--method", "decomp:{1,2}|{1,3}",
        )
        assert code == 0
        n12, n13, n1 = 1, 4, 6  # margins of 0..7 at (0,0,0)
        assert doc["lower"] == max(n12 + n13 - n1, 0)
        assert doc["upper"] == min(n12, n13)

    def test_fan_method(self, capsys, lead_family_file):
        code, doc, _ = run_cli(
            capsys, "bounds", lead_family_file, "--cell", "0,0",
            "--method", "fan:{1}|{2},1",
        )
        assert code == 0
        assert doc["lower"] == 0
        assert doc["terms"]["has_cell_bound"] is True

    @pytest.mark.parametrize("count, p", [(21, 1), (26, 13)])
    def test_fan_method_past_the_caps_exit_3(self, capsys, lead_family_file, count, p):
        # 26 sets at p = 13 used to enumerate for minutes and exit 0.
        xs = "|".join(["{1}", "{2}"] * (count // 2) + ["{1}"] * (count % 2))
        code, doc, err = run_cli(
            capsys, "bounds", lead_family_file, "--cell", "0,0",
            "--method", f"fan:{xs},{p}",
        )
        assert (code, doc) == (3, None)
        assert err.count("\n") == 1 and "exceeds cap" in err
        assert "Traceback" not in err

    def test_best_method(self, capsys, lead_family_file):
        code, doc, _ = run_cli(
            capsys, "bounds", lead_family_file, "--cell", "Poor,Low",
            "--method", "best",
        )
        assert code == 0
        assert (doc["lower"], doc["upper"]) == (0, 8)

    def test_missing_marginal_exit_4(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(
            json.dumps(
                {
                    "cardinalities": [3, 3],
                    "marginals": [{"vars": [1], "counts": [25, 5, 4]}],
                }
            )
        )
        code, _, err = run_cli(
            capsys, "bounds", str(path), "--cell", "0,0", "--method", "simple"
        )
        assert code == 4
        assert "{2}" in err

    def test_repeated_variable_in_method_exit_3(self, capsys, lead_family_file):
        code, doc, err = run_cli(
            capsys, "bounds", lead_family_file, "--cell", "0,0", "--method", "decomp:{1,1}|{2}"
        )
        assert (code, doc) == (3, None)
        assert err == "error: variable 1 listed twice\n"

    def test_inconsistent_family_exit_2(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(
            json.dumps(
                {
                    "cardinalities": [2, 2],
                    "marginals": [
                        {"vars": [1], "counts": [3, 1]},
                        {"vars": [2], "counts": [1, 1]},
                    ],
                }
            )
        )
        code, _, err = run_cli(
            capsys, "bounds", str(path), "--cell", "0,0", "--method", "simple"
        )
        assert code == 2
        assert "disagree" in err


class TestCheckCommand:
    def test_mtp2_additive_fail_witness(self, capsys):
        code, doc, _ = run_cli(
            capsys, "check", lead_path(), "--property", "mtp2-additive"
        )
        assert code == 1
        assert doc["ok"] is False
        assert {tuple(doc["witness"]["a"]), tuple(doc["witness"]["b"])} == {
            (1, 3),
            (2, 1),
        }
        assert (doc["witness"]["lhs"], doc["witness"]["rhs"]) == (14, 10)

    def test_mtp2_multiplicative_pass(self, capsys):
        code, doc, _ = run_cli(
            capsys, "check", lead_path(), "--property", "mtp2-multiplicative"
        )
        assert code == 0
        assert doc["ok"] is True

    def test_relabel_search_reported(self, capsys):
        code, doc, _ = run_cli(
            capsys, "check", lead_path(), "--property", "mtp2-multiplicative",
            "--relabel",
        )
        assert code == 0
        assert doc["relabeling"] == [[0, 1, 2], [0, 1, 2]]

    def test_relabel_additive_none(self, capsys):
        code, doc, _ = run_cli(
            capsys, "check", lead_path(), "--property", "mtp2-additive", "--relabel"
        )
        assert code == 1
        assert doc["relabeling"] is None

    @pytest.mark.parametrize(
        "extra",
        [
            ["--property", "supermodular", "--anchor", "0,0"],
            ["--property", "decreasing", "--anchor", "0,0"],
            ["--property", "log-supermodular", "--anchor", "0,0"],
            ["--property", "mtp2-additive", "--mode", "local"],
            ["--property", "mtp2-multiplicative", "--mode", "local"],
        ],
        ids=["supermodular", "decreasing", "log-supermodular", "add-local", "mult-local"],
    )
    def test_relabel_that_would_do_nothing_exit_3(self, capsys, extra):
        # --relabel runs only for the mtp2 properties, and only exhaustively.
        code, doc, err = run_cli(capsys, "check", lead_path(), "--relabel", *extra)
        assert code == 3
        assert doc is None
        assert err.startswith("error: --relabel") and err.count("\n") == 1

    def test_relabel_with_exhaustive_mode(self, capsys):
        code, doc, _ = run_cli(
            capsys, "check", lead_path(), "--property", "mtp2-multiplicative",
            "--relabel", "--mode", "exhaustive",
        )
        assert code == 0
        assert doc["relabeling"] == [[0, 1, 2], [0, 1, 2]]

    @pytest.mark.parametrize("mode", ["exhaustive", "local"])
    @pytest.mark.parametrize("prop", ["decreasing", "log-supermodular"])
    def test_mode_that_would_do_nothing_exit_3(self, capsys, prop, mode):
        # Neither property has a pair scan to choose: --mode used to be
        # accepted and ignored.
        code, doc, err = run_cli(
            capsys, "check", lead_path(), "--property", prop, "--anchor", "0,0",
            "--mode", mode,
        )
        assert code == 3
        assert doc is None
        assert err.startswith("error: --mode") and prop in err and err.count("\n") == 1

    @pytest.mark.parametrize("anchor", ["0,0", "9,9", "x"])
    @pytest.mark.parametrize("prop", ["mtp2-additive", "mtp2-multiplicative"])
    def test_anchor_that_would_do_nothing_exit_3(self, capsys, prop, anchor):
        # The mtp2 checks read the whole table: --anchor used to be accepted
        # and ignored, even out of range.
        code, doc, err = run_cli(
            capsys, "check", lead_path(), "--property", prop, "--anchor", anchor
        )
        assert (code, doc) == (3, None)
        assert err.startswith("error: --anchor") and prop in err and err.count("\n") == 1

    def test_mode_defaults_to_exhaustive(self, capsys):
        # The lead table's first violating pair among all pairs differs from
        # its first violating local pair.
        witness = {}
        for mode in (None, "exhaustive", "local"):
            extra = ["--mode", mode] if mode else []
            code, doc, _ = run_cli(
                capsys, "check", lead_path(), "--property", "mtp2-additive", *extra
            )
            assert code == 1
            witness[mode] = doc["witness"]
        assert witness[None] == witness["exhaustive"] != witness["local"]

    @pytest.mark.parametrize("mode", [None, "exhaustive", "local"])
    def test_supermodular_scan_follows_mode(self, capsys, monkeypatch, mode):
        import tablebounds.cli as cli

        seen, check = [], cli.is_supermodular
        monkeypatch.setattr(
            cli, "is_supermodular", lambda fn, scan: seen.append(scan) or check(fn, scan)
        )
        extra = ["--mode", mode] if mode else []
        code, doc, _ = run_cli(
            capsys, "check", lead_path(), "--property", "supermodular",
            "--anchor", "0,0", *extra,
        )
        assert code == 0 and doc["ok"] is True
        assert seen == [mode or "exhaustive"]

    def test_supermodular_with_anchor(self, capsys):
        code, doc, _ = run_cli(
            capsys, "check", lead_path(), "--property", "supermodular",
            "--anchor", "Poor,Low",
        )
        assert code == 0 and doc["ok"] is True

    def test_repeated_category_name_exit_2(self, capsys, tmp_path):
        # Named by its first index, the second "a" could never be anchored.
        path = tmp_path / "t.json"
        doc = {"schema": 1, "cardinalities": [2, 2], "counts": [1, 2, 3, 4],
               "labels": [["a", "a"], ["x", "y"]]}
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "check", str(path), "--property", "supermodular", "--anchor", "a,y"
        )
        assert (code, out) == (2, None)
        assert err == f"error: {path}: labels of axis 1 name the category 'a' twice\n"

    def test_anchor_required_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "check", lead_path(), "--property", "decreasing")
        assert code == 3

    def test_log_supermodular_zero_rejected(self, capsys):
        # the lead table has a zero cell, so its anchored margin function
        # hits zero at the full set for that anchor
        code, _, err = run_cli(
            capsys, "check", lead_path(), "--property", "log-supermodular",
            "--anchor", "Good,Low",
        )
        assert code == 3
        assert "positive" in err


class TestOracleCommand:
    def test_sharp(self, capsys, lead_family_file):
        code, doc, _ = run_cli(
            capsys, "oracle", lead_family_file, "--cell", "Poor,Low"
        )
        assert code == 0
        assert (doc["min"], doc["max"]) == (0, 8)
        assert doc["outcome"] == "complete" and doc["sharp"] is True
        assert (doc["tables"], doc["nodes"]) == (309, 978)

    def test_certify_simple(self, capsys, lead_family_file):
        code, doc, _ = run_cli(
            capsys, "oracle", lead_family_file, "--cell", "Poor,Low",
            "--certify", "simple",
        )
        assert code == 0
        assert doc["certified"] is True
        assert doc["slack"] == [0, 0]
        assert (doc["sharp"]["tables"], doc["sharp"]["nodes"]) == (309, 978)

    def test_budget_partial_flagged(self, capsys, lead_family_file):
        code, doc, _ = run_cli(
            capsys, "oracle", lead_family_file, "--cell", "0,0", "--budget", "500"
        )
        assert code == 0
        assert doc["outcome"] == "exhausted"
        assert doc["sharp"] is False

    def test_budget_too_small_exit_5(self, capsys, lead_family_file):
        code, _, _ = run_cli(
            capsys, "oracle", lead_family_file, "--cell", "0,0", "--budget", "1"
        )
        assert code == 5

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exit_3(self, capsys, lead_family_file, budget):
        code, doc, err = run_cli(
            capsys, "oracle", lead_family_file, "--cell", "0,0", "--budget", budget
        )
        assert (code, doc) == (3, None)
        assert err == f"error: max_nodes must be at least 1, got {budget}\n"

    def test_certify_past_a_million_tables(self, capsys, tmp_path):
        # The 10! permutation matrices: nodes alone bound the search.
        path = tmp_path / "perm.json"
        path.write_text(json.dumps({
            "schema": 1,
            "cardinalities": [10, 10],
            "marginals": [{"vars": [1], "counts": [1] * 10}, {"vars": [2], "counts": [1] * 10}],
        }))
        code, doc, _ = run_cli(
            capsys, "oracle", str(path), "--cell", "0,0", "--certify", "simple"
        )
        assert code == 0 and doc["certified"] is True
        assert (doc["sharp"]["tables"], doc["sharp"]["outcome"]) == (3628800, "complete")

    def test_certification_failure_document(self, capsys, monkeypatch, lead_family_file):
        # The sharp range at (0, 0) is 0..8, so an upper of 7 excludes the
        # first table the search finds with 8 there.
        report = BoundReport((0, 0), 0, 7, "simple", ())
        monkeypatch.setattr(tablebounds.cli, "method_report", lambda fam, method, cell: report)
        code, doc, _ = run_cli(
            capsys, "oracle", lead_family_file, "--cell", "0,0", "--certify", "simple"
        )
        assert code == 1
        assert doc["certified"] is False
        assert "upper bound 7 from simple excludes an attainable count 8" in doc["error"]
        assert doc["violating_table"] == [8, 0, 17, 0, 3, 2, 0, 4, 0]

    def test_certify_needs_complete_exit_5(self, capsys, lead_family_file):
        code, _, _ = run_cli(
            capsys, "oracle", lead_family_file, "--cell", "0,0",
            "--budget", "500", "--certify", "simple",
        )
        assert code == 5


class TestExpfamCommand:
    def test_density_uniform(self, capsys):
        code, doc, _ = run_cli(
            capsys, "expfam", lead_path(), "--anchors", "0,0", "--theta", "0",
            "--action", "density",
        )
        assert code == 0
        assert doc["density"] == [0.25, 0.25, 0.25, 0.25]
        assert doc["is_log_supermodular"] is True
        assert abs(doc["sum"] - 1.0) <= 1e-12

    def test_density_always_log_supermodular(self, capsys):
        code, doc, _ = run_cli(
            capsys, "expfam", lead_path(), "--anchors", "Poor,Low",
            "--theta", "0.35", "--action", "density",
        )
        assert code == 0
        assert doc["is_log_supermodular"] is True

    def test_underflowing_masses_log_supermodular(self, capsys):
        # At theta 30 two masses underflow to 0.0; the property is read
        # from the log density, which stays finite.
        code, doc, _ = run_cli(
            capsys, "expfam", lead_path(), "--anchors", "0,0", "--theta", "30",
            "--action", "density",
        )
        assert code == 0
        assert doc["density"][2:] == [0.0, 0.0]
        assert doc["is_log_supermodular"] is True

    def test_fkg_nonnegative(self, capsys):
        code, doc, _ = run_cli(
            capsys, "expfam", lead_path(), "--anchors", "0,0", "--theta", "0.2",
            "--action", "fkg:{1},{2}",
        )
        assert code == 0
        assert doc["covariance"] >= -1e-12
        assert doc["nonnegative"] is True

    @pytest.mark.parametrize(
        "params",
        [
            ["--theta", "x"],
            ["--theta", "0.1", "--alpha", "1", "--theta2", "y"],
            ["--theta", "nan"],
            ["--theta", "inf"],
            ["--theta", "1e400"],
            ["--theta", "0.1", "--alpha", "1", "--theta2", "inf"],
            ["--theta", "1e308"],
        ],
        ids=["junk", "junk-theta2", "nan", "inf", "1e400", "inf-theta2", "overflow"],
    )
    def test_unusable_parameters_exit_3(self, capsys, params):
        # Junk used to escape as a ValueError traceback (exit 1); an exponent
        # that overflowed printed numpy warnings before its error line.
        code, doc, err = run_cli(
            capsys, "expfam", lead_path(), "--anchors", "0,0", *params, "--action", "density"
        )
        assert (code, doc) == (3, None)
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_theta_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "expfam", lead_path(), "--anchors", "0,0", "--theta", "-1",
            "--action", "density",
        )
        assert code == 3


class TestFanCommand:
    def test_lead_values(self, capsys):
        code, doc, _ = run_cli(
            capsys, "fan", lead_path(), "--anchor", "Poor,Low",
            "--xs", "{1}|{2}", "--p", "1",
        )
        assert code == 0
        assert (doc["lhs"], doc["rhs"]) == (33, 41)
        assert doc["holds"] is True

    def test_dual_form(self, capsys):
        code, doc, _ = run_cli(
            capsys, "fan", lead_path(), "--anchor", "Poor,Low",
            "--xs", "{1}|{2}", "--p", "2", "--form", "dual",
        )
        assert code == 0
        assert doc["lhs"] == doc["rhs"]


class TestInputContract:
    """Unreadable files and absurd counts map to documented exit codes with a
    one-line message, never a traceback."""

    def test_missing_file_exit_2(self, capsys, tmp_path):
        missing = str(tmp_path / "nonexistent.json")
        code, doc, err = run_cli(
            capsys, "bounds", missing, "--cell", "0,0", "--method", "best"
        )
        assert code == 2
        assert doc is None
        assert err.count("\n") == 1 and "Traceback" not in err
        assert missing in err and "No such file" in err

    def test_directory_as_table_exit_2(self, capsys, tmp_path):
        code, doc, err = run_cli(capsys, "marginalize", str(tmp_path), "--vars", "1")
        assert code == 2 and doc is None and err.startswith("error: ")

    @pytest.mark.parametrize(
        "kind, digits, code",
        [("integer", 401, 3), ("real", 401, 3), ("integer", 5001, 3), ("real", 5001, 3)],
        ids=["integer-past-float64", "real-past-float64", "past-int-parsing",
             "real-past-int-parsing"],
    )
    def test_json_count_past_float64_exit_code(self, capsys, tmp_path, kind, digits, code):
        # Past float64 the range checks themselves overflowed; past 4,300
        # digits int() refuses the number, which is still a count past int64.
        path = tmp_path / "huge.json"
        count = "1" + "0" * (digits - 1)
        path.write_text(f'{{"kind": "{kind}", "cardinalities": [2], "counts": [{count}, 1]}}')
        got, out, err = run_cli(capsys, "marginalize", str(path), "--vars", "1")
        assert (got, out) == (code, None) and err.startswith("error: ")
        assert len(err) < len(str(path)) + 150  # a long count is quoted by a short prefix

    @pytest.mark.parametrize(
        "doc",
        [
            '{"cardinalities": [HUGE], "counts": [1]}',
            '{"schema": HUGE, "cardinalities": [2], "counts": [1, 2]}',
            '{"cardinalities": [2], "marginals": [{"vars": [HUGE], "counts": [1, 2]}]}',
        ],
        ids=["cardinality", "schema", "vars"],
    )
    def test_json_long_integer_outside_counts_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "huge.json"
        path.write_text(doc.replace("HUGE", "1" * 5001))
        if "marginals" in doc:
            command = ["bounds", str(path), "--cell", "0", "--method", "best"]
        else:
            command = ["marginalize", str(path), "--vars", "1"]
        got, out, err = run_cli(capsys, *command)
        assert (got, out) == (2, None) and err.startswith("error: ")
        assert len(err) < len(str(path)) + 150

    def test_json_count_beyond_int64_exit_3(self, capsys, tmp_path):
        doc = dict(LEAD_FAMILY_DOC)
        doc["marginals"] = [
            {"vars": [1], "counts": [2**64, 0, 0]},
            {"vars": [2], "counts": [2**64, 0, 0]},
        ]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "bounds", str(path), "--cell", "0,0", "--method", "best"
        )
        assert code == 3
        assert out is None
        assert "int64 limit" in err and err.count("\n") == 1

    def test_family_doc_total_beyond_int64_exit_3(self, capsys, tmp_path):
        doc = dict(LEAD_FAMILY_DOC)
        doc["cardinalities"] = [2, 2]
        del doc["labels"]
        doc["marginals"] = [
            {"vars": [1], "counts": [2**62, 2**62]},
            {"vars": [2], "counts": [2**62, 2**62]},
        ]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "bounds", str(path), "--cell", "0,0", "--method", "simple"
        )
        assert code == 3
        assert "int64 limit" in err

    def test_check_supermodular_sums_beyond_int64(self, tmp_path):
        # The total 7 * 2**60 fits int64; sums of two marginal counts do not.
        doc = {"schema": 1, "cardinalities": [2, 2, 2], "counts": [2**60] * 7 + [0]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        src = str(Path(tablebounds.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "tablebounds.cli", "check", str(path),
             "--property", "supermodular", "--anchor", "0,0,0"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["ok"] is True

    @pytest.mark.parametrize(
        "rows", [[1e308, 1e308], [1e308, 0.0]], ids=["total", "terms"]
    )
    def test_real_family_beyond_float64_exit_3(self, tmp_path, rows):
        # Run as a child process: numpy's RuntimeWarnings print to its stderr.
        doc = {
            "schema": 1,
            "kind": "real",
            "cardinalities": [2, 2],
            "marginals": [{"vars": [1], "counts": rows}, {"vars": [2], "counts": rows}],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        src = str(Path(tablebounds.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "tablebounds.cli", "bounds", str(path),
             "--cell", "0,0", "--method", "simple"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
        assert "float64 limit 1.7976931348623157e+308" in proc.stderr

    @pytest.mark.parametrize(
        "labels",
        [5, "ab", [["a", "b"]], [5, 6], [None, None], [["a", "b"], ["c"]], [["a", "a"], ["c", "d"]]],
        ids=["number", "string", "one-axis", "numbers", "nulls", "short-axis", "repeated"],
    )
    @pytest.mark.parametrize("kind", ["table", "family"])
    def test_malformed_labels_exit_2(self, capsys, tmp_path, kind, labels):
        path = tmp_path / "labels.json"
        if kind == "table":
            doc = {"schema": 1, "cardinalities": [2, 2], "counts": [1, 2, 3, 4]}
            argv = ["check", str(path), "--property", "decreasing", "--anchor", "0,0"]
        else:
            doc = {
                "schema": 1,
                "cardinalities": [2, 2],
                "marginals": [{"vars": [1], "counts": [3, 7]}, {"vars": [2], "counts": [4, 6]}],
            }
            argv = ["bounds", str(path), "--cell", "0,0", "--method", "simple"]
        path.write_text(json.dumps(dict(doc, labels=labels)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, None)
        assert err.startswith("error: ") and "labels" in err and err.count("\n") == 1

    def test_json_true_variable_exit_2(self, capsys, tmp_path):
        path = tmp_path / "true.json"
        path.write_text('{"cardinalities": [2], "marginals": [{"vars": [true], "counts": [1, 2]}]}')
        code, out, err = run_cli(capsys, "bounds", str(path), "--cell", "0", "--method", "best")
        assert (code, out) == (2, None)
        assert err.startswith("error: ") and "vars" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["bounds", "--method", "best"], ["oracle", "--budget", "50"]],
        ids=["bounds", "oracle"],
    )
    def test_family_grid_past_cap_exit_3(self, capsys, tmp_path, argv):
        # Only the first axis is released, so the document is small, but the
        # kernels would build arrays over all 10^12 cells.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "schema": 1,
            "cardinalities": [2, 10**12],
            "marginals": [{"vars": [1], "counts": [3, 4]}],
        }))
        code, out, err = run_cli(capsys, argv[0], str(path), "--cell", "0,0", *argv[1:])
        assert (code, out) == (3, None)
        assert "exceeds cap" in err and err.count("\n") == 1


# Python cannot write or read an integer past 4,300 digits, so a document
# holds this string where it means one and is written with the digits.
LONG_INT = "<5001-digit integer>"


def dumps(doc):
    return json.dumps(doc).replace(json.dumps(LONG_INT), "1" * 5001)


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.sampled_from([2**64, 10**12, LONG_INT]),
    st.floats(),
    st.text(max_size=3),
    st.lists(
        st.one_of(st.integers(-1, 3), st.sampled_from([10**12, 2**64, LONG_INT]), st.floats()),
        max_size=4,
    ),
    st.lists(st.lists(st.one_of(st.none(), st.text(max_size=2)), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


@st.composite
def documents(draw):
    """A table or family document released from a small random table, with
    no labels, valid labels or junk ones, and up to three of its fields, or
    of one marginal's, replaced by junk or dropped."""
    l = draw(st.integers(1, 3))
    cards = draw(st.lists(st.integers(1, 3), min_size=l, max_size=l))
    counts = draw(st.lists(st.integers(0, 3), min_size=prod(cards), max_size=prod(cards)))
    doc = {"schema": 1, "kind": "integer", "cardinalities": cards}
    labels = draw(st.sampled_from(["none", "valid", "junk"]))
    if labels == "valid":
        doc["labels"] = [[f"{j}.{i}" for i in range(c)] for j, c in enumerate(cards)]
    elif labels == "junk":
        doc["labels"] = draw(JUNK)
    if draw(st.booleans()):
        doc["counts"] = counts
    else:
        table = np.array(counts).reshape(cards)
        released = draw(st.lists(
            st.lists(st.integers(1, l), min_size=1, max_size=l, unique=True),
            min_size=1, max_size=3,
        ))
        doc["marginals"] = [
            {
                "vars": sorted(vars_),
                "counts": table.sum(
                    axis=tuple(j for j in range(l) if j + 1 not in vars_)
                ).reshape(-1).tolist(),
            }
            for vars_ in released
        ]
    for _ in range(draw(st.integers(0, 3))):
        entries = doc.get("marginals")
        entries = [m for m in entries if isinstance(m, dict)] if isinstance(entries, list) else []
        target = draw(st.sampled_from(entries)) if entries and draw(st.booleans()) else doc
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            target[key] = draw(JUNK)
        else:
            target.pop(key, None)
    return doc


# Per expfam flag: values that parse, values that reach the checks behind
# the parser, and junk; every flag also draws arbitrary short text.
EXPFAM_ARGS = {
    "anchors": ["0,0", "Poor,Low", "0,0|1,1", "2,2|0,1|1,0", "9,9", "0", "|", ""],
    "theta": ["0", "0.35", "0.2,0.1", "-1", "nan", "inf", "1e308", "1e400", "x", ""],
    "alpha": ["1", "1,2", "{2}", "", "3", "x"],
    "theta2": ["0", "0.5", "0.1,0.1", "-1", "nan", "1e308", "1e400", "y"],
    "action": ["density", "fkg:{1},{2}", "fkg:{2},{1,2}", "fkg:{1}", "fkg:{3},{1}", "fkg:", "x"],
}


def expfam_args(data):
    """``--flag=value`` arguments of one expfam run, the optional flags
    sometimes left out."""
    argv = []
    for flag, values in EXPFAM_ARGS.items():
        if flag in ("alpha", "theta2") and data.draw(st.booleans(), label=f"no {flag}"):
            continue
        value = data.draw(st.sampled_from(values) | st.text(max_size=4), label=flag)
        argv.append(f"--{flag}={value}")
    return argv


def run_contract(argv):
    """Run the CLI in-process; check the exit code and output contract."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code in (0, 1):
        json.loads(out.getvalue())
        assert err.getvalue() == ""
    else:
        assert code in (2, 3, 4, 5)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# CSV count fields: mostly small counts, else text past float or int64
# precision or Python's digit limit, non-finite, negative, fractional, empty
# or junk.
CSV_ODD_FIELDS = st.one_of(
    st.integers(2**53, 2**53 + 3).map(str),
    st.integers(2**63 - 3, 2**64).map(str),
    st.sampled_from([str(10**400), "1" * 5001]),
    st.sampled_from(["", "-1", "3.0", "0.5", "1e3", "inf", "-inf", "nan", "1e400", "x", "1_0"]),
)


@st.composite
def csv_documents(draw):
    """CSV text of a small 2-way table: some rows ragged, some fields odd."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = [",".join([""] + [f"c{j}" for j in range(cols)])]
    for i in range(rows):
        width = draw(st.sampled_from([cols] * 6 + [cols - 1, cols + 1]))
        fields = [
            draw(CSV_ODD_FIELDS if draw(st.integers(0, 4)) == 0 else st.integers(0, 9).map(str))
            for _ in range(width)
        ]
        lines.append(",".join([f"r{i}"] + fields))
    return "\n".join(lines) + "\n"


class TestDocumentFuzz:
    """Any document, valid or not, keeps the exit-code contract of every
    subcommand that reads it: no exception escapes."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(documents(), st.data())
    def test_exit_code_contract(self, tmp_path_factory, doc, data):
        path = str(tmp_path_factory.mktemp("fuzz") / "doc.json")
        with open(path, "w") as fh:
            fh.write(dumps(doc))
        cards = doc.get("cardinalities")
        cell = ",".join("0" * len(cards)) if isinstance(cards, list) and cards else "0"
        prop = data.draw(st.sampled_from(
            ["decreasing", "supermodular", "mtp2-additive", "mtp2-multiplicative",
             "log-supermodular"]
        ), label="property")
        method = data.draw(st.sampled_from(["simple", "best", "ddim:1", "3way"]), label="method")
        run_contract(["marginalize", path, "--vars", "1"])
        run_contract(["bounds", path, "--cell", cell, "--method", method])
        anchor = [] if prop.startswith("mtp2-") else ["--anchor", cell]
        run_contract(["check", path, "--property", prop, *anchor])
        run_contract(["oracle", path, "--cell", cell, "--budget", "200"])
        run_contract(["fan", path, "--anchor", cell, "--xs", "{1}|{2}", "--p", "1"])
        expfam = expfam_args(data)
        for table in (path, lead_path()):
            run_contract(["expfam", table, *expfam])

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(csv_documents(), st.data())
    def test_csv_exit_code_contract(self, tmp_path_factory, text, data):
        path = str(tmp_path_factory.mktemp("fuzz") / "table.csv")
        with open(path, "w") as fh:
            fh.write(text)
        prop = data.draw(st.sampled_from(
            ["decreasing", "supermodular", "mtp2-additive", "mtp2-multiplicative",
             "log-supermodular"]
        ), label="property")
        run_contract(["marginalize", path, "--vars", "1"])
        anchor = [] if prop.startswith("mtp2-") else ["--anchor", "0,0"]
        run_contract(["check", path, "--property", prop, *anchor])
        run_contract(["fan", path, "--anchor", "0,0", "--xs", "{1}|{2}", "--p", "1"])
