"""Command-line interface: schemas, exit codes, round trips."""

from __future__ import annotations

import csv
import json

import pytest

from grouphom.cli import main
from grouphom.data import load_dataset, write_dataset_csv
from grouphom.simulate import SettingSpec, generate_replicate


@pytest.fixture
def data_csv(tmp_path):
    ds, _ = generate_replicate(SettingSpec(2, 5, 12, 8, 10, master_seed=6), 0)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    return str(path)


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "group,population,c1,c2\n"
        "g1,1,2,1\n"
        "g1,2,2,2\n"
    )
    return str(path)


class TestTestCommand:
    def test_human_output(self, data_csv, capsys):
        assert main(["test", data_csv]) == 0
        out = capsys.readouterr().out
        assert "12 groups, 5 categories" in out
        assert "test1:" in out
        assert "largest per-group statistics:" in out

    def test_json_schema(self, data_csv, capsys):
        assert main(["test", data_csv, "--estimator", "all",
                     "--seed", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["groups"] == 12
        assert payload["categories"] == 5
        assert payload["seed"] == 3
        assert set(payload["reports"]) == {
            f"test{i}" for i in range(1, 8)
        }
        report = payload["reports"]["test1"]
        for key in ("statistic", "variance", "z", "p_value", "reject",
                    "degenerate_variance"):
            assert key in report
        assert "chi2_pooled" in payload

    def test_csv_schema(self, data_csv, capsys):
        assert main(["test", data_csv, "--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == [
            "estimator", "statistic", "variance", "z", "p_value",
            "reject", "degenerate",
        ]
        assert rows[1][0] == "test1"

    def test_statistic_consistent_across_estimators(self, data_csv, capsys):
        main(["test", data_csv, "--estimator", "all", "--seed", "1",
              "--format", "csv"])
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        stats = {row[1] for row in rows if row[0].startswith("test")}
        assert len(stats) == 1

    def test_seeded_bootstrap_reproducible(self, data_csv, capsys):
        main(["test", data_csv, "--estimator", "test7", "--seed", "44",
              "--format", "csv"])
        first = capsys.readouterr().out
        main(["test", data_csv, "--estimator", "test7", "--seed", "44",
              "--format", "csv"])
        assert capsys.readouterr().out == first

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["test", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_alpha_exits_2(self, data_csv):
        assert main(["test", data_csv, "--alpha", "1.5"]) == 2

    def test_precondition_exits_3(self, tiny_csv, capsys):
        # totals (3, 4) violate the test1 minimum of 4 but are valid data
        rc = main(["test", tiny_csv, "--estimator", "test1"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err
        assert main(["test", tiny_csv, "--estimator", "test2"]) == 0

    def test_malformed_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group,population,c1,c2\ng1,1,2,1\n")  # no mate
        assert main(["test", str(path)]) == 2

    def test_byte_order_mark_header(self, data_csv, tmp_path, capsys):
        # spreadsheet programs write a UTF-8 byte-order mark before the header
        bom = tmp_path / "bom.csv"
        with open(data_csv, encoding="utf-8") as fh:
            bom.write_text(fh.read(), encoding="utf-8-sig")
        argv = ["--estimator", "test2", "--format", "json"]
        assert main(["test", data_csv] + argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(["test", str(bom)] + argv) == 0
        marked = json.loads(capsys.readouterr().out)
        assert (
            marked["reports"]["test2"]["statistic"]
            == plain["reports"]["test2"]["statistic"]
        )

    def test_single_category_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d1.csv"
        path.write_text("group,population,c1\ng1,1,3\ng1,2,4\n")
        assert main(["test", str(path), "--estimator", "all"]) == 2
        assert "at least 2 categories" in capsys.readouterr().err

    def test_unknown_estimator_argparse_exit(self, data_csv):
        with pytest.raises(SystemExit) as exc:
            main(["test", data_csv, "--estimator", "test99"])
        assert exc.value.code == 2


class TestPergroupCommand:
    def test_csv_schema(self, data_csv, capsys):
        assert main(["pergroup", data_csv, "--seed", "2",
                     "--bootstrap-b", "100", "--format", "csv"]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(captured.out.splitlines()))
        assert rows[0] == [
            "group", "statistic", "p_raw", "p_bh", "p_bonferroni",
            "degenerate",
        ]
        assert len(rows) == 13
        assert "min-p global rule" in captured.err

    def test_json_schema(self, data_csv, capsys):
        assert main(["pergroup", data_csv, "--seed", "2",
                     "--bootstrap-b", "100", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["groups"] == 12
        assert len(payload["per_group"]) == 12
        assert isinstance(payload["minp_reject"], bool)
        assert payload["seed"] == 2

    def test_smoothed_flag(self, data_csv, capsys):
        assert main(["pergroup", data_csv, "--seed", "2", "--smoothed",
                     "--bootstrap-b", "99", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(r["p_raw"] >= 1.0 / 100 for r in payload["per_group"])

    def test_bad_b_exits_2(self, data_csv):
        assert main(["pergroup", data_csv, "--bootstrap-b", "1"]) == 2


class TestSimulateCommand:
    def test_setting_form_csv(self, capsys):
        rc = main([
            "simulate", "--setting", "1", "--d", "5", "--k", "10",
            "--n1", "8", "--n2", "8", "--tests", "test2,chi2",
            "--reps", "25", "--seed", "3", "--format", "csv",
        ])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["test", "rate", "se", "rejections", "reps",
                           "degenerate"]
        assert {row[0] for row in rows[1:]} == {"test2", "chi2"}

    def test_setting_form_deterministic(self, capsys):
        argv = ["simulate", "--setting", "1", "--d", "5", "--k", "10",
                "--n1", "8", "--n2", "8", "--tests", "test3",
                "--reps", "30", "--seed", "12", "--format", "json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_table_to_stdout(self, capsys):
        rc = main([
            "simulate", "--table", "tab2", "--reps", "4",
            "--k-values", "20", "--sizes", "5,10",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("k,n1,n2,test1")
        assert len(lines) == 2

    def test_table_to_outdir(self, tmp_path, capsys):
        rc = main([
            "simulate", "--table", "tab8", "--reps", "3",
            "--k-values", "20", "--sizes", "10,10", "--d-values", "5",
            "--outdir", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "tab8.csv").exists()
        sidecar = json.loads((tmp_path / "tab8.json").read_text())
        assert sidecar["reps"] == 3

    def test_export_replicate_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        rc = main([
            "simulate", "--setting", "2", "--d", "10", "--k", "7",
            "--n1", "6", "--n2", "6", "--seed", "8",
            "--export-replicate", "5", "--out", str(out),
        ])
        assert rc == 0
        ds = load_dataset(out)
        expected, _ = generate_replicate(
            SettingSpec(2, 10, 7, 6, 6, master_seed=8), 5
        )
        assert ds == expected

    def test_export_needs_out(self):
        assert main([
            "simulate", "--setting", "1", "--export-replicate", "0",
        ]) == 2

    def test_table_and_setting_exclusive(self):
        assert main(["simulate", "--table", "tab2", "--setting", "1"]) == 2
        assert main(["simulate"]) == 2

    def test_zero_reps_exits_2(self):
        assert main([
            "simulate", "--setting", "1", "--tests", "test2",
            "--reps", "0",
        ]) == 2

    def test_too_small_cell_exits_3(self):
        rc = main([
            "simulate", "--setting", "1", "--n1", "3", "--n2", "30",
            "--tests", "test1", "--reps", "5",
        ])
        assert rc == 3

    def test_bad_worker_variable_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("MH_WORKERS", "two")
        assert main([
            "simulate", "--setting", "1", "--tests", "test2", "--reps", "5",
        ]) == 2
        assert "MH_WORKERS" in capsys.readouterr().err

    def test_bad_grid_restriction_exits_2(self):
        assert main([
            "simulate", "--table", "tab2", "--reps", "2",
            "--k-values", "33",
        ]) == 2


class TestBenchmarkCommand:
    def test_csv_schema(self, capsys):
        rc = main(["benchmark", "--k-values", "20", "--reps", "1",
                   "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["d", "k", "n1", "n2", "estimator", "seconds"]
        assert len(rows) == 8  # seven estimators


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "grouphom" in capsys.readouterr().out
