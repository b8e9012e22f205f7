"""Command-line interface: schemas, exit codes, round trips."""

from __future__ import annotations

import csv
import hashlib
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


    @pytest.mark.parametrize("argv", [
        ["test", "--estimator", "test7"],
        ["test", "--estimator", "all"],
        ["pergroup"],
    ])
    def test_negative_seed_exits_2(self, argv, data_csv, capsys):
        # it failed inside numpy, with a traceback and exit 1
        rc = main([argv[0], data_csv, *argv[1:], "--seed", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: seed must be a non-negative integer, got -1\n"
        )
        assert captured.out == ""


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

    def test_bad_alpha_exits_2(self, data_csv, capsys):
        for alpha in ("1.5", "0", "-0.2"):
            assert main(["pergroup", data_csv, "--seed", "2", "--bootstrap-b",
                         "20", "--alpha", alpha]) == 2
            captured = capsys.readouterr()
            assert "alpha" in captured.err
            assert "reject" not in captured.out


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

    def test_repeated_test_exits_2(self, capsys):
        rc = main(["simulate", "--setting", "1", "--tests", "test1,test1",
                   "--reps", "5"])
        assert rc == 2
        assert "'test1'" in capsys.readouterr().err

    @pytest.mark.parametrize("form", [
        ["--setting", "1", "--tests", "test1", "--reps", "5"],
        ["--setting", "1", "--export-replicate", "0", "--out", "unused.csv"],
        ["--table", "tab2", "--reps", "5", "--k-values", "20", "--sizes", "5,10"],
    ])
    def test_negative_seed_exits_2(self, form, capsys):
        # it failed inside numpy mid-run, with a traceback and exit 1
        rc = main(["simulate", *form, "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"

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

    def test_table_formats(self, tmp_path, capsys):
        argv = ["simulate", "--table", "tab2", "--reps", "4",
                "--k-values", "20", "--sizes", "5,10;10,10"]
        human = _run(argv, capsys).out
        assert _run(argv + ["--format", "csv"], capsys).out == human
        payload = json.loads(_run(argv + ["--format", "json"], capsys).out)
        rows = list(csv.DictReader(human.splitlines()))
        assert payload["table"] == "tab2"
        assert payload["columns"] == list(rows[0])
        assert [row["n1"] for row in payload["rows"]] == [5, 10]
        assert payload["rows"][1]["test1"] == float(rows[1]["test1"])
        assert payload["csv_path"] is None
        payload = json.loads(_run(argv + ["--format", "json", "--outdir",
                                          str(tmp_path)], capsys).out)
        assert payload["csv_path"] == str(tmp_path / "tab2.csv")
        assert len(payload["rows"]) == 2

    @pytest.mark.parametrize("sizes", ["5,x", "5", "5,10,20", "5,10;"])
    def test_bad_sizes_exits_2(self, sizes, capsys):
        assert main(["simulate", "--table", "tab2", "--reps", "2",
                     "--sizes", sizes]) == 2
        assert repr(sizes) in capsys.readouterr().err

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

    def test_export_replicate_formats(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        argv = ["simulate", "--setting", "3", "--pi0", "2", "--k", "9",
                "--seed", "8", "--export-replicate", "2", "--out", str(out)]
        _, null_flags = generate_replicate(
            SettingSpec(3, 5, 9, 10, 10, pi0=2, master_seed=8), 2
        )
        nulls = int(null_flags.sum())
        assert _run(argv, capsys).out == (
            f"wrote replicate 2 to {out} (9 groups, 5 categories, "
            f"{nulls} null groups)\n"
        )
        record = {"replicate": 2, "path": str(out), "k": 9, "d": 5,
                  "null_groups": nulls}
        assert json.loads(_run(argv + ["--format", "json"], capsys).out) == (
            record
        )
        rows = list(csv.DictReader(
            _run(argv + ["--format", "csv"], capsys).out.splitlines()
        ))
        assert rows == [{key: str(v) for key, v in record.items()}]

    @pytest.mark.parametrize("extra, named", [
        (["--outdir", "DIR", "--k-values", "20"], "--outdir, --k-values"),
        (["--d-values", "5"], "--d-values"),
        (["--sizes", "5,10"], "--sizes"),
        (["--progress"], "--progress"),
        (["--out", "x.csv"], "--out"),
    ])
    def test_setting_form_rejects_table_flags(self, extra, named, tmp_path,
                                              capsys):
        argv = ["simulate", "--setting", "1", "--k", "5", "--tests", "test2",
                "--reps", "5"]
        extra = [str(tmp_path / "DIR") if a == "DIR" else a for a in extra]
        assert main(argv + extra) == 2
        assert f"error: {named}: not used by" in capsys.readouterr().err
        assert not (tmp_path / "DIR").exists()

    def test_export_rejects_rate_flags(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        assert main(["simulate", "--setting", "1", "--export-replicate", "0",
                     "--out", str(out), "--tests", "test2", "--reps", "5"]) == 2
        assert "--tests, --reps: not used by" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--d", "5"), ("--k", "20"), ("--n1", "5"), ("--n2", "10"),
        ("--pi0", "2"), ("--tests", "test2"), ("--moment-reps", "10"),
        ("--out", "x.csv"),
    ])
    def test_table_form_rejects_setting_flags(self, flag, value, capsys):
        assert main(["simulate", "--table", "tab2", "--reps", "2",
                     "--k-values", "20", "--sizes", "5,10", flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag}: not used by the --table form\n"

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


def _run(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr()


class TestGoldenOutput:
    """Exact stdout bytes of the machine-readable formats on seeded runs.

    The JSON documents are pinned by SHA-256, the CSV tables as text."""

    TEST = ["test", None, "--estimator", "all", "--seed", "3",
            "--bootstrap-b", "50"]
    PERGROUP = ["pergroup", None, "--seed", "2", "--bootstrap-b", "100"]
    SIMULATE = ["simulate", "--setting", "3", "--pi0", "2", "--d", "5",
                "--k", "40", "--n1", "5", "--n2", "10", "--tests",
                "test1,test7,chi2,wk,minp", "--reps", "20", "--seed", "4"]

    def argv(self, base, data_csv, fmt):
        return [data_csv if a is None else a for a in base] + ["--format", fmt]

    @pytest.mark.parametrize("base, digest", [
        (TEST, "73b139fd95fb60a679a52a814d288a3aacef4f15bdaa64db1540d48220ceb70d"),
        (PERGROUP, "05ef6cc8093c3ee5167a7a3532ee2e28d0095613b7cbc1b0a32379742daa04fb"),
        (SIMULATE, "e328c61a80dcb3ce05874fe211047c150c1b5a93e66d28a997c2b2c0ad69e924"),
    ], ids=["test", "pergroup", "simulate"])
    def test_json_bytes(self, base, digest, data_csv, capsys):
        out = _run(self.argv(base, data_csv, "json"), capsys).out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_test_csv_bytes(self, data_csv, capsys):
        assert _run(self.argv(self.TEST, data_csv, "csv"), capsys).out == (
            "estimator,statistic,variance,z,p_value,reject,degenerate\n"
            "test1,0.0360844,0.0164022,0.281753,0.389067,false,false\n"
            "test2,0.0360844,0.0153142,0.29159,0.3853,false,false\n"
            "test3,0.0360844,0.0160646,0.284698,0.387938,false,false\n"
            "test4,0.0360844,0.0154633,0.29018,0.385839,false,false\n"
            "test5,0.0360844,0.0120599,0.328584,0.371235,false,false\n"
            "test6,0.0360844,0.0169849,0.276878,0.390937,false,false\n"
            "test7,0.0360844,0.0171443,0.275587,0.391433,false,false\n"
            "chi2_pooled,3.12419,,,0.537262,false,false\n"
        )

    def test_pergroup_csv_bytes(self, data_csv, capsys):
        captured = _run(self.argv(self.PERGROUP, data_csv, "csv"), capsys)
        assert captured.err == "min-p global rule: retain\n"
        assert captured.out == (
            "group,statistic,p_raw,p_bh,p_bonferroni,degenerate\n"
            "g001,-0.138095,0.87,0.949091,1,false\n"
            "g002,0.19127,0.11,0.48,1,false\n"
            "g003,-0.043254,0.51,0.874286,1,false\n"
            "g004,-0.0515873,0.59,0.885,1,false\n"
            "g005,0.250794,0.03,0.36,0.36,false\n"
            "g006,0.0928571,0.18,0.48,1,false\n"
            "g007,0.0190476,0.24,0.48,1,false\n"
            "g008,-0.0857143,0.67,0.893333,1,false\n"
            "g009,0.0305556,0.23,0.48,1,false\n"
            "g010,0.102778,0.15,0.48,1,false\n"
            "g011,-0.1,0.79,0.948,1,false\n"
            "g012,-0.143651,0.95,0.95,1,false\n"
        )

    def test_simulate_csv_bytes(self, capsys):
        assert _run(self.SIMULATE + ["--format", "csv"], capsys).out == (
            "test,rate,se,rejections,reps,degenerate\n"
            "test1,0.05,0.048734,1,20,0\n"
            "test7,0.05,0.048734,1,20,0\n"
            "chi2,0.1,0.067082,2,20,0\n"
            "wk,0,0,0,20,0\n"
            "minp,0.15,0.0798436,3,20,0\n"
        )


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "grouphom" in capsys.readouterr().out
