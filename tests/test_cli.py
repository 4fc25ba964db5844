"""Command-line interface behavior."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import random
import time
from itertools import combinations

import pytest

import topoidx
from topoidx import Graph, cli, evaluate, generate_family, lookup, write_graph
from topoidx.errors import TopoidxError
from topoidx.oracles import (
    _ENTRIES,
    OracleEntry,
    baseline_from_results,
    load_baseline,
    run_verification,
)

from reference import int_text_limit, str_text

from conftest import messy_copy


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_wheel_file(self, tmp_path, capsys):
        out_file = tmp_path / "w4.g"
        code, _, _ = run_cli(capsys, "gen", "wheel", "4", "-o", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n 5"
        assert len(lines) == 10  # comment + header + 8 edges

    def test_sunflower_counts(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "sunflower", "3")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "n 10"
        assert len(lines) - 1 == 15

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(capsys, "gen", "wheel", "2")
        assert code == 2
        assert "wheel" in err

    def test_oversized_params(self, capsys):
        code, out, err = run_cli(capsys, "gen", "star", "100000000000")
        assert (code, out) == (2, "")
        assert err == ("error: star(n=100000000000) would have 100000000001 vertices, "
                       "past the limit of 1000000\n")


class TestCompute:
    @pytest.fixture
    def w3_file(self, tmp_path, capsys):
        path = tmp_path / "w3.g"
        run_cli(capsys, "gen", "wheel", "3", "-o", str(path))
        return str(path)

    @pytest.fixture
    def w4_file(self, tmp_path, capsys):
        path = tmp_path / "w4.g"
        run_cli(capsys, "gen", "wheel", "4", "-o", str(path))
        return str(path)

    @pytest.fixture
    def c4_file(self, tmp_path, capsys):
        path = tmp_path / "c4.g"
        run_cli(capsys, "gen", "cycle", "4", "-o", str(path))
        return str(path)

    @pytest.fixture
    def k40_file(self, tmp_path, capsys):
        path = tmp_path / "k40.g"
        run_cli(capsys, "gen", "complete", "40", "-o", str(path))
        return str(path)

    @pytest.fixture
    def star24_file(self, tmp_path, capsys):
        path = tmp_path / "s24.g"  # 25 vertices, one past the domination solver's bound
        run_cli(capsys, "gen", "star", "24", "-o", str(path))
        return str(path)

    def test_single_index_csv(self, w3_file, capsys):
        code, out, _ = run_cli(capsys, "compute", w3_file, "--index", "RL1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == f"{w3_file},RL1,162/1,"

    def test_multiple_indices_sorted(self, w3_file, capsys):
        _, out, _ = run_cli(capsys, "compute", w3_file,
                            "--index", "RL2,RL1", "--format", "csv")
        names = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert names == ["RL1", "RL2"]

    def test_error_row_not_abort(self, c4_file, capsys):
        code, out, _ = run_cli(capsys, "compute", c4_file,
                               "--index", "IRL4,RL1", "--format", "csv")
        assert code == 0
        rows = dict(line.split(",")[1:3] for line in out.splitlines()[1:])
        assert rows["IRL4"] == "ERROR:InverseUndefined"
        assert rows["RL1"] == "48/1"

    def test_unknown_index(self, w3_file, capsys):
        code, _, err = run_cli(capsys, "compute", w3_file, "--index", "bogus")
        assert code == 2
        assert "unknown index" in err

    def test_all_covers_registry(self, w3_file, capsys):
        code, out, _ = run_cli(capsys, "compute", w3_file, "--all", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + 462

    def test_float_column(self, c4_file, capsys):
        _, out, _ = run_cli(capsys, "compute", c4_file,
                            "--index", "IRL1", "--format", "csv", "--float")
        row = out.splitlines()[1].split(",")
        assert row[2] == "1/3"
        assert row[3] == "0.333333333333"

    def test_json_format(self, w3_file, capsys):
        _, out, _ = run_cli(capsys, "compute", w3_file, "--index", "RL1", "--format", "json")
        records = json.loads(out)
        assert records[0]["value"] == "162/1"

    def test_inline_zero_denominator(self, w3_file, capsys):
        code, _, err = run_cli(capsys, "compute", w3_file, "--index", "GRL1(a=1/0)")
        assert code == 2
        assert err.startswith("error:")

    def test_general_a_zero_denominator(self, w3_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(capsys, "compute", w3_file, "--index", "GRL1", "--general-a", "1/0")
        assert exit_info.value.code == 2
        assert "argument --general-a" in capsys.readouterr().err

    def test_inline_power_past_digit_limit(self, w3_file, capsys):
        code, out, err = run_cli(capsys, "compute", w3_file,
                                 "--index", f"GRL1(a={'7' * 5000})")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_general_a_past_digit_limit(self, w3_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(capsys, "compute", w3_file, "--index", "GRL1", "--general-a", "7" * 5000)
        assert exit_info.value.code == 2
        assert "argument --general-a" in capsys.readouterr().err

    def test_general_a_empty_denominator(self, w3_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(capsys, "compute", w3_file, "--index", "GRL1", "--general-a", "1/")
        assert exit_info.value.code == 2
        assert "argument --general-a" in capsys.readouterr().err

    def test_general_power_past_float_range(self, k40_file, capsys):
        code, out, _ = run_cli(capsys, "compute", k40_file,
                               "--index", "GRLKV1(a=5/2),RL1", "--format", "csv")
        assert code == 0
        rows = dict(line.split(",")[1:3] for line in out.splitlines()[1:])
        assert rows["GRLKV1(a=5/2)"] == "ERROR:UnsupportedEvaluation"
        assert rows["RL1"] == "3559140/1"

    def test_huge_general_power_refused_quickly(self, w4_file, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "compute", w4_file, "--index",
                               "GRL1(a=1000000000),MGRL1(a=-1000000000),GRL1exp(a=1000000000),RL1",
                               "--format", "csv")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        rows = dict(line.split(",")[1:3] for line in out.splitlines()[1:])
        assert rows == {
            "GRL1(a=1000000000)": "ERROR:UnsupportedEvaluation",
            "GRL1exp(a=1000000000)": "ERROR:UnsupportedEvaluation",
            "MGRL1(a=-1000000000)": "ERROR:UnsupportedEvaluation",
            "RL1": "256/1",
        }

    def test_product_powers_refused_as_the_per_class_fold_refuses(self, w4_file, capsys):
        # wheel(4): the rim-rim kernel 4 is 0, so the MRL4 product is 0, but the
        # hub-rim class's power 12**(10**9) is refused, as it was per class.
        # MGRL1's per-class powers 37**(10**7) and 27**(10**7) stay under the
        # cap; their product does not.
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "compute", w4_file, "--index",
                               "MGRL4(a=1000000000),MGRL1(a=10000000),MHRL1,MIRL1,MRL1",
                               "--format", "csv")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        rows = dict(line.split(",")[1:3] for line in out.splitlines()[1:])
        assert rows == {
            "MGRL4(a=1000000000)": "ERROR:UnsupportedEvaluation",
            "MGRL1(a=10000000)": "ERROR:UnsupportedEvaluation",
            "MHRL1": "992027944069944027992001/1",
            "MIRL1": "1/996005996001",
            "MRL1": "996005996001/1",
        }

    def test_small_general_powers_unchanged(self, w4_file, capsys):
        code, out, _ = run_cli(capsys, "compute", w4_file, "--index",
                               "GRL1(a=3),GRL1(a=-1),GRL1(a=1/2),GRL4exp(a=5)", "--format", "csv")
        assert code == 0
        assert [line.split(",")[1:3] for line in out.splitlines()[1:]] == [
            ["GRL1(a=-1)", "256/999"],
            ["GRL1(a=1/2)", "~45.1156598120194"],
            ["GRL1(a=3)", "281344/1"],
            ["GRL4exp(a=5)", "4*x^248832 + 4*x^0"],
        ]

    def test_float_column_past_float_range(self, k40_file, capsys):
        code, out, _ = run_cli(capsys, "compute", k40_file,
                               "--index", "MRL1", "--format", "csv", "--float")
        assert code == 0
        assert out.splitlines()[1].split(",")[3] == "inf"

    def test_domination_past_bound(self, star24_file, capsys):
        code, out, _ = run_cli(capsys, "compute", star24_file,
                               "--index", "DRL1,RL1", "--format", "csv")
        assert code == 0
        rows = dict(line.split(",")[1:3] for line in out.splitlines()[1:])
        assert rows == {"DRL1": "ERROR:GraphTooLarge", "RL1": "14424/1"}

    @pytest.mark.parametrize("command", [["compute", "--index", "RL1"], ["functionals"]])
    def test_graph_file_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "bad.g"
        path.write_bytes(b"n 3\n0 1\n1 \xff2\n")
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err and "offset 10" in err

    @pytest.mark.parametrize("command", [["compute", "--index", "RL1"], ["functionals"]])
    def test_vertex_count_past_cap(self, tmp_path, capsys, command):
        path = tmp_path / "huge.g"
        path.write_text("# isolated vertices only\nn 100000000000\n")
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert err == "error: line 2: vertex count 100000000000 exceeds the limit of 1000000\n"

    @pytest.mark.parametrize("text", ["n -3\n", "n -3\n0 1\n"])
    def test_negative_vertex_count(self, tmp_path, capsys, text):
        path = tmp_path / "negative.g"
        path.write_text(text)
        code, out, err = run_cli(capsys, "compute", str(path), "--index", "RL1")
        assert (code, out, err) == (2, "", "error: line 1: vertex count -3 is negative\n")

    def test_all_renders_each_value_object_once(self, tmp_path, capsys, monkeypatch):
        # MGRLKV1(a=2) answers with MHRLKV1's object: both rows share one rendering.
        path = tmp_path / "s5.g"
        write_graph(generate_family("sunflower", 5), path)
        rendered = []

        def render(value):
            rendered.append(value)
            return topoidx.exact.render_value(value)

        monkeypatch.setattr(cli, "render_value", render)
        code, out, _ = run_cli(capsys, "compute", str(path), "--all", "--format", "csv")
        assert code == 0
        values = [row[2] for row in csv.reader(out.splitlines()[1:])
                  if not row[2].startswith("ERROR:")]
        assert len({id(value) for value in rendered}) == len(rendered) < len(values)
        assert set(map(topoidx.exact.render_value, rendered)) == set(values)

    def test_messy_copy_computes_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        """A CRLF, commented, shuffled copy with repeated and reversed edges reads as the file.

        Both files have one name in two directories, so the graph column matches too.
        """
        g = Graph(40, random.Random(13).sample(list(combinations(range(40), 2)), 120))
        outputs = []
        for folder, write in (("clean", lambda path: write_graph(g, path)),
                              ("messy", lambda path: path.write_bytes(messy_copy(g, 4).encode()))):
            (tmp_path / folder).mkdir()
            write(tmp_path / folder / "sampled40.txt")
            monkeypatch.chdir(tmp_path / folder)
            outputs.append(run_cli(capsys, "compute", "sampled40.txt", "--all", "--format", "csv"))
        assert b"\r\n# a comment\r\n" in (tmp_path / "messy" / "sampled40.txt").read_bytes()
        assert outputs[0] == outputs[1]
        code, out, err = outputs[0]
        assert (code, err) == (0, "") and out.count("\n") == 1 + 462

    def test_mutually_missing_index(self, w3_file, capsys):
        code, _, err = run_cli(capsys, "compute", w3_file)
        assert code == 2
        assert "no index named" in err


class TestHugeValues:
    """Commands whose values pass the int-to-text digit limit print them in full.

    Each digest was recorded from the same command with the limit lifted
    and every int written by plain ``str()``.  The graph files are written
    under relative names, so the table widths do not depend on the path.
    """

    @staticmethod
    def stdout(capsys, monkeypatch, tmp_path, family, params, *argv):
        monkeypatch.chdir(tmp_path)
        name = "_".join([family, *map(str, params)]) + ".g"
        write_graph(generate_family(family, *params), name)
        code, out, err = run_cli(capsys, argv[0], name, *argv[1:])
        assert (code, err) == (0, "")
        return out

    @pytest.mark.parametrize("a, digest", [
        (10000, "410eaa1fa33b63c8eb58d5a12c6602e6f4986b6afd8ee991e75032a41ec08d07"),
        (1000000, "674637a26c7133e2a264babf339697b576b2b7b4d81535f99e3225a9057b28f7"),
    ], ids=["a=10000", "a=1000000"])
    def test_general_power_on_wheel(self, capsys, monkeypatch, tmp_path, a, digest):
        out = self.stdout(capsys, monkeypatch, tmp_path, "wheel", (4,),
                          "compute", "--index", f"GRL1(a={a})")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if a == 10000:
            value = evaluate(generate_family("wheel", 4), "GRL1", a)
            with int_text_limit(0):
                assert out.split()[-1] == str_text(value)

    def test_functionals_kv_hub(self, capsys, monkeypatch, tmp_path):
        # The hub of wheel(10000) has kv = 3**10000, 4,772 digits.
        out = self.stdout(capsys, monkeypatch, tmp_path, "wheel", (10000,),
                          "functionals", "--source", "kv")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fba8282b8e5202e8e77d9c40b7c8ae50ad58db17d3eb7d7687e7d6c721b8eaef")
        with int_text_limit(0):
            assert out.splitlines()[1] == f"0,{3 ** 10000},1"

    @pytest.mark.parametrize("family, params, digest", [
        ("sunflower", (100,), "49c977f1a19c56bb011c17443119ab5dbe65db0b1552fb4b4d9c6c789003f2b3"),
        ("regular", (400, 4), "2ad8ac5cf0a0fa5740d8babde9ef544af1bae834607edb22301c30cfcc6edd22"),
    ], ids=["sunflower_100", "regular_400_4"])
    def test_compute_all(self, capsys, monkeypatch, tmp_path, family, params, digest):
        out = self.stdout(capsys, monkeypatch, tmp_path, family, params,
                          "compute", "--all", "--format", "csv")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        g = generate_family(family, *params)
        rows = list(csv.reader(out.splitlines()))[1:]
        assert len(rows) == 462
        for _, label, text, _ in rows:
            try:
                value = evaluate(g, *lookup(label))
            except TopoidxError as exc:
                assert text == f"ERROR:{type(exc).__name__}"
                continue
            with int_text_limit(0):
                assert text == str_text(value), label


class TestVerifyCommand:
    def test_default_matches_baseline(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--range", "3..6", "--format", "csv")
        assert code == 0
        assert "0 deviations" in err

    def test_range_from_one_matches_baseline(self, capsys):
        # The grid starts at n = 2 whatever the lower bound; the baseline covers it.
        code, out, err = run_cli(capsys, "verify", "--range", "1..6", "--format", "csv")
        assert code == 0
        assert "n=2" in out
        assert "0 deviations" in err and "DEVIATION" not in err

    @pytest.mark.parametrize("text,message", [("5..3", "empty range '5..3'"),
                                              ("x..y", "range must look like 3..8")])
    def test_malformed_range_rejected(self, capsys, text, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--range", text])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_display_error_becomes_row(self, capsys, monkeypatch):
        # (n/2) x^3 has the non-integral coefficient 3/2 at n = 3 only.
        entry = OracleEntry("RL1exp/wheel", "wheel", "RL1exp", "(n/2) x^3", "n >= 3")
        monkeypatch.setitem(_ENTRIES, "RL1exp/wheel", entry)
        code, out, err = run_cli(capsys, "verify", "--oracle", "RL1exp/wheel",
                                 "--range", "3..4", "--format", "csv")
        rows = out.splitlines()[1:]
        assert rows == ["RL1exp/wheel,n=3,,,ERROR:UnsupportedEvaluation",
                        "RL1exp/wheel,n=4,2*x^3,4*x^37 + 4*x^27,DISCREPANT"]
        assert err.startswith("# 2 checks: 0 CONFIRMED, 1 DISCREPANT, 1 errors; "
                              "2 deviations from baseline\n")
        assert code == 1

    def test_single_oracle_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--oracle", "NRL1/cycle",
                               "--range", "3..3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "NRL1/cycle,n=3,144/1,144/1,CONFIRMED"

    def test_tampered_baseline_fails(self, tmp_path, capsys):
        results = run_verification(families=["wheel"], lo=3, hi=4)
        baseline = baseline_from_results(results)
        baseline["RL1/wheel"]["default"] = "DISCREPANT"
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps(baseline))
        code, _, err = run_cli(capsys, "verify", "--family", "wheel",
                               "--range", "3..4", "--baseline", str(bad))
        assert code == 1
        assert "DEVIATION RL1/wheel" in err

    def test_missing_baseline_entry_fails(self, tmp_path, capsys):
        baseline = load_baseline()
        del baseline["NRL1/cycle"]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code, _, err = run_cli(capsys, "verify", "--oracle", "NRL1/cycle",
                               "--range", "3..3", "--baseline", str(path))
        assert code == 1
        assert "0 deviations" in err
        assert "# NOT IN BASELINE NRL1/cycle [n=3]: CONFIRMED" in err

    def test_stale_baseline_entry_fails(self, tmp_path, capsys):
        baseline = load_baseline()
        baseline["RL1/nowhere"] = {"default": "CONFIRMED"}
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code, _, err = run_cli(capsys, "verify", "--oracle", "NRL1/cycle",
                               "--range", "3..3", "--baseline", str(path))
        assert code == 1
        assert "0 deviations" in err
        assert "# STALE BASELINE RL1/nowhere" in err.splitlines()
        assert "NOT IN BASELINE" not in err

    @pytest.mark.parametrize("content", [
        b'{"RL1/wheel": ', b'\xff{}', b'[]', b'{"NRL1/cycle": {"exceptions": {}}}',
        b'{"NRL1/cycle": "CONFIRMED"}',
    ], ids=["malformed", "not_utf8", "list", "no_default", "record_not_object"])
    def test_unreadable_baseline(self, tmp_path, capsys, content):
        path = tmp_path / "baseline.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "verify", "--oracle", "NRL1/cycle",
                                 "--range", "3..3", "--baseline", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--family", "nope"], ["--oracle", "NOPE/x"],
                                      ["--family", "wheel", "--oracle", "RL1/whee"]])
    def test_unknown_filter_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", "--range", "3..3", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: unknown oracle") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--family", "wheel", "--oracle", "RL1/cycle"],
                                      ["--family", "star", "--range", "24..24"]],
                             ids=["disjoint_filters", "past_domination_bound"])
    def test_no_checks_rejected(self, tmp_path, capsys, argv):
        target = tmp_path / "new.json"
        for extra in ([], ["--update-baseline", str(target)]):
            code, out, err = run_cli(capsys, "verify", *argv, *extra)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
        assert not target.exists()

    def test_update_baseline(self, tmp_path, capsys):
        target = tmp_path / "new.json"
        code, _, _ = run_cli(capsys, "verify", "--family", "cycle",
                             "--range", "3..4", "--update-baseline", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["RL1/cycle"]["default"] == "CONFIRMED"


class TestListings:
    def test_list_indices(self, capsys):
        code, out, _ = run_cli(capsys, "list-indices")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 462
        assert lines[0] == "RL1,plain,1,identity,sum,value"

    def test_functionals_csv(self, tmp_path, capsys):
        path = tmp_path / "w4.g"
        run_cli(capsys, "gen", "wheel", "4", "-o", str(path))
        code, out, _ = run_cli(capsys, "functionals", str(path), "--source", "temperature")
        assert code == 0
        assert out.splitlines()[1] == "0,4,1"
        assert out.splitlines()[2] == "1,3,2"

    def test_functionals_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.g"
        path.write_text("n 0\n")
        code, out, err = run_cli(capsys, "functionals", str(path), "--source", "revan")
        assert (code, out, err) == (0, "vertex,value_num,value_den\n", "")

    def test_functionals_domination_past_bound(self, tmp_path, capsys):
        path = tmp_path / "s24.g"
        run_cli(capsys, "gen", "star", "24", "-o", str(path))
        code, out, err = run_cli(capsys, "functionals", str(path), "--source", "domination")
        assert (code, out) == (2, "")
        assert err == "error: 25 vertices exceeds domination solver bound 24\n"


class TestStartup:
    def test_import_loads_no_unused_machinery(self):
        # -S keeps site from preloading anything, so the import alone shows.
        code = ("import sys; before = set(sys.modules); import topoidx.cli; "
                "print(' '.join(sorted(set(sys.modules) - before)))")
        src = os.path.dirname(os.path.dirname(topoidx.__file__))
        added = subprocess.run([sys.executable, "-S", "-c", code], check=True, text=True,
                               capture_output=True, env=dict(os.environ, PYTHONPATH=src),
                               ).stdout.split()
        assert "topoidx.cli" in added
        unused = {"dataclasses", "inspect", "typing", "difflib", "importlib.resources"}
        assert sorted(unused.intersection(added)) == []
