import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calibr.cli import build_parser, main
from calibr.calibrations import catalogue
from calibr.exterior import ExteriorElement, form_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCatalogue:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "catalogue")
        assert code == 0
        data = json.loads(out)
        names = [e["name"] for e in data["report"]["entries"]]
        assert "cayley" in names and "kaehler(2,1)" in names

    def test_dump(self, capsys):
        code, out, _ = run_cli(capsys, "catalogue", "--dump", "lambda:0.5")
        assert code == 0
        data = json.loads(out)
        assert data["report"]["form"]["n"] == 4


class TestComass:
    def test_catalogue_entry(self, capsys):
        code, out, _ = run_cli(capsys, "comass", "--cal", "omega4",
                               "--multistarts", "20", "--seed", "7")
        assert code == 0
        data = json.loads(out)
        assert abs(data["report"]["value"] - 1.0) < 1e-8
        assert data["report"]["saturated"] is True
        assert data["config"]["subcommand"] == "comass"

    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_cli(capsys, "comass", "--cal", "lambda:0.5",
                             "--multistarts", "10", "--seed", "3")
        _, out2, _ = run_cli(capsys, "comass", "--cal", "lambda:0.5",
                             "--multistarts", "10", "--seed", "3")
        assert out1 == out2

    def test_form_file(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(form_to_json(
            catalogue("special_lagrangian", 2).form)))
        code, out, _ = run_cli(capsys, "comass", "--form", str(path),
                               "--multistarts", "15")
        assert code == 0
        assert abs(json.loads(out)["report"]["value"] - 1.0) < 1e-8

    def test_exact_flag(self, capsys, tmp_path):
        for cal in ("omega4", "associative"):
            _, out, _ = run_cli(capsys, "comass", "--cal", cal)
            report = json.loads(out)["report"]
            assert report["exact"] is True and report["multistarts"] == 0
        # off the G2 identity the associative form runs the ascent
        path = tmp_path / "form.json"
        path.write_text(json.dumps(form_to_json(
            catalogue("associative").form
            + 1e-6 * ExteriorElement.basis(7, (1, 2, 4)))))
        _, out, _ = run_cli(capsys, "comass", "--form", str(path),
                            "--multistarts", "3")
        assert json.loads(out)["report"]["exact"] is False

    def test_capped_reported(self, capsys, tmp_path):
        # an R^7 3-form off every structure runs the ascent; the report
        # counts the starts the iteration cap stopped short of convergence
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"n": 7, "p": 3, "terms": [
            {"indices": list(idx), "coeff": c} for idx, c in [
                ((1, 2, 3), 1.0), ((1, 4, 5), 0.7), ((2, 4, 6), -0.6),
                ((3, 5, 7), 0.5), ((1, 6, 7), 0.4), ((2, 5, 7), 0.3),
                ((3, 4, 6), -0.8)]]}))
        _, out, _ = run_cli(capsys, "comass", "--form", str(path),
                            "--multistarts", "12")
        report = json.loads(out)["report"]
        assert report["exact"] is False and report["capped"] == 0
        assert report["converged"] == 12
        _, out, _ = run_cli(capsys, "comass", "--form", str(path),
                            "--multistarts", "12", "--max-iter", "2")
        report = json.loads(out)["report"]
        assert report["capped"] == 12 and report["converged"] == 0
        _, out, _ = run_cli(capsys, "comass", "--cal", "omega4")
        assert json.loads(out)["report"]["capped"] == 0


class TestErrors:
    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "comass", "--form", str(bad))
        assert code == 2
        assert "error" in err

    def test_unknown_calibration_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "comass", "--cal", "nonsense")
        assert code == 2

    def test_bad_form_spec_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 4, "p": 2, "terms": [
            {"indices": [2, 1], "coeff": 1.0}]}))
        code, _, err = run_cli(capsys, "comass", "--form", str(bad))
        assert code == 2
        assert "increasing" in err

    @pytest.mark.parametrize("argv, missing", [
        (["duality"], "--sites and --boundary"),
        (["duality", "--sites", "s.json"], "--boundary"),
        (["jensen"], "--sites and --K and --x"),
        (["jensen", "--sites", "s.json", "--K", "0,1"], "--x"),
    ])
    def test_missing_inputs_exit_2(self, capsys, argv, missing):
        code, out, err = run_cli(capsys, *argv, "--cal", "omega4")
        assert code == 2 and out == ""
        assert err == f"error: {argv[0]} needs {missing} (or --random N)\n"

    @pytest.mark.parametrize("argv", [
        ["comass"],
        ["gsample"],
        ["reduce"],
        ["positivity", "--form", "f.json"],
        ["lemma25", "--pvector", "xi.json"],
        ["psh", "--field", "builtin:normsq", "--probes", "grid:-1..1:2"],
        ["modd", "--field", "builtin:normsq", "--point", "0,0,0,0"],
        ["flat", "--field", "builtin:normsq", "--point", "0,0,0,0"],
        ["normality"],
        ["current-check", "--mesh", "builtin:disc:2"],
        ["green", "--mesh", "builtin:disc:2"],
        ["maxprinciple", "--mesh", "builtin:disc:2",
         "--field", "builtin:normsq"],
        ["duality", "--random", "2"],
        ["jensen", "--random", "2"],
    ])
    def test_missing_cal_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {argv[0]} needs --cal\n"

    @pytest.mark.parametrize("argv", [
        ["duality", "--boundary", "S.json"],
        ["jensen", "--K", "0,1,2,3", "--x", "4"],
    ])
    @pytest.mark.parametrize("width", [3, 5])
    def test_sites_of_the_wrong_dimension_exit_2(self, capsys, tmp_path,
                                                 monkeypatch, argv, width):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sites.json").write_text(json.dumps(
            np.random.default_rng(width).uniform(-1, 1, (5, width)).tolist()))
        (tmp_path / "S.json").write_text(json.dumps([0.0] * 20))
        code, out, err = run_cli(capsys, *argv, "--cal", "omega4",
                                 "--sites", "sites.json")
        assert code == 2 and out == ""
        assert err.startswith("error: sites must be a (k, 4) array")

    def test_mesh_index_out_of_range_exits_2(self, capsys, tmp_path):
        mesh = tmp_path / "bad.mesh"
        mesh.write_text("4 2\nv 0 0 0 0\nv 1 0 0 0\nv 0 1 0 0\ns 0 1 3 1\n")
        code, out, err = run_cli(capsys, "current-check", "--mesh", str(mesh),
                                 "--cal", "omega4")
        assert code == 2 and out == ""
        assert err == f"error: {mesh}:5: vertex index outside [0, 3)\n"

    def test_mesh_without_simplices_exits_2(self, capsys, tmp_path):
        mesh = tmp_path / "bad.mesh"
        mesh.write_text("4 2\nv 0 0 0 0\nv 1 0 0 0\nv 0 1 0 0\n")
        code, out, err = run_cli(capsys, "current-check", "--mesh", str(mesh),
                                 "--cal", "omega4")
        assert code == 2 and out == ""
        assert err == f"error: {mesh}: no simplex lines\n"

    def test_mesh_header_out_of_range_exits_2(self, capsys, tmp_path):
        mesh = tmp_path / "bad.mesh"
        mesh.write_text("4 5\nv 0 0 0 0\ns 0 0 0 0 0 0 1\n")
        code, out, err = run_cli(capsys, "current-check", "--mesh", str(mesh),
                                 "--cal", "omega4")
        assert code == 2 and out == ""
        assert err == (f"error: {mesh}:1: header needs 1 <= p <= n, "
                       "got n = 4, p = 5\n")

    @pytest.mark.parametrize("argv, message", [
        (["normality", "--trials", "0"],
         "normality needs at least 1 trial, got 0"),
        (["psh", "--field", "builtin:normsq", "--probes", "grid:0..1:0"],
         "probe set 'grid:0..1:0' is empty"),
        (["psh", "--field", "builtin:normsq", "--probes", "none.json"],
         "probe set 'none.json' is empty"),
        (["duality", "--random", "-2"],
         "--random must be at least 1, got -2"),
        (["jensen", "--random", "0"],
         "--random must be at least 1, got 0"),
        # a = -e12 + 0.8 e34 is outside; a tol below 0 read it as Interior,
        # kept no sampled plane and never found a level set flat, and a NaN
        # one read it as Boundary.  On omega4 the cone queries read no
        # sample, and reject the tol all the same
        (["positivity", "--form", "a.json", "--tol", "-2"],
         "tol must be at least 0, got -2.0"),
        (["positivity", "--form", "a.json", "--tol", "nan"],
         "tol must be at least 0, got nan"),
        (["lemma25", "--pvector", "a.json", "--tol", "-1"],
         "tol must be at least 0, got -1.0"),
        (["psh", "--field", "builtin:normsq", "--probes", "grid:-1..1:2",
          "--tol", "-1"], "tol must be at least 0, got -1.0"),
        (["gsample", "--count", "3", "--tol", "-1"],
         "tol must be at least 0, got -1.0"),
        (["flat", "--field", "builtin:normsq", "--point", "1,0.5,0,0.2",
          "--tol", "-1"], "tol must be at least 0, got -1.0"),
        # omega4 takes an exact route that starts no ascent; the R^7 form
        # has no structure and ascends from every start
        (["comass", "--multistarts", "0"],
         "multistarts must be at least 1, got 0"),
        (["comass", "--form", "phi.json", "--multistarts", "-2"],
         "multistarts must be at least 1, got -2"),
        # a NaN tol read no start as converged, and no iteration ran at a
        # max_iter of 0, which reported the value at a random start
        (["comass", "--form", "phi6.json", "--multistarts", "4", "--tol",
          "nan"], "tol must be at least 0, got nan"),
        (["comass", "--form", "phi6.json", "--max-iter", "0"],
         "max_iter must be at least 1, got 0"),
        (["comass", "--max-iter", "0"], "max_iter must be at least 1, got 0"),
        # checked before the mass bracket, which failed inside numpy
        (["lemma25", "--pvector", "xi6.json"],
         "degree/dimension mismatch between xi and calibration"),
    ], ids=["normality-trials-0", "psh-empty-grid", "psh-empty-json",
            "duality-random-minus-2", "jensen-random-0",
            "positivity-tol-minus-2", "positivity-tol-nan",
            "lemma25-tol-minus-1", "psh-tol-minus-1", "gsample-tol-minus-1",
            "flat-tol-minus-1", "comass-multistarts-0",
            "comass-form-multistarts-minus-2", "comass-form-tol-nan",
            "comass-form-max-iter-0", "comass-max-iter-0",
            "lemma25-r6-pvector"])
    def test_verdict_over_nothing_exits_2(self, capsys, tmp_path, monkeypatch,
                                          argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "none.json").write_text("[]")
        (tmp_path / "a.json").write_text(json.dumps(form_to_json(
            ExteriorElement(4, 2, {(1, 2): -1.0, (3, 4): 0.8}))))
        (tmp_path / "phi.json").write_text(json.dumps(form_to_json(
            ExteriorElement(7, 3, {(1, 2, 3): 1.0, (1, 4, 5): 0.7,
                                   (2, 4, 6): -0.6, (3, 5, 7): 0.5}))))
        (tmp_path / "phi6.json").write_text(json.dumps(form_to_json(
            ExteriorElement(6, 3, {(1, 2, 3): 1.0, (1, 4, 5): -0.6,
                                   (2, 4, 6): 0.8, (3, 5, 6): 0.5}))))
        (tmp_path / "xi6.json").write_text(json.dumps(form_to_json(
            ExteriorElement(6, 2, {(1, 2): 0.5, (3, 4): 0.5}))))
        code, out, err = run_cli(capsys, *argv, "--cal", "omega4")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        # e12 + NaN e34 read as e12: mass 1 and comass 1
        (["massnorm", "--pvector", "nan.json"],
         "term 1: coefficient must be finite"),
        (["comass", "--form", "nan.json"],
         "term 1: coefficient must be finite"),
        # an infinite one warned and read the comass of the zero form
        (["comass", "--form", "inf.json"],
         "term 1: coefficient must be finite"),
        # x1^2 + NaN x2^2 read as x1^2, plurisubharmonic everywhere
        (["psh", "--cal", "omega4", "--field", "field.json", "--probes",
          "grid:-1..1:2"], "term 1: coefficient must be finite"),
        # a NaN claimed comass turned off the comass confirmation
        (["gsample", "--cal", "cal.json", "--count", "3"],
         "claimed_comass must be finite"),
    ], ids=["massnorm-nan-term", "comass-nan-term", "comass-infinite-term",
            "psh-nan-field-term", "gsample-nan-claimed-comass"])
    def test_non_finite_input_exits_2(self, capsys, tmp_path, monkeypatch,
                                      argv, message):
        # json writes NaN and Infinity, and the CLI reads them back
        monkeypatch.chdir(tmp_path)
        for name, c in (("nan.json", np.nan), ("inf.json", np.inf)):
            (tmp_path / name).write_text(json.dumps({"n": 4, "p": 2, "terms": [
                {"indices": [1, 2], "coeff": 1.0},
                {"indices": [3, 4], "coeff": c}]}))
        (tmp_path / "field.json").write_text(json.dumps({"n": 4, "terms": [
            {"exps": [2, 0, 0, 0], "coeff": 1.0},
            {"exps": [0, 2, 0, 0], "coeff": np.nan}]}))
        (tmp_path / "cal.json").write_text(json.dumps({
            "form": form_to_json(catalogue("kaehler", 2, 1).form),
            "claimed_comass": np.nan}))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    # the inputs each sampling subcommand needs besides --count; the cone
    # queries on omega4 read no sample, and must reject the count all the same
    COUNT_INPUTS = {"gsample": [], "reduce": [],
                   "positivity": ["--form", "xi.json"],
                   "lemma25": ["--pvector", "xi.json"],
                   "psh": ["--field", "builtin:normsq",
                           "--probes", "grid:-1..1:2"]}

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("command", list(COUNT_INPUTS))
    def test_sample_count_below_one_exits_2(self, capsys, tmp_path,
                                            monkeypatch, command, count):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "xi.json").write_text(json.dumps(form_to_json(
            ExteriorElement(4, 2, {(1, 2): 0.5, (3, 4): 0.5}))))
        code, out, err = run_cli(capsys, command, "--cal", "omega4",
                                 "--count", count, *self.COUNT_INPUTS[command])
        assert code == 2 and out == ""
        assert err == f"error: sample count must be at least 1, got {count}\n"

    @pytest.mark.parametrize("command", ["massnorm", "lemma25"])
    def test_generator_count_below_zero_exits_2(self, capsys, tmp_path,
                                                monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "xi.json").write_text(json.dumps(form_to_json(
            ExteriorElement(4, 2, {(1, 2): 0.5, (3, 4): 0.5}))))
        cal = ["--cal", "omega4"] if command == "lemma25" else []
        code, out, err = run_cli(capsys, command, *cal, "--pvector",
                                 "xi.json", "--generators", "-3")
        assert code == 2 and out == ""
        assert err == "error: generator count must be at least 0, got -3\n"

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["comass", "--cal", "omega4", "--bogus-flag", "1"])


class TestVerifyAll:
    def test_one_line_per_criterion_timed_by_the_runner(self, capsys,
                                                        monkeypatch):
        from types import SimpleNamespace
        from calibr import acceptance
        seeds = []

        def passing(seed):
            seeds.append(seed)
            return acceptance.AcceptanceResult("stub pass", True, "fine")

        def failing(seed):
            seeds.append(seed)
            return acceptance.AcceptanceResult("stub fail", False, "broken")

        ticks = iter([0.0, 1.5, 2.0, 2.5])
        monkeypatch.setattr(acceptance, "CRITERIA", [passing, failing])
        monkeypatch.setattr(acceptance, "time",
                            SimpleNamespace(perf_counter=lambda: next(ticks)))
        code, out, err = run_cli(capsys, "verify-all", "--seed", "7")
        assert code == 1 and err == ""
        assert out.splitlines() == ["PASS - stub pass: fine  [1.5s]",
                                    "FAIL - stub fail: broken  [0.5s]",
                                    "FAIL - total 2.0s"]
        assert seeds == [7, 7]

    def test_quick_mode_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", "--quick"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quick" in capsys.readouterr().err


class TestSubcommands:
    def test_gsample_csv(self, capsys, tmp_path):
        csv = tmp_path / "planes.csv"
        code, out, _ = run_cli(capsys, "gsample", "--cal", "lambda:0.5",
                               "--count", "10", "--emit-csv", str(csv))
        assert code == 0
        data = json.loads(out)
        assert data["report"]["accepted"] == 1    # singleton Grassmannian
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 2                    # header + one plane
        assert lines[0].endswith("phi_value")

    def test_reduce(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--cal", "lambda:0.5",
                               "--count", "8")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["dim_W"] == 2 and rep["elliptic"] is False

    def test_positivity(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(form_to_json(
            catalogue("kaehler", 2, 1).form)))
        code, out, _ = run_cli(capsys, "positivity", "--form", str(path),
                               "--cal", "omega4", "--count", "20")
        assert code == 0
        assert json.loads(out)["report"]["status"] == "Interior"

    def test_massnorm(self, capsys, tmp_path):
        path = tmp_path / "xi.json"
        path.write_text(json.dumps({"n": 4, "p": 2, "terms": [
            {"indices": [1, 2], "coeff": 1.0},
            {"indices": [3, 4], "coeff": 1.0}]}))
        code, out, _ = run_cli(capsys, "massnorm", "--pvector", str(path))
        assert code == 0
        rep = json.loads(out)["report"]
        assert abs(rep["upper"] - 2.0) < 2e-6
        assert abs(rep["lower"] - 2.0) < 2e-6

    def test_psh_grid(self, capsys):
        code, out, _ = run_cli(capsys, "psh", "--field", "builtin:half_normsq",
                               "--cal", "omega4", "--probes", "grid:-1..1:2",
                               "--count", "15")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["all_psh"] is True
        assert len(rep["points"]) == 16

    def test_normality_small(self, capsys):
        code, out, _ = run_cli(capsys, "normality", "--cal", "omega4",
                               "--trials", "4")
        assert code == 0
        assert json.loads(out)["report"]["normal"] is True

    def test_green_builtin_mesh(self, capsys):
        code, out, _ = run_cli(capsys, "green", "--mesh", "builtin:disc:8",
                               "--cal", "omega4", "--x-index", "0")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["exact_disc"] is True
        assert all(v < 5e-3 for v in rep["residuals"].values())

    def test_current_check(self, capsys, tmp_path):
        from calibr.currents import disc_mesh, write_mesh
        mesh = tmp_path / "disc.mesh"
        write_mesh(mesh, disc_mesh(5))
        code, out, _ = run_cli(capsys, "current-check", "--mesh", str(mesh),
                               "--cal", "omega4")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["positive"] is True and abs(rep["gap"]) < 1e-10

    def test_current_check_csv(self, capsys, tmp_path):
        from calibr.currents import disc_mesh, write_mesh
        mesh, csv = tmp_path / "disc.mesh", tmp_path / "simplices.csv"
        M = disc_mesh(5)
        write_mesh(mesh, M)
        code, out, _ = run_cli(capsys, "current-check", "--mesh", str(mesh),
                               "--cal", "omega4", "--emit-csv", str(csv))
        assert code == 0
        rep = json.loads(out)["report"]
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "simplex,volume,mult,phi_value"
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        assert rows[:, 0].tolist() == list(range(len(M.simplices)))
        assert abs(rows[:, 1].sum() - rep["mass"]) <= 1e-12
        assert np.abs(rows[:, 3] - 1.0).max() <= 1e-12

    def test_duality_random_batch(self, capsys, tmp_path):
        csv = tmp_path / "batch.csv"
        code, out, _ = run_cli(capsys, "duality", "--cal", "omega4",
                               "--random", "6", "--deg", "1", "--seed", "7",
                               "--emit-csv", str(csv))
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["all_consistent"] is True
        assert len(csv.read_text().strip().splitlines()) == 7

    def test_duality_random_batch_assembles_each_model_once(
            self, capsys, monkeypatch):
        from calibr import duality
        calls = []
        frozen = duality._frozen_differentials

        def counted(model, sites):
            calls.append(len(sites))
            return frozen(model, sites)

        monkeypatch.setattr(duality, "_frozen_differentials", counted)
        code, _, _ = run_cli(capsys, "duality", "--cal", "omega4",
                             "--random", "10", "--seed", "7")
        assert code == 0
        assert calls == [4] * 10

    def test_jensen_random_batch(self, capsys):
        code, out, _ = run_cli(capsys, "jensen", "--cal", "omega4",
                               "--random", "4", "--deg", "2", "--seed", "7")
        assert code == 0
        assert json.loads(out)["report"]["all_consistent"] is True

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "comass", "--cal", "volume:3",
                               "--multistarts", "5", "-o", str(out_path))
        assert code == 0
        assert out == ""
        data = json.loads(out_path.read_text())
        assert abs(data["report"]["value"] - 1.0) < 1e-9


class TestFlat:
    @pytest.mark.parametrize("cal,point,value", [
        ("omega4", "1,0.5,0,0.2", 4.0),
        ("kaehler:3,2", "1,0.5,0,0,0.2,0", 8.0),
        ("quaternionic:2", "1,0.5,0,0,0.2,0,0,0.1", 8.0)])
    def test_single_plane_exact(self, capsys, cal, point, value):
        # one phi-plane lies in the hyperplane; normsq has Hessian 2 I,
        # which pairs with every p-plane to 2p
        code, out, _ = run_cli(capsys, "flat", "--cal", cal, "--field",
                               "builtin:normsq", "--point", point)
        rep = json.loads(out)["report"]
        assert code == 1
        assert rep["exact"] is True and rep["flat"] is False
        assert abs(rep["worst_value"] - value) < 1e-12


class TestMaxPrinciple:
    def test_bounds(self, capsys):
        # Re z1 is pluriharmonic: its values on the disc lie within the
        # boundary range
        code, out, _ = run_cli(capsys, "maxprinciple", "--cal", "omega4",
                               "--mesh", "builtin:disc:6",
                               "--field", "builtin:re_z1")
        rep = json.loads(out)["report"]
        assert code == 0
        assert rep["ok"] is True and rep["precondition_ok"] is True

    def test_lemma58_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "maxprinciple", "--cal", "omega4",
                               "--mesh", "builtin:disc:6",
                               "--field", "builtin:re_z1",
                               "--mode", "lemma58")
        assert code == 1
        assert json.loads(out)["report"]["ok"] is False


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def run_alternative(capsys, *argv):
    """Run an explicit duality or jensen alternative; its verdict must be
    consistent and its model must carry tolerances and LP statuses."""
    code, out, _ = run_cli(capsys, *argv)
    rep = json.loads(out)["report"]
    kind = {"duality": "boundary", "jensen": "jensen"}[argv[0]]
    assert code == 0 and rep["consistent"] is True
    assert (rep["primal"] == "Feasible") != (rep["dual"] == "Certificate")
    assert rep["model"]["kind"] == kind
    assert set(rep["model"]["tolerances"]) == {"margin_tol", "feas_tol"}
    assert rep["model"]["lp_status"]
    return rep


class TestExplicitAlternatives:
    # omega4 at degree 2: 4 dx_J times the 15 monomials of degree <= 2
    FAMILY = 60

    @pytest.fixture
    def sites(self, tmp_path):
        rng = np.random.default_rng(41)
        return write_json(tmp_path / "sites.json",
                          rng.uniform(-1, 1, (4, 4)).tolist())

    @pytest.mark.parametrize("lam", [None, "0.5"])
    @pytest.mark.parametrize("boundary", ["zero", "random"])
    def test_duality(self, capsys, tmp_path, sites, lam, boundary):
        S = np.zeros(self.FAMILY) if boundary == "zero" else \
            np.random.default_rng(42).standard_normal(self.FAMILY)
        argv = ["duality", "--cal", "omega4", "--sites", sites, "--boundary",
                write_json(tmp_path / "S.json", S.tolist())]
        if lam:
            argv += ["--lam", lam]
        rep = run_alternative(capsys, *argv)
        assert rep["model"]["family_size"] == self.FAMILY
        assert rep["model"].get("lambda") == (float(lam) if lam else None)
        if boundary == "zero":
            assert rep["primal"] == "Feasible"

    def test_jensen(self, capsys, tmp_path):
        rng = np.random.default_rng(43)
        pts = write_json(tmp_path / "pts.json",
                         rng.uniform(-1, 1, (5, 4)).tolist())
        rep = run_alternative(capsys, "jensen", "--cal", "omega4", "--sites",
                              pts, "--K", "0,1,2,3", "--x", "4")
        assert rep["model"]["K_sites"] == [0, 1, 2, 3]
        assert rep["model"]["x"] == 4


class TestConfigEcho:
    def test_modd_echoes_count_and_tol(self, capsys):
        code, out, _ = run_cli(capsys, "modd", "--cal", "associative",
                               "--field", "builtin:normsq",
                               "--point", "1,0.5,0,0,0.2,0,0", "--count", "3")
        assert code == 0
        cfg = json.loads(out)["config"]
        assert cfg["count"] == 3 and cfg["tol"] == 1e-06

    def test_duality_echoes_its_default_count(self, capsys):
        code, out, _ = run_cli(capsys, "duality", "--cal", "omega4",
                               "--random", "2")
        assert code == 0
        assert json.loads(out)["config"]["count"] == 8

    @pytest.mark.parametrize("argv", [
        ["catalogue"],
        ["comass", "--cal", "omega4", "--max-iter", "7"],
        ["gsample", "--cal", "lambda:0.5", "--count", "4",
         "--emit-csv", "planes.csv"],
        ["green", "--cal", "omega4", "--mesh", "builtin:disc:4",
         "-o", "report.json"],
    ])
    def test_config_is_every_parsed_argument(self, capsys, tmp_path,
                                             monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        parsed = vars(build_parser().parse_args(argv))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        if "-o" in argv:
            out = (tmp_path / "report.json").read_text()
        want = {k: v for k, v in parsed.items()
                if k not in ("command", "fn", "output", "emit_csv")}
        cfg = json.loads(out)["config"]
        assert list(cfg.items()) == [("subcommand", argv[0]), *want.items()]


class TestTermOrder:
    """A form's report does not depend on the order of its JSON terms."""

    XI6 = {"n": 6, "p": 3, "terms": [
        {"indices": [1, 2, 3], "coeff": 1.0},
        {"indices": [1, 4, 5], "coeff": -0.6},
        {"indices": [2, 4, 6], "coeff": 0.8},
        {"indices": [3, 5, 6], "coeff": 0.5},
        {"indices": [1, 2, 6], "coeff": -0.3},
        {"indices": [2, 3, 4], "coeff": 0.7}]}
    PHI7 = {"n": 7, "p": 3, "terms": [
        {"indices": [1, 2, 3], "coeff": 1.0},
        {"indices": [1, 4, 5], "coeff": 0.7},
        {"indices": [2, 4, 6], "coeff": -0.6},
        {"indices": [3, 5, 7], "coeff": 0.5},
        {"indices": [1, 6, 7], "coeff": 0.4},
        {"indices": [2, 5, 7], "coeff": 0.3},
        {"indices": [3, 4, 6], "coeff": -0.8}]}

    @pytest.mark.parametrize("spec, argv", [
        (XI6, ["massnorm", "--pvector"]),
        (PHI7, ["comass", "--form"]),
    ], ids=["massnorm-xi6", "comass-phi7"])
    def test_lex_ordered_copy_gives_the_same_report(self, capsys, tmp_path,
                                                    spec, argv):
        lex = {**spec, "terms": sorted(spec["terms"],
                                       key=lambda t: t["indices"])}
        assert lex["terms"] != spec["terms"]
        outs = []
        for name, form in (("given", spec), ("lex", lex)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(form))
            code, out, _ = run_cli(capsys, *argv, str(path))
            assert code == 0
            outs.append(out.replace(str(path), "FORM"))
        assert outs[0] == outs[1]


class TestFloatFormatting:
    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "comass", "--cal", "lambda:0.5",
                               "--multistarts", "5")
        # a float with full precision appears in the frame matrix
        assert code == 0
        data = json.loads(out)
        v = data["report"]["value"]
        assert f"{v:.17g}" in out


class TestImportCost:
    def test_calibr_loads_without_scipy(self):
        # scipy is imported inside the calls that need it (the sparse
        # Laplace solves of green_check); loading the library and an exact
        # subcommand must not pay for it
        script = ("import sys\n"
                  "import calibr.acceptance\n"
                  "from calibr import cli\n"
                  "code = cli.main(['comass', '--cal', 'omega4'])\n"
                  "loaded = sorted(m for m in sys.modules\n"
                  "                if m == 'scipy' or m.startswith('scipy.'))\n"
                  "print(code, loaded, file=sys.stderr)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == "0 []\n"
