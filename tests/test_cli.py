import concurrent.futures
import json
import os
import re
import subprocess
import sys

import pytest

from tmlab import RadialProfile
from tmlab.cli import run

LIGHT_OPT = {"moser_starts": [3], "random_starts": 0, "max_iters": 40,
             "polish_rounds": 1, "node_count": 65}


def invoke(tmp_path, name, *argv, output=None):
    out = output or (tmp_path / "out.txt")
    rc = run([name, *argv, "--output", str(out)])
    return rc, out


class TestEval:
    def test_zero_profile(self, tmp_path):
        pfile = tmp_path / "zero.json"
        pfile.write_text(json.dumps(RadialProfile.from_radii([1.0], [0.0]).to_dict()))
        rc, out = invoke(tmp_path, "eval", "--dim", "2", "--alpha", "1.0",
                         "--beta", "0", "--gamma", "0", "--profile", str(pfile))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["norms"] == {"grad_pow": 0.0, "weight_pow": 0.0,
                                 "full_pow": 0.0}
        assert data["functional"]["value"] == 0.0

    def test_moser_profile_unit_gradient(self, tmp_path):
        rc, out = invoke(tmp_path, "eval", "--dim", "2", "--alpha-ratio", "0.5",
                         "--beta", "1.0", "--gamma", "0.5",
                         "--moser-index", "10")
        assert rc == 0
        data = json.loads(out.read_text())
        # normalized element: full norm power is exactly 1
        assert abs(data["norms"]["full_pow"] - 1.0) < 1e-10

    def test_stored_moser_file_unit_gradient(self, tmp_path):
        # un-normalized stored element: gradient norm power is exactly 1
        from tmlab.core import ProblemParams
        from tmlab.moser import build

        params = ProblemParams(2, 1.0, 1.0, 0.5)
        pfile = tmp_path / "moser10.json"
        pfile.write_text(json.dumps(build(10, params).profile.to_dict()))
        rc, out = invoke(tmp_path, "eval", "--dim", "2", "--alpha-ratio", "0.5",
                         "--beta", "1.0", "--gamma", "0.5",
                         "--profile", str(pfile))
        assert rc == 0
        data = json.loads(out.read_text())
        assert abs(data["norms"]["grad_pow"] - 1.0) < 1e-12

    def test_one_live_segment_table(self, tmp_path, monkeypatch):
        # the weight and J of the one profile come from one table
        from tmlab.profiles import LiveSegments

        built = []
        inner = LiveSegments.of_nodes
        monkeypatch.setattr(LiveSegments, "of_nodes", classmethod(
            lambda cls, *a: built.append(1) or inner(*a)))
        rc, out = invoke(tmp_path, "eval", "--dim", "3", "--alpha-ratio", "0.5",
                         "--beta", "1.0", "--gamma", "0.5",
                         "--moser-index", "10")
        assert rc == 0 and len(built) == 1
        data = json.loads(out.read_text())
        assert data["norms"]["full_pow"] == \
            data["norms"]["grad_pow"] + data["norms"]["weight_pow"]

    def test_missing_file_exit_2(self, tmp_path):
        rc = run(["eval", "--dim", "2", "--alpha", "1.0", "--beta", "0",
                  "--gamma", "0", "--profile", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        # broken JSON, and well-formed JSON with a non-numeric entry
        bad = tmp_path / "bad.json"
        for text in ("{not json", '{"radii": [1, 2], "values": ["x", 0]}',
                     '{"radii": ["a", 2], "values": [1, 0]}'):
            bad.write_text(text)
            for command in ("eval", "orbit"):
                rc = run([command, "--dim", "2", "--alpha", "1.0", "--beta", "0",
                          "--gamma", "0", "--profile", str(bad)])
                assert rc == 2, (command, text)
                assert "malformed profile" in capsys.readouterr().err

    def test_infeasible_params_exit_3(self, tmp_path):
        pfile = tmp_path / "zero.json"
        pfile.write_text(json.dumps(RadialProfile.from_radii([1.0], [0.0]).to_dict()))
        rc = run(["eval", "--dim", "2", "--alpha", "1.0", "--beta", "3.0",
                  "--gamma", "0", "--profile", str(pfile)])
        assert rc == 3


class TestOptimize:
    def test_mode_b_runs(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"optimizer": LIGHT_OPT}))
        rc, out = invoke(tmp_path, "optimize", "--config", str(cfgfile),
                         "--dim", "2", "--alpha-ratio", "1.0", "--beta", "0",
                         "--gamma", "0", "--mode", "B")
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["result"]["value"] > 0
        assert "converged" in data["result"]
        assert data["result"]["constraint_residuals"]["full_norm"] < 1e-8

    def test_mode_a_at_critical_exit_3(self, tmp_path):
        rc = run(["optimize", "--dim", "2", "--alpha-ratio", "1.0",
                  "--beta", "0", "--gamma", "0", "--mode", "A"])
        assert rc == 3

    def test_b_above_critical_exit_3(self, tmp_path):
        rc = run(["optimize", "--dim", "2", "--alpha-ratio", "1.05",
                  "--beta", "0", "--gamma", "0", "--mode", "B"])
        assert rc == 3

    def test_same_seed_byte_identical(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"optimizer": LIGHT_OPT}))
        args = ["optimize", "--config", str(cfgfile), "--dim", "2",
                "--alpha-ratio", "0.5", "--beta", "1.0", "--gamma", "0.5",
                "--mode", "A", "--seed", "7"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestMoser:
    def test_table(self, tmp_path):
        rc, out = invoke(tmp_path, "moser", "--dim", "3", "--alpha-ratio",
                         "0.5", "--beta", "1.0", "--gamma", "0.5",
                         "--n-min", "1", "--n-max", "5")
        assert rc == 0
        text = out.read_text()
        assert text.startswith("# tmlab")
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines[0].split(",")[0] == "n"
        assert len(lines) == 6
        # gradient norm column is exactly 1 up to roundoff
        for line in lines[1:]:
            assert abs(float(line.split(",")[4]) - 1.0) < 1e-12

    def test_plateau_radius_underflow_exit_0(self, tmp_path):
        # e^(-n/(N-beta)) is 0 in doubles from n = 75 on at N=2, beta=1.9;
        # the elements are stored in t = log r, so the table is built anyway
        rc, out = invoke(tmp_path, "moser", "--dim", "2", "--alpha-ratio", "0.5",
                         "--beta", "1.9", "--gamma", "0", "--n-max", "200",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out.read_text())
        rows = [dict(zip(doc["columns"], row)) for row in doc["rows"]]
        assert [r["n"] for r in rows] == list(range(1, 201))
        for r in rows:
            assert abs(r["grad_pow"] - 1.0) <= 1e-12
            assert r["rel_err"] <= 1e-8

    def test_bad_range_exit_2(self):
        rc = run(["moser", "--dim", "2", "--alpha", "1.0", "--beta", "0",
                  "--gamma", "0", "--n-min", "5", "--n-max", "2"])
        assert rc == 2


class TestAsymptotic:
    def test_three_rows_bounded(self, tmp_path):
        rc, out = invoke(tmp_path, "asymptotic", "--dim", "2", "--alpha-ratio",
                         "0.5", "--beta", "0", "--gamma", "0",
                         "--alpha-ratios", "0.9,0.99,0.999")
        assert rc == 0
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 3
        products = [float(r[3]) for r in rows]
        assert all(p > 0 for p in products)
        assert max(products) / min(products) < 10.0

    def test_supercritical_grid_exit_3(self):
        rc = run(["asymptotic", "--dim", "2", "--alpha", "1.0", "--beta", "0",
                  "--gamma", "0", "--alpha-ratios", "1.5"])
        assert rc == 3

    def test_determinism(self, tmp_path):
        args = ["asymptotic", "--dim", "3", "--alpha-ratio", "0.5", "--beta",
                "1.0", "--gamma", "0.5", "--alpha-ratios", "0.9,0.99"]
        o1, o2 = tmp_path / "1.csv", tmp_path / "2.csv"
        assert run(args + ["--output", str(o1)]) == 0
        assert run(args + ["--output", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestRelation:
    def test_small_grid(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"optimizer": LIGHT_OPT}))
        rc, out = invoke(tmp_path, "relation", "--config", str(cfgfile),
                         "--dim", "2", "--alpha-ratio", "0.5", "--beta", "0",
                         "--gamma", "0", "--alpha-ratios", "0.4,0.7")
        assert rc == 0
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 2
        b = float(rows[0][4])
        for r in rows:
            assert b >= float(r[3]) - 1e-6  # one-sided bound
        # the summary header lines carry plain floats
        header = dict(re.fullmatch(r"# (\w+)=(\S+)", l).groups()
                      for l in out.read_text().splitlines()
                      if re.fullmatch(r"# \w+=\S+", l))
        assert set(header) == {"sup_product", "b_estimate", "two_sided_gap"}
        for value in header.values():
            float(value)

    def test_json_format(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"optimizer": LIGHT_OPT}))
        rc, out = invoke(tmp_path, "relation", "--config", str(cfgfile),
                         "--dim", "2", "--alpha-ratio", "0.5", "--beta", "0",
                         "--gamma", "0", "--alpha-ratios", "0.5",
                         "--format", "json")
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["summary"]["b_estimate"] >= data["summary"]["sup_product"] - 1e-6


class TestOrbit:
    def test_moser_start(self, tmp_path):
        rc, out = invoke(tmp_path, "orbit", "--dim", "2", "--alpha-ratio",
                         "0.3", "--beta", "0.5", "--gamma", "0.5",
                         "--moser-index", "3")
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["orbit"]["rel_err"] < 1e-4

    def test_wrong_dimension_exit_3(self):
        rc = run(["orbit", "--dim", "3", "--alpha-ratio", "0.3", "--beta",
                  "0.5", "--gamma", "0.5", "--moser-index", "3"])
        assert rc == 3


class TestTransformCheck:
    def test_unweighted_identity_residuals(self, tmp_path):
        rc, out = invoke(tmp_path, "transform-check", "--dim", "2",
                         "--alpha-ratio", "0.5", "--beta", "0", "--gamma", "0",
                         "--count", "5")
        assert rc == 0
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        for line in lines[1:]:
            assert float(line.split(",")[3]) < 1e-12

    def test_weighted_cells_small_residuals(self, tmp_path):
        rc, out = invoke(tmp_path, "transform-check", "--dim", "3",
                         "--alpha-ratio", "0.5", "--beta", "1.0",
                         "--gamma", "0.5", "--count", "5")
        assert rc == 0
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        for line in lines[1:]:
            _, g, w, resid, rt = line.split(",")
            assert float(g) < 1e-12
            assert float(w) < 1e-7
            assert float(resid) < 1e-7
            assert float(rt) < 1e-13


class TestConfigHandling:
    def test_unknown_key_exit_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"frobnicate": 1}))
        rc = run(["moser", "--config", str(cfgfile), "--dim", "2",
                  "--alpha", "1.0", "--beta", "0", "--gamma", "0"])
        assert rc == 2

    def test_flags_override_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"dim": 2, "alpha_ratio": 0.5, "beta": 0.0, "gamma": 0.0,
             "n_min": 1, "n_max": 9}))
        out = tmp_path / "out.csv"
        rc = run(["moser", "--config", str(cfgfile), "--n-max", "2",
                  "--output", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) == 3  # header + n=1,2

    def test_missing_alpha_exit_2(self):
        rc = run(["moser", "--dim", "2", "--beta", "0", "--gamma", "0"])
        assert rc == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        cell = ["--dim", "2", "--alpha-ratio", "0.5", "--beta", "0",
                "--gamma", "0", "--seed", "-1"]
        assert run(["transform-check", *cell, "--count", "2"]) == 2
        assert run(["optimize", "--mode", "A", *cell]) == 2
        assert capsys.readouterr().err.count("seed must be an integer >= 0") == 2
        # the optimizer's own seed key is checked too
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"optimizer": {"seed": -1}}))
        assert run(["optimize", "--mode", "A", "--config", str(cfgfile),
                    *cell[:-2]]) == 3
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_empty_alpha_grid_exit_2(self, tmp_path, capsys):
        cell = ["--dim", "2", "--alpha-ratio", "0.5", "--beta", "0",
                "--gamma", "0"]
        assert run(["relation", *cell, "--alpha-count", "0"]) == 2
        assert run(["asymptotic", *cell, "--alpha-count", "0"]) == 2
        assert capsys.readouterr().err.count("alpha_count must be >= 1") == 2
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"alpha_ratios": []}))
        assert run(["asymptotic", "--config", str(cfgfile), *cell]) == 2
        assert "alpha_ratios must not be empty" in capsys.readouterr().err

    def test_moser_index_zero_exit_3(self, capsys):
        cell = ["--dim", "2", "--alpha-ratio", "0.5", "--beta", "0",
                "--gamma", "0"]
        for index in ("0", "-3"):
            assert run(["eval", *cell, "--moser-index", index]) == 3
            assert (f"index must be a positive integer, got {index}"
                    in capsys.readouterr().err)

    def test_moser_index_without_finite_depth_exit_3(self, capsys):
        # n/(N-beta) of a 400-digit index is no finite double
        index = str(10 ** 400)
        assert run(["eval", "--dim", "2", "--alpha-ratio", "0.5", "--beta",
                    "1.9", "--gamma", "0", "--moser-index", index]) == 3
        assert f"error: index n={index} is too large" in capsys.readouterr().err

    def test_jobs_flag_does_not_change_output(self, tmp_path, monkeypatch):
        # no jobs value may start a worker pool: every maximization runs its
        # legs in lock step in this process
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker-process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"optimizer": LIGHT_OPT}))
        base = ["relation", "--config", str(cfgfile), "--dim", "2",
                "--alpha-ratio", "0.5", "--beta", "0", "--gamma", "0",
                "--alpha-ratios", "0.4,0.6"]
        o1, o2 = tmp_path / "j1.csv", tmp_path / "j2.csv"
        assert run(base + ["--jobs", "1", "--output", str(o1)]) == 0
        assert run(base + ["--jobs", "2", "--output", str(o2)]) == 0
        # the whole file matches; only the echoed config names its jobs value
        assert '"jobs":1' in o1.read_text()
        assert o1.read_text().replace('"jobs":1', '"jobs":2') == o2.read_text()


class TestWrongTypedConfig:
    # each config value the commands convert with int() or float(): a value
    # of the wrong type is refused with exit 2 and a message naming its key
    CELL = {"dim": 2, "alpha_ratio": 0.5, "beta": 0.0, "gamma": 0.0}
    CASES = {
        "eval": [{"beta": "x"}, {"gamma": [1]}, {"moser_index": "x"}],
        "optimize": [{"alpha": "x"}, {"alpha_ratio": {}}],
        "moser": [{"n_min": "x"}, {"n_max": 1e400}],
        "relation": [{"alpha_count": "x"}, {"alpha_ratios": [0.5, "x"]},
                     {"jobs": "x"}, {"jobs": 0}],
        "asymptotic": [{"alpha_ratios": "0.5,0.9"}, {"alpha_ratios": [None]}],
        "orbit": [{"moser_index": [3]}, {"beta": None}],
        "transform-check": [{"count": "x"}],
    }
    EXTRA = {"eval": {"moser_index": 3}, "optimize": {"mode": "A"},
             "orbit": {"moser_index": 3}}

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_exit_2_names_key(self, command, tmp_path, capsys):
        for bad in self.CASES[command]:
            (key,) = bad
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps(
                {**self.CELL, **self.EXTRA.get(command, {}), **bad}))
            assert run([command, "--config", str(cfgfile)]) == 2, bad
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key} must be "), err


    # an integer key takes an int only: int() would cut 3.9 to 3 (moser ran
    # n = 1..3 for n_max 3.9) and read true as 1
    @pytest.mark.parametrize("value", [3.9, 3.0, True])
    @pytest.mark.parametrize("command, key", [
        ("moser", "n_min"), ("moser", "n_max"), ("relation", "alpha_count"),
        ("asymptotic", "alpha_count"), ("transform-check", "count"),
        ("eval", "moser_index"), ("orbit", "moser_index"), ("relation", "jobs"),
    ])
    def test_integer_key_refuses_float_and_bool(self, command, key, value,
                                                tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {**self.CELL, **self.EXTRA.get(command, {}), key: value}))
        assert run([command, "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be an integer, got "), err

    # the optimizer object: one that is no JSON object exits 2; a field of
    # the wrong type exits 3, with a message naming the field
    @pytest.mark.parametrize("optimizer, code, key", [
        ([1, 2], 2, "optimizer"), ("x", 2, "optimizer"),
        ({"moser_starts": 5}, 3, "moser_starts"),
        ({"moser_starts": [3, 2.5]}, 3, "moser_starts"),
        ({"node_count": 8.5}, 3, "node_count"),
        ({"max_iters": 2.5}, 3, "max_iters"),
        ({"dilation_polish": "no"}, 3, "dilation_polish"),
        ({"random_starts": True}, 3, "random_starts"),
        ({"quad_tol": "1e-10"}, 3, "quad_tol"),
    ])
    def test_optimizer_object(self, optimizer, code, key, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {**self.CELL, "mode": "A", "optimizer": optimizer}))
        assert run(["optimize", "--config", str(cfgfile)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be "), err


class TestRunRepeatedInOneProcess:
    def test_sequence_matches_separate_processes(self, tmp_path, capsys,
                                                 monkeypatch):
        # the parser is built once per process; reusing it must not change
        # any command's output bytes or exit code
        monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at this width
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"optimizer": LIGHT_OPT}))
        cell = ["--dim", "2", "--beta", "0", "--gamma", "0"]
        commands = [
            ["optimize", "--config", str(cfgfile), *cell, "--alpha-ratio",
             "1.0", "--mode", "B"],
            ["eval", *cell, "--alpha-ratio", "0.5", "--moser-index", "10"],
            ["eval", *cell, "--alpha-ratio", "0.5", "--no-such-flag", "1"],
            ["moser", *cell, "--alpha-ratio", "0.5", "--n-max", "4"],
        ]
        in_process = []
        for i, argv in enumerate(commands):
            out = tmp_path / f"in-{i}"
            try:
                rc = run([*argv, "--output", str(out)])
            except SystemExit as exc:
                rc = exc.code
            err = capsys.readouterr().err
            in_process.append((rc, out.read_bytes() if out.exists() else b"", err))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for i, argv in enumerate(commands):
            out = tmp_path / f"alone-{i}"
            proc = subprocess.run(
                [sys.executable, "-m", "tmlab.cli", *argv, "--output", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            alone = (proc.returncode, out.read_bytes() if out.exists() else b"",
                     proc.stderr)
            assert in_process[i] == alone, argv[0]
        assert [rc for rc, _, _ in in_process] == [0, 0, 2, 0]
