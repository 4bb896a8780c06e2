"""End-to-end command-line runs: in process through focklab.cli.main, and
through `python -m focklab` where the run needs its own process."""
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from focklab import Disc, HermitianMatrix, RadialSymbol, SimpleSymbol, assemble, cli, operator_norm

ONE_MINUS_EXP_NEG_ONE = 0.6321205588285577
ONE_MINUS_EXP_NEG_PI = 0.9567860817362276
PI_OVER_PI_PLUS_ONE = math.pi / (math.pi + 1.0)


def run_process(*argv, env_extra=None):
    """`python -m focklab` in a fresh interpreter: its exit status and the
    environment it starts with."""
    env = os.environ.copy()
    env.pop("FOCKLAB_OUTPUT_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "focklab", *argv],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture()
def run_cli(monkeypatch, capsys, tmp_path):
    """cli.main in process, with $FOCKLAB_OUTPUT_DIR unset and tmp_path as
    the working directory; returns what run_process would."""
    monkeypatch.delenv("FOCKLAB_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)

    def run(*argv, env_extra=None):
        for key, value in (env_extra or {}).items():
            monkeypatch.setenv(key, value)
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(argv, code, out, err)

    return run


@pytest.fixture()
def disc_symbol(tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(
        {"pieces": [{"disc": {"center": [0.0, 0.0], "radius": 1.0}, "coeff": 1.0}]}
    ))
    return path


@pytest.fixture()
def gaussian_symbol(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps({"radial": {"profile": "gaussian"}}))
    return path


class TestAssemble:
    def test_json_output(self, run_cli, tmp_path, disc_symbol):
        out = tmp_path / "out"
        res = run_cli("assemble", "--symbol", str(disc_symbol), "--truncation", "8",
                      "--output", "mat", "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        data = json.loads((out / "mat.json").read_text())
        entries = np.array([complex(re, im) for re, im in data["entries"]])
        lib = assemble(SimpleSymbol(((Disc(0.0, 1.0), 1.0),)), 8)
        assert data["dimension"] == 8
        assert np.array_equal(entries.reshape(8, 8), lib.data)

    def test_csv_output(self, run_cli, tmp_path, disc_symbol):
        out = tmp_path / "out"
        res = run_cli("assemble", "--symbol", str(disc_symbol), "--truncation", "6",
                      "--format", "csv", "--output", "mat", "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        re = np.loadtxt(out / "mat_real.csv", delimiter=",")
        im = np.loadtxt(out / "mat_imag.csv", delimiter=",")
        lib = assemble(SimpleSymbol(((Disc(0.0, 1.0), 1.0),)), 6)
        assert np.array_equal(re + 1j * im, lib.data)

    def test_diagonal_section_writes_dense_bytes(self, run_cli, tmp_path, disc_symbol,
                                                 gaussian_symbol):
        # a centred disc and the gaussian keep only their diagonal; the
        # JSON and CSV files hold the bytes of the dense diag(d)
        out = tmp_path / "out"
        for path, symbol in ((disc_symbol, SimpleSymbol(((Disc(0.0, 1.0), 1.0),))),
                             (gaussian_symbol, RadialSymbol.gaussian())):
            kept = assemble(symbol, 7)
            dense = HermitianMatrix(np.diag(kept._diagonal.astype(complex)))
            res = run_cli("assemble", "--symbol", str(path), "--truncation", "7",
                          "--output", "mat", "--output-dir", str(out))
            assert res.returncode == 0, res.stderr
            assert (out / "mat.json").read_text() == dense.to_json() + "\n"
            res = run_cli("assemble", "--symbol", str(path), "--truncation", "7",
                          "--format", "csv", "--output", "mat", "--output-dir", str(out))
            assert res.returncode == 0, res.stderr
            dense.write_csv(tmp_path / "re.csv", tmp_path / "im.csv")
            for part in ("real", "imag"):
                written = (out / f"mat_{part}.csv").read_bytes()
                assert written == (tmp_path / f"{part[:2]}.csv").read_bytes()

    def test_output_accepts_filename_with_extension(self, run_cli, tmp_path, disc_symbol):
        out = tmp_path / "out"
        res = run_cli("assemble", "--symbol", str(disc_symbol), "--truncation", "4",
                      "--output", "mat.json", "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "mat.json").exists()
        assert not (out / "mat.json.json").exists()
        res = run_cli("assemble", "--symbol", str(disc_symbol), "--truncation", "4",
                      "--format", "csv", "--output", "mat.csv",
                      "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "mat_real.csv").exists()
        res = run_cli("norm-table", "--symbol", str(disc_symbol),
                      "--truncations", "4,8", "--output", "table.csv",
                      "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "table.csv").exists()
        assert not (out / "table.csv.csv").exists()


class TestNormAndBound:
    def test_norm_gaussian(self, run_cli, tmp_path, gaussian_symbol):
        out = tmp_path / "out"
        res = run_cli("norm", "--symbol", str(gaussian_symbol), "--truncation", "40",
                      "--output", "norm", "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        printed = float(res.stdout.split("norm=")[1].split()[0])
        assert math.isclose(printed, PI_OVER_PI_PLUS_ONE, rel_tol=1e-9)
        payload = json.loads((out / "norm.json").read_text())
        assert math.isclose(payload["norm"], PI_OVER_PI_PLUS_ONE, rel_tol=1e-10)
        assert payload["truncation"] == 40

    def test_norm_gaussian_past_laguerre_cap(self, run_cli, gaussian_symbol):
        # the gaussian's closed-form diagonal has no cap on N
        res = run_cli("norm", "--symbol", str(gaussian_symbol), "--truncation", "1000")
        assert res.returncode == 0, res.stderr
        assert res.stdout == "norm=0.758546992995 truncation=1000\n"

    def test_norm_jacobi_half_discs(self, run_cli, tmp_path):
        # +1 on the upper half of the unit disc, -1 on the lower half: the
        # spectrum is symmetric, with norm 0.683246591459. --method auto is
        # operator_norm(assemble(...)), run here in-process.
        data = {"pieces": [
            {"sector": {"r": [0.0, 1.0], "theta": [0.0, math.pi]}, "coeff": 1.0},
            {"sector": {"r": [0.0, 1.0], "theta": [math.pi, 2.0 * math.pi]}, "coeff": -1.0},
        ]}
        path = tmp_path / "halves.json"
        path.write_text(json.dumps(data))
        res = run_cli("norm", "--symbol", str(path), "--truncation", "60",
                      "--method", "jacobi", "--output", "norm", "--output-dir", str(tmp_path))
        assert res.returncode == 0, res.stderr
        printed = float(res.stdout.split("norm=")[1].split()[0])
        assert abs(printed - 0.683246591459) < 1e-11
        jacobi = json.loads((tmp_path / "norm.json").read_text())["norm"]
        auto = operator_norm(assemble(cli.load_symbol(path), 60))
        assert abs(jacobi - auto) < 1e-12

    @pytest.mark.parametrize("symbol", [
        {"radial": {"profile": "disc", "radius": 0.8, "height": 0.75}},
        {"radial": {"profile": "annulus", "r_inner": 0.5, "r_outer": 1.5}},
        {"radial": {"profile": "gaussian"}},
        {"radial": {"profile": "table", "radii": [0, 0.5, 1.2, 2], "values": [1, -0.8, 0.6, 0]}},
        {"pieces": [{"disc": {"center": [0.0, 0.0], "radius": 0.8}, "coeff": 1.5},
                    {"sector": {"r": [1.0, 1.7], "theta": [0.0, 2.0 * math.pi]}, "coeff": -0.6}]},
    ])
    def test_norm_jacobi_reads_a_kept_diagonal(self, run_cli, tmp_path, symbol):
        # each section is kept as its diagonal, which both methods read off:
        # the same norm= line, and JSON that differs only in "method"
        path = tmp_path / "symbol.json"
        path.write_text(json.dumps(symbol))
        lines, payloads = [], []
        for method in ("auto", "jacobi"):
            res = run_cli("norm", "--symbol", str(path), "--truncation", "60", "--method", method,
                          "--output", method, "--output-dir", str(tmp_path))
            assert res.returncode == 0, res.stderr
            lines.append(res.stdout.splitlines()[0])
            payloads.append((tmp_path / f"{method}.json").read_text())
        assert lines[0].startswith("norm=") and lines[1] == lines[0]
        auto, jacobi = (json.loads(payload) for payload in payloads)
        assert auto.pop("method") == "auto" and jacobi.pop("method") == "jacobi"
        assert jacobi == auto
        assert payloads[1] == payloads[0].replace('"auto"', '"jacobi"')

    def test_bound_gaussian(self, run_cli, tmp_path, gaussian_symbol):
        res = run_cli("bound", "--symbol", str(gaussian_symbol),
                      "--output-dir", str(tmp_path))
        assert res.returncode == 0, res.stderr
        printed = float(res.stdout.split("bound=")[1].split()[0])
        assert math.isclose(printed, ONE_MINUS_EXP_NEG_PI, rel_tol=1e-9)

    def test_bound_sampled(self, run_cli, tmp_path):
        # e^{-t} samples: l1 is exactly the Laguerre weight sum = 1
        from focklab import RadialRule

        nodes = RadialRule.gauss_laguerre(20).nodes
        values = np.tile(np.exp(-nodes)[:, None], (1, 12)).tolist()
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps({"sampled": {
            "radial_count": 20, "angular_count": 12, "linf": 1.0, "values": values,
        }}))
        res = run_cli("bound", "--symbol", str(path), "--output-dir", str(tmp_path))
        assert res.returncode == 0, res.stderr
        printed = float(res.stdout.split("bound=")[1].split()[0])
        assert math.isclose(printed, ONE_MINUS_EXP_NEG_ONE, rel_tol=1e-9)


class TestVerifySuites:
    def test_verify_nt(self, run_cli, tmp_path):
        out = tmp_path / "out"
        res = run_cli("verify-nt", "--seed", "1", "--cases", "5",
                      "--truncation", "40", "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert "8/8 checks hold" in res.stdout
        lines = (out / "verify_nt_reports.jsonl").read_text().splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert first["metadata"]["equality"] is True
        assert first["holds"] is True
        csv_lines = (out / "verify_nt_summary.csv").read_text().splitlines()
        assert csv_lines[0] == "experiment,lhs,rhs,margin,slack,holds"
        assert len(csv_lines) == 9

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_verify_nt_warning_has_no_path(self, run_cli, tmp_path):
        # the coherent state at -0.4+1.1j loses tail mass 1.2e-12 at N = 26
        filters = list(warnings.filters)
        res = run_cli("verify-nt", "--cases", "0", "--truncation", "26",
                      "--output-dir", str(tmp_path))
        assert res.returncode == 0
        assert res.stderr == ("warning: coherent state at |w0| = 1.17 loses tail mass "
                              "1.204e-12 at truncation 26\n")
        assert warnings.filters == filters

    def test_runtime_warning_still_fails(self, run_cli, disc_symbol, monkeypatch):
        # main prints warnings but keeps the caller's filters, so the suite's
        # error::RuntimeWarning gate holds on every in-process CLI run
        monkeypatch.setattr(cli, "operator_norm", lambda matrix, method: float(np.exp(1000.0)))
        with pytest.raises(RuntimeWarning, match="overflow"):
            run_cli("norm", "--symbol", str(disc_symbol), "--truncation", "4")

    def test_verify_nt_deterministic(self, run_cli, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = run_cli("verify-nt", "--seed", "3", "--cases", "4",
                          "--truncation", "32", "--output-dir", str(out))
            assert res.returncode == 0, res.stderr
            outs.append(out)
        for fname in ("verify_nt_reports.jsonl", "verify_nt_summary.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_verify_lemma(self, run_cli, tmp_path):
        out = tmp_path / "out"
        res = run_cli("verify-lemma", "--seed", "2", "--cases", "4",
                      "--truncation", "32", "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert "6/6 checks hold" in res.stdout
        reports = [json.loads(line) for line in
                   (out / "verify_lemma_reports.jsonl").read_text().splitlines()]
        eps_one = [r for r in reports if r["metadata"].get("epsilon_one")]
        assert len(eps_one) == 2

    def test_sharpness(self, run_cli, tmp_path):
        out = tmp_path / "out"
        res = run_cli("sharpness", "--center", "0.7+0.3j", "--radius", "0.6",
                      "--truncation", "40", "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stdout.count("PASS") == 3
        assert "3/3 checks hold" in res.stdout

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_sharpness_center_with_leading_minus(self, run_cli, tmp_path):
        # `focklab sharpness --center -2+1j --radius 1.3` once exited 2 with
        # "argument --center: expected one argument": argparse read -2+1j as
        # an option. At the default N = 40 the coherent state at |c| = 2.24
        # drops tail mass 2.1e-7, so the equality check fails honestly.
        res = run_cli("sharpness", "--center", "-2+1j", "--radius", "1.3")
        assert res.stderr == ("warning: coherent state at |w0| = 2.236 loses tail mass "
                              "2.077e-07 at truncation 40\n")
        assert res.returncode == 1
        assert "2/3 checks hold" in res.stdout
        reports = [json.loads(line) for line in
                   (tmp_path / "sharpness_reports.jsonl").read_text().splitlines()]
        assert [r["metadata"]["center"] for r in reports] == [[-2.0, 1.0]] * 3
        assert run_cli("sharpness", "--center=-2+1j", "--radius", "1.3").stdout == res.stdout

    def test_approximate_coarse_grids_fail_honestly(self, tmp_path, gaussian_symbol):
        out = tmp_path / "out"
        res = run_process("approximate", "--symbol", str(gaussian_symbol),
                          "--grids", "4,8", "--truncation", "25",
                          "--output-dir", str(out))
        assert res.returncode == 1
        assert "FAIL approx-convergence" in res.stdout
        reports = [json.loads(line) for line in
                   (out / "approx_reports.jsonl").read_text().splitlines()]
        assert len(reports) == 5
        assert sum(0 if r["holds"] else 1 for r in reports) == 1


class TestNormTable:
    def test_off_center_disc(self, run_cli, tmp_path):
        path = tmp_path / "offdisc.json"
        radius = math.sqrt(1.0 / math.pi)
        path.write_text(json.dumps(
            {"pieces": [{"disc": {"center": [1.0, 0.5], "radius": radius},
                         "coeff": 1.0}]}
        ))
        out = tmp_path / "out"
        res = run_cli("norm-table", "--symbol", str(path),
                      "--truncations", "5,10,20", "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        lines = (out / "norm_table.csv").read_text().splitlines()
        assert lines[0] == "truncation,norm,bound"
        rows = [line.split(",") for line in lines[1:]]
        norms = [float(r[1]) for r in rows]
        bounds = {float(r[2]) for r in rows}
        assert [int(r[0]) for r in rows] == [5, 10, 20]
        # compressions on nested subspaces: norms grow toward the limit
        assert norms[0] <= norms[1] + 1e-10 <= norms[2] + 2e-10
        assert len(bounds) == 1
        assert math.isclose(bounds.pop(), ONE_MINUS_EXP_NEG_ONE, rel_tol=1e-12)


class TestConfigAndEnvironment:
    def test_config_supplies_defaults(self, run_cli, tmp_path, gaussian_symbol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "symbol": str(gaussian_symbol),
            "truncation": 6,
            "output_dir": str(tmp_path / "cfg_out"),
        }))
        res = run_cli("norm", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert "truncation=6" in res.stdout

    def test_flag_overrides_config(self, run_cli, tmp_path, gaussian_symbol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"symbol": str(gaussian_symbol), "truncation": 6}))
        res = run_cli("norm", "--config", str(cfg), "--truncation", "4",
                      "--output-dir", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "truncation=4" in res.stdout

    def test_output_dir_env(self, tmp_path, gaussian_symbol):
        target = tmp_path / "env_out"
        res = run_process("bound", "--symbol", str(gaussian_symbol),
                          "--output", "bound_out",
                          env_extra={"FOCKLAB_OUTPUT_DIR": str(target)})
        assert res.returncode == 0, res.stderr
        assert (target / "bound_out.json").is_file()

    def test_no_absolute_paths_in_outputs(self, run_cli, tmp_path):
        out = tmp_path / "out"
        res = run_cli("verify-nt", "--seed", "4", "--cases", "2",
                      "--truncation", "40", "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        for path in out.iterdir():
            assert str(tmp_path) not in path.read_text()


class TestErrorPaths:
    def test_missing_symbol_flag(self, run_cli):
        res = run_cli("norm", "--truncation", "4")
        assert res.returncode == 2
        assert "--symbol" in res.stderr

    def test_bad_config_json(self, run_cli, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        res = run_cli("norm", "--config", str(cfg))
        assert res.returncode == 2

    def test_bad_symbol_file(self, run_cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"something": 1}))
        res = run_cli("bound", "--symbol", str(path))
        assert res.returncode == 2
        assert "pieces" in res.stderr

    def test_unknown_subcommand(self):
        res = run_process("frobnicate")
        assert res.returncode == 2


# A value for every flag of every subcommand, none of them its default;
# "disc" and "gauss" name the symbol fixtures. The verify suites need N = 32:
# their coherent states and degree-25 random functions do not fit in N = 12.
EVERY_FLAG = {
    "assemble": {"symbol": "disc", "truncation": 6, "format": "csv", "output": "mat"},
    "norm": {"symbol": "disc", "truncation": 8, "method": "jacobi", "output": "n"},
    "bound": {"symbol": "gauss", "output": "b"},
    "verify-nt": {"seed": 3, "cases": 2, "truncation": 32},
    "verify-lemma": {"seed": 3, "cases": 2, "truncation": 32},
    "sharpness": {"center": "0.4+0.2j", "radius": 0.6, "truncation": 20},
    "approximate": {"symbol": "gauss", "grids": "2,4", "truncation": 12},
    "norm-table": {"symbol": "disc", "truncations": "4,8", "output": "t"},
}


class TestCommandTable:
    @pytest.mark.parametrize("command", sorted(EVERY_FLAG))
    def test_flags_and_config_agree(self, run_cli, tmp_path, command,
                                    disc_symbol, gaussian_symbol):
        defaults = cli._COMMANDS[command][2]
        assert set(EVERY_FLAG[command]) == set(defaults)
        assert all(value != defaults[flag] for flag, value in EVERY_FLAG[command].items())
        symbols = {"disc": str(disc_symbol), "gauss": str(gaussian_symbol)}
        values = {flag: symbols.get(value, value) if flag == "symbol" else value
                  for flag, value in EVERY_FLAG[command].items()}
        argv = [command, "--output-dir", str(tmp_path / "flags")]
        for flag, value in values.items():
            argv += [f"--{flag}", str(value)]
        by_flags = run_cli(*argv)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**values, "output_dir": str(tmp_path / "config")}))
        by_config = run_cli(command, "--config", str(cfg))
        assert by_flags.returncode in (0, 1), by_flags.stderr
        assert by_config.returncode == by_flags.returncode, by_config.stderr
        assert by_config.stdout == by_flags.stdout
        names = sorted(p.name for p in (tmp_path / "flags").iterdir())
        assert names and names == sorted(p.name for p in (tmp_path / "config").iterdir())
        for name in names:
            assert (tmp_path / "flags" / name).read_bytes() == \
                (tmp_path / "config" / name).read_bytes()

    def test_config_list_is_a_comma_list(self, run_cli, tmp_path, disc_symbol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"symbol": str(disc_symbol), "truncations": [4, 8]}))
        by_config = run_cli("norm-table", "--config", str(cfg))
        by_flags = run_cli("norm-table", "--symbol", str(disc_symbol), "--truncations", "4,8")
        assert by_config.returncode == 0, by_config.stderr
        assert by_config.stdout == by_flags.stdout

    def test_other_subcommands_keys_allowed(self, run_cli, tmp_path, gaussian_symbol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"symbol": str(gaussian_symbol), "truncation": 6,
                                   "grids": "2,4", "seed": 5, "radius": 0.5}))
        res = run_cli("norm", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert "truncation=6" in res.stdout


class TestRejections:
    @pytest.mark.parametrize("entry, flag", [
        ({"truncation": 6.7}, "--truncation"),
        ({"truncation": True}, "--truncation"),
        ({"method": "lanczos"}, "--method"),
    ])
    def test_config_value_checked_like_flag(self, run_cli, tmp_path, gaussian_symbol,
                                            entry, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"symbol": str(gaussian_symbol), "truncation": 6, **entry}))
        res = run_cli("norm", "--config", str(cfg))
        assert res.returncode == 2
        assert flag in res.stderr
        assert "norm=" not in res.stdout

    def test_unknown_config_key(self, run_cli, tmp_path, gaussian_symbol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"symbol": str(gaussian_symbol), "truncation": 6,
                                   "truncaton": 8}))
        res = run_cli("norm", "--config", str(cfg))
        assert res.returncode == 2
        assert "truncaton" in res.stderr

    # A JSON integer of 5,001 digits: json.load raises a plain ValueError past
    # Python's integer string-conversion limit (4,300 digits), not a
    # JSONDecodeError, and it once escaped as "error: Exceeds the limit ...",
    # naming neither the file nor the key.
    _HUGE = "1" + "0" * 5000

    def _expect_unreadable(self, res, what, path):
        assert res.returncode == 2
        assert "Traceback" not in res.stderr and "=" not in res.stdout
        if hasattr(sys, "get_int_max_str_digits"):
            assert res.stderr.startswith(f"error: cannot read {what} {path}: Exceeds the limit")
        else:  # no digit limit: the number reads, and is too large for a float
            assert str(path) in res.stderr

    def test_symbol_integer_past_digit_limit(self, run_cli, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"radial": {"profile": "disc", "radius": %s}}' % self._HUGE)
        res = run_cli("bound", "--symbol", str(path), "--output-dir", str(tmp_path / "out"))
        self._expect_unreadable(res, "symbol file", path)

    def test_config_integer_past_digit_limit(self, run_cli, tmp_path, gaussian_symbol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"symbol": %s, "truncation": %s}' % (json.dumps(str(gaussian_symbol)),
                                                           self._HUGE))
        res = run_cli("norm", "--config", str(cfg))
        self._expect_unreadable(res, "config", cfg)

    @pytest.mark.parametrize("truncation", ["12", "25"])
    @pytest.mark.parametrize("command", ["verify-nt", "verify-lemma"])
    def test_truncation_below_suite_minimum(self, run_cli, tmp_path, command, truncation):
        # random degrees reach 25, and verify-nt's coherent states need 26
        # basis elements; these runs once failed on a unit-norm check or on
        # "cannot hold degree", without naming the flag
        res = run_cli(command, "--seed", "1", "--cases", "3", "--truncation", truncation,
                      "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "--truncation" in res.stderr and "26" in res.stderr
        assert "checks hold" not in res.stdout

    def test_lemma_fixed_cases_need_13(self, run_cli, tmp_path):
        out = str(tmp_path / "out")
        res = run_cli("verify-lemma", "--cases", "0", "--truncation", "13", "--output-dir", out)
        assert res.returncode == 0, res.stderr
        assert "2/2 checks hold" in res.stdout
        res = run_cli("verify-lemma", "--cases", "0", "--truncation", "12", "--output-dir", out)
        assert res.returncode == 2
        assert "--truncation" in res.stderr and "13" in res.stderr

    @pytest.mark.parametrize("command", ["verify-nt", "verify-lemma"])
    def test_negative_cases(self, run_cli, tmp_path, command):
        res = run_cli(command, "--cases", "-3", "--truncation", "8",
                      "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "--cases" in res.stderr
        assert "checks hold" not in res.stdout

    def test_empty_truncations(self, run_cli, tmp_path, disc_symbol):
        res = run_cli("norm-table", "--symbol", str(disc_symbol), "--truncations", "",
                      "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "--truncations" in res.stderr
        assert not (tmp_path / "out" / "norm_table.csv").exists()

    @pytest.mark.parametrize("command", ["norm", "bound"])
    @pytest.mark.parametrize("piece", [
        {"disc": {"center": [0, 0], "radius": 1e200}},
        {"sector": {"r": [0, 1e200], "theta": [0, 1]}},
        {"disc": {"center": [0, 0], "radius": 1e154}},
    ])
    def test_radius_past_limit(self, run_cli, tmp_path, command, piece):
        # these once ended in an OverflowError traceback with exit 1, the
        # code of a failed check, or in "matrix entries must be finite"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"pieces": [{**piece, "coeff": 1}]}))
        flags = ["--truncation", "8"] if command == "norm" else []
        res = run_cli(command, "--symbol", str(path), *flags, "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and "7.565e+153" in res.stderr
        assert "=" not in res.stdout

    @pytest.mark.parametrize("command", ["norm", "bound"])
    @pytest.mark.parametrize("radial", [
        {"profile": "disc", "radius": 1e200},
        {"profile": "annulus", "r_inner": 0.5, "r_outer": 1e200},
    ])
    def test_radial_support_past_cap(self, run_cli, tmp_path, command, radial):
        # these once ended in numpy's "Maximum allowed size exceeded", after
        # time and memory that grew with the radius
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"radial": radial}))
        flags = ["--truncation", "8"] if command == "norm" else []
        res = run_cli(command, "--symbol", str(path), *flags, "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: bad symbol description")
        assert "support radius must be at most 10000" in res.stderr
        assert "=" not in res.stdout

    def test_table_huge_values_without_warning(self, tmp_path):
        # in a fresh interpreter, where a RuntimeWarning is printed rather than
        # raised: v0 * v1 overflowed here once
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"radial": {"profile": "table", "radii": [0, 1, 2],
                                               "values": [1e200, -1e200, 0]}}))
        res = run_process("bound", "--symbol", str(path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 0
        assert "bound=" in res.stdout
        assert "warning:" not in res.stderr

    def test_table_overflowing_slope(self, run_cli, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"radial": {"profile": "table", "radii": [0, 1, 2],
                                               "values": [1e308, -1e308, 0]}}))
        res = run_cli("bound", "--symbol", str(path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: bad symbol description")
        assert "knot slope between radii 0.0 and 1.0 overflows" in res.stderr
        assert "=" not in res.stdout

    @pytest.mark.parametrize("piece, message", [
        ({"disc": {"center": [1.0], "radius": 1.0}}, "'center' must be a list of exactly two"),
        ({"disc": {"center": [1.0, 0.0, 5.0], "radius": 1.0}}, "'center' must be a list"),
        ({"disc": {"center": 1.0, "radius": 1.0}}, "'center' must be a list"),
        ({"sector": {"r": [1.0], "theta": [0.0, 1.0]}}, "'r' must be a list of exactly two"),
        ({"sector": {"r": [0.5, 1.0], "theta": [0.0]}}, "'theta' must be a list"),
        ({"disc": {"center": [0.0, 0.0], "radius": 0.5},
          "sector": {"r": [1.0, 2.0], "theta": [0.0, 1.0]}},
         "exactly one 'disc' or 'sector' entry, found ['disc', 'sector']"),
        ({"disc": {"center": [0.0, 0.0], "radius": 1.0}, "coeff": True},
         "pieces[0].coeff must be a number, got true"),
        ({"disc": {"center": ["1.0", 0], "radius": 1.0}},
         'pieces[0].disc.center[0] must be a number, got "1.0"'),
        ({"disc": {"center": [0, 0], "radius": 1, "radus": 2}},
         "pieces[0].disc takes no key radus; it accepts center, radius"),
        ({"disc": {"center": [0, 0], "radius": 1}, "cooef": 2},
         "pieces[0] takes no key cooef; it accepts coeff, disc, sector"),
        ({"sector": {"r": [0, 1], "theta": [0, False]}},
         "pieces[0].sector.theta[1] must be a number, got false"),
        ({"disc": {"center": [0, 0], "radius": 10**400}}, "int too large to convert to float"),
        ({"disc": {"center": [0, 0], "radius": -10**400}},
         "pieces[0].disc.radius: int too large to convert to float"),
        ({"disc": {"center": [0, 10**400], "radius": 1}},
         "pieces[0].disc.center[1]: int too large to convert to float"),
        ({"disc": {"center": [math.nan, 10**400], "radius": 1}},
         "pieces[0].disc.center[1]: int too large to convert to float"),
        ({"disc": {"center": [0, 0], "radius": 1}, "coeff": 10**400},
         "pieces[0].coeff: int too large to convert to float"),
    ])
    def test_malformed_piece(self, run_cli, tmp_path, piece, message):
        # a one-number center or r once ended in an IndexError traceback, a
        # three-number one was cut to two, and a disc and a sector in one
        # piece were read as the disc alone, with exit 0; a boolean or a
        # numeric string was read as a number and an extra key was dropped,
        # also with exit 0, and an integer past float range was a traceback,
        # then an error that named no key
        path = tmp_path / "piece.json"
        path.write_text(json.dumps({"pieces": [{"coeff": 1.0, **piece}]}))
        res = run_cli("bound", "--symbol", str(path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: bad symbol description") and message in res.stderr
        assert "Traceback" not in res.stderr and "bound=" not in res.stdout

    @pytest.mark.parametrize("radial, message", [
        ({"profile": "disc", "radius": 1, "hieght": 0.5},
         "radial profile 'disc' takes no key hieght; it accepts radius, height"),
        ({"profile": "gaussian", "scale": 3},
         "radial profile 'gaussian' takes no key scale; it accepts no other key"),
    ])
    def test_unknown_radial_key(self, run_cli, tmp_path, radial, message):
        # the misspelt height once assembled with height 1.0, and the
        # gaussian ignored its scale, both with exit 0
        path = tmp_path / "radial.json"
        path.write_text(json.dumps({"radial": radial}))
        res = run_cli("norm", "--symbol", str(path), "--truncation", "8",
                      "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: bad symbol description") and message in res.stderr
        assert "norm=" not in res.stdout

    @pytest.mark.parametrize("counts, rows, message", [
        ((3.9, 16), 3, "must be integers, got (3.9, 16)"),
        ((True, 16), 1, "must be integers, got (True, 16)"),
        ((8, 16.0), 8, "must be integers, got (8, 16.0)"),
        ((7, 16), 8, "values have shape (8, 16), but radial_count x angular_count is (7, 16)"),
        ((8, 15), 8, "values have shape (8, 16), but radial_count x angular_count is (8, 15)"),
    ])
    def test_sampled_counts(self, run_cli, tmp_path, counts, rows, message):
        # 3.9 was once read as 3 and true as 1 through int(), with exit 0
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps({"sampled": {
            "radial_count": counts[0], "angular_count": counts[1], "linf": 1.0,
            "values": np.full((rows, 16), 0.5).tolist()}}))
        res = run_cli("bound", "--symbol", str(path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: bad symbol description") and message in res.stderr
        assert "bound=" not in res.stdout

    @pytest.mark.parametrize("data, message", [
        ({"radial": {"profile": "disc", "radius": True}},
         "radial.radius must be a number, got true"),
        ({"radial": {"profile": "table", "radii": [0, "1"], "values": [1, 0]}},
         'radial.radii[1] must be a number, got "1"'),
        ({"sampled": {"radial_count": 1, "angular_count": 2, "linf": 1.0,
                      "values": [["0.5", True]]}},
         'sampled.values[0][0] must be a number, got "0.5"'),
        ({"sampled": {"radial_count": 1, "angular_count": 2, "linf": True,
                      "values": [[0.5, 0.5]]}}, "sampled.linf must be a number, got true"),
        ({"sampled": {"radial_count": 1, "angular_count": 2, "linf": 1.0,
                      "values": [[0.5, 0.5]], "scale": 3}},
         "sampled takes no key scale; it accepts radial_count, angular_count, linf, values"),
        ({"radial": {"profile": "gaussian"}, "comment": "x"},
         "the file takes no key comment; it accepts radial"),
        ({"pieces": "disc"}, 'pieces must be a list, got "disc"'),
        ({"sampled": {"radial_count": 2, "angular_count": 2, "linf": 1.0,
                      "values": [[0.5, 0.5], [0.5]]}},
         "sampled.values rows must all have the same length"),
        ({"radial": {"profile": "disc", "radius": 10**400}},
         "radial.radius: int too large to convert to float"),
        ({"radial": {"profile": "table", "radii": [0, 10**400], "values": [1, 0]}},
         "radial.radii[1]: int too large to convert to float"),
        ({"sampled": {"radial_count": 1, "angular_count": 2, "linf": 1.0,
                      "values": [[0.5, -10**400]]}},
         "sampled.values[0][1]: int too large to convert to float"),
        ({"sampled": {"radial_count": 1, "angular_count": 2, "linf": 10**400,
                      "values": [[0.5, 0.5]]}},
         "sampled.linf: int too large to convert to float"),
    ])
    def test_malformed_symbol_file(self, run_cli, tmp_path, data, message):
        # each of these once read as a symbol, with exit 0: a boolean as 1.0,
        # a numeric string as its number, and an extra key dropped; a string
        # of pieces ended in "string indices must be integers", and a ragged
        # table in numpy's "inhomogeneous shape", naming no key, as an
        # integer past float range did
        path = tmp_path / "symbol.json"
        path.write_text(json.dumps(data))
        res = run_cli("bound", "--symbol", str(path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: bad symbol description") and message in res.stderr
        assert "Traceback" not in res.stderr and "bound=" not in res.stdout

    def test_ambiguous_symbol_file(self, run_cli, tmp_path):
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"radial": {"profile": "gaussian"}, "pieces": []}))
        res = run_cli("bound", "--symbol", str(path))
        assert res.returncode == 2
        assert "pieces" in res.stderr and "radial" in res.stderr
        assert "bound=" not in res.stdout
