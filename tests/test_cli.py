import csv
import xml.dom.minidom
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from harmcont import checks, cli
from harmcont.checks import CheckRow
from harmcont.cli import (EXIT_CONFIG, EXIT_GAPS, EXIT_OK,
                          EXIT_VERIFY_FAILED, main)

QUICK = ["--xi-min", "0", "--xi-max", "2", "--step", "0.5", "--modes", "16"]


def run_cli(*argv):
    return main(list(argv))


class TestRunCatalog:
    def test_artifacts_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HC_OUT_DIR", str(tmp_path))
        code = run_cli("run", "cubic(1)", *QUICK, "--mu-star", "0")
        assert code == EXIT_OK
        out = tmp_path / "cubic_1"
        assert (out / "curve.csv").exists()
        assert (out / "analysis.txt").exists()
        assert (out / "curve.svg").exists()
        header = (out / "curve.csv").read_text().splitlines()[0]
        assert header == "xi,mu,residual_norm,U_norm,newton_iters,converged"
        assert "solutions at mu* = 0.0" in (out / "analysis.txt").read_text()

    @pytest.mark.parametrize("target", ["cubic(pi^2/2)", "cubic(1/2)"])
    def test_default_output_is_one_directory(self, tmp_path, monkeypatch, target):
        # a "/" in the target must not nest the output under HC_OUT_DIR
        monkeypatch.setenv("HC_OUT_DIR", str(tmp_path))
        assert run_cli("run", target, *QUICK) == EXIT_OK
        files = sorted(f.relative_to(tmp_path) for f in tmp_path.rglob("*") if f.is_file())
        assert len(files) == 3 and len({f.parent for f in files}) == 1
        assert {f.name for f in files} == {"curve.csv", "analysis.txt", "curve.svg"}
        assert len(files[0].parts) == 2

    def test_asymptote_written_for_matching_problem(self, tmp_path):
        code = run_cli("run", "resonance-k7", "--xi-min", "10", "--xi-max", "11",
                       "--step", "0.5", "--modes", "32", "--out", str(tmp_path / "o"))
        assert code == EXIT_OK
        asym = (tmp_path / "o" / "asymptote.csv").read_text().splitlines()
        assert asym[0] == "xi,mu_asymptotic"
        assert len(asym) == 4

    def test_padded_name_resolved_once(self, tmp_path, monkeypatch):
        # the stripped name picks the problem, its asymptote and its directory
        monkeypatch.setenv("HC_OUT_DIR", str(tmp_path))
        code = run_cli("run", " resonance-k7 ", "--xi-min", "10", "--xi-max", "11",
                       "--step", "0.5", "--modes", "32")
        assert code == EXIT_OK
        assert [d.name for d in tmp_path.iterdir()] == ["resonance-k7"]
        assert (tmp_path / "resonance-k7" / "asymptote.csv").exists()

    def test_csv_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli("run", "oscillatory-p512", *QUICK,
                           "--out", str(out)) == EXIT_OK
            outs.append((out / "curve.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_svg_well_formed_and_self_contained(self, tmp_path):
        out = tmp_path / "svg"
        assert run_cli("run", "cubic(1)", *QUICK, "--out", str(out)) == EXIT_OK
        text = (out / "curve.svg").read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        # no external resource references beyond the SVG namespace itself
        assert "href" not in text and "url(" not in text

    def test_single_node(self, tmp_path):
        # one node: the plot's x-range is widened, not divided by zero
        out = tmp_path / "one"
        assert run_cli("run", "resonant-bounded", "--xi-min", "-1", "--xi-max", "1",
                       "--step", "5", "--out", str(out)) == EXIT_OK
        assert len((out / "curve.csv").read_text().splitlines()) == 2
        ET.fromstring((out / "curve.svg").read_text())

    def test_unknown_catalog_name(self, tmp_path):
        assert run_cli("run", "no-such-problem", "--out", str(tmp_path)) == EXIT_CONFIG


GOLDEN = Path(__file__).resolve().parent.parent / "out"


def read_curve(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return ([r["xi"] for r in rows], [float(r["mu"]) for r in rows],
            [r["converged"] for r in rows])


class TestGoldenCurves:
    # the committed figure curves, rerun with the README flags; a reordered
    # floating-point sum moves mu by roundoff, so mu is held to newton_tol
    # rather than to byte equality
    @pytest.mark.parametrize("name,flags", [
        ("oscillatory-p512", ["--xi-min", "5", "--xi-max", "60"]),
        ("resonance-k7", ["--xi-min", "10", "--xi-max", "60", "--modes", "128"]),
        ("amann-hess-type", ["--xi-min", "-40", "--xi-max", "40", "--mu-star", "0"]),
    ])
    def test_reproduces_committed_curve(self, tmp_path, name, flags):
        assert run_cli("run", name, *flags, "--step", "0.1",
                       "--out", str(tmp_path)) == EXIT_OK
        xi, mu, converged = read_curve(tmp_path / "curve.csv")
        xi0, mu0, converged0 = read_curve(GOLDEN / name / "curve.csv")
        assert xi == xi0
        assert converged == converged0
        assert max(abs(a - b) for a, b in zip(mu, mu0)) <= 1e-10


class TestRunConfig:
    def test_config_run(self, tmp_path):
        cfg = tmp_path / "mine.cfg"
        cfg.write_text("[problem]\ng = pi^2*u + sin(u)\ne = 2:0.3\n"
                       "[run]\nxi_min = 0\nxi_max = 1\nxi_step = 0.5\nmodes = 16\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out", str(out)) == EXIT_OK
        rows = (out / "curve.csv").read_text().splitlines()
        assert len(rows) == 4  # header + 3 nodes

    def test_svg_title_escaped(self, tmp_path):
        cfg = tmp_path / "a&b<c.cfg"
        cfg.write_text("[problem]\ng = pi^2*u + sin(u)\ne = 2:0.3\n"
                       "[run]\nxi_min = 0\nxi_max = 1\nxi_step = 0.5\nmodes = 16\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out", str(out)) == EXIT_OK
        doc = xml.dom.minidom.parse(str(out / "curve.svg"))
        titles = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert "a&b<c" in titles

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "mine.cfg"
        cfg.write_text("[problem]\ng = u\n[run]\nxi_min = 0\nxi_max = 9\n"
                       "xi_step = 1\nmodes = 16\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--xi-max", "2", "--out", str(out)) == EXIT_OK
        rows = (out / "curve.csv").read_text().splitlines()
        assert len(rows) == 4

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[problem]\nk = 1\ng = u\ne = 1:0.4\n")
        assert run_cli("run", str(cfg)) == EXIT_CONFIG

    def test_gap_exit_code(self, tmp_path):
        # g'(u) = lambda_2 everywhere: every node hits a singular Jacobian
        cfg = tmp_path / "resonant.cfg"
        cfg.write_text("[problem]\ng = 4*pi^2*u\ne = 2:1.0\n"
                       "[run]\nxi_min = 0\nxi_max = 1\nxi_step = 0.5\nmodes = 8\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out", str(out)) == EXIT_GAPS
        csv = (out / "curve.csv").read_text()
        assert csv.count("false") == 3
        # empty curve still renders a well-formed placeholder plot
        ET.fromstring((out / "curve.svg").read_text())

    def test_directory_batch(self, tmp_path):
        cfgdir = tmp_path / "cfgs"
        cfgdir.mkdir()
        for name in ("one", "two"):
            (cfgdir / f"{name}.cfg").write_text(
                "[problem]\ng = u - u^3\ne = 2:0.1\n"
                "[run]\nxi_min = 0\nxi_max = 1\nxi_step = 0.5\nmodes = 16\n")
        out = tmp_path / "batch"
        code = run_cli("run", str(cfgdir), "--jobs", "2", "--out", str(out))
        assert code == EXIT_OK
        assert (out / "one" / "curve.csv").exists()
        assert (out / "two" / "curve.csv").exists()
        # one bad config sets the batch's exit code; the good ones still run
        (cfgdir / "two.cfg").write_text("[problem]\nk = 1\ng = u\ne = 1:0.4\n")
        out = tmp_path / "batch-bad"
        code = run_cli("run", str(cfgdir), "--jobs", "2", "--out", str(out))
        assert code == EXIT_CONFIG
        assert (out / "one" / "curve.csv").exists()
        assert not (out / "two").exists()

    def test_jobs_capped_at_config_count(self, tmp_path, monkeypatch):
        # a fork pool starts max_workers processes at once; record the count
        # with a serial stand-in instead of starting a pool
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        cfgdir = tmp_path / "cfgs"
        cfgdir.mkdir()
        for name in ("one", "two"):
            (cfgdir / f"{name}.cfg").write_text(
                "[problem]\ng = u - u^3\ne = 2:0.1\n"
                "[run]\nxi_min = 0\nxi_max = 1\nxi_step = 0.5\nmodes = 16\n")
        out = tmp_path / "batch"
        assert run_cli("run", str(cfgdir), "--jobs", "64", "--out", str(out)) == EXIT_OK
        assert workers == [2]
        assert (out / "one" / "curve.csv").exists() and (out / "two" / "curve.csv").exists()

    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run_cli("run", str(empty)) == EXIT_CONFIG


class TestVerify:
    def test_linear_suite_passes(self, capsys):
        assert run_cli("verify", "linear") == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("PASS")
        assert "total" in out

    def test_table_is_machine_parsable(self, capsys):
        run_cli("verify", "linear")
        for line in capsys.readouterr().out.strip().splitlines():
            status, name, detail = line.split("\t")
            assert status in ("PASS", "FAIL")

    def test_labels_padded_across_suites(self, capsys, monkeypatch):
        rows = [CheckRow("linear", "a", True, "x"),
                CheckRow("asymptotics", "longer name", True, "y"),
                CheckRow("oracle", "b", False, "z")]
        monkeypatch.setattr(checks, "run_suite", lambda suite: rows)
        assert run_cli("verify", "all") == EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.strip().splitlines()[:-1]  # not the total
        assert len({len(line.split("\t")[1]) for line in lines}) == 1


class TestExitCodes:
    def test_bad_range_flags(self, tmp_path):
        assert run_cli("run", "cubic(1)", "--xi-min", "2", "--xi-max", "-2",
                       "--out", str(tmp_path)) == EXIT_CONFIG

    @pytest.mark.parametrize("config, flags", [
        (None, ["--modes", "4"]),  # resonance-k7 needs 2k = 14 modes
        (None, ["--modes", "10"]),  # between k and 2k: the library rejects it too
        ("[problem]\nk = 3\ng = u\n[run]\nxi_min = 0\nxi_max = 1\nxi_step = 0.5\n"
         "modes = 16\n", ["--modes", "2"]),  # the flag is checked, not only the file
        ("[problem]\ng = u\ne = 20:0.1\n[run]\nxi_min = 0\nxi_max = 1\nxi_step = 0.5\n"
         "modes = 16\n", []),  # fewer modes than the forcing
    ], ids=["catalog-k7", "catalog-k7-between-k-and-2k", "flag-k3", "forcing-e20"])
    def test_too_few_modes(self, tmp_path, capsys, config, flags):
        target = "resonance-k7"
        if config is not None:
            target = tmp_path / "problem.cfg"
            target.write_text(config)
        assert run_cli("run", str(target), *flags,
                       "--out", str(tmp_path / "out")) == EXIT_CONFIG
        assert "modes must be at least max(2k, forcing modes)" in capsys.readouterr().err

    def test_repeated_forcing_mode(self, tmp_path, capsys):
        cfg = tmp_path / "problem.cfg"
        cfg.write_text("[problem]\ng = u\ne = 2:0.5, 2:0.3\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out", str(out)) == EXIT_CONFIG
        assert "mode 2 is given twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, setting", [
        (["--tol", "-1"], "newton_tol"), (["--tol", "nan"], "newton_tol"),
        (["--tol", "inf"], "newton_tol"), (["--max-iter", "0"], "max_iter"),
        (["--step", "nan"], "xi_step"), (["--step", "inf"], "xi_step"),
        (["--xi-max", "inf"], "xi_max"), (["--mu-star", "nan"], "mu_star"),
        (["--mu-star", "0", "--mu-star", "inf"], "mu_star"),
        (["--jobs", "0"], "--jobs"), (["--jobs", "-5"], "--jobs"),
    ], ids=["tol-negative", "tol-nan", "tol-inf", "max-iter-0", "step-nan",
            "step-inf", "xi-max-inf", "mu-star-nan", "mu-star-inf", "jobs-0",
            "jobs-negative"])
    def test_bad_run_settings(self, tmp_path, capsys, flags, setting):
        out = tmp_path / "out"
        assert run_cli("run", "cubic(1)", *QUICK, *flags, "--out", str(out)) == EXIT_CONFIG
        assert setting in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("run, setting", [
        ("xi_min = 2\nxi_max = -2\n", "xi_min"), ("mu_star = nan, 1\n", "mu_star"),
        ("xi_step = 0\n", "xi_step"), ("modes = 1.5\n", "modes = '1.5'"),
        ("max_iter = ten\n", "max_iter = 'ten'"),
    ], ids=["empty-range", "mu-star-nan", "step-zero", "modes-not-int",
            "max-iter-not-int"])
    def test_bad_config_run_settings(self, tmp_path, capsys, run, setting):
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(f"[problem]\ng = u\n[run]\n{run}")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out", str(out)) == EXIT_CONFIG
        assert setting in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[problem]\ng = u % 2\n", "[problem]\ng = u\n[run]\nmu_star = 1%\n",
        "[problem]\nk = 1\ng = pi^2*u + %(k)s*sin(u)\n",
    ], ids=["g-modulo", "mu-star-percent", "g-interpolation"])
    def test_percent_rejected_not_substituted(self, tmp_path, capsys, text):
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), *QUICK, "--out", str(out)) == EXIT_CONFIG
        assert "%" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_fix_config_range(self, tmp_path):
        # the [run] values are checked after the flags override them
        cfg = tmp_path / "problem.cfg"
        cfg.write_text("[problem]\ng = pi^2*u + sin(u)\n[run]\n"
                       "xi_min = 5\nxi_max = 1\nxi_step = 0.5\nmodes = 16\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--xi-min", "0", "--out", str(out)) == EXIT_OK
        assert (out / "curve.csv").read_text().splitlines()[1].startswith("0.0,")

    @pytest.mark.parametrize("g", [
        "1/u", "u^-1", "pi^2*u + 0.1/(u^2)",
        "(" * 300 + "u" + ")" * 300, "+".join(["u"] * 1500), "-" * 2000 + "u",
    ], ids=["inverse", "negative-power", "inverse-square", "deep-parentheses",
            "deep-sum", "deep-minus"])
    def test_bad_expression(self, tmp_path, g):
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(f"[problem]\ng = {g}\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("problem", [
        "k = 0", "k = -2", "L = -1", "L = 0", "L = nan", "L = inf", "e = 0:1.0",
    ], ids=["k-zero", "k-negative", "L-negative", "L-zero", "L-nan", "L-inf",
            "e-mode-zero"])
    def test_bad_problem_values(self, tmp_path, problem):
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(f"[problem]\ng = u\n{problem}\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), *QUICK, "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("text, error", [
        ("[problem]\ng = u\n[run]\nmode = 8\n", "unknown [run] key 'mode'"),
        ("[problem]\ng = u\n[run]\nxi_stepp = 5\n", "unknown [run] key 'xi_stepp'"),
        ("[problem]\ng = u\nlambda = 2\n", "unknown [problem] key 'lambda'"),
    ], ids=["run-mode", "run-xi-stepp", "problem-lambda"])
    def test_unknown_config_key(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), *QUICK, "--out", str(out)) == EXIT_CONFIG
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_clashing_stems_rejected(self, tmp_path, capsys):
        cfgdir = tmp_path / "cfgs"
        cfgdir.mkdir()
        for name in ("a.cfg", "a.ini", "b.cfg"):
            (cfgdir / name).write_text("[problem]\ng = u\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfgdir), *QUICK, "--out", str(out)) == EXIT_CONFIG
        assert "a.cfg, a.ini" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["cubic(u+1)", "cubic(1/0)", "cubic(0/0)",
                                        "cubic(foo)"],
                             ids=["in-u", "infinite", "nan", "unknown-name"])
    def test_bad_cubic_lambda(self, tmp_path, target):
        out = tmp_path / "out"
        assert run_cli("run", target, *QUICK, "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("target, lam", [("cubic(pi^2/2)", "4.934802200544679"),
                                             ("cubic(4*arctan(1))", "3.141592653589793")])
    def test_constant_cubic_lambda_runs(self, tmp_path, target, lam):
        out = tmp_path / "out"
        assert run_cli("run", target, *QUICK, "--out", str(out)) == EXIT_OK
        assert f"problem: {lam}*u - u^3" in (out / "analysis.txt").read_text()

    def test_verify_exit_codes_are_distinct(self):
        assert EXIT_OK == 0 and EXIT_VERIFY_FAILED == 1
        assert EXIT_CONFIG == 2 and EXIT_GAPS == 3
