import csv
import os
import re
import subprocess
import sys
import xml.dom.minidom
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from harmcont import checks, cli
from harmcont.checks import CheckRow
from harmcont.cli import (EXIT_CONFIG, EXIT_GAPS, EXIT_INTERNAL, EXIT_OK,
                          EXIT_VERIFY_FAILED, main)

ROOT = Path(__file__).resolve().parents[1]

QUICK = ["--xi-min", "0", "--xi-max", "2", "--step", "0.5", "--modes", "16"]


def run_cli(*argv):
    return main(list(argv))


def run_hc(cwd, *argv, timeout=300):
    """hc in a fresh interpreter, which shows warnings and can be timed out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-m", "harmcont.cli", *map(str, argv)],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


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

    def test_axis_spanning_one_ulp(self, tmp_path):
        # the xi axis is [1e17, 1e17 + 16] with ticks 5 apart, below half an
        # ulp (16) of 1e17: the ticks are placed by index, not by adding 5
        cfg = tmp_path / "problem.cfg"
        cfg.write_text("[problem]\ng = pi^2*u + sin(u)\ne = 2:0.5\n[run]\n"
                       "xi_min = 1e17\nxi_max = 100000000000000016\nxi_step = 16\n")
        out = tmp_path / "out"
        done = run_hc(tmp_path, "run", cfg, "--out", out, timeout=30)
        assert done.returncode == EXIT_OK, done.stderr
        ET.fromstring((out / "curve.svg").read_text())


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "out"


def read_curve(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return ([r["xi"] for r in rows], [float(r["mu"]) for r in rows],
            [r["converged"] for r in rows])


def readme_figure_runs():
    """(name, flags) of each `hc run <name>` line in the README's Command line
    block whose out/<name>/curve.csv is committed, with any --out dropped."""
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", text, re.S | re.M)
    runs = []
    for line in block.splitlines():
        words = line.split("#")[0].split()
        if words[:2] != ["hc", "run"] or not (GOLDEN / words[2] / "curve.csv").is_file():
            continue
        flags = words[3:]
        if "--out" in flags:
            i = flags.index("--out")
            del flags[i:i + 2]
        runs.append((words[2], flags))
    return runs


class TestGoldenCurves:
    # the committed figure curves, rerun with the README commands; a reordered
    # floating-point sum moves mu by roundoff, so mu is held to newton_tol
    # rather than to byte equality
    def test_readme_runs_every_committed_curve(self):
        committed = {d.name for d in GOLDEN.iterdir() if (d / "curve.csv").is_file()}
        assert sorted(name for name, _ in readme_figure_runs()) == sorted(committed)

    @pytest.mark.parametrize("name,flags", readme_figure_runs())
    def test_reproduces_committed_curve(self, tmp_path, name, flags):
        assert run_cli("run", name, *flags, "--out", str(tmp_path)) == EXIT_OK
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

    def test_all_runs_each_suite_in_order(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "SUITES", {
            "first": lambda: [CheckRow("first", "a", True, "x")],
            "second": lambda: [CheckRow("second", "b", True, "y"),
                               CheckRow("second", "c", False, "z")],
        })
        assert [r.name for r in checks.run_suite("all")] == ["a", "b", "c"]
        assert run_cli("verify", "all") == EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split("\t")[1].rstrip() for line in lines] == [
            "first/a", "second/b", "second/c", "total"]
        assert lines[-1] == "FAIL\ttotal\t2/3 checks passed"


class TestExitCodes:
    def test_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no curve")

        monkeypatch.setattr(cli, "follow_curve", broken)
        out = tmp_path / "out"
        assert run_cli("run", "cubic(1)", *QUICK, "--out", str(out)) == EXIT_INTERNAL
        assert "internal error: no curve" in capsys.readouterr().err

    def test_verify_internal_error(self, capsys, monkeypatch):
        def broken(suite):
            raise RuntimeError("no suite")

        monkeypatch.setattr(checks, "run_suite", broken)
        assert run_cli("verify", "all") == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

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
        ("xi_min = -1e308\nxi_max = 1e308\n", "(xi_max - xi_min) / xi_step"),
    ], ids=["empty-range", "mu-star-nan", "step-zero", "modes-not-int",
            "max-iter-not-int", "range-width-overflows"])
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

    def test_nowhere_finite_g(self, tmp_path, capsys):
        cfg = tmp_path / "problem.cfg"
        cfg.write_text("[problem]\ng = 1/0*u\n")
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out", str(out)) == EXIT_CONFIG
        assert "not finite on [-50.0, 50.0]" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_expression_prints_one_line(self, tmp_path):
        # Python's parser warns "invalid decimal literal" on 1if; a fresh
        # interpreter shows warnings that pytest's filters would catch
        cfg = tmp_path / "problem.cfg"
        cfg.write_text("[problem]\ng = 1if u else 2\n")
        done = run_hc(tmp_path, "run", cfg, "--out", tmp_path / "out")
        assert done.returncode == EXIT_CONFIG
        assert len(done.stderr.splitlines()) == 1, done.stderr

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
        ("[problem]\ng = u\n[Run]\nxi_min = -1\nxi_max = 1\nmodes = 8\n",
         "unknown section [Run]; known sections: [problem], [run]"),
        ("[problem]\ng = u\n[runn]\nmodes = 8\n", "unknown section [runn]"),
        ("[DEFAULT]\nmodes = 8\n[problem]\ng = u\n", "unknown section [DEFAULT]"),
    ], ids=["run-mode", "run-xi-stepp", "problem-lambda", "section-Run", "section-runn",
            "section-DEFAULT"])
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
