"""End-to-end tests of the command line interface."""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccmax import __version__
from ccmax.cli import MAX_CURVE_POINTS, build_parser, main
from ccmax.curves import extremal_rho
from ccmax.gadget import format_ug, random_ug
from ccmax.gaussian import gamma_rho
from ccmax.instance import CCInstance, Constraint, Xor, format_instance, random_instance

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cycle_file(tmp_path: Path) -> Path:
    cons = tuple(Constraint(i, (i + 1) % 4, 1.0, Xor(-1)) for i in range(4))
    inst = CCInstance(n=4, k=2, constraints=cons, problem="cut")
    path = tmp_path / "c4.ccmax"
    path.write_text(format_instance(inst), encoding="utf-8")
    return path


@pytest.fixture
def ug_file(tmp_path: Path) -> tuple[Path, Path]:
    ug, hidden = random_ug(2, 2, 2, 1, seed=3)
    ug_path = tmp_path / "inst.ug"
    ug_path.write_text(format_ug(ug), encoding="utf-8")
    lab = ["labeling v1"]
    lab += [f"u {i + 1} {l + 1}" for i, l in enumerate(hidden.left)]
    lab += [f"v {j + 1} {l + 1}" for j, l in enumerate(hidden.right)]
    lab_path = tmp_path / "inst.labeling"
    lab_path.write_text("\n".join(lab) + "\n", encoding="utf-8")
    return ug_path, lab_path


class TestGamma:
    def test_prints_12_significant_digits(self, capsys):
        assert main(["gamma", "--rho", "-0.5", "--x", "0.3", "--y", "0.4"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.0534845290636"

    def test_domain_error_exit_code(self, capsys):
        assert main(["gamma", "--rho", "2.0", "--x", "0.3", "--y", "0.4"]) == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--rho", "0.5"])
        assert exc.value.code == 2


class TestCurves:
    def test_csv_format_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        argv = ["curves", "--problem", "cut", "--kind", "hardness",
                "--q-min", "0.46", "--q-max", "0.54", "--step", "0.02",
                "--flatten", "--out", str(out)]
        assert main(argv) == 0
        text1 = out.read_bytes()
        lines = text1.decode().splitlines()
        assert lines[0].startswith("# ccmax ")
        assert "curves" in lines[0] and "seed=" in lines[0]
        assert lines[1] == "q,ratio,rho_star,flattened"
        assert len(lines) == 2 + 5
        assert b"\r" not in text1
        assert main(argv) == 0
        assert out.read_bytes() == text1

    def test_out_is_a_directory(self, tmp_path, capsys):
        argv = ["curves", "--problem", "2sat", "--kind", "alpha", "--q-min", "0.3",
                "--q-max", "0.4", "--step", "0.05", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_alpha_kind(self, tmp_path):
        out = tmp_path / "alpha.csv"
        assert main(["curves", "--problem", "2sat", "--kind", "alpha",
                     "--q-min", "0.3", "--q-max", "0.4", "--step", "0.05",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 3

    def test_bad_step(self, tmp_path):
        assert main(["curves", "--problem", "cut", "--kind", "hardness",
                     "--q-min", "0.3", "--q-max", "0.4", "--step", "-1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--step", "nan"), ("--step", "inf"), ("--step", "0"),
        ("--q-min", "nan"), ("--q-min", "-inf"), ("--q-max", "inf"), ("--q-max", "nan"),
    ])
    def test_rejects_non_finite_grid(self, flag, value, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = {"--q-min": "0.3", "--q-max": "0.4", "--step": "0.05", flag: value}
        assert main(["curves", "--problem", "cut", "--kind", "alpha",
                     *[f"{k}={v}" for k, v in argv.items()], "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --")
        assert not out.exists()

    def test_rejects_q_min_above_q_max(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["curves", "--problem", "cut", "--kind", "hardness", "--q-min", "0.5",
                     "--q-max", "0.4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --q-min 0.5 is above --q-max 0.4\n"
        assert not out.exists()
        # equal ends make a one-point grid
        assert main(["curves", "--problem", "cut", "--kind", "alpha", "--q-min", "0.4",
                     "--q-max", "0.4", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_rejects_step_too_small_to_move_q(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["curves", "--problem", "cut", "--kind", "alpha", "--q-min", "0.3",
                     "--q-max", "0.5", "--step", "1e-300", "--out", str(out)]) == 2
        assert "too small to move q" in capsys.readouterr().err
        assert not out.exists()

    def test_keeps_q_below_1e_12_at_twelve_significant_digits(self, tmp_path, capsys):
        # rounding q to 12 decimal places made 1e-13 a q of 0.0
        out = tmp_path / "x.csv"
        assert main(["curves", "--problem", "cut", "--kind", "hardness", "--q-min", "1e-13",
                     "--q-max", "1e-13", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2:] == ["1e-13,1,-1e-13,0"]

    def test_rejects_step_below_the_grid_precision(self, tmp_path, capsys):
        # a step that moves q but not its 12 significant digits collapses the grid
        out = tmp_path / "x.csv"
        assert main(["curves", "--problem", "cut", "--kind", "hardness", "--q-min", "0.5",
                     "--q-max", "0.5", "--step", "1e-14", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --step 1e-14 is below")
        assert not out.exists()

    def test_refuses_grid_over_point_guard(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr("ccmax.curves.approx_curve", lambda *a, **k: built.append(a))
        out = tmp_path / "x.csv"
        step = 0.4 / MAX_CURVE_POINTS  # about twice the guard
        assert main(["curves", "--problem", "cut", "--kind", "alpha", "--q-min", "0.1",
                     "--q-max", "0.9", "--step", repr(step), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("refused: curve grid refused: ")
        assert not built and not out.exists()


class TestBrute:
    def test_output(self, cycle_file, capsys):
        assert main(["brute", "--input", str(cycle_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "optval 4"
        assert out[1] == "-+-+"

    def test_guard_exit_code(self, tmp_path, capsys):
        inst = CCInstance(n=29, k=5, constraints=(Constraint(0, 1, 1.0, Xor(-1)),),
                          problem="cut")
        path = tmp_path / "big.ccmax"
        path.write_text(format_instance(inst), encoding="utf-8")
        assert main(["brute", "--input", str(path)]) == 3

    def test_missing_file(self):
        assert main(["brute", "--input", "/nonexistent/foo.ccmax"]) == 2

    def test_input_is_a_directory(self, tmp_path, capsys):
        assert main(["brute", "--input", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_input_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.ccmax"
        path.write_bytes(b"ccmax v1\nproblem cut\nvars 2\ncard 1\n# caf\xe9\n")
        assert main(["brute", "--input", str(path)]) == 2
        assert "codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("w", ["inf", "nan"])
    def test_non_finite_weight(self, w, tmp_path, capsys):
        path = tmp_path / "w.ccmax"
        path.write_text(f"ccmax v1\nproblem cut\nvars 2\ncard 1\nc 1 2 {w} x-\n",
                        encoding="utf-8")
        assert main(["brute", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: weights must be finite, got {w}\n"


class TestSolvePipeline:
    def test_sdp_and_gram_dump(self, cycle_file, tmp_path, capsys):
        gram = tmp_path / "gram.csv"
        assert main(["sdp", "--input", str(cycle_file), "--restarts", "2",
                     "--seed", "1", "--max-iters", "3000",
                     "--dump-gram", str(gram)]) == 0
        out = capsys.readouterr().out
        assert "objective 4" in out
        lines = gram.read_text().splitlines()
        assert lines[0].startswith("# ccmax ")
        matrix = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
        assert matrix.shape == (5, 5)
        assert np.allclose(np.diag(matrix), 1.0, atol=1e-9)

    def test_solve_report(self, cycle_file, tmp_path, capsys):
        report = tmp_path / "report.txt"
        argv = ["solve", "--input", str(cycle_file), "--rounds", "20",
                "--restarts", "2", "--seed", "5", "--max-iters", "3000",
                "--report", str(report)]
        assert main(argv) == 0
        text1 = report.read_bytes()
        keys = {ln.split()[0] for ln in text1.decode().splitlines()[1:]}
        assert {"sdp_objective", "best_value", "rounds", "best_assignment",
                "pre_repair_gap_mean", "repair_flips", "brute_force_optval",
                "realized_ratio"} <= keys
        assert main(argv) == 0
        assert report.read_bytes() == text1  # byte-identical rerun

    def test_negative_max_iters_exit_2(self, cycle_file, capsys):
        assert main(["sdp", "--input", str(cycle_file), "--max-iters", "-5"]) == 2
        assert capsys.readouterr().err.startswith("error: max_iters must be >= 0")

    def test_tol_is_not_an_option(self, cycle_file):
        with pytest.raises(SystemExit) as exc:
            main(["sdp", "--input", str(cycle_file), "--tol", "1e-6"])
        assert exc.value.code == 2


class TestRestartsAcrossProcesses:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs to run restarts side by side")
    def test_one_cpu_and_all_cpus_give_the_same_bytes(self, tmp_path):
        # seed-17 solve-small item 2 of the benchmark, where restart 1 wins:
        # once with the restarts in two processes, once pinned to one CPU
        seed = 117_002
        inst = random_instance(14, 7, 40, problem="cut", seed=seed)
        (tmp_path / "inst.ccmax").write_text(format_instance(inst), encoding="utf-8")
        solver = ["--input", "inst.ccmax", "--restarts", "2", "--max-iters", "2000",
                  "--seed", str(seed)]
        commands = [["solve", *solver, "--rounds", "200", "--report", "report.txt"],
                    ["sdp", *solver, "--dump-gram", "gram.csv"]]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe stays block-buffered
        cpu = min(os.sched_getaffinity(0))

        def run(pin: bool) -> list[bytes]:
            outputs = []
            for argv in commands:
                done = subprocess.run(
                    # "begin" waits in the stdout buffer while the solver forks
                    [sys.executable, "-c", "import sys; from ccmax.cli import main; "
                     "print('begin'); sys.exit(main(sys.argv[1:]))", *argv],
                    cwd=tmp_path, env=env, capture_output=True, check=True, timeout=300,
                    preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pin else None)
                assert done.stderr == b""
                outputs.append(done.stdout)
            return outputs + [(tmp_path / name).read_bytes() for name in ("report.txt", "gram.csv")]

        spread, pinned = run(False), run(True)
        assert spread == pinned
        solve_out, sdp_out = spread[:2]
        # a forked worker flushes nothing it inherited: each line comes once
        for out in (solve_out, sdp_out):
            lines = out.splitlines()
            assert lines[0] == b"begin" and len(set(lines)) == len(lines)
        assert spread[2].startswith(b"# ccmax ") and spread[3].startswith(b"# ccmax ")


class TestOneParserPerProcess:
    def test_repeated_commands_give_identical_results(self, ug_file, cycle_file, tmp_path,
                                                      capsys):
        # main parses with one parser per process: a second pass over the same
        # commands, errors and defaults included, sees nothing left by the first
        assert build_parser() is build_parser()
        ug_path, _ = ug_file
        graph = tmp_path / "g.graph"
        sequence = [
            ["gadget", "--ug", str(ug_path), "--q", "0.4", "--rho", "-0.3", "--out", str(graph)],
            ["density", "--graph", str(graph), "--mode", "exact", "--rho", "-0.3"],
            ["density", "--graph", str(graph), "--mode", "exact", "--r", "0.4", "0.6"],
            ["gamma", "--rho", "2.0", "--x", "0.3", "--y", "0.4"],
            ["gamma", "--rho", "0.5"],
            ["brute", "--input", str(cycle_file)],
            ["density", "--graph", str(graph), "--mode", "search"],
        ]

        def run():
            results = []
            for argv in sequence:
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
                results.append((code, *capsys.readouterr()))
            return results

        first = run()
        assert [code for code, _, _ in first] == [0, 0, 0, 2, 2, 0, 0]
        assert first[1][1].count("r=") == 3  # the --r default, 0.25 0.5 0.75
        assert first[4][2].startswith("usage: ccmax gamma")
        assert run() == first


class TestGadgetPipeline:
    def test_gadget_density_completeness(self, ug_file, tmp_path, capsys):
        ug_path, lab_path = ug_file
        graph_path = tmp_path / "g.graph"
        assert main(["gadget", "--ug", str(ug_path), "--q", "0.4",
                     "--rho", "-0.3", "--out", str(graph_path)]) == 0
        header = graph_path.read_text().splitlines()
        assert header[0].startswith("# ccmax ")
        assert header[1] == "graph v1"

        capsys.readouterr()
        assert main(["density", "--graph", str(graph_path), "--mode", "exact",
                     "--eps", "0.0", "--r", "0.4", "--rho", "-0.3"]) == 0
        out = capsys.readouterr().out
        assert "min_density=" in out and ("SPARSE" in out or "DENSE" in out)

        assert main(["completeness", "--ug", str(ug_path), "--labeling", str(lab_path),
                     "--q", "0.4", "--rho", "-0.3"]) == 0
        out = capsys.readouterr().out
        assert "ug_value 1" in out
        assert "set_weight 0.4" in out

    def test_readme_gadget_example(self, ug_file, tmp_path, monkeypatch, capsys):
        # every command of the README's command block runs as written, on the
        # README's own instance example and on inst.ug / inst.labeling
        text = README.read_text(encoding="utf-8")
        block = text.split("## Command line")[1].split("```sh\n")[1].split("```")[0]
        commands = [shlex.split(ln) for ln in block.replace("\\\n", " ").splitlines()
                    if ln.startswith("ccmax ")]
        assert [argv[1] for argv in commands] == [
            "gamma", "curves", "curves", "brute", "sdp", "solve",
            "gadget", "density", "density", "completeness", "verify"]
        example = text.split("Instance (`ccmax v1`):")[1].split("```")[1]
        (tmp_path / "instance.ccmax").write_text(example.lstrip("\n"), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv[1:]) == 0, argv

    @pytest.mark.parametrize("text", [
        "graph v1\n",
        "graph v1\nvertex 1 nan\nedge 1 1 1\n",
        "graph v1\nvertex 1 0.5\nvertex 2 0.5\nedge 1 2 inf\n",
    ])
    def test_density_rejects_bad_graph(self, text, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text(text, encoding="utf-8")
        assert main(["density", "--graph", str(path), "--mode", "exact"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("r", ["-1", "1.5", "nan"])
    @pytest.mark.parametrize("mode", ["exact", "search"])
    def test_density_rejects_target_weight_outside_unit_interval(self, r, mode, tmp_path,
                                                                 capsys):
        path = tmp_path / "one.graph"
        path.write_text("graph v1\nvertex 1 1\nedge 1 1 1\n", encoding="utf-8")
        assert main(["density", "--graph", str(path), "--mode", mode, "--r", "0.5", r]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: target weight r must lie in [0, 1]")

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_density_rejects_non_finite_eps(self, eps, tmp_path, capsys):
        path = tmp_path / "one.graph"
        path.write_text("graph v1\nvertex 1 1\nedge 1 1 1\n", encoding="utf-8")
        assert main(["density", "--graph", str(path), "--mode", "exact", "--r", "0.5",
                     "--rho", "-0.5", f"--eps={eps}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --eps must be finite, got {float(eps)!r}\n"

    @pytest.mark.parametrize("command", ["gadget", "completeness"])
    def test_ug_without_edges(self, command, tmp_path, capsys):
        ug_path = tmp_path / "empty.ug"
        ug_path.write_text("ug v1\nleft 1\nright 1\nlabels 2\ndegree 0\n", encoding="utf-8")
        lab_path = tmp_path / "empty.labeling"
        lab_path.write_text("labeling v1\nu 1 1\nv 1 1\n", encoding="utf-8")
        extra = (["--out", str(tmp_path / "g.graph")] if command == "gadget"
                 else ["--labeling", str(lab_path)])
        argv = [command, "--ug", str(ug_path), "--q", "0.4", "--rho", "-0.3"] + extra
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: unique games instance needs at least one edge\n"

    # 306 * 2^14 is just past the bound, where only 4^14 edge entries follow
    @pytest.mark.parametrize("right, labels", [(10**20, 1), (306, 14)])
    def test_gadget_vertex_guard(self, right, labels, tmp_path, capsys):
        # edges reach one right vertex; the gadget would still have one per declared one
        ug_path = tmp_path / "wide.ug"
        perm = " ".join(str(p) for p in range(1, labels + 1))
        ug_path.write_text(f"ug v1\nleft 1\nright {right}\nlabels {labels}\ndegree 1\n"
                           f"e 1 1 {perm}\n", encoding="utf-8")
        graph_path = tmp_path / "wide.graph"
        code = main(["gadget", "--ug", str(ug_path), "--q", "0.4", "--rho", "-0.3",
                     "--out", str(graph_path)])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"warning: {ug_path}: unique games instance is not right-regular; "
                       f"gadget half-incidence invariants will not hold exactly\n"
                       f"refused: refusing to build gadget with {right} * 2^{labels} = "
                       f"{right << labels} vertices (> 5000000)\n")
        assert not graph_path.exists()

    def test_rho_extremal_is_the_left_end_of_kappa(self, ug_file, tmp_path, capsys):
        ug_path, lab_path = ug_file
        q = 0.365
        lo = extremal_rho(q)
        graphs = {}
        for rho in ("extremal", repr(lo)):
            graphs[rho] = tmp_path / f"{rho}.graph"
            assert main(["gadget", "--ug", str(ug_path), "--q", str(q), "--rho", rho,
                         "--out", str(graphs[rho])]) == 0
        header, body = graphs["extremal"].read_text().split("\n", 1)
        assert "--rho=extremal " in header
        assert body == graphs[repr(lo)].read_text().split("\n", 1)[1]
        capsys.readouterr()
        outs = []
        for rho in ("extremal", repr(lo)):
            assert main(["completeness", "--ug", str(ug_path), "--labeling", str(lab_path),
                         "--q", str(q), "--rho", rho]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_numeric_rho_keeps_the_header(self, ug_file, tmp_path):
        graph_path = tmp_path / "g.graph"
        assert main(["gadget", "--ug", str(ug_file[0]), "--q", "0.365", "--rho", "-0.5748",
                     "--out", str(graph_path)]) == 0
        assert graph_path.read_text().splitlines()[0] == (
            f"# ccmax {__version__} | gadget | --command=gadget --q=0.365 --rho=-0.5748 "
            f"--ug={ug_file[0]} | seed=none")

    def test_density_rho_extremal_at_each_r(self, ug_file, tmp_path, capsys):
        graph_path = tmp_path / "g.graph"
        assert main(["gadget", "--ug", str(ug_file[0]), "--q", "0.4", "--rho", "-0.3",
                     "--out", str(graph_path)]) == 0
        rs = [0.25, 0.4, 0.7]
        capsys.readouterr()
        assert main(["density", "--graph", str(graph_path), "--mode", "search", "--eps", "0.01",
                     "--r", *map(str, rs), "--rho", "extremal"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == len(rs)
        for r, row in zip(rs, rows):
            threshold = gamma_rho(extremal_rho(r), r, r) - 0.01
            assert f" threshold={threshold:.12g} " in row

    @pytest.mark.parametrize("r", ["0", "1"])
    def test_density_rho_extremal_needs_r_inside_the_unit_interval(self, r, ug_file, tmp_path,
                                                                   capsys):
        graph_path = tmp_path / "g.graph"
        assert main(["gadget", "--ug", str(ug_file[0]), "--q", "0.4", "--rho", "-0.3",
                     "--out", str(graph_path)]) == 0
        capsys.readouterr()
        assert main(["density", "--graph", str(graph_path), "--mode", "exact",
                     "--r", "0.5", r, "--rho", "extremal"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: q must lie strictly inside (0, 1), got {float(r)!r}\n"

    def test_rho_must_be_a_number_or_extremal(self, ug_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gadget", "--ug", str(ug_file[0]), "--q", "0.4", "--rho", "lowest",
                  "--out", str(tmp_path / "g.graph")])
        assert exc.value.code == 2
        assert "invalid correlation 'lowest'" in capsys.readouterr().err

    def test_density_guard(self, tmp_path, capsys):
        ug, _ = random_ug(1, 1, 5, 1, seed=0)
        ug_path = tmp_path / "b.ug"
        ug_path.write_text(format_ug(ug), encoding="utf-8")
        graph_path = tmp_path / "b.graph"
        assert main(["gadget", "--ug", str(ug_path), "--q", "0.4", "--rho", "-0.3",
                     "--out", str(graph_path)]) == 0
        assert main(["density", "--graph", str(graph_path), "--mode", "exact",
                     "--eps", "0"]) == 3



TWO_LABEL_UG = "ug v1\nleft 1\nright 1\nlabels 2\ndegree 1\ne 1 1 1 2\n"


class TestRefusedInputs:
    @pytest.mark.parametrize("command, text, message", [
        ("brute", "ccmax v1\nproblem cut\nvars 2\ncard 1\nvars 2\nc 1 2 1 x-\n",
         "'vars' given 2 times"),
        ("gadget", "ug v1\nleft 1\nright 1\nleft 1\nlabels 1\ndegree 1\ne 1 1 1\n",
         "'left' given 2 times"),
        ("completeness", "labeling v1\nu 1 1\nu 1 2\nv 1 1\n",
         "'u' ids must be exactly 1..1, each once"),
        ("density", "graph v1\nvertex 1 0.5\nvertex 1 0.25\nedge 1 1 1\n",
         "'vertex' ids must be exactly 1..2, each once"),
        ("density", f"graph v1\nvertex {10**20} 0.5\n",
         "'vertex' ids must be exactly 1..1, each once"),
    ])
    def test_exit_2_with_the_reason(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        ug_path = tmp_path / "two.ug"
        ug_path.write_text(TWO_LABEL_UG, encoding="utf-8")
        argv = {
            "brute": ["brute", "--input", str(path)],
            "gadget": ["gadget", "--ug", str(path), "--q", "0.4", "--rho", "-0.3",
                       "--out", str(tmp_path / "g.graph")],
            "completeness": ["completeness", "--ug", str(ug_path), "--labeling", str(path),
                             "--q", "0.4", "--rho", "-0.3"],
            "density": ["density", "--graph", str(path), "--mode", "exact"],
        }[command]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["sdp", "solve"])
    @pytest.mark.parametrize("n", [200_000, 10**20])
    def test_solver_refuses_what_its_dense_arrays_cannot_hold(self, command, n, tmp_path,
                                                              capsys):
        path = tmp_path / "wide.ccmax"
        path.write_text(f"ccmax v1\nproblem cut\nvars {n}\ncard 1\nc 1 2 1 x-\n",
                        encoding="utf-8")
        assert main([command, "--input", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"refused: relaxation refused: n={n} needs 5 dense")


VERIFY_ROWS = {
    "gamma": ["reflection_identity_grid", "closed_forms_at_unit_rho", "frechet_bounds_random",
              "argument_symmetry_random", "monotone_in_rho", "quantile_round_trip_x",
              "quantile_round_trip_p", "pdf_at_zero"],
    "curves": ["matching_identity_cut", "matching_identity_2sat", "cut_curve_symmetry",
               "flattened_dominates", "flattened_vc_monotone", "ratios_inside_unit_interval",
               "alpha_cut_min_value", "alpha_cut_argmin", "alpha_2sat_min_value",
               "alpha_2sat_argmin"],
    "graph-invariants": ["total_vertex_weight", "total_edge_weight", "half_incidence",
                         "subset_weight_identity", "completeness_set_weight",
                         "completeness_cut_weight"],
    "rounding-stats": ["marginal_mean_zscore", "pair_product_zscore",
                       "per_constraint_ratio_floor"],
}


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", VERIFY_ROWS)
    def test_suite_passes(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[1] for ln in lines] == [f"{suite}.{row}" for row in VERIFY_ROWS[suite]]
        assert all(ln.startswith("PASS ") for ln in lines)
