"""End-to-end tests of the command line interface."""

from __future__ import annotations

import shlex
from pathlib import Path

import numpy as np
import pytest

from ccmax.cli import main
from ccmax.gadget import format_ug, random_ug
from ccmax.instance import CCInstance, Constraint, Xor, format_instance

README = Path(__file__).resolve().parents[1] / "README.md"


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
            "gadget", "density", "completeness", "verify"]
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

    def test_density_guard(self, tmp_path, capsys):
        ug, _ = random_ug(1, 1, 5, 1, seed=0)
        ug_path = tmp_path / "b.ug"
        ug_path.write_text(format_ug(ug), encoding="utf-8")
        graph_path = tmp_path / "b.graph"
        assert main(["gadget", "--ug", str(ug_path), "--q", "0.4", "--rho", "-0.3",
                     "--out", str(graph_path)]) == 0
        assert main(["density", "--graph", str(graph_path), "--mode", "exact",
                     "--eps", "0"]) == 3


class TestVerifyCommand:
    def test_gamma_suite_passes(self, capsys):
        assert main(["verify", "--suite", "gamma", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS gamma.reflection_identity_grid" in out
        assert "FAIL" not in out
