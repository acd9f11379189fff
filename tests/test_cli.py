import hashlib
import json

import numpy as np
import pytest

from basingen import load_class
from basingen.cli import main


@pytest.fixture(scope="module")
def cli_notebook(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "class_d.json"
    assert main(["gen", "--type", "d", "--out", str(path)]) == 0
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# check


def test_check_defaults_ok(capsys):
    code, out, err = run(capsys, ["check", "--dim", "2", "--minima", "10"])
    assert code == 0
    assert "ok" in out


def test_check_bad_radius(capsys):
    code, out, err = run(capsys, ["check", "--global-radius", "0.4"])
    assert code == 1
    assert "GlobalRadiusError" in err
    assert "half the global-minimizer distance" in err


def test_check_bad_dim(capsys):
    code, out, err = run(capsys, ["check", "--dim", "1"])
    assert code == 1
    assert "DimError" in err


def test_check_multiple_violations(capsys):
    code, out, err = run(
        capsys, ["check", "--global-value", "1.0", "--global-dist", "5.0"]
    )
    assert code == 1
    assert "GlobalMinValueError" in err
    assert "GlobalDistError" in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["check", "--bogus", "1"]) == 2


def test_unparsable_vector_is_usage_error(capsys):
    code, out, err = run(capsys, ["check", "--domain-left", "a,b"])
    assert code == 2


# --------------------------------------------------------------------------
# gen


def test_gen_writes_notebook_and_summary(cli_notebook, capsys):
    assert cli_notebook.exists()
    assert cli_notebook.with_suffix(".txt").exists()
    document = json.loads(cli_notebook.read_text())
    assert len(document["functions"]) == 100


def test_gen_prints_global_minimizers(tmp_path, capsys):
    path = tmp_path / "nb.json"
    code, out, err = run(capsys, ["gen", "--type", "d", "--out", str(path)])
    assert code == 0
    assert out.count("global minimizer") >= 100


def test_gen_is_byte_identical(tmp_path, cli_notebook, capsys):
    again = tmp_path / "again.json"
    assert main(["gen", "--type", "d", "--out", str(again)]) == 0
    assert again.read_bytes() == cli_notebook.read_bytes()


# sha256 of `gen --type d --out c.json`'s notebook, summary and stdout; they
# rest on the platform assumption of test_generator's PINNED_FIELD_DIGESTS
PINNED_GEN_DIGESTS = {
    "c.json": "8cf86512e33d3269d89af9929d12ca481df02e9d341fe90a4d563e1b7f7e3b0b",
    "c.txt": "541cc9f87cd1cd6f20192b6961be1288ce8f17fbfd2cd9cb0742c5fd7d864bef",
    "stdout": "c4bf7fb031eadea9f029c1b0a0eba7df72e06a3d72290b3484ce9af59318f5d0",
}


def test_gen_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["gen", "--type", "d", "--out", "c.json"])
    assert code == 0
    data = {name: (tmp_path / name).read_bytes() for name in ("c.json", "c.txt")}
    data["stdout"] = out.encode()
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()}
    assert digests == PINNED_GEN_DIGESTS


def test_gen_rejects_bad_params(tmp_path, capsys):
    path = tmp_path / "never.json"
    for flags, code_name in (
        (["--global-radius", "0.4"], "GlobalRadiusError"),
        (["--delta-max", "-1"], "TuningError"),
    ):
        code, out, err = run(capsys, ["gen", "--type", "d", *flags, "--out", str(path)])
        assert code == 1
        assert code_name in err
        assert not path.exists()
        assert not path.with_suffix(".txt").exists()


def test_gen_d2_deltas_in_range(tmp_path, capsys):
    path = tmp_path / "d2.json"
    assert main(["gen", "--type", "d2", "--out", str(path)]) == 0
    document = json.loads(path.read_text())
    assert all(0.0 < e["delta"] < 10.0 for e in document["functions"])


# --------------------------------------------------------------------------
# eval


def test_eval_at_stored_global_minimizer(cli_notebook, capsys):
    loaded = load_class(cli_notebook)
    func = loaded.functions[8]
    point = ",".join(repr(float(v)) for v in func.global_minimizer)
    code, out, err = run(
        capsys,
        ["eval", "--notebook", str(cli_notebook), "--nf", "9", "--point=" + point],
    )
    assert code == 0
    assert float(out.strip()) == -1.0


def test_eval_out_of_domain_prints_sentinel(cli_notebook, capsys):
    for point in ("2.0,0.0", "nan,0"):
        code, out, err = run(
            capsys,
            ["eval", "--notebook", str(cli_notebook), "--nf", "1", "--point", point],
        )
        assert code == 1
        assert float(out.strip()) == 1e100


def test_eval_gradient_at_minimizer_is_zero(cli_notebook, capsys):
    loaded = load_class(cli_notebook)
    func = loaded.functions[0]
    point = ",".join(repr(float(v)) for v in func.minima.local_min[4])
    code, out, err = run(
        capsys,
        [
            "eval", "--notebook", str(cli_notebook), "--nf", "1",
            "--point=" + point, "--grad",
        ],
    )
    assert code == 0
    values = [float(v) for v in out.strip().split(",")]
    assert np.max(np.abs(values)) <= 1e-12


def test_eval_hessian_requires_d2(cli_notebook, capsys):
    code, out, err = run(
        capsys,
        [
            "eval", "--notebook", str(cli_notebook), "--nf", "1",
            "--point", "0.0,0.0", "--type", "d", "--hess",
        ],
    )
    assert code == 2


def test_eval_grad_unavailable_for_nd(cli_notebook, capsys):
    code, out, err = run(
        capsys,
        [
            "eval", "--notebook", str(cli_notebook), "--nf", "1",
            "--point", "0.0,0.0", "--type", "nd", "--grad",
        ],
    )
    assert code == 2


def test_eval_hessian_output(cli_notebook, capsys):
    code, out, err = run(
        capsys,
        [
            "eval", "--notebook", str(cli_notebook), "--nf", "9",
            "--point", "0.9,0.9", "--type", "d2", "--hess",
        ],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 2 and all(len(r) == 2 for r in rows)


def test_eval_bad_nf(cli_notebook, tmp_path, capsys):
    for argv in (
        ["eval", "--notebook", str(cli_notebook), "--nf", "0", "--point", "0,0"],
        ["grid", "--notebook", str(cli_notebook), "--nf", "101", "--out", str(tmp_path / "g.csv")],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert "FuncNumberError" in err
    assert not (tmp_path / "g.csv").exists()


def test_eval_wrong_point_length(cli_notebook, capsys):
    code, out, err = run(
        capsys,
        ["eval", "--notebook", str(cli_notebook), "--nf", "1", "--point", "0,0,0"],
    )
    assert code == 2


def test_eval_missing_notebook(tmp_path, capsys):
    code, out, err = run(
        capsys,
        ["eval", "--notebook", str(tmp_path / "no.json"), "--nf", "1", "--point", "0,0"],
    )
    assert code == 1
    assert "notebook error" in err


def test_eval_malformed_notebook_is_notebook_error(cli_notebook, tmp_path, capsys):
    document = json.loads(cli_notebook.read_text())
    document["functions"][4]["minimizers"][0]["coords"][0] = "a"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    code, out, err = run(
        capsys, ["eval", "--notebook", str(bad), "--nf", "5", "--point=0,0"]
    )
    assert code == 1
    assert "notebook error" in err
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# grid


def test_grid_default_resolution(cli_notebook, tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, err = run(
        capsys,
        ["grid", "--notebook", str(cli_notebook), "--nf", "9", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x1,x2,f"
    assert len(lines) == 101 * 101 + 1


def test_grid_rejects_non_2d(tmp_path, capsys):
    path = tmp_path / "nb3.json"
    assert main(["gen", "--dim", "3", "--type", "d", "--out", str(path)]) == 0
    code, out, err = run(
        capsys,
        ["grid", "--notebook", str(path), "--nf", "1", "--out", str(tmp_path / "g.csv")],
    )
    assert code == 1
    assert "DimError" in err


# --------------------------------------------------------------------------
# bench


def test_bench_oracle(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run(
        capsys,
        [
            "bench", "--type", "d", "--solver", "oracle",
            "--budget", "10", "--out", str(out_path),
        ],
    )
    assert code == 0
    assert "100/100" in out
    data = json.loads(out_path.read_text())
    assert data["success_count"] == 100
    assert out_path.with_suffix(".csv").exists()


def test_bench_random_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["bench", "--type", "d", "--solver", "random", "--budget", "150", "--seed", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert all(o["evaluations"] <= 150 for o in data["outcomes"])


def test_bench_unknown_solver_is_usage_error(tmp_path):
    assert (
        main(
            [
                "bench", "--type", "d", "--solver", "annealing",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        == 2
    )


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_bench_rejects_non_positive_budget(tmp_path, capsys, budget):
    out_path = tmp_path / "r.json"
    code, out, err = run(
        capsys,
        [
            "bench", "--type", "nd", "--solver", "random",
            "--budget", budget, "--out", str(out_path),
        ],
    )
    assert code == 2
    assert "--budget" in err
    assert "Traceback" not in err
    assert not out_path.exists()
    assert not out_path.with_suffix(".csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "--notebook", "{notebook}", "--nf", "1", "--res", "1"],
        ["grid", "--notebook", "{notebook}", "--nf", "1", "--res", "0"],
        ["bench", "--type", "nd", "--solver", "random", "--seed", "-1"],
    ],
    ids=["res=1", "res=0", "seed=-1"],
)
def test_out_of_range_integer_flag_is_usage_error(cli_notebook, tmp_path, capsys, argv):
    out_path = tmp_path / "out.json"
    argv = [arg.format(notebook=cli_notebook) for arg in argv] + ["--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "must be at least" in err
    assert "Traceback" not in err
    assert not out_path.exists()
    assert not out_path.with_suffix(".csv").exists()
