import functools
import hashlib
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from basingen import load_class
from basingen.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


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
    # the default box is capped, so a huge dim allocates nothing; the box,
    # which the user never gave, is not judged against the bad dim
    for dim in ("0", "1", "200", "2000000000000000000"):
        code, out, err = run(capsys, ["check", "--dim", dim])
        assert code == 1
        assert err == f"DimError: dimension must be an integer in [2, 100], got {dim}\n"


@pytest.mark.parametrize(
    "flags",
    [["--domain-left=1,1"], ["--dim", "3", "--domain-left=-1,-1"], ["--domain-left=-inf,-inf"]],
)
def test_check_bad_box_is_reported_alone(capsys, flags):
    # the default distance, radius and gap come from the default box, not
    # from the box check rejects
    code, out, err = run(capsys, ["check", *flags])
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("BoundaryError: ")


@pytest.mark.parametrize(
    "flags, error",
    [
        # a distance no radius fits is not reported again through the radius
        (["--global-dist", "0"], "GlobalDistError"),
        (["--global-dist", "nan"], "GlobalDistError"),
        (["--global-dist", "-1"], "GlobalDistError"),
        (["--domain-left=1,1", "--global-dist", "0"], "BoundaryError"),
        # the gap the user never gave is not reported
        (["--global-radius", "nan"], "GlobalRadiusError"),
        (["--global-radius", "inf"], "GlobalRadiusError"),
        (["--global-radius", "-1"], "GlobalRadiusError"),
    ],
)
def test_check_reports_a_bad_value_once(capsys, flags, error):
    code, out, err = run(capsys, ["check", *flags])
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{error}: ")


def test_check_default_radius_fits_a_given_distance(capsys):
    code, out, err = run(capsys, ["check", "--global-dist", "0.5"])
    assert (code, out, err) == (0, "ok\n", "")


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
    # the default gap is the global radius; a gap of 0 lies below it
    for flags, gap in (([], 1.0 / 3.0), (["--gap", "0"], 0.0)):
        code, out, err = run(capsys, ["gen", "--type", "d", *flags, "--out", str(path)])
        assert code == 0
        assert out.count("global minimizer") >= 100
        assert json.loads(path.read_text())["class_params"]["gap"] == gap


def test_gen_defaults_come_from_the_given_box(tmp_path, capsys):
    box = ["--domain-left=0,0", "--domain-right=3,6", "--type", "d"]
    derived, stated = tmp_path / "derived.json", tmp_path / "stated.json"
    assert main(["gen", *box, "--out", str(derived)]) == 0
    assert main(["gen", *box, "--global-dist", "1.0", "--global-radius", "0.5",
                 "--out", str(stated)]) == 0
    capsys.readouterr()
    for suffix in (".json", ".txt"):
        assert derived.with_suffix(suffix).read_bytes() == stated.with_suffix(suffix).read_bytes()


# sha256 of `gen --type d --out c.json`'s notebook, summary and stdout; they
# rest on the platform assumption of test_generator's CLASS_DIGESTS
PINNED_GEN_DIGESTS = {
    "c.json": "7b827c41c2d56b3759b81c071fefb669f047100392e51a65c6c94be1a5a61c7e",
    "c.txt": "541cc9f87cd1cd6f20192b6961be1288ce8f17fbfd2cd9cb0742c5fd7d864bef",
    "stdout": "c4bf7fb031eadea9f029c1b0a0eba7df72e06a3d72290b3484ce9af59318f5d0",
}


@pytest.mark.skylakex
def test_gen_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["gen", "--type", "d", "--out", "c.json"])
    assert code == 0
    data = {name: (tmp_path / name).read_bytes() for name in ("c.json", "c.txt")}
    data["stdout"] = out.encode()
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()}
    assert digests == PINNED_GEN_DIGESTS


@pytest.mark.parametrize("module", ["basingen", "basingen.cli"])
def test_module_form_runs_the_cli(tmp_path, module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def gen(*flags, out):
        argv = [sys.executable, "-m", module, "gen", "--type", "d", *flags, "--out", out]
        return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)

    done = gen(out="c.json")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("wrote c.json (100 functions) and c.txt")
    assert (tmp_path / "c.json").exists() and (tmp_path / "c.txt").exists()
    # main's return code is the process's exit status
    done = gen("--delta-max", "-1", out="x.json")
    assert done.returncode == 1
    assert "TuningError" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "x.json").exists()


def test_gen_rejects_bad_params(tmp_path, capsys):
    path = tmp_path / "never.json"
    for flags, code_name in (
        (["--global-radius", "0.4"], "GlobalRadiusError"),
        (["--delta-max", "-1"], "TuningError"),
        # magnitudes whose basin depths are lost in rounding
        (["--paraboloid-min", "1e16"], "GlobalMinValueError"),
        (["--domain-left=-1e16,-1e16", "--domain-right=1e16,1e16"], "BoundaryError"),
        # magnitudes that overflow double precision, refused by check
        (
            ["--domain-left=-1e160,-1e160", "--domain-right=1e160,1e160",
             "--global-dist", "6e159", "--global-radius", "3e159"],
            "BoundaryError",
        ),
        (["--global-radius", "1e-70", "--gap", "0.3"], "GlobalRadiusError"),
    ):
        code, out, err = run(capsys, ["gen", "--type", "d", *flags, "--out", str(path)])
        assert code == 1
        assert code_name in err
        assert "Traceback" not in err
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
    # the evaluator owns the point rule: a point of the wrong length lies
    # outside the box, for the value, the gradient and the Hessian
    base = ["eval", "--notebook", str(cli_notebook), "--nf", "1", "--point", "0,0,0"]
    for extra in ([], ["--grad"], ["--type", "d2", "--hess"]):
        code, out, err = run(capsys, base + extra)
        assert code == 1
        assert out.startswith("1e+100")
        assert "expected a point of length 2" in err and "Traceback" not in err


def test_eval_missing_notebook(tmp_path, capsys):
    code, out, err = run(
        capsys,
        ["eval", "--notebook", str(tmp_path / "no.json"), "--nf", "1", "--point", "0,0"],
    )
    assert code == 1
    assert "notebook error" in err


def test_eval_malformed_notebook_is_notebook_error(cli_notebook, tmp_path, capsys):
    unmarked = json.loads(cli_notebook.read_text())
    del unmarked["schema"]
    cases = [(unmarked, "schema")]
    for keys, value, where in (
        (("functions", 4, "coords", 0, 0), "a", "functions[4].coords"),
        (("functions", 4, "coords", 0, 0), float("nan"), "functions[4]"),
        (("functions", 4, "rho", 1), 0.2, "functions[4]"),
        (
            ("class_params", "global_radius"),
            0.2,
            "class_params.global_radius disagrees with every function: "
            "global attraction radius 0.3333333333333333 != class radius 0.2",
        ),
        (("class_params", "global_value"), -2.0, "class_params.global_value"),
        (("class_params", "paraboloid_min"), 0.5, "class_params.paraboloid_min"),
    ):
        v2 = json.loads(cli_notebook.read_text())
        *parents, last = keys
        functools.reduce(operator.getitem, parents, v2)[last] = value
        cases.append((v2, where))
    for document, where in cases:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        code, out, err = run(
            capsys, ["eval", "--notebook", str(bad), "--nf", "5", "--point=0,0"]
        )
        assert code == 1
        assert err.count("notebook error:") == 1 and where in err
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
    # a report named .csv keeps its JSON; the CSV goes to r.csv.summary.csv
    for name, companion in (("report.json", "report.csv"), ("r.csv", "r.csv.summary.csv")):
        out_path = tmp_path / name
        code, out, err = run(
            capsys,
            [
                "bench", "--type", "d", "--solver", "oracle",
                "--budget", "10", "--out", str(out_path),
            ],
        )
        assert code == 0
        assert "100/100" in out and f"report in {out_path}" in out
        data = json.loads(out_path.read_text())
        assert data["success_count"] == 100
        assert (tmp_path / companion).read_text().startswith("nf,")


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
        ["grid", "--notebook", "{notebook}", "--nf", "1", "--res", "2049"],
        ["bench", "--type", "nd", "--solver", "random", "--seed", "-1"],
    ],
    ids=["res=1", "res=0", "res=2049", "seed=-1"],
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


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_too_many_minima_is_a_num_minima_error(tmp_path, capsys, command):
    # 10**17 minimizers: `check` refuses them before their table (1.39 EiB)
    # is allocated
    out_path = tmp_path / "out.json"
    argv = [command, "--type", "d", "--minima", "100000000000000000", "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("NumMinimaError: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out_path.exists()
    assert not out_path.with_suffix(".csv").exists()


@pytest.mark.parametrize(
    "command, step", [("gen", "export_class"), ("bench", "run_solver")], ids=["gen", "bench"]
)
def test_class_too_large_for_memory_is_a_memory_error(tmp_path, capsys, monkeypatch, command, step):
    def no_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the minimizer table")

    monkeypatch.setattr(f"basingen.cli.{step}", no_memory)
    code, out, err = run(capsys, [command, "--type", "d", "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert err == "memory error: cannot allocate the minimizer table\n"
