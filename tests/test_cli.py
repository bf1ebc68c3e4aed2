import ast
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import raytail
from raytail import bench, cli, copulas, estimators, margins
from raytail.errors import DomainError


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    # json.loads that refuses NaN, Infinity and -Infinity, which JSON lacks
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


def test_simulate_deterministic_files(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(
            ["simulate", "--model", "morgenstern", "--alpha", "0", "--n", "3",
             "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text().splitlines()[0] == "x,y"


def test_simulate_rejects_out_of_range_parameter(capsys):
    code, _, err = run_cli(
        ["simulate", "--model", "bvn", "--rho", "1.5", "--n", "3"], capsys
    )
    assert code == 2
    assert "(-1, 1)" in err


def test_simulate_rejects_foreign_parameter(capsys):
    code, _, err = run_cli(
        ["simulate", "--model", "bvn", "--rho", "0.5", "--alpha", "0.3",
         "--n", "3"],
        capsys,
    )
    assert code == 2
    assert "not a parameter" in err


def test_simulate_stdout_mode(capsys):
    code, out, err = run_cli(
        ["simulate", "--model", "morgenstern", "--alpha", "0.5", "--n", "2",
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 3
    assert json.loads(err.splitlines()[0])["config"]["seed"] == 3


@pytest.mark.parametrize(
    "model", [["bvn", "--rho", "0.5"], ["trivariate"]], ids=["bvn", "trivariate"]
)
def test_simulate_prints_the_bytes_it_writes_with_out(tmp_path, model):
    argv = [sys.executable, "-m", "raytail.cli", "simulate", "--model", *model,
            "--n", "50", "--seed", "4"]
    path = tmp_path / "s.csv"
    run = dict(env=_checkout_env(), capture_output=True, check=True)
    subprocess.run([*argv, "--out", str(path)], **run)
    printed = subprocess.run(argv, **run).stdout
    assert printed == path.read_bytes()
    assert printed.count(b"\r\n") == 51


def test_simulate_row_count_and_config_echo(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, stdout, _ = run_cli(
        ["simulate", "--model", "invlog", "--alpha", "0.415", "--n", "5000",
         "--seed", "7", "--out", str(out)],
        capsys,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["config"]["seed"] == 7
    assert doc["config"]["model"] == {"family": "invlog", "alpha": 0.415}
    assert len(out.read_text().splitlines()) == 5001  # header + rows


def test_simulate_trivariate_header(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run_cli(
        ["simulate", "--model", "trivariate", "--n", "4", "--seed", "0",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "x,y,z"


def _usage_exit(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_simulate_rejects_a_seed_numpy_cannot_take(capsys, seed):
    code, err = _usage_exit(
        ["simulate", "--model", "bvn", "--rho", "0.5", "--n", "3", "--seed", seed], capsys
    )
    assert code == 2
    assert "usage:" in err and "--seed" in err


def test_kappa_suite_rejects_a_negative_grid_seed(capsys):
    code, err = _usage_exit(
        ["kappa", "--model", "invlog", "--alpha", "0.5", "--suite", "--grid-seed", "-1"],
        capsys,
    )
    assert code == 2
    assert "usage:" in err and "--grid-seed" in err and "must be >= 0" in err


@pytest.mark.parametrize("method", ["ht", "wt"])
def test_estimate_prob_rejects_a_negative_seed(tmp_path, capsys, method):
    sample_path = tmp_path / "s.csv"
    run_cli(
        ["simulate", "--model", "bvn", "--rho", "0.5", "--n", "2000",
         "--seed", "2", "--out", str(sample_path)],
        capsys,
    )
    code, err = _usage_exit(
        ["estimate", "prob", "--method", method, "--input", str(sample_path),
         "--x", "6.0", "--y", "9.0", "--seed", "-1"],
        capsys,
    )
    assert code == 2
    assert "usage:" in err and "--seed" in err and "must be >= 0" in err


def test_kappa_value(capsys):
    code, stdout, _ = run_cli(
        ["kappa", "--model", "trivariate", "--growth", "1,2,1"], capsys
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["result"]["kappa"] == 3.0
    assert doc["config"]["model"]["family"] == "trivariate"


def test_kappa_at_a_huge_growth_is_strict_json(capsys):
    code, stdout, _ = run_cli(
        ["kappa", "--model", "bvn", "--rho", "0.5", "--growth", "1e200,1e200"], capsys
    )
    assert code == 0
    kappa = strict_json(stdout)["result"]["kappa"]
    assert abs(kappa - 4.0 / 3.0 * 1e200) <= 1e-15 * kappa


def test_kappa_lambda_value(capsys):
    code, stdout, _ = run_cli(
        ["kappa", "--model", "logistic", "--alpha", "0.5", "--omega", "0.3"],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["result"]["lambda"] == 0.7


def test_kappa_suite_report(capsys):
    code, stdout, _ = run_cli(
        ["kappa", "--model", "invlog", "--alpha", "0.5", "--suite",
         "--grid-size", "120", "--grid-seed", "3"],
        capsys,
    )
    assert code == 0
    doc = json.loads(stdout)
    res = doc["result"]
    assert res["family"] == "invlog"
    assert res["grid_seed"] == 3
    names = {p["name"] for p in res["properties"]}
    assert "homogeneity" in names
    assert all(p["pass"] for p in res["properties"])


def test_kappa_requires_a_query(capsys):
    code, _, err = run_cli(["kappa", "--model", "invlog", "--alpha", "0.5"], capsys)
    assert code == 2
    assert "--growth" in err


def test_estimate_lambda_roundtrip(tmp_path, capsys):
    sample_path = tmp_path / "s.csv"
    run_cli(
        ["simulate", "--model", "invlog", "--alpha", "0.415", "--n", "5000",
         "--seed", "4", "--out", str(sample_path)],
        capsys,
    )
    code, stdout, _ = run_cli(
        ["estimate", "lambda", "--input", str(sample_path), "--omega", "0.35",
         "--frac", "0.10"],
        capsys,
    )
    assert code == 0
    res = json.loads(stdout)["result"]
    assert set(res) == {"omega", "lambda_hat", "k", "u", "se"}
    assert res["k"] == 500
    assert 0.4 < res["lambda_hat"] < 1.1


def test_estimate_lambda_boundary_ray_near_unit_rate(tmp_path, capsys):
    sample_path = tmp_path / "s.csv"
    run_cli(
        ["simulate", "--model", "bvn", "--rho", "0.5", "--n", "4000",
         "--seed", "6", "--out", str(sample_path)],
        capsys,
    )
    code, stdout, _ = run_cli(
        ["estimate", "lambda", "--input", str(sample_path), "--omega", "0",
         "--rank-transform"],
        capsys,
    )
    assert code == 0
    res = json.loads(stdout)["result"]
    assert abs(res["lambda_hat"] - 1.0) <= 2.0 * res["se"]


@pytest.mark.parametrize("method", ["wt", "lt", "ht"])
def test_estimate_prob_methods(tmp_path, capsys, method):
    sample_path = tmp_path / "s.csv"
    run_cli(
        ["simulate", "--model", "bvn", "--rho", "0.5", "--n", "5000",
         "--seed", "2", "--out", str(sample_path)],
        capsys,
    )
    code, stdout, _ = run_cli(
        ["estimate", "prob", "--method", method, "--input", str(sample_path),
         "--x", "6.0", "--y", "9.0", "--seed", "5"],
        capsys,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["config"]["seed"] == 5
    assert doc["result"]["method"] == method
    assert 0.0 <= doc["result"]["value"] < 1.0


def _estimate_at(tmp_path, capsys, method, x, y):
    sample_path = tmp_path / "s.csv"
    run_cli(
        ["simulate", "--model", "bvn", "--rho", "0.5", "--n", "2000",
         "--seed", "2", "--out", str(sample_path)],
        capsys,
    )
    return run_cli(
        ["estimate", "prob", "--method", method, "--input", str(sample_path),
         "--x", x, "--y", y],
        capsys,
    )


def _rejected_corner(tmp_path, capsys, method, x, y, code=2):
    got, stdout, err = _estimate_at(tmp_path, capsys, method, x, y)
    assert got == code
    assert stdout == ""
    return err


@pytest.mark.parametrize("method", ["wt", "ht"])
def test_estimate_prob_rejects_the_origin(tmp_path, capsys, method):
    if method == "wt":
        err = _rejected_corner(tmp_path, capsys, method, "0", "0")
        assert "target corner must not be the origin" in err
    else:
        # ht conditions on Y_E > y0, and y0 = 0 lies below its threshold
        err = _rejected_corner(tmp_path, capsys, method, "0", "0", code=3)
        assert "numeric failure" in err and "below the fit threshold" in err


@pytest.mark.parametrize("method", ["wt", "ht"])
def test_estimate_prob_rejects_a_radius_that_overflows(tmp_path, capsys, method):
    if method == "wt":
        err = _rejected_corner(tmp_path, capsys, method, "1e308", "1e308")
        assert "inf" in err
    else:
        # ht has no radius: the corner is far, and its estimate a zero
        code, stdout, _ = _estimate_at(tmp_path, capsys, method, "1e308", "1e308")
        assert code == 0
        result = strict_json(stdout)["result"]
        assert result["value"] == 0.0 and result["is_zero"] is True


BIVARIATE_MODELS = [
    copulas.BivariateNormal(0.5), copulas.InvertedLogistic(0.5), copulas.Morgenstern(0.5),
    copulas.LogisticBEV(0.6), copulas.ClaytonLowerTail(1.2),
]


@pytest.mark.parametrize(
    "corner",
    [(-1.0, 2.0), (float("nan"), 2.0), (float("inf"), 2.0), (1.0, 2.0, 3.0)],
    ids=["negative", "nan", "inf", "wrong-width"],
)
def test_a_bad_corner_raises_a_domain_error(tmp_path, capsys, corner):
    s = copulas.BivariateNormal(0.5).sample(2000, 2)
    calls = [
        lambda: estimators.wt_probability_at(s, corner),
        lambda: estimators.lt_probability(s, corner),
        lambda: estimators.ht_probability(s, corner),
    ]
    calls += [
        lambda m=m: estimators.probabilities(s, [(1.0, 2.0), corner], (m,))
        for m in estimators.METHODS
    ]
    calls += [lambda m=m: m.log_survivor(corner) for m in BIVARIATE_MODELS]
    # the trivariate corner: the bad coordinate and a third one, or two
    tri = copulas.TrivariateMaxPareto()
    tri_corner = corner[:2] if len(corner) == 3 else corner + (1.0,)
    calls += [lambda: tri.survivor(tri_corner), lambda: tri.log_survivor(tri_corner)]
    for call in calls:
        with pytest.raises(DomainError):
            call()
    if len(corner) == 2:
        for method in ("wt", "lt", "ht"):
            _rejected_corner(tmp_path, capsys, method, *(repr(v) for v in corner))


def test_estimate_prob_writes_a_zero_as_strict_json(tmp_path, capsys):
    # the lt corner (30, 40) slides back to about (2.2, 12.2), beyond every
    # point of the sample in y: the base set is empty
    sample_path = tmp_path / "s.csv"
    run_cli(
        ["simulate", "--model", "bvn", "--rho", "0.5", "--n", "2000",
         "--seed", "2", "--out", str(sample_path)],
        capsys,
    )
    code, stdout, _ = run_cli(
        ["estimate", "prob", "--method", "lt", "--input", str(sample_path),
         "--x", "30", "--y", "40"],
        capsys,
    )
    assert code == 0
    result = strict_json(stdout)["result"]
    assert result["is_zero"] is True and result["log_value"] is None
    assert result["value"] == 0.0
    assert list(result)[:4] == ["value", "method", "is_zero", "log_value"]


def test_diagnose_grid(tmp_path, capsys):
    sample_path = tmp_path / "s.csv"
    run_cli(
        ["simulate", "--model", "invlog", "--alpha", "0.415", "--n", "5000",
         "--seed", "9", "--out", str(sample_path)],
        capsys,
    )
    code, stdout, _ = run_cli(
        ["diagnose", "--input", str(sample_path), "--omega", "0.5",
         "--c-grid", "0.2:0.8:0.1"],
        capsys,
    )
    assert code == 0
    res = json.loads(stdout)["result"]
    assert len(res["pairs"]) == 7
    assert res["slope"] < 0.0
    assert "r_squared" in res


@pytest.mark.parametrize(
    "grid", ["nan:1:0.1", "0:1:nan", "0:inf:1", "0:1e300:1e-300"],
    ids=["nan-start", "nan-step", "inf-stop", "inf-step-count"],
)
def test_diagnose_rejects_a_grid_that_is_not_finite(tmp_path, capsys, grid):
    sample_path = tmp_path / "s.csv"
    run_cli(
        ["simulate", "--model", "invlog", "--alpha", "0.5", "--n", "500",
         "--seed", "9", "--out", str(sample_path)],
        capsys,
    )
    code, _, err = run_cli(
        ["diagnose", "--input", str(sample_path), "--omega", "0.5", "--c-grid", grid],
        capsys,
    )
    assert code == 2
    assert "finite" in err and repr(grid) in err


def test_diagnose_caps_the_grid(tmp_path, capsys):
    sample_path = tmp_path / "s.csv"
    run_cli(
        ["simulate", "--model", "invlog", "--alpha", "0.5", "--n", "500",
         "--seed", "9", "--out", str(sample_path)],
        capsys,
    )
    args = ["diagnose", "--input", str(sample_path), "--omega", "0.5", "--c-grid"]
    code, stdout, err = run_cli(args + ["0:20000:1"], capsys)
    assert (code, stdout) == (2, "")
    assert f"at most {cli.MAX_C_GRID} values" in err and "'0:20000:1'" in err
    # the largest grid allowed, with a step and stop exact in binary
    step = 2.0**-14
    code, stdout, _ = run_cli(args + [f"0:{(cli.MAX_C_GRID - 1) * step}:{step}"], capsys)
    assert code == 0
    assert len(json.loads(stdout)["config"]["c_grid"]) == cli.MAX_C_GRID


def test_benchmark_end_to_end(tmp_path, capsys):
    cfg = {
        "model": {"family": "invlog", "alpha": 0.4150374992788438},
        "reps": 3,
        "m": 600,
        "seed_base": 11,
        "omegas": [0.5, 0.25, 0.1],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "tidy.csv"
    code, _, err = run_cli(
        ["benchmark", "--config", str(cfg_path), "--out", str(out_path),
         "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["cells"]) == 9  # 3 rays x 3 methods
    assert doc["config"]["seed_base"] == 11
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "method,omega,metric,value"
    assert len(lines) > 9


def test_benchmark_report_reproducible(tmp_path, capsys):
    cfg = {
        "model": {"family": "morgenstern", "alpha": 0.5},
        "reps": 2,
        "m": 400,
        "methods": ["wt", "lt"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("r1.json", "r2.json"):
        out_path = tmp_path / name
        code, _, _ = run_cli(
            ["benchmark", "--config", str(cfg_path), "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        outs.append(out_path.read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "doc,pointer",
    [
        ({"model": {"family": "nope"}}, "/model/family"),
        ({"model": {"family": "invlog", "alpha": 3.0}}, "/model/alpha"),
        ({"model": {"family": "invlog", "alpha": 0.4}, "omegas": [0.5, 2.0]},
         "/omegas/1"),
        ({"model": {"family": "invlog", "alpha": 0.4}, "reps": "many"}, "/reps"),
        ({"model": {"family": "invlog", "alpha": 0.4}, "bogus": 1}, "/bogus"),
        ({"model": {"family": "bvn", "alpha": 0.4}}, "/model/alpha"),
        ({"model": {"family": "bvn"}}, "/model/rho"),
        ({"model": {"family": "trivariate"}}, "/model:"),
        ({"model": {"family": "invlog", "alpha": 0.4}, "omegas": [0.5, 0.3, 0.5]},
         "/omegas/2"),
    ],
)
def test_benchmark_malformed_config_pointers(tmp_path, capsys, doc, pointer):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    code, _, err = run_cli(["benchmark", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert pointer in err


def test_benchmark_report_is_valid_json_when_a_method_always_fails(tmp_path, capsys):
    # 30 conditioning exceedances < 50: every ht fit fails, so the ht cells
    # have no replications and their proportions are undefined
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"model": {"family": "invlog", "alpha": 0.5}, "reps": 2, "m": 300})
    )
    code, out, _ = run_cli(["benchmark", "--config", str(cfg_path)], capsys)
    assert code == 0
    doc = strict_json(out)
    ht = [c for c in doc["cells"] if c["method"] == "ht"]
    assert ht and all(c["n_reps_used"] == 0 for c in ht)
    assert all(c["prop_exceed"] is None and c["prop_zero"] is None for c in ht)


def test_benchmark_at_a_corner_beyond_the_float_range_exits_3(tmp_path, capsys):
    # the invlog log truth at the diagonal corner (1e308, 1e308) is -inf
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"model": {"family": "invlog", "alpha": 1.0}, "y_corner": 1e308, "reps": 1, "m": 100}
    ))
    code, out, err = run_cli(["benchmark", "--config", str(cfg_path)], capsys)
    assert code == 3 and out == ""
    assert "numeric failure" in err and "is -inf" in err


def test_readme_benchmark_config_example_loads():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text[text.index("Benchmark configuration example"):]
    example = section[section.index("```json") + len("```json"):]
    doc = json.loads(example[: example.index("```")])
    # every field is documented in the example
    assert set(doc) == {f.name for f in dataclasses.fields(bench.BenchmarkConfig)}
    resolved = cli._config_from_json(doc).as_dict()
    assert {k: resolved[k] for k, v in doc.items() if v is not None} == {
        k: v for k, v in doc.items() if v is not None
    }


def test_cli_cold_rejects_fewer_than_two_pairs():
    # its report's quartiles need two runs a side, so the tool refuses one
    # pair before it makes any call
    tool = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "cli_cold.py")
    out = subprocess.run(
        [sys.executable, tool, "--pairs", "1", "parent", "change"], capture_output=True, text=True
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.endswith("error: argument --pairs: must be >= 2, got 1\n")


def test_benchmark_missing_config(tmp_path, capsys):
    path = tmp_path / "none.json"
    code, _, err = run_cli(["benchmark", "--config", str(path)], capsys)
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "lambda", "--input", "{dir}", "--omega", "0.3"],
        ["kappa", "--model", "bvn", "--rho", "0.5", "--omega", "0.3", "--out", "{dir}"],
        ["simulate", "--model", "bvn", "--rho", "0.5", "--n", "10", "--out", "{dir}"],
        ["benchmark", "--config", "{dir}"],
    ],
    ids=["input", "kappa-out", "simulate-out", "config"],
)
def test_a_path_that_cannot_be_opened_is_a_usage_error(tmp_path, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    out = subprocess.run(
        [sys.executable, "-m", "raytail.cli", *argv],
        env=_checkout_env(), capture_output=True, text=True,
    )
    assert out.returncode == cli.EXIT_USAGE, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_an_input_that_does_not_decode_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x,y\n1,2\n\xff,3\n")
    code, out, err = run_cli(
        ["estimate", "lambda", "--input", str(path), "--omega", "0.3"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:3: cannot decode b'\\xff' as ")


def test_estimate_rejects_raw_negative_data(tmp_path, capsys):
    path = tmp_path / "raw.csv"
    path.write_text("x,y\n-1.0,2.0\n0.5,0.1\n")
    code, _, err = run_cli(
        ["estimate", "lambda", "--input", str(path), "--omega", "0.5"], capsys
    )
    assert code == 2
    assert "rank-transform" in err


def test_estimate_numeric_failure_exit_code(tmp_path, capsys):
    # 20 rows at frac 0.10 leave 2 exceedances: below the Hill minimum
    path = tmp_path / "small.csv"
    rows = "\n".join(f"{0.1 * i},{0.2 * i}" for i in range(1, 21))
    path.write_text("x,y\n" + rows + "\n")
    code, _, err = run_cli(
        ["estimate", "lambda", "--input", str(path), "--omega", "0.5"], capsys
    )
    assert code == 3
    assert "exceedances" in err


def _checkout_env(**env_vars):
    """os.environ plus ``env_vars``, for a fresh interpreter that imports
    raytail from this checkout."""
    src = os.path.dirname(os.path.dirname(raytail.__file__))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _modules_after(code, tops=("scipy",), **env_vars):
    """The modules of the packages ``tops`` in sys.modules after ``code``
    runs in a fresh interpreter that imports raytail from this checkout."""
    report = f"\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] in {tops!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code + report],
        env=_checkout_env(**env_vars), capture_output=True, text=True, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_optimize_and_integrate_unloaded():
    # no path of the package loads scipy, so importing the CLI cannot
    assert _modules_after("import raytail.cli") == "[]"


def test_study_and_ht_estimate_leave_optimize_and_integrate_unloaded(tmp_path):
    # the ht refinement, the bvn sampler and the bvn truth run on numpy
    # alone; each run is a fresh interpreter, so nothing loaded here counts
    path = tmp_path / "s.csv"
    simulate = (
        "from raytail import cli\n"
        "code = cli.main(['simulate', '--model', 'bvn', '--rho', '0.5', '--n', '3000',"
        f" '--out', {str(path)!r}])\n"
        "assert code == 0, code\n"
    )
    assert _modules_after(simulate) == "[]"
    study = (
        "from raytail import bench, copulas\n"
        "cfg = bench.BenchmarkConfig(copulas.BivariateNormal(0.5), reps=2, m=2000,"
        " methods=('wt', 'lt', 'ht'))\n"
        "report = bench.run_benchmark(cfg)\n"
        "assert all(n == 0 for n in report.n_failures.values()), report.n_failures\n"
    )
    survivor = (
        "from raytail import copulas\n"
        "assert copulas.BivariateNormal(0.5).log_survivor((1e-6, 3.0)) < 0.0\n"
    )
    estimate = (
        "from raytail import cli\n"
        f"code = cli.main(['estimate', 'prob', '--method', 'ht', '--input', {str(path)!r},"
        " '--x', '3', '--y', '7'])\n"
        "assert code == 0, code\n"
    )
    for code in (study, survivor, estimate):
        assert _modules_after(code, RAYTAIL_THREADS="1") == "[]"
    # the study again on two processes: the caller and one worker
    assert _modules_after(study, RAYTAIL_THREADS="2") == "[]"


def test_a_bvn_truth_and_a_pooled_study_load_no_numpy_polynomial():
    # the bvn quadrature's Gauss-Legendre rules are literals, so no truth
    # builds them with numpy.polynomial.legendre.leggauss; numpy 1.x loads
    # numpy.polynomial in its own import, so only modules beyond a bare
    # "import numpy" count
    def polynomial(code, **env):
        loaded = ast.literal_eval(_modules_after(code, ("numpy",), **env))
        return loaded, {m for m in loaded if m.startswith("numpy.polynomial")}

    _, baseline = polynomial("import numpy\n")
    survivor = (
        "from raytail import copulas\n"
        "assert copulas.BivariateNormal(0.5).log_survivor((1e-6, 3.0)) < 0.0\n"
    )
    study = (
        "from raytail import bench, copulas\n"
        "cfg = bench.BenchmarkConfig(copulas.BivariateNormal(0.5), reps=2, m=2000)\n"
        "bench.run_benchmark(cfg)\n"
    )
    for code, env in ((survivor, {}), (study, {"RAYTAIL_THREADS": "2"})):
        loaded, added = polynomial(code, **env)
        assert "numpy.linalg" in loaded
        assert added - baseline == set()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "--model", "invlog", "--alpha", "0.5", "--omega", "0.3"],
        ["estimate", "prob", "--method", "wt", "--input", "{csv}", "--x", "3", "--y", "7"],
        ["simulate", "--model", "bvn", "--rho", "0.5", "--n", "100"],
    ],
    ids=["kappa", "estimate", "simulate"],
)
def test_a_closed_stdout_ends_the_cli_quietly(tmp_path, argv, unbuffered):
    # the read end is closed before the CLI starts, so its first write meets
    # a closed pipe: in print when unbuffered, else in the flush after it
    path = tmp_path / "s.csv"
    sample = copulas.BivariateNormal(0.5).sample(3000, 0)
    margins.write_csv(path, sample.points, ("x", "y"))
    argv = [a.format(csv=path) for a in argv]
    env = _checkout_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "raytail.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in out.stderr
    assert "Exception ignored" not in out.stderr
    assert out.returncode == cli.EXIT_PIPE, out.stderr


def test_a_broken_pipe_on_an_output_file_is_not_taken_for_a_closed_stdout(
    tmp_path, monkeypatch
):
    # only a closed stdout ends the CLI quietly; a reader gone from --out
    # (a FIFO, say) is a failure that reaches the caller
    def broken(*_args, **_kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(margins, "write_csv", broken)
    argv = ["simulate", "--model", "bvn", "--rho", "0.5", "--n", "100"]
    with pytest.raises(BrokenPipeError):
        cli.main([*argv, "--out", str(tmp_path / "s.csv")])


def test_cli_import_and_a_pooled_study_load_no_executor():
    # the pool forks on os.pipe; concurrent.futures is imported only to
    # raise BrokenProcessPool for a dead worker
    tops = ("concurrent", "multiprocessing")
    assert _modules_after("import raytail.cli", tops) == "[]"
    study = (
        "from raytail import bench, copulas\n"
        "cfg = bench.BenchmarkConfig(copulas.InvertedLogistic(0.5), reps=3, m=300)\n"
        "bench.run_benchmark(cfg)\n"
    )
    assert _modules_after(study, tops, RAYTAIL_THREADS="3") == "[]"


def test_cli_import_leaves_bench_and_kappa_unloaded(tmp_path):
    # no estimate call runs a study or the property suite; the subcommands
    # that do import their modules themselves
    loaded = ast.literal_eval(_modules_after("import raytail.cli", ("raytail",)))
    assert "raytail.margins" in loaded
    assert not {"raytail.bench", "raytail.kappa"} & set(loaded)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model": {"family": "invlog", "alpha": 0.5}}))
    for argv, module in (
        (["kappa", "--model", "invlog", "--alpha", "0.5", "--suite"], "raytail.kappa"),
        (["benchmark", "--quick", "--config", str(config)], "raytail.bench"),
    ):
        code = f"from raytail import cli\nassert cli.main({argv!r}) == 0\n"
        assert module in ast.literal_eval(_modules_after(code, ("raytail",)))
