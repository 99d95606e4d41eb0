import contextlib
import copy
import csv
import dataclasses
import gzip
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import gsmf
from gsmf import diagnostics
from gsmf.cli import (SECTIONS, TRACE_HEADER, build_recipe, build_spec, load_config,
                      main)
from gsmf.data import DatasetRecipe, MatrixFileError, gen_data, load_matrix, save_matrix
from gsmf.objective import RelaxationParams, snmf_spec
from gsmf.operators import FullVectorization, random_symmetric_omega
from gsmf.regularizers import KINDS, L1, NonnegIndicator, NonnegPlusL1, Zero


def base_config(**overrides):
    cfg = {
        "dataset": {"source": "synthetic", "n": 20, "m": 3, "seed": 7,
                    "noise_t": 0.0},
        "problem": {"rank": 3, "lambda": 1.0,
                    "psi": {"kind": "nonneg"}, "phi": {"kind": "nonneg"}},
        "relaxation": {"alpha": 0.6},
        "solver": {"tol": 1e-14, "max_iters": 10000, "seed": 0},
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg.setdefault(section, {})[field] = value
        else:
            cfg[section] = value
    return cfg


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# --------------------------------------------------------------------------
# dataset recipe
# --------------------------------------------------------------------------


def test_gen_data_normalization_peak_is_one():
    M = gen_data(DatasetRecipe(source="synthetic", n=15, m=4, seed=3, noise_t=0.0))
    assert M.shape == (15, 15)
    assert M.max() == 1.0
    assert np.all(M >= 0.0)


def test_gen_data_identity_factor_file(tmp_path):
    path = tmp_path / "N.csv"
    save_matrix(path, np.eye(4))
    M = gen_data(DatasetRecipe(source="file", path=str(path), noise_t=0.0))
    assert np.array_equal(M, np.eye(4))


def test_gen_data_deterministic_with_noise():
    recipe = DatasetRecipe(source="synthetic", n=10, m=3, seed=11, noise_t=0.01)
    M1 = gen_data(recipe)
    M2 = gen_data(recipe)
    assert np.array_equal(M1, M2)
    base = gen_data(DatasetRecipe(source="synthetic", n=10, m=3, seed=11,
                                  noise_t=0.0))
    assert np.all(M1 >= base - 1e-15)  # noise is nonnegative


def test_gen_data_symmetrize_noise_flag():
    recipe = DatasetRecipe(source="synthetic", n=8, m=3, seed=5, noise_t=0.05,
                           symmetrize_noise=True)
    M = gen_data(recipe)
    assert np.allclose(M, M.T, atol=1e-15)


def _gen_data_out_of_place(recipe):
    """The recipe as one expression per step, each into a new array."""
    rng = np.random.default_rng(recipe.seed)
    if recipe.source == "synthetic":
        N = rng.uniform(size=(recipe.m, recipe.n))
    else:
        N = load_matrix(recipe.path)
    M = N.T @ N
    if recipe.normalize:
        M = M / M.max()
    if recipe.noise_t > 0:
        noise = recipe.noise_t * np.abs(rng.standard_normal(M.shape))
        if recipe.symmetrize_noise:
            noise = 0.5 * (noise + noise.T)
        M = M + noise
    return M


def _assert_same_matrix(M, expected):
    assert M.dtype == expected.dtype
    assert M.flags.f_contiguous  # so the full map's b is a view of M
    assert np.array_equal(M, expected)


# the noise comes in blocks of 2**14 // n rows: one block up to n = 128, two
# at 129, five at 259 (the last of 7 rows) and sixteen whole ones at 512
@pytest.mark.parametrize("n", [1, 7, 127, 128, 129, 259, 512])
@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("noise_t", [0.03, 0.0])
def test_gen_data_matches_the_out_of_place_recipe(n, symmetrize, normalize, noise_t):
    recipe = DatasetRecipe(source="synthetic", n=n, m=4, seed=n, noise_t=noise_t,
                           normalize=normalize, symmetrize_noise=symmetrize)
    M = gen_data(recipe)
    _assert_same_matrix(M, _gen_data_out_of_place(recipe))
    if symmetrize:
        assert np.array_equal(M, M.T)


def test_gen_data_from_file_matches_the_out_of_place_recipe(tmp_path):
    path = tmp_path / "N.csv"
    save_matrix(path, np.random.default_rng(4).uniform(size=(5, 137)))
    recipe = DatasetRecipe(source="file", path=str(path), seed=4, noise_t=0.02,
                           symmetrize_noise=True)
    _assert_same_matrix(gen_data(recipe), _gen_data_out_of_place(recipe))


def _peak_arrays(fn, n):
    """The peak of the memory ``fn()`` allocates, in n-by-n float64 arrays."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


@pytest.mark.parametrize("symmetrize", [True, False])
def test_gen_data_holds_only_m(symmetrize):
    n = 600
    recipe = DatasetRecipe(source="synthetic", n=n, m=10, seed=1, noise_t=0.01,
                           symmetrize_noise=symmetrize)
    arrays = _peak_arrays(lambda: gen_data(recipe), n)
    assert arrays < 1.2, f"gen_data peaked at {arrays:.2f} n-by-n arrays"


def _spec_config(tmp_path, n, kind):
    """A loaded config for an n-by-n problem on the full or the sampling map."""
    cfg = base_config(**{"dataset.n": n, "dataset.m": 10, "dataset.seed": 1,
                         "dataset.noise_t": 0.01,
                         "dataset.symmetrize_noise": True})
    if kind == "sampling":
        omega = random_symmetric_omega(n, 0.01, np.random.default_rng(1))
        omega_path = tmp_path / "omega.csv"
        np.savetxt(omega_path, omega, fmt="%d", delimiter=",")
        cfg["problem"]["map"] = {"kind": "sampling", "omega_csv": str(omega_path)}
    return load_config(write_config(tmp_path, cfg))


@pytest.mark.parametrize("kind", ["snmf_spec", "full", "sampling"])
def test_set_up_holds_only_m(tmp_path, kind):
    n = 600
    cfg = _spec_config(tmp_path, n, "sampling" if kind == "sampling" else "full")

    def set_up():
        M = gen_data(build_recipe(cfg))
        return snmf_spec(M, 3, 1.0) if kind == "snmf_spec" else build_spec(cfg, M)

    set_up()  # so the peak leaves out the first import of what set-up loads
    arrays = _peak_arrays(set_up, n)
    assert arrays < 1.2, f"set-up peaked at {arrays:.2f} n-by-n arrays"


def test_full_map_b_is_a_view_of_m(tmp_path):
    cfg = _spec_config(tmp_path, 40, "full")
    M = gen_data(build_recipe(cfg))
    assert np.shares_memory(snmf_spec(M, 3, 1.0).b, M)
    assert np.shares_memory(build_spec(cfg, M).b, M)


@pytest.mark.parametrize("name", ["a.csv", "a.mtx", "a.mm", "a.mtx.gz"])
def test_matrix_roundtrip_csv_and_mtx(tmp_path, name):
    rng = np.random.default_rng(0)
    A = rng.uniform(size=(5, 3))
    path = tmp_path / name
    save_matrix(path, A)
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]  # exactly that path
    back = load_matrix(path)
    assert np.allclose(back, A, rtol=0, atol=1e-12)


@pytest.mark.parametrize("content", [
    b"not gzip\n",
    gzip.compress(b"%%MatrixMarket", mtime=0)[:-4],  # cut inside its trailer
], ids=["plain-text", "truncated"])
def test_load_matrix_names_a_gz_file_that_is_not_gzip(tmp_path, content):
    path = tmp_path / "bad.mtx.gz"
    path.write_bytes(content)
    with pytest.raises(MatrixFileError) as exc:
        load_matrix(path)
    assert str(exc.value).startswith(f"{path}: ")


# files with no entries: no data lines, or a Matrix Market header of size 0
_EMPTY_FILES = {
    "empty.csv": "",
    "blank.csv": "\n  \n\n",
    "empty.mtx": "%%MatrixMarket matrix array real general\n0 0\n",
}


def _python(cwd, *args):
    """Run ``python *args`` on this checkout's gsmf in a fresh interpreter:
    a crash there fails one test instead of killing the test process."""
    env = dict(os.environ)
    src = str(Path(gsmf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(_EMPTY_FILES))
def test_load_matrix_names_a_file_with_no_entries(tmp_path, name):
    (tmp_path / name).write_text(_EMPTY_FILES[name])
    proc = _python(tmp_path, "-c", (
        "from gsmf.data import MatrixFileError, load_matrix\n"
        "try:\n"
        f"    load_matrix({name!r})\n"
        "except MatrixFileError as exc:\n"
        "    print(exc)\n"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"{name}: the file holds no entries\n", "")


def test_load_matrix_reads_a_coordinate_file_with_no_entries_as_zeros(tmp_path):
    path = tmp_path / "zero.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
    assert np.array_equal(load_matrix(path), np.zeros((3, 3)))


@pytest.mark.parametrize("name", sorted(_EMPTY_FILES))
@pytest.mark.parametrize("field", ["dataset.path", "problem.map.omega_csv"])
def test_cli_solve_names_a_data_file_with_no_entries(tmp_path, field, name):
    (tmp_path / name).write_text(_EMPTY_FILES[name])
    if field == "dataset.path":
        cfg = base_config(dataset={"source": "file", "path": name})
    else:
        cfg = base_config(**{"problem.map": {"kind": "sampling", "omega_csv": name}})
    cfg_path = write_config(tmp_path, cfg)
    proc = _python(tmp_path, "-m", "gsmf.cli", "solve", "--config", cfg_path)
    assert (proc.returncode, proc.stderr) == (
        1, f"error: `{field}`: {name}: the file holds no entries\n")


def test_recipe_is_frozen():
    recipe = DatasetRecipe(source="synthetic", n=4, m=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        recipe.noise_t = -1.0
    with pytest.raises(ValueError, match="^noise_t must be >= 0, got -1.0$"):
        dataclasses.replace(recipe, noise_t=-1.0)


def test_recipe_validation():
    with pytest.raises(ValueError, match="source"):
        DatasetRecipe(source="url")
    with pytest.raises(ValueError, match="noise_t"):
        DatasetRecipe(source="synthetic", n=3, m=3, noise_t=-1.0)
    with pytest.raises(ValueError, match="path"):
        DatasetRecipe(source="file")


@pytest.mark.parametrize("field, value, message", [
    ("n", 4.0, "n must be an integer"),
    ("n", "4", "n must be an integer"),
    ("m", 2.5, "m must be an integer"),
    ("m", True, "m must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", -1, "seed must be >= 0"),
    ("noise_t", math.nan, "noise_t must be a real number, got nan$"),
    ("noise_t", math.inf, "noise_t must be finite, got inf$"),
    ("noise_t", True, "noise_t must be a real number, got True"),
    ("noise_t", "0.1", "noise_t must be a real number, got '0.1'"),
    ("noise_t", None, "noise_t must be a real number, got None"),
    ("normalize", "no", "normalize must be a bool, got 'no'"),
    ("normalize", 0, "normalize must be a bool, got 0"),
    ("symmetrize_noise", 2, "symmetrize_noise must be a bool, got 2"),
    ("symmetrize_noise", None, "symmetrize_noise must be a bool, got None"),
])
def test_recipe_rejects_an_unusable_value(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        DatasetRecipe(**{"source": "synthetic", "n": 4, "m": 2, field: value})


@pytest.mark.parametrize("fields, message", [
    ({"source": "file", "path": "N.csv", "n": 100, "m": 50},
     "file datasets take their size from the file: n and m must be 0, got n=100, m=50"),
    ({"source": "file", "path": "N.csv", "m": 50},
     "file datasets take their size from the file: n and m must be 0, got n=0, m=50"),
    ({"source": "synthetic", "n": 20, "m": 3, "path": "N.csv"},
     "synthetic datasets read no path, got 'N.csv'"),
    ({"source": "synthetic", "n": 20, "m": 3, "path": "missing.csv"},
     "synthetic datasets read no path, got 'missing.csv'"),
])
def test_recipe_rejects_a_field_its_source_does_not_read(tmp_path, capsys, monkeypatch,
                                                         fields, message):
    monkeypatch.chdir(tmp_path)
    save_matrix(tmp_path / "N.csv", np.eye(8))
    with pytest.raises(ValueError) as exc:
        DatasetRecipe(**fields)
    assert str(exc.value) == message
    cfg_path = write_config(tmp_path, base_config(dataset=fields))
    assert main(["solve", "--config", cfg_path, "--out", "o"]) == 1
    assert capsys.readouterr().err == f"error: `dataset`: {message}\n"
    assert not (tmp_path / "o").exists()


def test_recipe_accepts_numpy_integers():
    recipe = DatasetRecipe(source="synthetic", n=np.int64(4), m=np.int32(2),
                           seed=np.uint8(3))
    assert gen_data(recipe).shape == (4, 4)


def test_recipe_accepts_numpy_bools():
    recipe = DatasetRecipe(source="synthetic", n=4, m=2, normalize=np.False_,
                           noise_t=0.1, symmetrize_noise=np.True_)
    M = gen_data(recipe)
    assert np.array_equal(M, M.T) and M.max() != 1.0


_MISSING_DATA = {"dataset": {"source": "file", "path": "missing.csv"}}
_MISSING_OMEGA = {"problem.map": {"kind": "sampling", "omega_csv": "nope.csv"}}


@pytest.mark.parametrize("command, overrides, message", [
    ("solve", _MISSING_DATA, "`dataset.path`: missing.csv not found."),
    ("gen-data", _MISSING_DATA, "`dataset.path`: missing.csv not found."),
    ("check", _MISSING_DATA, "`dataset.path`: missing.csv not found."),
    ("solve", _MISSING_OMEGA, "`problem.map.omega_csv`: nope.csv not found."),
    ("check", _MISSING_OMEGA, "`problem.map.omega_csv`: nope.csv not found."),
])
def test_cli_missing_data_file_is_an_error_naming_its_field(tmp_path, capsys,
                                                           monkeypatch, command,
                                                           overrides, message):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, base_config(**overrides))
    assert main([command, "--config", cfg_path]) == 1
    out, err = capsys.readouterr()
    if command == "check":  # the report names the error in each item it fails
        details = {it["detail"] for it in json.loads(out)["items"] if not it["passed"]}
        assert details == {f"ConfigFileError: {message}"}
    else:
        assert err == f"error: {message}\n"


_BAD_DATA = {"dataset": {"source": "file", "path": "bad.csv"}}
_BAD_MTX = {"dataset": {"source": "file", "path": "bad.mtx"}}
_BAD_OMEGA = {"problem.map": {"kind": "sampling", "omega_csv": "bad.csv"}}


@pytest.mark.parametrize("command, overrides, message", [
    ("solve", _BAD_DATA, "`dataset.path`: bad.csv: could not convert string 'abc'"),
    ("gen-data", _BAD_DATA, "`dataset.path`: bad.csv: could not convert string 'abc'"),
    ("check", _BAD_DATA, "`dataset.path`: bad.csv: could not convert string 'abc'"),
    ("solve", _BAD_MTX, "`dataset.path`: bad.mtx: "),
    ("solve", _BAD_OMEGA,
     "`problem.map.omega_csv`: bad.csv: could not convert string 'abc'"),
    ("check", _BAD_OMEGA,
     "`problem.map.omega_csv`: bad.csv: could not convert string 'abc'"),
])
def test_cli_malformed_data_file_is_an_error_naming_its_field(tmp_path, capsys,
                                                             monkeypatch, command,
                                                             overrides, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("abc,3\n")
    (tmp_path / "bad.mtx").write_text("not a matrix\n")
    cfg_path = write_config(tmp_path, base_config(**overrides))
    assert main([command, "--config", cfg_path]) == 1
    out, err = capsys.readouterr()
    if command == "check":
        details = {it["detail"] for it in json.loads(out)["items"] if not it["passed"]}
        assert len(details) == 1
        assert details.pop().startswith(f"ConfigFileError: {message}")
    else:
        assert err.startswith(f"error: {message}")


def test_cli_data_error_after_the_file_read_is_not_labelled(tmp_path, capsys,
                                                           monkeypatch):
    # only the read is labelled with dataset.path: a file that parses but
    # cannot be normalized keeps gen_data's own message
    monkeypatch.chdir(tmp_path)
    save_matrix(tmp_path / "zero.csv", np.zeros((3, 4)))
    cfg_path = write_config(tmp_path, base_config(
        dataset={"source": "file", "path": "zero.csv"}))
    assert main(["solve", "--config", cfg_path]) == 1
    assert capsys.readouterr().err == (
        "error: cannot normalize: max entry of N^T N is not positive\n")


# --------------------------------------------------------------------------
# gen-data subcommand
# --------------------------------------------------------------------------


def test_cli_gen_data_writes_deterministic_matrix(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(**{"dataset.noise_t": 0.01}))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["gen-data", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["gen-data", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "M.csv").read_bytes() == (out2 / "M.csv").read_bytes()


def test_cli_gen_data_writes_to_output_dir(tmp_path, capsys, monkeypatch):
    # --out, else output.dir, else the working directory
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, base_config(**{"output.dir": "gd"}))
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert (tmp_path / "gd" / "M.csv").exists()
    assert main(["gen-data", "--config", cfg_path, "--out", "flag"]) == 0
    assert (tmp_path / "flag" / "M.csv").exists()
    assert main(["gen-data", "--config", write_config(tmp_path, base_config(),
                                                      name="plain.yaml")]) == 0
    assert (tmp_path / "M.csv").exists()


# --------------------------------------------------------------------------
# solve subcommand
# --------------------------------------------------------------------------


def test_cli_solve_planted_instance(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["status"] == "Converged"
    assert summary["relobj"] <= 1e-6

    lines = (out / "run_trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) - 1 == summary["iters"]
    last = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert int(last["iter"]) == summary["iters"]
    assert float(last["f_value"]) == summary["f_value"]
    assert float(last["relobj"]) == summary["relobj"]
    assert float(last["sym_gap"]) == summary["sym_gap"]


@pytest.mark.parametrize("audit, violations", [(True, 0), (False, None)])
def test_cli_solve_summary_reads_the_descent_audit(tmp_path, capsys, audit, violations):
    cfg_path = write_config(tmp_path, base_config(**{"solver.max_iters": 20,
                                                     "solver.audit": audit}))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 2
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["iters"] == 20
    assert summary["descent_violations"] == violations


def test_cli_solve_missing_rank_names_field(tmp_path, capsys):
    cfg = base_config()
    del cfg["problem"]["rank"]
    cfg_path = write_config(tmp_path, cfg)
    code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "rank" in capsys.readouterr().err


def test_cli_solve_time_limit_zero(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(**{"solver.max_time_sec": 0.0}))
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg_path, "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["status"] == "TimeLimit"
    lines = (out / "run_trace.csv").read_text().splitlines()
    assert len(lines) - 1 <= 1


def test_cli_solve_traces_are_byte_identical(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(**{"solver.max_iters": 50,
                                                     "solver.tol": 1e-16}))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["solve", "--config", cfg_path, "--out", str(out1)])
    main(["solve", "--config", cfg_path, "--out", str(out2)])
    assert (out1 / "run_trace.csv").read_bytes() == (out2 / "run_trace.csv").read_bytes()


def test_cli_solve_unknown_solver_field(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(**{"solver.step_size": 0.1}))
    code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "step_size" in capsys.readouterr().err


def test_cli_solve_rejects_jobs_flag(tmp_path, capsys):
    # only sweep runs points in parallel; solve must not accept and ignore it
    cfg_path = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", cfg_path, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def _seed_config(tmp_path, name, **overrides):
    cfg = base_config(**{"dataset.noise_t": 0.01, "solver.max_iters": 5, **overrides})
    cfg["sweep"] = {"alpha": [0.6]}
    return write_config(tmp_path, cfg, name)


# --seed runs as the config field its help names, and no other seed changes
@pytest.mark.parametrize("command, field, output", [
    ("gen-data", "dataset.seed", "M.csv"),
    ("solve", "solver.seed", "run_trace.csv"),
    ("sweep", "solver.seed", "point00_rep00_trace.csv"),
])
def test_cli_seed_overrides_the_field_its_help_names(tmp_path, capsys, command, field,
                                                    output):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"--seed SEED override {field}" in " ".join(capsys.readouterr().out.split())
    flag, out = _seed_config(tmp_path, "flag.yaml"), tmp_path / "flag"
    assert main([command, "--config", flag, "--out", str(out), "--seed", "5"]) != 1
    field_set = _seed_config(tmp_path, "field.yaml", **{field: 5})
    assert main([command, "--config", field_set, "--out", str(tmp_path / "field")]) != 1
    unset = _seed_config(tmp_path, "unset.yaml")
    assert main([command, "--config", unset, "--out", str(tmp_path / "unset")]) != 1
    written = (out / output).read_bytes()
    assert written == (tmp_path / "field" / output).read_bytes()
    assert written != (tmp_path / "unset" / output).read_bytes()


@pytest.mark.parametrize("command", ["gen-data", "solve", "sweep"])
def test_cli_negative_seed_is_an_error_naming_the_flag(tmp_path, capsys, command):
    # as --jobs 0 names --jobs: the flag, not the config section it overrides
    out = tmp_path / "o"
    cfg_path = _seed_config(tmp_path, "config.yaml")
    assert main([command, "--config", cfg_path, "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed: need a seed >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, name", [
    ("problem.lamda", 1.0, "lamda"),
    ("dataset.nosie_t", 0.1, "nosie_t"),
    ("relaxation.gama", 0.0, "gama"),
    ("solvers", {"tol": 1e-9}, "solvers"),
    ("problem.psi", {"kind": "l1", "wieght": 2.0}, "problem.psi"),
    ("problem.phi", {"kind": "nonneg", "weight": 2.0}, "problem.phi"),
    ("relaxation.beta", 2.0, "beta"),  # derived from alpha, not settable
])
def test_cli_solve_unknown_config_key_names_it(tmp_path, capsys, key, value, name):
    cfg_path = write_config(tmp_path, base_config(**{key: value}))
    code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


RAW_CONFIG = """\
dataset: {source: synthetic, n: 20, m: 3, seed: 7, noise_t: null}
problem: {rank: 3, lambda: 1.0}
relaxation: {alpha: 0.6}
solver: {tol: 1e-9, max_time_sec: 1.0e3, max_iters: %s, seed: 0}
"""


def test_cli_reads_yaml_exponent_spellings(tmp_path, capsys):
    # PyYAML reads 1e-9 and 1.0e3 as strings; each field takes its type
    path = tmp_path / "config.yaml"
    path.write_text(RAW_CONFIG % "10000")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["status"] == "Converged"
    path.write_text(RAW_CONFIG % "1e4")
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    assert "`solver.max_iters`: cannot read '1e4' as int" in capsys.readouterr().err


# each config section as raw YAML flow-mapping entries, so that a case can set
# a field to any YAML text (yaml.safe_dump would quote or retype it)
RAW_SECTIONS = {
    "dataset": {"source": "synthetic", "n": "20", "m": "3", "seed": "7",
                "noise_t": "0.0"},
    "problem": {"rank": "3", "lambda": "1.0"},
    "relaxation": {"alpha": "0.6"},
    "solver": {"tol": "1e-9", "max_iters": "300", "seed": "0"},
    "sweep": {"alpha": "[0.6]"},
}


def write_raw_config(tmp_path, **fields):
    """RAW_SECTIONS with each ``section__field=text`` set, as raw YAML."""
    sections = {name: dict(entries) for name, entries in RAW_SECTIONS.items()}
    for key, text in fields.items():
        section, field = key.split("__")
        sections.setdefault(section, {})[field] = text
    path = tmp_path / "config.yaml"
    path.write_text("".join(
        f"{name}: {{{', '.join(f'{k}: {v}' for k, v in entries.items())}}}\n"
        for name, entries in sections.items()))
    return str(path)


@pytest.mark.parametrize("command, field, text, message", [
    ("solve", "problem.rank", "1e1", "`problem.rank`: cannot read '1e1' as int"),
    ("solve", "problem.rank", "2.5", "`problem.rank`: cannot read 2.5 as int"),
    ("solve", "problem.lambda", "abc", "`problem.lambda`: cannot read 'abc' as float"),
    ("solve", "relaxation.alpha", "abc",
     "`relaxation.alpha`: cannot read 'abc' as float"),
    ("solve", "relaxation.gamma", "abc",
     "`relaxation.gamma`: cannot read 'abc' as float"),
    ("solve", "dataset.n", "20.5", "`dataset.n`: cannot read 20.5 as int"),
    ("solve", "dataset.normalize", '"false"',
     "`dataset.normalize`: cannot read 'false' as bool"),
    ("solve", "solver.max_iters", "3.9", "`solver.max_iters`: cannot read 3.9 as int"),
    ("solve", "solver.max_iters", "true",
     "`solver.max_iters`: cannot read True as int"),
    ("solve", "solver.audit", '"false"', "`solver.audit`: cannot read 'false' as bool"),
    # a value its section's constructor rejects names the section
    ("solve", "solver.max_iters", "-3", "`solver`: max_iters must be >= 0, got -3"),
    ("solve", "solver.seed", "-1", "`solver`: seed must be >= 0, got -1"),
    ("solve", "dataset.seed", "-1", "`dataset`: seed must be >= 0, got -1"),
    ("solve", "relaxation.alpha", "1.0", "`relaxation`: alpha must differ from 0 and 1"),
    ("solve", "problem.rank", "0", "`problem`: r must be >= 1, got 0"),
    ("solve", "solver.tau", "0.5", "`solver`: tau must exceed 1"),
    ("solve", "output.dir", "5", "`output.dir`: cannot read 5 as str"),
    ("solve", "output.dri", "o", "unknown output field(s): ['dri']"),
    ("solve", "problem.psi", "{kind: l1, weight: abc}",
     "`problem.psi.weight`: cannot read 'abc' as float"),
    ("solve", "problem.psi", "{kind: l1, weight: true}",
     "`problem.psi.weight`: cannot read True as float"),
    ("solve", "problem.psi", "{kind: l1, weight: .nan}",
     "`problem.psi`: weight must be a real number, got nan"),
    ("solve", "problem.psi", "{kind: l1, weight: -1}",
     "`problem.psi`: weight must be >= 0, got -1.0"),
    ("solve", "problem.phi", "{kind: nonneg_l1, weight: .inf}",
     "`problem.phi`: weight must be finite, got inf"),
    ("solve", "problem.phi", "{kind: nonneg_l1, weight: -.inf}",
     "`problem.phi`: weight must be >= 0, got -inf"),
    ("solve", "problem.psi", "{kind: scad}", "`problem.psi.kind`: unknown kind 'scad'; "
     "choose from ['l1', 'nonneg', 'nonneg_l1', 'zero']"),
    ("solve", "problem.psi", "[l1]",
     "`problem.psi`: need a kind name or a mapping, got ['l1']"),
    ("solve", "problem.psi", "{kind: l1, wieght: 2}",
     "unknown problem.psi field(s): ['wieght']"),
    ("solve", "problem.phi", "{kind: nonneg, weight: 2}",
     "unknown problem.phi field(s): ['weight']"),
    ("solve", "problem.phi", "{weight: 2}",  # the default kind, nonneg
     "unknown problem.phi field(s): ['weight']"),
    ("solve", "problem.phi", "{kind: 5}", "`problem.phi.kind`: cannot read 5 as str"),
    ("solve", "problem.map", "{kind: full, omega_csv: x.csv}",
     "unknown problem.map field(s): ['omega_csv']"),
    ("solve", "problem.map", "{kind: dct}", "`problem.map.kind`: unknown kind 'dct'; "
     "choose from ['full', 'sampling']"),
    ("solve", "problem.map", "{kind: sampling}", "missing field `problem.map.omega_csv`"),
    ("solve", "problem.map", "[full]",
     "`problem.map`: need a kind name or a mapping, got ['full']"),
    ("solve", "solver.p_min", "0.01", "unknown solver field(s): ['p_min']"),
    ("gen-data", "dataset.symmetrize_noise", '"false"',
     "`dataset.symmetrize_noise`: cannot read 'false' as bool"),
    ("sweep", "sweep.reps", "1.7", "`sweep.reps`: cannot read 1.7 as int"),
    ("sweep", "sweep.reps", "0", "`sweep.reps`: need at least 1 run per point, got 0"),
    ("sweep", "sweep.reps", "-1",
     "`sweep.reps`: need at least 1 run per point, got -1"),
    ("sweep", "sweep.rank", "[2, 2.5]", "`sweep.rank`: cannot read 2.5 as int"),
    ("sweep", "sweep.alpha", "0.6", "sweep axis `alpha` needs a non-empty list"),
])
def test_cli_misread_value_is_an_error_naming_its_field(tmp_path, capsys, monkeypatch,
                                                        command, field, text, message):
    # a value the field's type would truncate or coerce stops the run at once
    monkeypatch.chdir(tmp_path)
    cfg_path = write_raw_config(tmp_path, **{field.replace(".", "__"): text})
    assert main([command, "--config", cfg_path]) == 1
    assert main([command, "--config", cfg_path, "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" * 2
    assert not {p.name for p in tmp_path.iterdir()} - {"config.yaml"}


@pytest.mark.parametrize("key, text, cls, fields", [
    ("psi", "zero", Zero, {}),
    ("psi", "{}", NonnegIndicator, {}),
    ("psi", "null", NonnegIndicator, {}),
    ("phi", "{kind: l1}", L1, {"weight": 1.0}),
    ("phi", "{kind: nonneg_l1, weight: 1e-3}", NonnegPlusL1, {"weight": 1e-3}),
    ("map", "{}", FullVectorization, {}),
    ("map", "null", FullVectorization, {}),
    ("map", "full", FullVectorization, {}),
])
def test_cli_reads_a_kinded_mapping(tmp_path, key, text, cls, fields):
    # a missing kind, a null mapping or a bare kind name reads as its kind
    cfg = load_config(write_raw_config(tmp_path, **{f"problem__{key}": text}))
    got = getattr(build_spec(cfg, np.eye(20)), key)
    assert type(got) is cls
    assert {name: getattr(got, name) for name in fields} == fields


def test_cli_solve_runs_a_p_const_below_one_percent(tmp_path, capsys):
    # the average rule needs only 0 < p_const <= 1
    cfg_path = write_raw_config(tmp_path, solver__p_const="0.005")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 2
    with open(out / "run_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 300
    for prev, row in zip(rows, rows[1:]):
        R = (1.0 - 0.005) * float(prev["ref_value"]) + 0.005 * float(row["f_value"])
        assert float(row["ref_value"]) == R


def test_cli_reads_the_spellings_that_read_today(tmp_path, capsys):
    from gsmf.cli import build_params, build_solver_config, build_spec, load_config

    cfg_path = write_raw_config(
        tmp_path, solver__tol="1e-9", solver__max_time_sec="1.0e3",
        solver__mu_min="1", dataset__noise_t="null", problem__rank="3.0",
        problem__psi="{kind: l1, weight: 1e-3}", relaxation__gamma="null")
    cfg = load_config(cfg_path)
    config = build_solver_config(cfg)
    assert (config.tol, config.max_time_sec, config.mu_min) == (1e-9, 1e3, 1.0)
    assert type(config.mu_min) is float
    spec = build_spec(cfg, np.eye(20))
    assert spec.r == 3 and type(spec.r) is int
    assert spec.psi.weight == 0.001
    assert build_params(cfg) == RelaxationParams.from_alpha(0.6)  # gamma's minimum
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) in (0, 2)
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["config"]["problem"]["rank"] == 3.0  # echoed as written


def test_cli_rejects_non_finite_alpha(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(**{"relaxation.alpha": math.nan}))
    code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "alpha must be a real number, got nan" in capsys.readouterr().err


def test_cli_solve_sampling_map(tmp_path, capsys):
    from gsmf.operators import random_symmetric_omega

    omega = random_symmetric_omega(20, 0.6, np.random.default_rng(1))
    omega_path = tmp_path / "omega.csv"
    omega_path.write_text("".join(f"{i},{j}\n" for i, j in omega))
    cfg = base_config()
    cfg["problem"]["map"] = {"kind": "sampling", "omega_csv": str(omega_path)}
    cfg_path = write_config(tmp_path, cfg)
    code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 0


# --------------------------------------------------------------------------
# sweep subcommand
# --------------------------------------------------------------------------


def read_sweep(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_sweep_alpha(tmp_path, capsys):
    cfg = base_config(**{"solver.max_iters": 4000, "solver.tol": 1e-12})
    cfg["sweep"] = {"alpha": [0.2, 0.6, 2.0], "reps": 1}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--jobs", "2"]) == 0
    assert (out / "sweep.csv").read_text().splitlines()[0] == (
        "point,failed,mean_iter,mean_relobj,mean_elapsed_sec,mean_sym_gap")
    rows = read_sweep(out / "sweep.csv")
    assert [r["point"] for r in rows] == ["alpha=0.2", "alpha=0.6", "alpha=2.0"]
    assert all(r["failed"] == "0" for r in rows)
    relobjs = [float(r["mean_relobj"]) for r in rows]
    assert all(v <= 1e-5 for v in relobjs)


def test_cli_sweep_empty_axis_is_an_error(tmp_path, capsys):
    cfg = base_config()
    cfg["sweep"] = {"lambda": []}
    cfg_path = write_config(tmp_path, cfg)
    code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_sweep_needs_at_least_one_job(tmp_path, capsys, jobs):
    cfg = base_config(**{"solver.max_iters": 3})
    cfg["sweep"] = {"alpha": [0.6]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"error: --jobs: need at least 1 worker, got {jobs}\n"
    assert not out.exists()


def test_cli_sweep_survives_failing_point(tmp_path, capsys):
    cfg = base_config()
    # alpha = 1 is inadmissible (beta undefined); the sweep must continue
    cfg["sweep"] = {"alpha": [1.0, 0.6]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_sweep(out / "sweep.csv")
    assert rows[0]["failed"] == "1"
    assert rows[1]["failed"] == "0"


def test_cli_sweep_axis_fills_a_null_section(tmp_path, capsys):
    # a null section reads as empty; the axis sets its field in each point
    cfg = base_config(relaxation=None, **{"solver.max_iters": 50})
    cfg["sweep"] = {"alpha": [0.6]}
    out = tmp_path / "o"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out",
                 str(out)]) == 0
    assert read_sweep(out / "sweep.csv")[0]["failed"] == "0"


def test_cli_sweep_noise_rank_grid(tmp_path, capsys):
    cfg = base_config(**{"solver.max_iters": 500, "solver.tol": 1e-9})
    cfg["sweep"] = {"noise_t": [0.0, 0.01], "rank": [2, 3]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_sweep(out / "sweep.csv")
    assert len(rows) == 4


def test_cli_sweep_alpha_lambda_grid(tmp_path, capsys):
    cfg = base_config(**{"solver.max_iters": 200, "solver.tol": 1e-9})
    cfg["sweep"] = {"alpha": [0.6, 2.0], "lambda": [0.5, 1.0]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_sweep(out / "sweep.csv")
    assert [r["point"] for r in rows] == [
        "alpha=0.6;lambda=0.5", "alpha=0.6;lambda=1.0",
        "alpha=2.0;lambda=0.5", "alpha=2.0;lambda=1.0",
    ]
    assert all(r["failed"] == "0" for r in rows)


# --------------------------------------------------------------------------
# check subcommand
# --------------------------------------------------------------------------


def _weights(kind):
    """The parameters of a regularizer kind in the check configs."""
    return {"weight": 0.1} if kind in ("l1", "nonneg_l1") else {}


def _check_config(tmp_path, map_kind="full", psi="nonneg", phi=None, **overrides):
    """A 20-by-20 config on the given map, with regularizers of the given kinds
    (phi = psi unless given) and base_config's overrides."""
    cfg = base_config(**{"solver.max_iters": 100,
                         "problem.psi": {"kind": psi, **_weights(psi)},
                         "problem.phi": {"kind": phi or psi, **_weights(phi or psi)},
                         **overrides})
    if map_kind == "sampling":
        omega = random_symmetric_omega(20, 0.6, np.random.default_rng(1))
        np.savetxt(tmp_path / "omega.csv", omega, fmt="%d", delimiter=",")
        cfg["problem"]["map"] = {"kind": "sampling",
                                 "omega_csv": str(tmp_path / "omega.csv")}
    return write_config(tmp_path, cfg)


def _check_report(tmp_path, capsys, **config):
    """`gsmf check --out`'s exit code and the items of the check.json it writes,
    by name; the file must hold what it printed, and ``all_passed`` must
    agree with the items."""
    out = tmp_path / "o"
    code = main(["check", "--config", _check_config(tmp_path, **config),
                 "--out", str(out)])
    report = json.loads((out / "check.json").read_text())
    assert report == json.loads(capsys.readouterr().out)
    assert report["all_passed"] is all(it["passed"] for it in report["items"])
    return code, {it["name"]: it for it in report["items"]}


def _prox_detail(kind):
    return f"prox of {KINDS[kind](**_weights(kind))!r} is a minimizer on 50 perturbations"


@pytest.mark.parametrize("psi, phi", [("zero", None), ("nonneg", None), ("l1", None),
                                      ("nonneg_l1", None), ("l1", "nonneg_l1")])
@pytest.mark.parametrize("map_kind, map_name", [("full", "FullVectorization"),
                                               ("sampling", "SymmetricSampling")])
def test_cli_check_passes_on_fresh_config(tmp_path, capsys, map_kind, map_name,
                                          psi, phi):
    code, items = _check_report(tmp_path, capsys, map_kind=map_kind, psi=psi, phi=phi)
    assert code == 0 and all(item["passed"] for item in items.values())
    assert list(items) == ["operator_identities", "relaxation_params", "problem_spec",
                           "relaxation_identity", "prox_optimality", "descent_audit"]
    # each item that checks the map or the regularizers names what it checked
    assert items["operator_identities"]["detail"].startswith(f"{map_name} n=20 q=")
    assert items["prox_optimality"]["detail"] == "; ".join(
        _prox_detail(kind) for kind in ([psi, phi] if phi else [psi]))
    assert items["relaxation_identity"]["detail"].startswith("relative gap ")


# the run budgets do not cut the descent audit short
@pytest.mark.parametrize("budget", [{"solver.max_iters": 0}, {"solver.max_time_sec": 0.0}],
                         ids=["max_iters", "max_time_sec"])
def test_cli_check_audits_whatever_the_run_budgets(tmp_path, capsys, budget):
    code, items = _check_report(tmp_path, capsys, **budget)
    assert code == 0
    assert items["descent_audit"] == {"name": "descent_audit", "passed": True,
                                      "detail": "0 violations over 50 iterations"}


def test_cli_check_flags_a_relaxation_defect(tmp_path, capsys, monkeypatch):
    # Z* off by 1% breaks Theta(X, Y, Z*) = F on the single draw
    z_star = diagnostics.z_star
    monkeypatch.setattr(diagnostics, "z_star", lambda *args: 1.01 * z_star(*args))
    code, items = _check_report(tmp_path, capsys)
    assert code == 1
    assert [name for name, it in items.items() if not it["passed"]] == [
        "relaxation_identity"]
    assert float(items["relaxation_identity"]["detail"].removeprefix(
        "relative gap ")) > 1e-10


# a fault in the full map's adjoint fails only a check of the full map
@pytest.mark.parametrize("map_kind, map_name, passed", [
    ("sampling", "SymmetricSampling", True), ("full", "FullVectorization", False)])
def test_cli_check_operators_check_the_configured_map(tmp_path, capsys, monkeypatch,
                                                       map_kind, map_name, passed):
    adjoint = FullVectorization.adjoint
    monkeypatch.setattr(FullVectorization, "adjoint",
                        lambda self, v: 2 * adjoint(self, v))
    _, items = _check_report(tmp_path, capsys, map_kind=map_kind)
    assert items["operator_identities"]["passed"] is passed
    assert items["operator_identities"]["detail"].startswith(f"{map_name} n=20 ")


@pytest.mark.parametrize("kind, cls, prox, detail", [
    # feasible, but half a unit off the minimizer
    ("nonneg_l1", NonnegPlusL1,
     lambda self, W, t: np.maximum(W - t * self.weight, 0.0) + 0.5,
     "prox of NonnegPlusL1(weight=0.1) is not a minimizer"),
    # outside the indicator's domain
    ("nonneg", NonnegIndicator, lambda self, W, t: W,
     "prox of NonnegIndicator() leaves its domain"),
], ids=["feasible-not-minimal", "infeasible"])
def test_cli_check_prox_fails_on_a_faulty_configured_prox(tmp_path, capsys,
                                                          monkeypatch, kind, cls,
                                                          prox, detail):
    monkeypatch.setattr(cls, "prox", prox)
    code, items = _check_report(tmp_path, capsys, psi=kind)
    assert code == 1
    assert items["prox_optimality"] == {"name": "prox_optimality", "passed": False,
                                        "detail": detail}


def test_cli_check_flags_inadmissible_relaxation(tmp_path, capsys):
    cfg = base_config()
    cfg["relaxation"] = {"alpha": 1.0}  # beta = alpha/(alpha-1) is undefined
    cfg_path = write_config(tmp_path, cfg)
    code = main(["check", "--config", cfg_path])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    failed = {i["name"]: i["detail"] for i in report["items"] if not i["passed"]}
    # the items that read the relaxation fail with the error of its one build
    assert set(failed) == {"relaxation_params", "relaxation_identity",
                           "descent_audit"}
    assert len(set(failed.values())) == 1
    assert "alpha must differ from 0 and 1" in failed["relaxation_params"]


def test_cli_check_generates_the_data_once(tmp_path, capsys, monkeypatch):
    from gsmf import data

    gen_data, calls = data.gen_data, []

    def counting_gen_data(recipe):
        calls.append(recipe)
        return gen_data(recipe)

    monkeypatch.setattr(data, "gen_data", counting_gen_data)
    cfg_path = write_config(tmp_path, base_config(**{"solver.max_iters": 20}))
    assert main(["check", "--config", cfg_path]) == 0
    assert len(calls) == 1


def test_cli_check_writes_to_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = base_config(**{"solver.max_iters": 20, "output.dir": "chk"})
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "chk" / "check.json").read_text())
    assert report == json.loads(capsys.readouterr().out)


def test_cli_missing_config_file_is_an_error(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.yaml")])
    assert code == 1


# --------------------------------------------------------------------------
# failures deep in a solve are one error line
# --------------------------------------------------------------------------


def test_cli_yaml_syntax_error_is_one_error_line_naming_the_file(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("relaxation: {alpha: 0.6}\nsolver: [\n")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config file {path} is not valid YAML: expected the node content, "
        "but found '<stream end>' at line 3, column 1"]


def test_cli_reports_a_solver_invariant_failure_as_one_error_line(tmp_path, capsys,
                                                                  caplog):
    # with a huge c the budget, exact in exact arithmetic, is exceeded in floats
    cfg_path = write_config(tmp_path, base_config(**{"solver.c": 1e300,
                                                     "solver.max_iters": 5}))
    with caplog.at_level("DEBUG", logger="gsmf"):
        code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line search exceeded its inner-iteration budget (1002) at outer "
        "iteration 1"]
    # the traceback is logged at DEBUG (GSMF_LOG=DEBUG)
    assert "AlgorithmInvariantError" in caplog.text
    assert caplog.records[-1].exc_info is not None


# each numeric or flag field of the sections a solve reads, and gamma
_PROPERTY_FIELDS = [
    (section, name) for section in ("dataset", "problem", "relaxation", "solver")
    for name, default in SECTIONS[section].items()
    if default in (int, float) or isinstance(default, (bool, int, float))
] + [("relaxation", "gamma")]
_PROPERTY_POOL = [0, -1, 5e-324, -5e-324, math.nextafter(1.0, 2.0),
                  math.nextafter(1.0, 0.0), 1e-300, 1e300, math.nan, math.inf,
                  -math.inf, True, "x", [1], 10**400]


def _property_values(field):
    """The pool, less the values that set a run length, not a boundary: a
    larger max_iters, and a tau just above 1, at which the line search's
    budget of mu escalations, log(mu_max/mu_min)/log(tau), runs to ~1e16
    trials in one outer iteration (a hang, recorded in CHANGES.md)."""
    if field == ("solver", "max_iters"):
        return [v for v in _PROPERTY_POOL
                if not isinstance(v, (int, float)) or v <= 5]
    if field == ("solver", "tau"):
        return [v for v in _PROPERTY_POOL
                if not isinstance(v, (int, float)) or not 1 < v < 1.001]
    return _PROPERTY_POOL


def test_cli_main_fails_only_with_one_error_line(tmp_path):
    """Whatever boundary values a config holds, `gsmf solve` exits 0 or 2, or
    exits 1 with exactly one `error:` line; no exception escapes main."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    base = {"dataset": {"n": 8, "m": 2, "seed": 1}, "problem": {"rank": 2},
            "relaxation": {"alpha": 0.6}, "solver": {"max_iters": 5}}
    base_text = yaml.safe_dump(base)

    def document(scheme, fields):
        cfg = copy.deepcopy(base)
        cfg["solver"]["scheme"] = scheme
        for (section, name), value in fields:
            cfg[section][name] = value
        return yaml.safe_dump(cfg)

    documents = st.builds(
        document, st.sampled_from(["hierarchical", "prox_linear"]),
        st.lists(st.sampled_from(_PROPERTY_FIELDS).flatmap(
            lambda f: st.tuples(st.just(f), st.sampled_from(_property_values(f)))),
            min_size=1, max_size=3))
    malformed = st.one_of(
        st.integers(0, len(base_text)).map(lambda k: base_text[:k] + "solver: [\n"),
        st.sampled_from(["{", "a: b: c\n", "\tsolver: {}\n", "- [\n",
                         "relaxation: *x\n"]))
    path, out = tmp_path / "config.yaml", str(tmp_path / "out")

    @hyp.settings(max_examples=1200, derandomize=True, deadline=None, database=None)
    @hyp.given(st.one_of(documents, malformed))
    def check(text):
        path.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            code = main(["solve", "--config", str(path), "--out", out])
        lines = err.getvalue().splitlines()
        assert code in (0, 2) or (
            code == 1 and sum(line.startswith("error: ") for line in lines) == 1
            and "Traceback" not in err.getvalue()), (code, text, lines)

    check()
