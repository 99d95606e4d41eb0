"""A full-map process loads no scipy.sparse or scipy.io.

Only the sampling map's misfit operator and Matrix Market I/O use them, so
they are imported there.  Each check runs in a fresh interpreter: the test
process itself has loaded both long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import gsmf

_SCRIPT = """
import sys

import numpy as np

import gsmf
import gsmf.cli
from gsmf import (DatasetRecipe, RelaxationParams, SolverConfig, SymmetricSampling,
                  gen_data, load_matrix, random_symmetric_omega, save_matrix,
                  snmf_spec, solve)
from gsmf.diagnostics import report


def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.io")))


assert not loaded(), loaded()
with open("config.yaml", "w") as fh:
    fh.write("dataset: {n: 12, m: 3, seed: 1, noise_t: 0.01}\\n"
             "problem: {rank: 3}\\nrelaxation: {alpha: 0.6}\\n"
             "solver: {max_iters: 5}\\n")
assert gsmf.cli.main(["gen-data", "--config", "config.yaml", "--out", "data"]) == 0
assert gsmf.cli.main(["solve", "--config", "config.yaml", "--out", "run"]) == 2
M = gen_data(DatasetRecipe(n=12, m=3, seed=1, noise_t=0.01))
spec = snmf_spec(M, 3, 1.0)
params = RelaxationParams.from_alpha(0.6)
config = SolverConfig(max_iters=5, audit=True)
report(spec, params, solve(spec, params, config), config)
save_matrix("M.csv", M)
assert np.allclose(load_matrix("M.csv"), M, rtol=0, atol=1e-15)
assert not loaded(), loaded()

amap = SymmetricSampling(12, random_symmetric_omega(12, 0.6, np.random.default_rng(1)))
sampled = gsmf.ProblemSpec(amap, amap.apply(M), gsmf.NonnegIndicator(),
                           gsmf.NonnegIndicator(), 1.0, n=12, r=3)
assert len(solve(sampled, params, SolverConfig(max_iters=5)).records) == 5
save_matrix("M.mtx", M)
assert np.allclose(load_matrix("M.mtx"), M, rtol=0, atol=1e-12)
assert "scipy.sparse" in sys.modules and "scipy.io" in sys.modules
print("ok")
"""


def test_full_map_process_loads_no_scipy_sparse_or_io(tmp_path):
    src = str(Path(gsmf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
