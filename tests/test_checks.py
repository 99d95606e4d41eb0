import numpy as np
import pytest

from gsmf.data import DatasetRecipe
from gsmf.objective import ProblemSpec, RelaxationParams
from gsmf.operators import FullVectorization, SymmetricSampling
from gsmf.regularizers import L1, NonnegPlusL1, Zero
from gsmf.solver import ConfigError, SolverConfig

# each constructor that reads scalar parameters, with valid values for the
# fields that a row does not set
_BUILD = {
    "ProblemSpec": lambda **kw: ProblemSpec(**{
        "map": FullVectorization(3), "b": np.zeros(9), "psi": Zero(), "phi": Zero(),
        "lam": 1.0, "n": 3, "r": 2, **kw}),
    "RelaxationParams": lambda **kw: RelaxationParams(**{"alpha": 0.6, "gamma": 1.0,
                                                         **kw}),
    "RelaxationParams.from_alpha": RelaxationParams.from_alpha,
    "SolverConfig": SolverConfig,
    "DatasetRecipe": lambda **kw: DatasetRecipe(**{"n": 4, "m": 2, **kw}),
    "L1": L1,
    "NonnegPlusL1": NonnegPlusL1,
    "FullVectorization": FullVectorization,
    "SymmetricSampling": lambda n: SymmetricSampling(n, [(1, 1)]),
}
_ROWS = [
    ("ProblemSpec", "n", np.int64(3)),
    ("ProblemSpec", "r", np.int64(2)),
    ("ProblemSpec", "lam", np.float32(0.5)),
    ("RelaxationParams", "alpha", np.float32(0.6)),
    ("RelaxationParams", "gamma", np.float32(1.5)),
    ("RelaxationParams.from_alpha", "alpha", np.float32(0.6)),
    *(("SolverConfig", field, np.int64(3))
      for field in ("window", "consec_required", "max_iters", "seed")),
    *(("SolverConfig", field, np.float32(value))
      for field, value in (("p_const", 0.5), ("mu_min", 2.0), ("sigma_min", 2.0),
                           ("sigma_max0", 1e3), ("tau", 2.0), ("c", 1e-3),
                           ("tol", 1e-6), ("max_time_sec", 10.0))),
    ("SolverConfig", "audit", np.bool_(True)),
    ("DatasetRecipe", "n", np.int64(3)),
    ("DatasetRecipe", "m", np.int64(3)),
    ("DatasetRecipe", "seed", np.int64(3)),
    ("DatasetRecipe", "noise_t", np.float32(0.25)),
    ("DatasetRecipe", "normalize", np.bool_(False)),
    ("DatasetRecipe", "symmetrize_noise", np.bool_(True)),
    ("L1", "weight", np.float32(0.5)),
    ("NonnegPlusL1", "weight", np.float32(0.5)),
    ("FullVectorization", "n", np.int64(3)),
    ("SymmetricSampling", "n", np.int64(2)),
]
_PYTHON_TYPE = {np.int64: int, np.float32: float, np.bool_: bool}


@pytest.mark.parametrize("build, field, value", _ROWS,
                         ids=[f"{build}.{field}" for build, field, _ in _ROWS])
def test_a_numpy_scalar_reads_back_as_a_python_one(build, field, value):
    # a numpy scalar kept as given carries its precision into what is
    # computed from it: a float32 alpha makes beta float32
    got = getattr(_BUILD[build](**{field: value}), field)
    assert type(got) is _PYTHON_TYPE[type(value)] and got == value


_HUGE_ROWS = [
    ("SolverConfig", "tau", ConfigError, "tau"),
    ("SolverConfig", "max_time_sec", ConfigError, "max_time_sec"),
    ("RelaxationParams", "alpha", ValueError, "alpha"),
    ("RelaxationParams.from_alpha", "alpha", ValueError, "alpha"),
    ("ProblemSpec", "lam", ValueError, "lambda"),
    ("L1", "weight", ValueError, "weight"),
]


@pytest.mark.parametrize("build, field, error, name", _HUGE_ROWS,
                         ids=[f"{build}.{field}" for build, field, _, _ in _HUGE_ROWS])
@pytest.mark.parametrize("sign", [1, -1])
def test_an_int_beyond_float_range_is_a_named_error(build, field, error, name, sign):
    # float() of such an int raises OverflowError, which names no field
    with pytest.raises(error, match=f"^{name} must be a real number within "
                                    "float range") as exc:
        _BUILD[build](**{field: sign * 10**400})
    assert type(exc.value) is error
