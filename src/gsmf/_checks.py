"""The one rule for scalar parameters: a bool is not a number, NaN is not a
value, and +inf passes only where it means "no limit".

Each check returns the value as a Python int, float or bool, so a numpy
scalar's precision does not carry into what is computed from it.
"""

import math
import numbers

import numpy as np


def integer(name, value, least, error=ValueError):
    """value as an int, after checking that it is an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def real(name, value, least=-math.inf, most=math.inf, inf=False, error=ValueError):
    """value as a float, after checking that it is a real number in
    [least, most]; +inf passes only if ``inf``, where it means no limit."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        # not printed: a huge int's repr can itself raise
        raise error(f"{name} must be a real number within float range, got an "
                    f"out-of-range {type(value).__name__}") from None
    if math.isnan(x):
        raise error(f"{name} must be a real number, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value!r}")
    if value > most:
        raise error(f"{name} must be <= {most}, got {value!r}")
    if math.isinf(x) and not (inf and x > 0):
        raise error(f"{name} must be finite, got {value!r}")
    return x


def flag(name, value, error=ValueError):
    """value as a bool, after checking that it is one; a numpy bool is."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be a bool, got {value!r}")
    return bool(value)
