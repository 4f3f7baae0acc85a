"""One gate for counts: every count or seed a caller passes to the API is
read through ``model.integer``, which takes an integer or an integral float
and refuses anything else, or a value below the count's least one, with a
``ConfigError`` naming the argument.  JSON files keep ``require_int``."""
import math

import numpy as np
import pytest

from fpplab.errors import ConfigError
from fpplab.sim import SimulationConfig, ZeroStrategy, simulate
from fpplab.spectral import invert_laplace_discrete, radial_ode_diagnostic
from fpplab.verify import martingale_test

from conftest import make_scalar_model
from test_states import _calls_by_function

_MARKET = make_scalar_model()
_BUNDLE = simulate(_MARKET, SimulationConfig(dt=0.1, horizon=1.0, n_paths=200, seed=4),
                   ZeroStrategy(_MARKET.n), y0=[0.0])
_T = np.linspace(0.0, 1.0, 21)
_SAMPLES = np.column_stack([_T, 0.4 * np.exp(-0.5 * _T) + 0.6 * np.exp(-2.0 * _T)])


def _config(key):
    return lambda v: SimulationConfig(**{"dt": 0.1, "horizon": 1.0, "n_paths": 10, key: v})


def _vfeval(t, x, y):
    return x + t * y[:, 0]


# name -> (call of the count, the name it is refused by, its least value or
# None, a valid value).
COUNT_SITES = {
    "SimulationConfig.n_paths": (_config("n_paths"), "simulation config n_paths", 1, 3),
    "SimulationConfig.seed": (_config("seed"), "simulation config seed", None, 3),
    "SimulationConfig.record_stride": (_config("record_stride"),
                                       "simulation config record_stride", 1, 3),
    "martingale_test.n_buckets": (lambda v: martingale_test(_BUNDLE, _vfeval, n_buckets=v),
                                  "n_buckets", 1, 4),
    "invert_laplace_discrete.m": (lambda v: invert_laplace_discrete(_SAMPLES, v), "m", 1, 2),
    "radial_ode_diagnostic.k": (lambda v: radial_ode_diagnostic(lambda r: 0.0, 0.0, v, 3.0),
                                "k", 2, 3),
}

BAD_COUNTS = {"string": ("a", "'a'"), "fraction": (2.5, "2.5"), "null": (None, "None"),
              "bool": (True, "True"), "NaN": (math.nan, "nan"), "inf": (math.inf, "inf"),
              "list": ([3], r"\[3\]")}


@pytest.mark.parametrize("bad", sorted(BAD_COUNTS))
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_a_count_that_is_not_an_integer_is_refused_by_name(site, bad):
    call, what, _, _ = COUNT_SITES[site]
    value, shown = BAD_COUNTS[bad]
    with pytest.raises(ConfigError, match=rf"^{what} must be an integer, got {shown}$"):
        call(value)


@pytest.mark.parametrize("site", sorted(s for s in COUNT_SITES if COUNT_SITES[s][2] is not None))
def test_a_count_below_its_least_value_is_refused_by_name(site):
    call, what, least, _ = COUNT_SITES[site]
    for value in (least - 1, float(least - 1), -5):
        with pytest.raises(ConfigError, match=rf"^{what} must be >= {least}, got {int(value)}$"):
            call(value)


def _form(result):
    return result.to_json() if hasattr(result, "to_json") else result


@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_a_valid_count_reads_the_same_in_every_spelling(site):
    call, _, _, value = COUNT_SITES[site]
    expected = _form(call(value))
    for spelling in (float(value), np.int64(value)):
        assert _form(call(spelling)) == expected, repr(spelling)


def test_the_config_keeps_its_counts_as_ints():
    cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=np.int64(10), seed=3.0,
                           record_stride=2.0)
    assert (cfg.n_paths, cfg.seed, cfg.record_stride) == (10, 3, 2)
    assert {type(v) for v in (cfg.n_paths, cfg.seed, cfg.record_stride)} == {int}
    assert SimulationConfig(dt=0.1, horizon=1.0, n_paths=10, seed=-3).seed == -3


def test_integer_is_the_one_count_gate():
    assert _calls_by_function("integer") == {
        "sim.py:SimulationConfig.__post_init__", "verify.py:martingale_test",
        "spectral.py:invert_laplace_discrete", "spectral.py:radial_ode_diagnostic"}
    # The JSON reader and the gate share one test of an integer.
    assert _calls_by_function("_integral") == {"model.py:require_int", "model.py:integer"}
