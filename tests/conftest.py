import numpy as np
import pytest

from gaussfisher import tolerances


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@pytest.fixture
def tolerance_env():
    """Set GAUSSFISHER_* overrides: ``tolerance_env(psd="1e-8")`` sets the
    variables and returns ``tolerances.reload()``. Teardown removes them and
    reloads, so no override reaches the next test."""
    with pytest.MonkeyPatch.context() as mp:
        def apply(**overrides):
            for name, raw in overrides.items():
                mp.setenv("GAUSSFISHER_" + name.upper(), raw)
            return tolerances.reload()

        yield apply
    tolerances.reload()
