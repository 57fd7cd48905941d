"""Tests for the once-per-process tolerance resolution and its reload point."""

import pytest

from gaussfisher import core, tolerances
from gaussfisher.errors import ValidationError
from gaussfisher.states import TsParams, thermal_cov
from gaussfisher.tolerances import Tolerances


def test_current_is_resolved_once():
    first = tolerances.current()
    assert tolerances.current() is first
    assert tolerances.reload() is not first
    assert tolerances.current() == first


def test_set_variable_waits_for_reload(monkeypatch):
    monkeypatch.setenv("GAUSSFISHER_PSD", "1e-8")
    assert tolerances.current().psd == Tolerances.psd
    try:
        assert tolerances.reload().psd == 1e-8
    finally:
        monkeypatch.undo()
        tolerances.reload()


class TestToleranceEnv:
    # the two tests run in this order: an override set in the first must not
    # reach the second
    def test_override_applies_after_reload(self, tolerance_env):
        tol = tolerance_env(psd="1e-8", kminus="0")
        assert tolerances.current() is tol
        assert (tol.psd, tol.kminus) == (1e-8, 0.0)
        assert tolerances.describe().split()[1] == "psd=1e-08*"

    def test_override_gone_in_next_test(self):
        assert tolerances.current() == Tolerances()
        assert "*" not in tolerances.describe()


@pytest.mark.parametrize("name, raw", [
    ("psd", "abc"), ("sym", "nan"), ("psd", "-1"), ("invariant", "inf"), ("branch", ""),
])
def test_bad_override_raises_named(tolerance_env, name, raw):
    variable = f"GAUSSFISHER_{name.upper()}"
    with pytest.raises(ValidationError, match=f"{variable}={raw!r}"):
        tolerance_env(**{name: raw})
    # no stale record stays in force: the next lookup, here inside the
    # physicality check of a valid state, names the variable too
    with pytest.raises(ValidationError, match=variable):
        core.check_physical(thermal_cov(TsParams(1.0, 1.0)))
