"""Limits and RunConfig as immutable, validated value types."""

import pytest

from dycklat.cli import _CAP_KEYS, _INT_KEYS, _KEYS, RunConfig
from dycklat.limits import Limits


def test_limits_construction_and_defaults():
    assert Limits() == Limits(14, 200, 6)
    assert Limits(3, max_shape_area=2) == Limits(max_lattice_n=3, max_closed_n=200, max_shape_area=2)
    assert Limits(3).max_shape_area == 6
    with pytest.raises(TypeError):
        Limits(max_levels=3)


def test_limits_equality_hash_and_repr():
    assert Limits(max_lattice_n=3) != Limits()
    assert len({Limits(), Limits(), Limits(max_closed_n=9)}) == 2
    assert repr(Limits()) == (
        "Limits(max_lattice_n=14, max_closed_n=200, max_shape_area=6)"
    )


def test_limits_are_immutable():
    limits = Limits()
    with pytest.raises(AttributeError):
        limits.max_lattice_n = 20
    with pytest.raises(AttributeError):
        limits.extra = 1


@pytest.mark.parametrize("field", Limits._fields)
def test_limits_reject_negative_caps(field):
    with pytest.raises(ValueError, match=f"{field} must be nonnegative, got -1"):
        Limits(**{field: -1})
    with pytest.raises(ValueError, match=field):
        Limits()._replace(**{field: -1})


def test_run_config_defaults_and_keys():
    cfg = RunConfig()
    assert (cfg.n_max, cfg.h, cfg.order, cfg.fmt, cfg.limits) == (9, 2, 20, "plain", Limits())
    assert RunConfig(4, fmt="csv") == RunConfig(n_max=4, h=2, order=20, fmt="csv")
    assert hash(RunConfig()) == hash(RunConfig())
    assert repr(RunConfig(limits=Limits(1))).startswith("RunConfig(n_max=9, h=2, order=20, fmt='plain', limits=Limits(")
    with pytest.raises(AttributeError):
        cfg.h = 3
    assert _CAP_KEYS == {"max_lattice_n", "max_closed_n", "max_shape_area"}
    assert _KEYS == _CAP_KEYS | {"n_max", "h", "order", "fmt"}
    assert _INT_KEYS == _KEYS - {"fmt"}

