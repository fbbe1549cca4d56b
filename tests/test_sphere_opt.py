"""Tests for SphereOptConfig, the search configuration the library still accepts."""

import pytest

from optrig import SphereOptConfig


def test_config_validation():
    with pytest.raises(ValueError):
        SphereOptConfig(restarts=0)
    with pytest.raises(ValueError):
        SphereOptConfig(max_iters=0)
    with pytest.raises(ValueError):
        SphereOptConfig(step_tol=0.0)
    with pytest.raises(ValueError):
        SphereOptConfig(value_tol=-1.0)
