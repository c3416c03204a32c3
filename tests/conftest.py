import numpy as np
import pytest

from hopfcap import CapDomain, SpherePoint, build_gauss_rule


@pytest.fixture(scope="session")
def north():
    return SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.fixture(scope="session")
def unit_cap(north):
    return CapDomain(north, 1.0)


@pytest.fixture(scope="session")
def unit_cap_rule(unit_cap):
    # Modest orders keep module tests fast; acceptance uses the defaults.
    return build_gauss_rule(unit_cap, 32, 16, 32)


def _dense_linear(m, x):
    """Every m[i, j] * x[j] on axis -2, multiply-added in j order.

    The dense form of ``dual._linear``, which skips zero coefficients: the
    oracle for that kernel's bits.
    """
    out = np.empty(x.shape[:-2] + (m.shape[0], x.shape[-1]))
    term = np.empty(x.shape[:-2] + x.shape[-1:])
    for i in range(m.shape[0]):
        row = out[..., i, :]
        np.multiply(x[..., 0, :], m[i, 0], out=row)
        for j in range(1, m.shape[1]):
            np.multiply(x[..., j, :], m[i, j], out=term)
            row += term
    return out


@pytest.fixture(scope="session")
def dense_linear():
    return _dense_linear
