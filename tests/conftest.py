from types import SimpleNamespace

import numpy as np
import pytest

from hopfcap import CapDomain, SpherePoint, build_gauss_rule
from hopfcap import dual as du


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


# Dense forms of the operations that ``dual`` specialises: the oracles for
# their bits.


def _dense_row_sum(p):
    """Component rows of a full product (axis -2), added left to right."""
    total = p[..., 0:1, :]
    for i in range(1, p.shape[-2]):
        total = total + p[..., i : i + 1, :]
    return total


def _dense_vdot(a, b):
    """Row sums of the full product ``a * b`` of two Duals."""
    p = a * b
    return du.Dual(_dense_row_sum(p.val), _dense_row_sum(p.eps))


def _dense_truediv(a, b):
    """``Dual / Dual`` with the quotient formed twice and no buffer reuse."""
    if isinstance(b, du.Dual):
        inv = 1.0 / b.val
        return du.Dual(a.val * inv, (a.eps - a.val * inv * b.eps) * inv)
    return du.Dual(a.val / b, a.eps / b)


def _dense_sincos(x):
    """Sine and cosine of a Dual as two separate evaluations, each calling sin and cos."""
    return (
        du.Dual(np.sin(x.val), np.cos(x.val) * x.eps),
        du.Dual(np.cos(x.val), -np.sin(x.val) * x.eps),
    )


@pytest.fixture(scope="session")
def dense_forms():
    return SimpleNamespace(
        row_sum=_dense_row_sum, vdot=_dense_vdot, truediv=_dense_truediv, sincos=_dense_sincos
    )
