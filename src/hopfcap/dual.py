"""Vectorized forward-mode dual numbers.

A ``Dual`` carries a value ``val`` and derivatives ``eps`` of shape
``dirs + val.shape``: the leading axes index directions and line up with
``val`` from the right, so the value is computed once for every seeded
direction (vector forward mode); ``dirs`` may be empty.  A plain operand of
``+`` or ``-`` must broadcast to ``val``.  Field evaluators are written
against the small function set below (``sqrt``, ``sin`` , ``cos``,
``arccos``, ``arctan2``, ``vdot``, ...) so a single code path serves both
plain evaluation and exact forward-mode differentiation.

Vectors are stored component-major: a batch of n points in R^4 is a (4, n)
array, one row per component, and its derivatives are (dirs..., 4, n).
``vdot`` and ``apply_linear`` work on the component rows (axis -2) with
elementwise multiply-adds in a fixed order, so every inner loop runs over
the n nodes, and no product goes to BLAS: the result does not depend on
which BLAS kernel or how many BLAS threads the host has.  ``apply_linear``
skips the zero coefficients of its constant matrix, which changes at most
the sign of an exactly-zero entry of the dense sum; a frame map at a
quaternion basis axis is a signed permutation, one multiply per row.
"""

from __future__ import annotations

import numpy as np

# Floor for derivative denominators near arccos/arctan2 poles.  Keeps eps
# finite; callers never differentiate exactly at a pole.
_DENOM_FLOOR = 1e-300


class Dual:
    """First-order jet: ``eps`` of shape ``dirs + val.shape`` holds one derivative per direction."""

    __slots__ = ("val", "eps")

    # Make ndarray <op> Dual defer to the reflected operators below.
    __array_ufunc__ = None

    def __init__(self, val, eps):
        self.val = np.asarray(val, dtype=float)
        self.eps = np.asarray(eps, dtype=float)

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val, self.val * other.eps + self.eps * other.val)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv, (self.eps - self.val * inv * other.eps) * inv)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return Dual(other * inv, -(other * inv) * inv * self.eps)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("Dual.__pow__ supports positive integer exponents only")
        return Dual(self.val**n, n * self.val ** (n - 1) * self.eps)


def value(x):
    """Value part of ``x`` (identity on plain arrays)."""
    if isinstance(x, Dual):
        return x.val
    return np.asarray(x, dtype=float)


def sqrt(x):
    if isinstance(x, Dual):
        r = np.sqrt(x.val)
        return Dual(r, 0.5 / r * x.eps)
    return np.sqrt(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.val), np.cos(x.val) * x.eps)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.val), -np.sin(x.val) * x.eps)
    return np.cos(x)


def arccos(x):
    """Arc cosine with clipped values and a floored derivative denominator."""
    if isinstance(x, Dual):
        v = np.clip(x.val, -1.0, 1.0)
        denom = np.sqrt(np.maximum(1.0 - v * v, _DENOM_FLOOR))
        return Dual(np.arccos(v), -x.eps / denom)
    return np.arccos(np.clip(x, -1.0, 1.0))


def arctan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        yv, xv = value(y), value(x)
        ye = y.eps if isinstance(y, Dual) else 0.0
        xe = x.eps if isinstance(x, Dual) else 0.0
        denom = np.maximum(xv * xv + yv * yv, _DENOM_FLOOR)
        return Dual(np.arctan2(yv, xv), (xv * ye - yv * xe) / denom)
    return np.arctan2(y, x)


def relu(x):
    """max(x, 0); derivative taken as 0 on the inactive side."""
    if isinstance(x, Dual):
        active = x.val > 0.0
        return Dual(np.where(active, x.val, 0.0), np.where(active, x.eps, 0.0))
    return np.maximum(x, 0.0)


def _row_sum(p):
    """Sum of the component rows (axis -2), left to right, kept as one row."""
    total = p[..., 0:1, :]
    for i in range(1, p.shape[-2]):
        total = total + p[..., i : i + 1, :]
    return total


def _linear(m, x):
    """Rows sum_j m[i, j] x[j] on axis -2, each summed over j in order.

    A term with coefficient 0 is skipped; the others are multiply-added.
    For finite x this gives the dense sum of every ``m[i, j] * x[j]`` but
    for the sign of an entry that is exactly zero: a skipped 0 * x[j] is a
    signed zero, which is lost against any nonzero sum.  A row of zeros
    keeps all its terms, so its zeros carry the dense sum's signs.
    """
    out = np.empty(x.shape[:-2] + (m.shape[0], x.shape[-1]))
    term = np.empty(x.shape[:-2] + x.shape[-1:])
    for i, coeffs in enumerate(m.tolist()):
        row = out[..., i, :]
        terms = [(j, c) for j, c in enumerate(coeffs) if c != 0.0] or list(enumerate(coeffs))
        (j, c), rest = terms[0], terms[1:]
        np.multiply(x[..., j, :], c, out=row)
        for j, c in rest:
            np.multiply(x[..., j, :], c, out=term)
            row += term
    return out


def vdot(a, b):
    """Inner product over the component rows (axis -2), kept as a (1, n) row."""
    p = a * b
    if isinstance(p, Dual):
        return Dual(_row_sum(p.val), _row_sum(p.eps))
    return _row_sum(p)


def apply_linear(matrix, x):
    """The constant matrix applied to component-major points ``x`` (..., 4, n)."""
    m = np.asarray(matrix, dtype=float)
    if isinstance(x, Dual):
        return Dual(_linear(m, x.val), _linear(m, x.eps))
    return _linear(m, np.asarray(x, dtype=float))


def normalize(x):
    """Scale component-major (..., 4, n) vectors to unit length."""
    return x / sqrt(vdot(x, x))
