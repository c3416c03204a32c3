"""Vectorized forward-mode dual numbers.

A ``Dual`` has one shape: its value ``val`` is (k, n), k rows over n
nodes (n = 1 for a constant column), and its derivatives ``eps`` are
(d, k, n), one (k, n) block per direction, so the value is computed once
for every seeded direction (vector forward mode).  A plain operand of
``+`` or ``-`` must broadcast to ``val``.  Field evaluators are written
against the small function set below, one body each, for a Dual.  A plain
evaluation is a Dual with d = 0, ``plain(x)``: each operation runs
its one body, and the derivative part comes out of the same expressions as
an empty array of the result's shape, so a value has the same bits whether
or not it is differentiated.  ``apply_linear`` also takes plain points,
through the same kernel: the jet forms its seed directions with it.

``compose(x, fn)`` applies the chain rule once for a scalar Dual x, (1, n):
it runs ``fn`` on x's value with one direction seeded with 1, so the
operations below form d fn / dx in one row whatever the number of x's
directions, and then multiplies it by x's derivatives.  A plain x seeds no
direction, so the chain carries no derivative row and the product is the
empty (0, k, n) array.  A field whose values depend on the point through
one scalar (the perturbed field's cos rho) runs its whole chain on that
direction.  ``fn`` must act column by column, each output column a
function of its own input value alone: then equal inputs give equal bits,
and ``compose`` runs ``fn`` once per run of consecutive values whose bit
patterns (an int64 view) are equal, and repeats its value and derivative
rows over the run.  Bit patterns, not float equality, so 0.0 and -0.0
(whose sines differ) and NaNs of different payloads stay apart.  It does
so for every input, whatever the number of runs.  On a cap centred at a
quaternion basis unit cos rho has one value per rho-slab, so a block runs
the chain on a few dozen values.  Where the values are all distinct (the
FD oracle's displaced points, Monte Carlo samples), finding and spreading
the runs adds a gather of the run starts and two ``np.repeat`` of the
rows to the chain itself.  Best of 80 in one process, 1 BLAS thread, on
a 2-core x86 host: ``jet_batch(mode="fd")`` on the FD oracle's 3 972
nodes takes 2.6 ms against 2.3 ms for the chain run on every value
directly, and a 20 000-sample Monte Carlo ``jet_sums`` 2.8 ms against
2.4 ms.

Vectors are stored component-major: a batch of n points in R^4 is a (4, n)
array, one row per component, and its derivatives are (d, 4, n).
``component_major`` and ``point_major`` are the one conversion between
this layout and the callers' point-major (..., 4) arrays.
Every fixed-order sum of products in the jet is one of two kernels, which
sum over the component rows (axis -2) with elementwise multiply-adds in a
fixed order, so every inner loop runs over the n nodes and no product goes
to BLAS: the result does not depend on which BLAS kernel or how many BLAS
threads the host has.  ``_linear`` (through ``apply_linear``) applies a
constant matrix: the jet's seed directions, and a field's constant frame
applied to its angles; a dot product with a constant vector is the one-row
matrix (1, 4).  It skips the zero coefficients of the matrix, which changes
at most the sign of an exactly-zero entry of the dense sum, so a frame map
at a quaternion basis axis (a signed permutation) is one multiply per row.
``row_dot`` sums the rowwise products of two arrays: the squared norm in
``norm``, and the FD jet's projection and the invariants' squared norms in
``calculus``.

A few operations form each intermediate once, with the bits of the dense
formula:

* ``norm`` forms the squared norm's eps as 2 * sum_j val_j * eps_j, one
  row accumulated in j order.  The product rule's term is
  val_j * eps_j + eps_j * val_j, the same product doubled, and doubling is
  exact, so the bits are those of the dense sum.
* ``Dual / Dual`` forms the quotient val * inv once, reuses it in eps and
  finishes eps in the buffer of its product with the divisor's eps.
* ``sincos`` gives both Duals from one ``np.sin`` and one ``np.cos``.

``a *= c``, ``a += b`` and ``a -= b`` are in-place forms: they write
``c * a``, ``a + b`` and ``a - b`` into a's buffers, so a field evaluator
forms each vector once and scales and adds into it.  They have the bits of
the operators: the product computes the same two products of the product
rule (eps * c.val in place, then val * c.eps one direction at a time,
added to it), and IEEE products and sums commute.  ``a`` must hold the
result's shape and be a fresh buffer the evaluator made itself:
``Dual(x, y)`` and ``plain(x)`` wrap the caller's arrays, and ``+`` or
``-`` with a plain operand returns a Dual that shares ``eps`` with its
Dual operand, so writing into any of these would change an array the
caller still reads.
"""

from __future__ import annotations

import numpy as np

# Floor for derivative denominators near arccos/arctan2 poles.  Keeps eps
# finite; callers never differentiate exactly at a pole.
_DENOM_FLOOR = 1e-300


class Dual:
    """First-order jet: value (k, n), and ``eps`` (d, k, n) holding one derivative per direction."""

    __slots__ = ("val", "eps")

    # Make ndarray <op> Dual defer to the reflected operators below.
    __array_ufunc__ = None

    def __init__(self, val, eps):
        self.val = np.asarray(val, dtype=float)
        self.eps = np.asarray(eps, dtype=float)

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

    # The in-place forms write the result into self's buffers, which must
    # be fresh and of the result's shape (see the module docstring).

    def __iadd__(self, other):
        if isinstance(other, Dual):
            self.eps += other.eps
            other = other.val
        self.val += other
        return self

    def __isub__(self, other):
        if isinstance(other, Dual):
            self.eps -= other.eps
            other = other.val
        self.val -= other
        return self

    def __imul__(self, other):
        if not isinstance(other, Dual):
            self.val *= other
            self.eps *= other
            return self
        # eps = val * other.eps + eps * other.val, the two products of
        # __mul__, the first formed one direction at a time.
        self.eps *= other.val
        for d, eps in enumerate(self.eps):
            eps += self.val * other.eps[d]
        self.val *= other.val
        return self

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            q = self.val * inv
            eps = q * other.eps
            np.subtract(self.eps, eps, out=eps)
            eps *= inv
            return Dual(q, eps)
        return Dual(self.val / other, self.eps / other)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("Dual.__pow__ supports positive integer exponents only")
        # v^n = v^(n-1) v, with v^(n-1) the derivative's factor too: a
        # square, not a general power, at the bump's n = 3.
        low = self.val ** (n - 1)
        return Dual(low * self.val, n * low * self.eps)


def plain(x):
    """Points ``x`` (k, n) as a ``Dual`` with no derivative directions: eps is (0, k, n)."""
    val = np.asarray(x, dtype=float)
    return Dual(val, np.empty((0,) + val.shape))


def component_major(a, lead):
    """Point-major ``a`` (lead + (..., 4)) as a contiguous (lead + (4, n)) array.

    The first ``lead`` axes (derivative directions) are kept and the point
    axes between them and the 4 are flattened into n.
    """
    a = np.asarray(a, dtype=float)
    return np.ascontiguousarray(np.swapaxes(a.reshape(a.shape[:lead] + (-1, 4)), -1, -2))


def point_major(a, shape):
    """Component-major ``a`` (..., 4, n) back to ``shape``, whose last axis is the 4."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)).reshape(shape)


def sqrt(x):
    r = np.sqrt(x.val)
    return Dual(r, 0.5 / r * x.eps)


def sincos(x):
    """(sin x, cos x) from one ``np.sin`` and one ``np.cos`` of the value."""
    s, c = np.sin(x.val), np.cos(x.val)
    return Dual(s, c * x.eps), Dual(c, -s * x.eps)


def arccos(x):
    """Arc cosine with clipped values and a floored derivative denominator."""
    v = np.clip(x.val, -1.0, 1.0)
    denom = np.sqrt(np.maximum(1.0 - v * v, _DENOM_FLOOR))
    return Dual(np.arccos(v), -x.eps / denom)


def arctan2(y, x):
    """Arc tangent of y / x for two Duals."""
    denom = np.maximum(x.val * x.val + y.val * y.val, _DENOM_FLOOR)
    return Dual(np.arctan2(y.val, x.val), (x.val * y.eps - y.val * x.eps) / denom)


def relu(x):
    """max(x, 0); derivative taken as 0 on the inactive side."""
    active = x.val > 0.0
    return Dual(np.where(active, x.val, 0.0), np.where(active, x.eps, 0.0))


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


def row_dot(a, b):
    """sum_j a[j] * b[j] on axis -2, added in j order into one row.

    The bits of the row sum of the full product ``a * b``, without forming it.
    """
    total = np.multiply(a[..., 0:1, :], b[..., 0:1, :])
    term = np.empty_like(total)
    for j in range(1, a.shape[-2]):
        np.multiply(a[..., j : j + 1, :], b[..., j : j + 1, :], out=term)
        total += term
    return total


def stack(rows):
    """Duals of (k, n) rows stacked on axis -2, value and derivatives alike."""
    return Dual(np.concatenate([r.val for r in rows], axis=-2), np.concatenate([r.eps for r in rows], axis=-2))


def apply_linear(matrix, x):
    """The constant matrix applied to component-major points ``x`` (4, n), or to a Dual of them."""
    m = np.asarray(matrix, dtype=float)
    if isinstance(x, Dual):
        return Dual(_linear(m, x.val), _linear(m, x.eps))
    return _linear(m, np.asarray(x, dtype=float))


def compose(x, fn):
    """``fn(x)`` for a scalar Dual x (1, n), with the chain rule applied once.

    ``fn`` runs on a Dual of x's value with one direction, seeded with 1,
    or with none when x has none, so its derivative rows are d fn / dx,
    formed by this module's own rules; they are then multiplied by each of
    x's directions.  ``fn`` maps (1, n) to (k, n), and the result is a
    Dual of that shape with x's directions.  Its value has the bits of
    ``fn(x)``; its derivative is that of ``fn(x)`` up to the association of
    the chain's products.

    ``fn`` must act column by column: the output column at a node depends
    on that node's input value alone, in the same way at every node.  The
    result's bits rest on this.  Then equal inputs give equal bits, and
    ``fn`` runs once per run of consecutive values with equal bit patterns
    (so 0.0 and -0.0, or two NaN payloads, are different values); its value
    and derivative rows are repeated over each run.
    """
    val = x.val
    # One seeded row, or none when x has no directions.
    seed = min(1, len(x.eps))
    bits = val[0].view(np.int64)
    change = bits[1:] != bits[:-1]
    # An empty x has no runs.
    runs = min(1, bits.size) + np.count_nonzero(change)
    # bounds[r] is the first index of run r, bounds[runs] the size.
    bounds = np.empty(runs + 1, dtype=np.intp)
    bounds[0], bounds[runs] = 0, bits.size
    np.add(np.flatnonzero(change), 1, out=bounds[1:runs])
    del change
    y = fn(Dual(val[:, bounds[:-1]], np.ones((seed, 1, runs))))
    lengths = np.diff(bounds)
    del bounds
    y = Dual(np.repeat(y.val, lengths, axis=-1), np.repeat(y.eps, lengths, axis=-1))
    del lengths
    return Dual(y.val, y.eps * x.eps)


def norm(x):
    """Euclidean lengths (1, n) of the component-major vectors of a Dual."""
    eps = row_dot(x.val, x.eps)
    eps *= 2.0
    return sqrt(Dual(row_dot(x.val, x.val), eps))


def normalize(x):
    """Scale the component-major (4, n) vectors of a Dual to unit length."""
    return x / norm(x)
