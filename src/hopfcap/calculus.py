"""Differentiation of unit fields and per-point invariants.

The jet reads sigma1, sigma2, the energy density and the volume integrand
off the 3x3 matrix B[a, b] = <grad_{e_a} v, e_b> in the tangent basis
e = (i x, j x, k x) of left multiplications; all four are symmetric
functions of grad v, so no frame adapted to v is needed.  B has two
routes, which share the field's evaluation and nothing after it:

* AD (the jet): every field is v = u x with u its frame components
  (``fields``), and e_a = q_a x with q_a in (i, j, k), so
  D_{e_a} v = (d_a u) x + (u q_a) x and, right multiplication by x being
  an isometry, B = du + [u]x: B[a, b] = d_a u_b + (u x q_a)_b.  The field
  is evaluated once, at the unit nodes on a ``Dual`` carrying the three
  basis directions, and B is its derivative matrix plus six signed entries
  of u (``_ad_jet``); no 4-vector of the field is formed.  The evaluators
  read unit points, so no block forms |x|, whose derivative along e_a is 0
  at a unit x; ``jet_batch`` rejects a point off S^3 by more than
  ``UNIT_TOL``, and the rules' nodes are unit to rounding.  Since u is a
  unit vector, d_a u and u x q_a are orthogonal to u, so B u = 0: v's own
  direction in this basis is u, with no projection.
* FD (the ``ad_fd_jet_agreement`` oracle, ``jet_batch(mode="fd")``): the
  field's value v at x +- FD_STEP e_a, differenced and projected on the
  basis by ``row_dot``, the covariant derivative's immersion relation for
  S^3 in R^4.

Both routes form B in the one fixed basis e (``_basis``).  ``jet_batch``
may be given per-point angles that turn (e_0, e_1); ``_jet_block`` is the
one place that reads them, turning the route's B to R B R^T, so u and
d_a u are always the fixed basis's.

The points are taken in blocks of ``JET_BLOCK`` nodes, each block one
evaluation (``_jet_block``), component-major as in ``dual``.  Two drivers
run it.  ``jet_sums`` walks a quadrature rule, building each block's nodes
and weights from the rule, and reduces the block's scalars inside it to
the weighted sums, minima and subsample that the functionals and checks
read, so no per-node array outlives its block.  ``jet_batch`` takes given
points and writes each block's four scalars into its columns of one
(4, N) result.  Every block allocates and frees the same temporaries, so a
process that keeps freed memory mapped (``cli.main`` does) reuses them
instead of faulting fresh pages for each block.  The jet is elementwise
arithmetic in a fixed order, with no matrix or cross product and no BLAS
call: its bits do not depend on the BLAS kernel, and it runs on the calling
thread.  Every sum of products in it is a kernel of ``dual``: ``_linear`` (a
constant matrix: the basis, and the fields' constant frames) or ``row_dot``
(a rowwise dot: the FD projection and the squared norms of B and its
cofactors); the traces and B's cross term are explicit adds.  Each cofactor
is written straight from two products of entries of B into one (3, 3, n)
array, with no gathered copies of the matrix.  This module holds no other
frame: the numeric Jacobian determinant in ``displace`` differentiates the
field's value along its own directions (x i, x j, x k) through
``_value_and_derivative``, whose one dual evaluation also gives it the
value.  Every derivative is AD except the FD oracle's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual as du
from .fields import UnitField
from .geometry import FRAME_ROWS
from .quadrature import JET_BLOCK, QuadratureRule, WeightedSum, require_finite

FD_STEP = 1e-5
# Largest ||x| - 1| of a point ``jet_batch`` takes.  The field evaluators
# read unit points (``fields``), so the jet differentiates no |x|; rule
# nodes and seeded samples are unit to a few ulps.
UNIT_TOL = 1e-12


def directional_derivative(field: UnitField, points, directions):
    """Ambient derivative Dv[Y] of the field extension along Y, by AD."""
    return _value_and_derivative(field, points, directions)[1]


def _value_and_derivative(field: UnitField, points, directions):
    """The field's value v(x) and Dv[Y], from its one AD evaluation.

    ``points`` and the value have shape (..., 4); ``directions`` and Dv[Y]
    have shape dirs + points.shape, one direction per leading index.  The
    directions enter the ``Dual`` on one axis, dirs flattened (one
    direction when dirs is empty).  The value is ``field(points)``: a plain
    evaluation is the same dual arithmetic with no directions, so it has
    the same bits.
    """
    x = np.asarray(points, dtype=float)
    y = np.asarray(directions, dtype=float)
    lead = math.prod(y.shape[: y.ndim - x.ndim])
    d = field(du.Dual(du.component_major(x, 0), du.component_major(y.reshape((lead,) + x.shape), 1)))
    return du.point_major(d.val, x.shape), du.point_major(d.eps, y.shape)


@dataclass(frozen=True)
class JetBatch:
    """Per-point invariants for a batch of points (leading axis N)."""

    sigma1: np.ndarray          # (N,)
    sigma2: np.ndarray          # (N,)
    energy_density: np.ndarray  # (N,)
    volume_integrand: np.ndarray  # (N,)


def jet_batch(
    field: UnitField,
    points: np.ndarray,
    mode: str = "ad",
    frame_rotation: np.ndarray | None = None,
) -> JetBatch:
    """Assemble all per-point invariants at each row of ``points`` (N, 4).

    With B[a, b] = <grad_{e_a} v, e_b> in the orthonormal tangent basis e,
    G = B B^T the Gram matrix of the derivatives, and C the cofactor matrix
    of B (row a is the cross product of rows a+1 and a+2, cyclically):

    * sigma1 = tr B and sigma2 = e2(B) = ((tr B)^2 - tr B^2) / 2 = tr C.
      The image of grad v lies in v-perp, so these equal the trace and
      determinant of the 2x2 block h on v-perp.
    * energy density = tr G = |B|_F^2.
    * volume integrand = sqrt(det(I + G)) = sqrt(1 + tr G + e2(G)), with
      e2(G) = |C|_F^2 by Cauchy-Binet (the sum of |grad_a v ^ grad_b v|^2);
      the cubic term det G vanishes because B has rank <= 2 (Gluck-Ziller).

    The cofactor forms avoid the cancellation of the trace forms where
    |grad v| is large.  ``frame_rotation`` optionally gives one angle per
    point, shape (N,), by which the first two basis vectors (i x, j x) are
    turned: B is formed in the fixed basis and ``_jet_block`` turns it,
    B' = R B R^T.  All four invariants are unchanged under this; angles of
    any other shape raise ``ValueError``.

    The points must lie on S^3: a point whose norm is not 1 to
    ``UNIT_TOL`` raises ``ValueError`` naming it, since the field is read
    at the point as it is (``fields``).

    The rows are evaluated in consecutive blocks of ``JET_BLOCK`` nodes,
    each block one dual evaluation with value (4, n) and tangent (3, 4, n)
    (vector forward mode), and each block writes its per-node scalars into
    its columns of one preallocated (4, N) array.  All arithmetic is
    elementwise, so the bits of a node do not depend on its block, and the
    result is bit-identical to a single block.  The dual-number temporaries
    are bounded by the block size rather than by N.
    """
    x = np.asarray(points, dtype=float)
    theta = None if frame_rotation is None else np.asarray(frame_rotation, dtype=float)
    if theta is not None and theta.shape != (len(x),):
        raise ValueError(f"frame_rotation has shape {theta.shape}, not ({len(x)},), one angle per point")
    out = np.empty((4, len(x)))
    for start in range(0, len(x), JET_BLOCK):
        block = slice(start, start + JET_BLOCK)
        rotation = None if theta is None else theta[block]
        nodes = du.component_major(x[block], 0)
        _require_unit(nodes, start)
        _jet_block(field, nodes, mode, rotation, out[:, block])
    return JetBatch(*out)


def _require_unit(x: np.ndarray, start: int) -> None:
    """Raise ``ValueError`` at the first of the points (4, n), numbered from
    ``start``, whose norm is not 1 to ``UNIT_TOL``."""
    norm = np.sqrt(du.row_dot(x, x)[0])
    off = ~(np.abs(norm - 1.0) <= UNIT_TOL)
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(f"point {start + i}, {x[:, i]}, is off the unit sphere: norm {norm[i]}, not 1 to {UNIT_TOL}")


@dataclass(frozen=True)
class JetSums:
    """A field's AD jet over a rule, reduced block by block.

    Each integral is (value, error estimate), as ``integrate`` returns it.
    ``determinant[t]`` integrates the analytic Jacobian determinant
    sqrt(1 + t^2) (1 + sigma1 t + sigma2 t^2) of the offset-t displacement,
    and ``polynomial_min[t]`` is the least 1 + sigma1 t + sigma2 t^2 over the
    nodes with the first node that reaches it.  ``sample`` is the jet at
    every stride-th node and ``sample_nodes`` those nodes (m, 4), or None
    without a stride.
    """

    sigma1: tuple
    sigma2: tuple
    energy_density: tuple
    volume_integrand: tuple
    determinant: dict
    polynomial_min: dict
    sample: JetBatch | None
    sample_nodes: np.ndarray | None


def jet_sums(field: UnitField, rule: QuadratureRule, offsets, stride: int | None) -> JetSums:
    """The field's jet at every node of the rule, reduced inside each block.

    The rule is walked in blocks of ``JET_BLOCK`` nodes.  Each block builds
    its nodes and weights, runs ``_jet_block`` once in AD mode, adds the
    rows of the four invariants and of each offset's determinant to one
    ``WeightedSum``, and keeps the least determinant polynomial with its
    node.  Only the every-``stride``-th nodes keep their jet (none when
    ``stride`` is None), so no per-node row outlives its block.  A
    non-finite invariant raises ``ValueError`` naming its node.
    """
    offsets = tuple(offsets)
    total = WeightedSum(rule)
    lowest = [(math.inf, -1)] * len(offsets)
    sample, sample_nodes = [], []
    for start, stop in rule.blocks():
        x, w = rule.block(start, stop)
        # The four invariants, then for each offset t the determinant
        # sqrt(1 + t^2) (1 + sigma1 t + sigma2 t^2), one row each.
        rows = np.empty((4 + len(offsets), stop - start))
        jet = rows[:4]
        _jet_block(field, x, "ad", None, jet)
        require_finite(jet, start, x)
        for j, t in enumerate(offsets):
            low, i = determinant_row(jet[0], jet[1], t, rows[4 + j])
            if low < lowest[j][0]:
                lowest[j] = (low, start + i)
        total.add(w, rows)
        if stride is not None:
            first = -start % stride
            sample.append(jet[:, first::stride].copy())
            sample_nodes.append(x[:, first::stride].T.copy())
    integrals = total.result()
    return JetSums(
        *integrals[:4],
        determinant=dict(zip(offsets, integrals[4:])),
        polynomial_min=dict(zip(offsets, lowest)),
        sample=None if stride is None else JetBatch(*np.concatenate(sample, axis=1)),
        sample_nodes=None if stride is None else np.concatenate(sample_nodes),
    )


def determinant_row(sigma1: np.ndarray, sigma2: np.ndarray, t: float, out: np.ndarray) -> tuple[float, int]:
    """Write the offset-t Jacobian determinant sqrt(1 + t^2) (1 + sigma1 t + sigma2 t^2) into ``out``.

    The polynomial is formed in ``out`` and then scaled in place.  Returns
    the least polynomial value over the row with its first index, which
    the determinant floor reads, or (inf, -1) for an empty row.
    """
    np.multiply(sigma1, t, out=out)
    out += 1.0
    out += sigma2 * t * t
    if not out.size:
        return math.inf, -1
    i = int(np.argmin(out))
    low = float(out[i])
    out *= math.sqrt(1.0 + t * t)
    return low, i


# (a, b, c, sign): B[a, b] gets sign * u_c, the entry (u x q_a)_b = e_abc u_c.
_CROSS = ((0, 1, 2, 1), (0, 2, 1, -1), (1, 0, 2, -1), (1, 2, 0, 1), (2, 0, 1, 1), (2, 1, 0, -1))


def _basis(x: np.ndarray) -> np.ndarray:
    """The tangent basis e = (i x, j x, k x), (3, 4, n), at points x (4, n)."""
    return du.apply_linear(FRAME_ROWS, x).reshape(3, 4, -1)


def _ad_jet(field: UnitField, x: np.ndarray):
    """The frame components u and B = du + [u]x (3, 3, n) at points x (4, n), by AD.

    u = v conj(x) is evaluated once, on a ``Dual`` carrying the basis
    directions, so u.eps[a] = d_a u.  B[a, b] is d_a u_b plus (u x q_a)_b:
    +-u_c off the diagonal (``_CROSS``) and +0.0 on it, so B's entries have
    the signs of the dense sum du + [u]x whatever the signs of u's
    exactly-zero derivatives.
    """
    u = field.components(du.Dual(x, _basis(x)))
    grad = np.empty((3, 3, x.shape[-1]))
    for a in range(3):
        np.add(u.eps[a, a], 0.0, out=grad[a, a])
    for a, b, c, sign in _CROSS:
        (np.add if sign > 0 else np.subtract)(u.eps[a, b], u.val[c], out=grad[a, b])
    return u, grad


def _fd_jet(field: UnitField, x: np.ndarray) -> np.ndarray:
    """B (3, 3, n) at points x (4, n) from central differences of the field's value.

    The displaced points x +- FD_STEP e of all three directions are
    evaluated in one call on each side, side by side as one ``dual.plain``
    block (4, 3n), and the difference quotients, split back to (3, 4, n),
    are projected on the basis.
    """
    basis = _basis(x)
    plus, minus = (
        field(du.plain(np.swapaxes(x + step * basis, 0, 1).reshape(4, -1))).val
        for step in (FD_STEP, -FD_STEP)
    )
    deriv = ((plus - minus) / (2.0 * FD_STEP)).reshape(4, 3, -1).swapaxes(0, 1)
    # grad[a, b] = <D_{e_a} v, e_b>: the component rows summed in order.
    return du.row_dot(deriv[:, None], basis[None, :]).reshape(3, 3, -1)


def _jet_block(
    field: UnitField, x: np.ndarray, mode: str, frame_rotation: np.ndarray | None, out: np.ndarray
) -> None:
    """Write (sigma1, sigma2, energy density, volume integrand) into out (4, n).

    ``x`` holds the block's points component-major, (4, n).  In "ad" mode
    B is ``_ad_jet``'s; in "fd" mode it is ``_fd_jet``'s.  Both form B in
    the fixed basis e; given per-node angles ``frame_rotation`` (n,), B is
    then read in the turned basis e0' = cos e0 + sin e1,
    e1' = -sin e0 + cos e1, e2' = e2: B' = R B R^T, its rows turned and
    then its columns.
    """
    if mode == "ad":
        grad = _ad_jet(field, x)[1]
    elif mode == "fd":
        grad = _fd_jet(field, x)
    else:
        raise ValueError(f"unknown differentiation mode {mode!r}")
    if frame_rotation is not None:
        cos, sin = np.cos(frame_rotation), np.sin(frame_rotation)
        for b in (grad, grad.swapaxes(0, 1)):
            b[0], b[1] = cos * b[0] + sin * b[1], -sin * b[0] + cos * b[1]
    # Row a of the cofactor matrix is grad[a + 1] x grad[a + 2], cyclically:
    # cof[a, b] = grad[a+1, b+1] grad[a+2, b+2] - grad[a+1, b+2] grad[a+2, b+1].
    cof = np.empty_like(grad)
    term = np.empty_like(grad[0, 0])
    for a, b in np.ndindex(3, 3):
        a1, a2, b1, b2 = (a + 1) % 3, (a + 2) % 3, (b + 1) % 3, (b + 2) % 3
        np.multiply(grad[a1, b1], grad[a2, b2], out=cof[a, b])
        np.multiply(grad[a1, b2], grad[a2, b1], out=term)
        cof[a, b] -= term
    sigma1, sigma2, energy_density, volume_integrand = out
    np.add(grad[0, 0] + grad[1, 1], grad[2, 2], out=sigma1)
    np.add(cof[0, 0] + cof[1, 1], cof[2, 2], out=sigma2)
    # |B|_F^2 and |C|_F^2: the squares of the nine entries, row-major in order.
    grad, cof = grad.reshape(9, -1), cof.reshape(9, -1)
    energy_density[:] = du.row_dot(grad, grad)[0]
    # sqrt((1 + tr G) + e2(G)); IEEE addition is commutative, so adding
    # 1 + tr G second gives the same bits.
    np.add(du.row_dot(cof, cof)[0], 1.0 + energy_density, out=volume_integrand)
    np.sqrt(volume_integrand, out=volume_integrand)
