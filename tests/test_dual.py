import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfcap import dual as du
from hopfcap.calculus import _FRAME_ROWS
from hopfcap.fields import hopf_frame
from hopfcap.geometry import QUAT_I, QUAT_J, QUAT_K, left_mult_matrix

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize(
    "func,dfunc_name",
    [
        (du.sqrt, "sqrt"),
        (du.sin, "sin"),
        (du.cos, "cos"),
    ],
)
def test_unary_matches_finite_differences(func, dfunc_name):
    x = np.linspace(0.2, 2.5, 17)
    out = func(du.Dual(x, np.ones_like(x)))
    ref = fd(lambda v: du.value(func(v)), x)
    assert np.allclose(out.eps, ref, atol=1e-8)


def test_arccos_derivative_interior():
    x = np.linspace(-0.9, 0.9, 11)
    out = du.arccos(du.Dual(x, np.ones_like(x)))
    assert np.allclose(out.eps, -1.0 / np.sqrt(1 - x**2), atol=1e-12)


def test_arccos_clips_and_stays_finite():
    out = du.arccos(du.Dual(np.array([1.0 + 1e-15, -1.0]), np.array([1.0, 1.0])))
    assert np.all(np.isfinite(out.val))
    assert np.all(np.isfinite(out.eps))


def test_arctan2_derivative():
    y = np.array([0.3, -0.7])
    x = np.array([0.9, 0.4])
    out = du.arctan2(du.Dual(y, np.ones_like(y)), x)
    assert np.allclose(out.eps, x / (x**2 + y**2), atol=1e-12)


@given(finite, finite, finite, finite)
def test_product_rule(a, ae, b, be):
    p = du.Dual(a, ae) * du.Dual(b, be)
    assert p.val == pytest.approx(a * b)
    assert p.eps == pytest.approx(a * be + ae * b)


@given(finite, finite, finite, finite)
def test_quotient_rule(a, ae, b, be):
    if abs(b) < 1e-3:
        return
    q = du.Dual(a, ae) / du.Dual(b, be)
    assert q.val == pytest.approx(a / b)
    assert q.eps == pytest.approx((ae * b - a * be) / b**2, rel=1e-9, abs=1e-9)


def test_reflected_ops_with_ndarray():
    x = np.array([1.0, 2.0])
    d = du.Dual(np.array([3.0, 4.0]), np.array([1.0, 1.0]))
    s = x - d
    assert isinstance(s, du.Dual)
    assert np.allclose(s.val, [-2.0, -2.0])
    assert np.allclose(s.eps, [-1.0, -1.0])
    p = x * d
    assert isinstance(p, du.Dual)
    assert np.allclose(p.eps, x)


def test_relu_gate():
    d = du.relu(du.Dual(np.array([-1.0, 2.0]), np.array([5.0, 5.0])))
    assert np.allclose(d.val, [0.0, 2.0])
    assert np.allclose(d.eps, [0.0, 5.0])


def test_integer_power():
    d = du.Dual(np.array([2.0]), np.array([1.0])) ** 3
    assert np.allclose(d.val, 8.0)
    assert np.allclose(d.eps, 12.0)
    with pytest.raises(ValueError):
        du.Dual(1.0, 1.0) ** 0.5


def test_vdot_and_normalize():
    # One point, component-major (4, 1).
    x = np.array([[3.0], [4.0], [0.0], [0.0]])
    d = du.Dual(x, np.array([[1.0], [0.0], [0.0], [0.0]]))
    n = du.normalize(d)
    assert n.val.shape == n.eps.shape == (4, 1)
    assert np.allclose(du.value(n), [[0.6], [0.8], [0.0], [0.0]])
    # derivative of x/|x| along e0 at (3,4,0,0)
    h = 1e-7
    x0, e0 = x[:, 0], np.eye(4)[0]
    ref = (x0 + h * e0) / np.linalg.norm(x0 + h * e0)
    ref = (ref - (x0 - h * e0) / np.linalg.norm(x0 - h * e0)) / (2 * h)
    assert np.allclose(n.eps[:, 0], ref, atol=1e-6)


def test_apply_linear_matches_matrix_product():
    # Component-major points (4, n) and tangents (3, 4, n): the fixed-order
    # multiply-adds agree with BLAS to rounding.
    rng = np.random.default_rng(4)
    m = rng.uniform(-1.0, 1.0, (4, 4))
    x = rng.uniform(-1.0, 1.0, (4, 1000))
    y = rng.uniform(-1.0, 1.0, (3, 4, 1000))
    out = du.apply_linear(m, du.Dual(x, y))
    assert np.max(np.abs(out.val - m @ x)) < 1e-15
    assert np.max(np.abs(out.eps - m @ y)) < 1e-15


def _with_zero_row():
    m = np.random.default_rng(5).uniform(-1.0, 1.0, (4, 4))
    m[2] = 0.0
    return m


# The frame maps at a basis axis are signed permutations; at the axis
# (0, .48, .6, .64) they are dense.  The dense sum of a zero row is -0 where
# all four components are negative and +0 elsewhere.  "mixed" has 0 and -0
# coefficients in first and later positions.
LINEAR_MAPS = {
    "i": left_mult_matrix(QUAT_I),
    "j": left_mult_matrix(QUAT_J),
    "k": left_mult_matrix(QUAT_K),
    **dict(zip(("H", "E1", "E2"), hopf_frame((0.0, 0.48, 0.6, 0.64)))),
    "frame_rows": _FRAME_ROWS,
    "dense": np.random.default_rng(7).uniform(-1.0, 1.0, (4, 4)),
    "zero_row": _with_zero_row(),
    "mixed": np.array(
        [[0.0, 1.0, -0.5, -1.0], [-1.0, 0.0, 1.0, 2.5], [0.25, -0.0, -1.0, 1.0], [1.0, -1.0, 0.0, 0.0]]
    ),
}


@pytest.mark.parametrize("name", list(LINEAR_MAPS))
def test_apply_linear_bits_match_dense_sum(name, dense_linear):
    # Skipping zero terms leaves every bit of the dense multiply-adds where
    # no input entry is zero, on a Dual and on plain points.  Gauss nodes
    # have exact +-0 coordinates; there a skipped 0 * x[j] can change the
    # sign of an output entry that is exactly zero, and nothing else.
    m = LINEAR_MAPS[name]
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, (4, 1000))
    y = rng.standard_normal((3, 4, 1000))
    out = du.apply_linear(m, du.Dual(x, y))
    assert out.val.tobytes() == dense_linear(m, x).tobytes()
    assert out.eps.tobytes() == dense_linear(m, y).tobytes()
    assert du.apply_linear(m, x).tobytes() == dense_linear(m, x).tobytes()
    y[rng.random(y.shape) < 0.4] = 0.0
    y[rng.random(y.shape) < 0.4] = -0.0
    lean, dense = du.apply_linear(m, y), dense_linear(m, y)
    assert np.any(dense == 0.0)
    assert np.array_equal(lean, dense)


C4 = np.array([[0.3], [-0.2], [0.5], [0.1]])
M44 = np.arange(16.0).reshape(4, 4) / 7.0 - 1.0

# Every operation and function, on a Dual d and plain (4, 1) column operands.
OPERATIONS = {
    "add": lambda d: d + C4,
    "radd": lambda d: C4 + d,
    "sub": lambda d: d - C4,
    "rsub": lambda d: C4 - d,
    "neg": lambda d: -d,
    "mul": lambda d: d * (d + 1.0),
    "mul_plain": lambda d: d * C4,
    "rmul_plain": lambda d: C4 * d,
    "div": lambda d: d / (d * d + 1.0),
    "div_plain": lambda d: d / C4,
    "rdiv": lambda d: C4 / (d * d + 1.0),
    "pow": lambda d: d**3,
    "sqrt": lambda d: du.sqrt(d * d + 1.0),
    "sin": du.sin,
    "cos": du.cos,
    "arccos": lambda d: du.arccos(0.5 * d),
    "arctan2_plain_x": lambda d: du.arctan2(d, C4),
    "arctan2_plain_y": lambda d: du.arctan2(C4, d),
    "relu": du.relu,
    "vdot": lambda d: du.vdot(d, d + C4),
    "vdot_plain": lambda d: du.vdot(d, C4),
    "apply_linear": lambda d: du.apply_linear(M44, d),
    "normalize": du.normalize,
}


@pytest.mark.parametrize("name", list(OPERATIONS))
def test_stacked_directions_match_single_directions(name):
    # eps of shape (3, 4, N) against val of shape (4, N): each direction's
    # derivative is the bits of a one-direction evaluation.
    op = OPERATIONS[name]
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (4, 50))
    y = rng.standard_normal((3, 4, 50))
    out = op(du.Dual(x, y))
    singles = [op(du.Dual(x, y[k])) for k in range(3)]
    assert out.eps.shape == (3,) + out.val.shape
    assert all(np.array_equal(out.val, s.val) for s in singles)
    assert np.array_equal(out.eps, np.stack([s.eps for s in singles]))
