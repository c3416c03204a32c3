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


def sincos_part(k):
    def sincos(x):
        return du.sincos(x)[k]

    return sincos


@pytest.mark.parametrize(
    "func,dfunc_name",
    [
        (du.sqrt, "sqrt"),
        (sincos_part(0), "sin"),
        (sincos_part(1), "cos"),
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
NORTH = np.array([[1.0], [0.0], [0.0], [0.0]])
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
    "sincos": du.sincos,
    "arccos": lambda d: du.arccos(0.5 * d),
    "arctan2_plain_x": lambda d: du.arctan2(d, C4),
    "arctan2_plain_y": lambda d: du.arctan2(C4, d),
    "relu": du.relu,
    "vdot": lambda d: du.vdot(d, d + C4),
    "vdot_self": lambda d: du.vdot(d, d),
    "vdot_plain": lambda d: du.vdot(d, C4),
    "vdot_plain_zeros": lambda d: du.vdot(d, NORTH),
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
    outs = _as_tuple(op(du.Dual(x, y)))
    singles = [_as_tuple(op(du.Dual(x, y[k]))) for k in range(3)]
    for i, out in enumerate(outs):
        assert out.eps.shape == (3,) + out.val.shape
        assert all(np.array_equal(out.val, s[i].val) for s in singles)
        assert np.array_equal(out.eps, np.stack([s[i].eps for s in singles]))


def _as_tuple(out):
    return out if isinstance(out, tuple) else (out,)


def _with_signed_zeros(a, rng):
    """A copy of ``a`` with about half its entries replaced by +0 or -0."""
    a = a.copy()
    a[rng.random(a.shape) < 0.3] = 0.0
    a[rng.random(a.shape) < 0.3] = -0.0
    return a


def _has_both_zeros(a):
    zero = a == 0.0
    return np.any(zero & np.signbit(a)) and np.any(zero & ~np.signbit(a))


def _same_bits(lean, dense):
    return lean.val.tobytes() == dense.val.tobytes() and lean.eps.tobytes() == dense.eps.tobytes()


@pytest.mark.parametrize("zeros", [False, True], ids=["finite", "signed_zeros"])
def test_vdot_self_bits_match_the_dense_product(zeros, dense_forms):
    # vdot(x, x) forms eps as 2 * sum_j val_j * eps_j.  Each term of the
    # dense sum is val_j * eps_j + eps_j * val_j, that same product doubled,
    # and doubling is exact, so every bit holds, signed zeros included.
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, (4, 1000))
    y = rng.standard_normal((3, 4, 1000))
    if zeros:
        x, y = _with_signed_zeros(x, rng), _with_signed_zeros(y, rng)
    d = du.Dual(x, y)
    dense = dense_forms.vdot(d, d)
    assert _same_bits(du.vdot(d, d), dense)
    assert du.vdot(x, x).tobytes() == dense.val.tobytes()
    assert not zeros or _has_both_zeros(dense.eps)


ROW_DOT_SHAPES = {
    "value_tangent": ((4, 50), (3, 4, 50)),
    "column": ((4, 50), (4, 1)),
    "same": ((4, 50), (4, 50)),
    "broadcast": ((3, 4, 1), (4, 50)),
}


@pytest.mark.parametrize("name", list(ROW_DOT_SHAPES))
def test_row_dot_bits_match_the_row_sum_of_the_product(name, dense_forms):
    rng = np.random.default_rng(9)
    a_shape, b_shape = ROW_DOT_SHAPES[name]
    a, b = _with_signed_zeros(rng.standard_normal(a_shape), rng), rng.standard_normal(b_shape)
    assert du._row_dot(a, b).tobytes() == dense_forms.row_sum(a * b).tobytes()


# Constant columns for vdot: with every coefficient nonzero, or every one
# zero, the bits are the dense sum's; with some zero, up to the sign of an
# entry that is exactly zero (as for apply_linear).
COLUMNS = {
    "dense": C4,
    "north": NORTH,
    "mixed": np.array([[0.0], [0.6], [-0.0], [-0.8]]),
    "zero": np.array([[0.0], [-0.0], [0.0], [0.0]]),
}


@pytest.mark.parametrize("name", list(COLUMNS))
def test_vdot_with_a_column_matches_the_dense_product(name, dense_forms):
    c = COLUMNS[name]
    exact = np.all(c != 0.0) or np.all(c == 0.0)
    rng = np.random.default_rng(10)
    x = rng.uniform(-1.0, 1.0, (4, 1000))
    y = rng.standard_normal((3, 4, 1000))
    for zeros in (False, True):
        if zeros:
            x, y = _with_signed_zeros(x, rng), _with_signed_zeros(y, rng)
        d = du.Dual(x, y)
        lean, dense = du.vdot(d, c), dense_forms.vdot(d, c)
        # Plain and Dual values keep equal bits.
        assert du.vdot(x, c).tobytes() == lean.val.tobytes()
        assert np.array_equal(lean.val, dense.val) and np.array_equal(lean.eps, dense.eps)
        if exact:
            assert _same_bits(lean, dense)


# Numerator and divisor of Dual / Dual: the normalize shapes, no directions,
# 0-d scalars, and results wider than the product q * other.eps (a divisor
# with no directions under a numerator with three), where the quotient is
# formed without the in-place buffer.
QUOTIENTS = {
    "normalize": (((4, 200), (3, 4, 200)), ((1, 200), (3, 1, 200))),
    "no_dirs": (((200,), (200,)), ((200,), (200,))),
    "scalar": (((), ()), ((), ())),
    "scalar_divisor": (((4, 200), (3, 4, 200)), ((), ())),
    "wide_numerator": (((4, 200), (3, 4, 200)), ((1, 200), (1, 200))),
}


@pytest.mark.parametrize("name", list(QUOTIENTS))
@pytest.mark.parametrize("zeros", [False, True], ids=["finite", "signed_zeros"])
def test_quotient_bits_match_the_dense_quotient(name, zeros, dense_forms):
    (av, ae), (bv, be) = QUOTIENTS[name]
    rng = np.random.default_rng(11)
    a = du.Dual(rng.standard_normal(av), rng.standard_normal(ae))
    b = du.Dual(rng.uniform(0.5, 2.0, bv), rng.standard_normal(be))
    if zeros:
        a = du.Dual(_with_signed_zeros(a.val, rng), _with_signed_zeros(a.eps, rng))
        b = du.Dual(b.val, _with_signed_zeros(b.eps, rng))
    lean = a / b
    assert lean.val.shape == np.shape(a.val / b.val)
    assert _same_bits(lean, dense_forms.truediv(a, b))


def test_sincos_bits_match_separate_sin_and_cos(dense_forms):
    rng = np.random.default_rng(12)
    x = rng.uniform(-7.0, 7.0, (1, 1000))
    d = du.Dual(x, _with_signed_zeros(rng.standard_normal((3, 1, 1000)), rng))
    for lean, dense in zip(du.sincos(d), dense_forms.sincos(d)):
        assert _same_bits(lean, dense)
    for lean, dense in zip(du.sincos(x), dense_forms.sincos(x)):
        assert lean.tobytes() == dense.tobytes()
