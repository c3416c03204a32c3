import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfcap import dual as du
from hopfcap.fields import hopf_frame
from hopfcap.geometry import FRAME_ROWS, QUAT_I, QUAT_J, QUAT_K, left_mult_matrix

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
    ref = fd(lambda p: func(du.plain(p)).val, x)
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
    out = du.arctan2(du.Dual(y, np.ones_like(y)), du.Dual(x, np.zeros_like(x)))
    assert np.allclose(out.eps, x / (x**2 + y**2), atol=1e-12)


def _one(v, e):
    """A Dual of one node: value (1, 1), one direction (1, 1, 1)."""
    return du.Dual(np.full((1, 1), v), np.full((1, 1, 1), e))


@given(finite, finite, finite, finite)
def test_product_rule(a, ae, b, be):
    p = _one(a, ae) * _one(b, be)
    assert p.val.shape == (1, 1) and p.eps.shape == (1, 1, 1)
    assert p.val.item() == pytest.approx(a * b)
    assert p.eps.item() == pytest.approx(a * be + ae * b)


@given(finite, finite, finite, finite)
def test_quotient_rule(a, ae, b, be):
    if abs(b) < 1e-3:
        return
    q = _one(a, ae) / _one(b, be)
    assert q.val.shape == (1, 1) and q.eps.shape == (1, 1, 1)
    assert q.val.item() == pytest.approx(a / b)
    assert q.eps.item() == pytest.approx((ae * b - a * be) / b**2, rel=1e-9, abs=1e-9)


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


def test_normalize():
    # One point, component-major (4, 1).
    x = np.array([[3.0], [4.0], [0.0], [0.0]])
    d = du.Dual(x, np.array([[1.0], [0.0], [0.0], [0.0]]))
    n = du.normalize(d)
    assert n.val.shape == n.eps.shape == (4, 1)
    assert np.allclose(n.val, [[0.6], [0.8], [0.0], [0.0]])
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
# coefficients in first and later positions.  The (1, 4) rows are dot
# products with a constant vector, as the fields take them: every
# coefficient nonzero, one, some or none.
LINEAR_MAPS = {
    "i": left_mult_matrix(QUAT_I),
    "j": left_mult_matrix(QUAT_J),
    "k": left_mult_matrix(QUAT_K),
    **{name: left_mult_matrix(q) for name, q in zip(("H", "E1", "E2"), hopf_frame((0.0, 0.48, 0.6, 0.64)))},
    "frame_rows": FRAME_ROWS,
    "dense": np.random.default_rng(7).uniform(-1.0, 1.0, (4, 4)),
    "zero_row": _with_zero_row(),
    "mixed": np.array(
        [[0.0, 1.0, -0.5, -1.0], [-1.0, 0.0, 1.0, 2.5], [0.25, -0.0, -1.0, 1.0], [1.0, -1.0, 0.0, 0.0]]
    ),
    "row_dense": np.array([[0.3, -0.2, 0.5, 0.1]]),
    "row_north": np.array([[1.0, 0.0, 0.0, 0.0]]),
    "row_mixed": np.array([[0.0, 0.6, -0.0, -0.8]]),
    "row_zero": np.array([[0.0, -0.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("name", list(LINEAR_MAPS))
def test_apply_linear_bits_match_dense_sum(name, dense_linear):
    # Skipping zero terms leaves every bit of the dense multiply-adds where
    # no input entry is zero, on a Dual and on plain points.  Gauss nodes
    # have exact +-0 coordinates; there a skipped 0 * x[j] can change the
    # sign of an output entry that is exactly zero, and nothing else; a map
    # whose rows skip no term (none zero, or all zero) keeps every bit.
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
    if all(np.all(row != 0.0) or np.all(row == 0.0) for row in m):
        assert lean.tobytes() == dense.tobytes()


C4 = np.array([[0.3], [-0.2], [0.5], [0.1]])
M44 = np.arange(16.0).reshape(4, 4) / 7.0 - 1.0

# Every operation and function, on a Dual d and plain (4, 1) column or
# (1, 4) row operands.
OPERATIONS = {
    "add": lambda d: d + C4,
    "radd": lambda d: C4 + d,
    "sub": lambda d: d - C4,
    "rsub": lambda d: C4 - d,
    "mul": lambda d: d * (d + 1.0),
    "mul_plain": lambda d: d * C4,
    "rmul_plain": lambda d: C4 * d,
    "div": lambda d: d / (d * d + 1.0),
    "div_plain": lambda d: d / C4,
    "pow": lambda d: d**3,
    "sqrt": lambda d: du.sqrt(d * d + 1.0),
    "sincos": du.sincos,
    "arccos": lambda d: du.arccos(0.5 * d),
    "arctan2": lambda d: du.arctan2(d, d * d + 0.5),
    "relu": du.relu,
    "apply_linear": lambda d: du.apply_linear(M44, d),
    "apply_linear_row": lambda d: du.apply_linear(C4.T, d),
    "apply_linear_north_row": lambda d: du.apply_linear(LINEAR_MAPS["row_north"], d),
    "normalize": du.normalize,
    "norm": du.norm,
    "stack": lambda d: du.stack([du.sqrt(d * d + 1.0), d]),
}


def test_plain_has_no_directions():
    x = np.arange(8.0).reshape(4, 2)
    p = du.plain(x)
    assert p.eps.shape == (0, 4, 2)
    assert np.array_equal(p.val, x)


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
def test_normalize_bits_match_the_dense_self_product(zeros, dense_forms):
    # normalize forms the squared norm's eps as 2 * sum_j val_j * eps_j.
    # Each term of the dense sum is val_j * eps_j + eps_j * val_j, that same
    # product doubled, and doubling is exact, so every bit holds, signed
    # zeros included.  Row 0 keeps every point off the origin.
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, (4, 1000))
    y = rng.standard_normal((3, 4, 1000))
    if zeros:
        x[1:], y = _with_signed_zeros(x[1:], rng), _with_signed_zeros(y, rng)
    d = du.Dual(x, y)
    square = dense_forms.vdot(d, d)
    assert _same_bits(du.normalize(d), d / du.sqrt(square))
    assert du.normalize(du.plain(x)).val.tobytes() == du.normalize(d).val.tobytes()
    assert not zeros or _has_both_zeros(square.eps)


ROW_DOT_SHAPES = {
    "value_tangent": ((4, 50), (3, 4, 50)),
    "column": ((4, 50), (4, 1)),
    "same": ((4, 50), (4, 50)),
    "broadcast": ((3, 4, 1), (4, 50)),
    # The jet's derivative matrix, tangents against basis vectors, and the
    # squared norms of its nine entries and of its cofactors.
    "jet_matrix": ((3, 1, 4, 50), (1, 3, 4, 50)),
    "nine_rows": ((9, 50), (9, 50)),
}


@pytest.mark.parametrize("name", list(ROW_DOT_SHAPES))
def test_row_dot_bits_match_the_row_sum_of_the_product(name, dense_forms):
    rng = np.random.default_rng(9)
    a_shape, b_shape = ROW_DOT_SHAPES[name]
    a, b = _with_signed_zeros(rng.standard_normal(a_shape), rng), rng.standard_normal(b_shape)
    assert du.row_dot(a, b).tobytes() == dense_forms.row_sum(a * b).tobytes()


# Numerator and divisor of Dual / Dual: the normalize shapes, and values
# with no direction axis, which the quotient's elementwise body also takes.
QUOTIENTS = {
    "normalize": (((4, 200), (3, 4, 200)), ((1, 200), (3, 1, 200))),
    "no_dirs": (((200,), (200,)), ((200,), (200,))),
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
    for lean, dense in zip(du.sincos(du.plain(x)), dense_forms.sincos(du.plain(x))):
        assert _same_bits(lean, dense)


# Buffer and operand of the in-place forms: a (4, n) vector by a (1, n)
# factor as in the fields, two vectors, and plain points (zero directions).
IN_PLACE = {
    "scaled_vector": (((4, 200), (3, 4, 200)), ((1, 200), (3, 1, 200))),
    "vectors": (((4, 200), (3, 4, 200)), ((4, 200), (3, 4, 200))),
    "plain": (((4, 200), (0, 4, 200)), ((1, 200), (0, 1, 200))),
}


@pytest.mark.parametrize("name", list(IN_PLACE))
@pytest.mark.parametrize("zeros", [False, True], ids=["finite", "signed_zeros"])
def test_in_place_forms_have_the_bits_of_the_operators(name, zeros):
    # The in-place product is the factor's product rule written into the
    # vector's buffers, the sum and difference the operators' elementwise
    # adds; IEEE products and sums commute, so every bit holds.  The
    # operand is read, never written.
    rng = np.random.default_rng(13)

    def dual(shapes):
        parts = [rng.standard_normal(s) for s in shapes]
        return du.Dual(*[_with_signed_zeros(p, rng) if zeros else p for p in parts])

    (a_shapes, b_shapes), column = IN_PLACE[name], rng.standard_normal((4, 1))
    a, b = dual(a_shapes), dual(b_shapes)
    operand = b.val.tobytes(), b.eps.tobytes()
    cases = [
        (du.Dual.__imul__, b, b * a),
        (du.Dual.__iadd__, b, a + b),
        (du.Dual.__isub__, b, a - b),
        (du.Dual.__imul__, column, column * a),
        (du.Dual.__iadd__, column, a + column),
        (du.Dual.__isub__, column, a - column),
    ]
    for in_place, other, expected in cases:
        buffer = du.Dual(a.val.copy(), a.eps.copy())
        out = in_place(buffer, other)
        assert out is buffer and _same_bits(out, expected), in_place.__name__
    assert (b.val.tobytes(), b.eps.tobytes()) == operand


# The operations whose derivative factor is formed from the value (the
# square root, the clipped argument of arccos, the power below v^3, the
# divisor's inverse), on a and b.
PLAIN_OPERATIONS = {
    "sqrt": lambda a, b: du.sqrt(a),
    "arccos": lambda a, b: du.arccos(a),
    "arctan2": du.arctan2,
    "pow": lambda a, b: a**3,
    "div": lambda a, b: a / b,
}


@pytest.mark.parametrize("name", list(PLAIN_OPERATIONS))
def test_plain_points_give_empty_eps_and_the_differentiated_value(name):
    # With no directions the operation runs its one body: eps is an empty
    # array of the result's shape, and the value has the bits of the
    # differentiated evaluation.
    op = PLAIN_OPERATIONS[name]
    n = 100_000
    x = np.linspace(0.1, 0.9, n).reshape(1, n)
    out = op(du.plain(x), du.plain(x + 1.0))
    seeded = op(du.Dual(x, np.ones((3, 1, n))), du.Dual(x + 1.0, np.ones((3, 1, n))))
    assert out.eps.shape == (0, 1, n)
    assert out.val.tobytes() == seeded.val.tobytes()


# Scalar chains (1, n) -> (k, n) through each operation whose derivative
# rule ``compose`` reuses, and the perturbed field's bump chain.
CHAINS = {
    "sqrt": lambda q: du.sqrt(q + 2.0),
    "arccos": du.arccos,
    "sincos": lambda q: du.stack(du.sincos(3.0 * q)),
    "pow": lambda q: q**3,
    "relu": lambda q: du.relu(q - 0.2) ** 2,
    "div": lambda q: du.sincos(q)[0] / (2.0 + q),
    "bump": lambda q: du.stack(du.sincos(du.relu(1.0 - (du.arccos(q) / 0.9) ** 2) ** 3 * 0.5)),
}


def _scalar_dual(n, dirs):
    rng = np.random.default_rng(41)
    return du.Dual(rng.uniform(-0.95, 0.95, (1, n)), rng.standard_normal((dirs, 1, n)))


@pytest.mark.parametrize("name", list(CHAINS))
def test_compose_is_the_chain_evaluated_on_every_direction(name):
    # The value has the bits of the chain on x; each derivative is the
    # chain's derivative times x's, within a few ulps of running the chain
    # on all three directions (the products are associated differently).
    chain, x = CHAINS[name], _scalar_dual(4000, 3)
    out, direct = du.compose(x, chain), chain(x)
    assert out.val.tobytes() == direct.val.tobytes()
    assert out.eps.shape == direct.eps.shape == (3,) + direct.val.shape
    ulp = np.spacing(np.maximum(np.abs(out.eps), np.abs(direct.eps)))
    assert np.all(np.abs(out.eps - direct.eps) <= 8 * ulp)


@pytest.mark.parametrize("name", list(CHAINS))
def test_compose_of_a_plain_scalar_has_empty_eps(name):
    # A plain x seeds no direction, so the chain carries no derivative row.
    chain, x = CHAINS[name], _scalar_dual(100, 3)
    seeded = []
    out = du.compose(du.plain(x.val), lambda q: seeded.append(q.eps.shape[0]) or chain(q))
    assert seeded == [0]
    assert out.eps.shape == (0,) + out.val.shape
    assert out.val.tobytes() == chain(x).val.tobytes()


def _nan(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.int64).view(float)[0]


# Inputs of ``compose`` as (values, directions): values whose consecutive
# equal bit patterns form runs, from one run to half the values, and values
# with none.
RUN_INPUTS = {
    "slabs": (np.repeat(np.linspace(-0.9, 0.9, 12), np.arange(20, 32)), 3),
    "pairs": (np.repeat(np.linspace(-0.9, 0.9, 25), 2), 3),
    "signed_zeros": (np.repeat([0.0, -0.0, 0.0, -0.0, 0.5, -0.0], [4, 5, 2, 3, 6, 4]), 3),
    "nan": (np.repeat([0.3, np.nan, _nan(1), _nan(1), np.nan, 0.3], [4, 3, 2, 5, 1, 6]), 3),
    "one_run": (np.full(50, 0.4), 3),
    "distinct": (np.linspace(-0.9, 0.9, 50), 3),
}


@pytest.mark.parametrize("chain", list(CHAINS))
@pytest.mark.parametrize("name", list(RUN_INPUTS))
def test_compose_runs_the_chain_once_per_run_with_the_per_node_bits(name, chain):
    # fn acts column by column, so equal inputs give equal bits: a run of
    # values with one bit pattern (0.0 and -0.0 differ, as do NaN payloads)
    # is evaluated once and spread.  Value and derivative keep every bit of
    # the chain run on each node with one seeded direction.
    values, dirs = RUN_INPUTS[name]
    val = values.reshape(1, -1)
    bits = values.view(np.int64)
    runs = 1 + np.count_nonzero(bits[1:] != bits[:-1])
    x = du.Dual(val, np.random.default_rng(43).standard_normal((dirs,) + val.shape))
    widths = []

    def counted(q):
        widths.append(q.val.size)
        return CHAINS[chain](q)

    out = du.compose(x, counted)
    per_node = CHAINS[chain](du.Dual(val, np.ones((1,) + val.shape)))
    assert widths == [runs]
    assert (widths[0] == val.size) == (name == "distinct")
    assert out.val.shape == per_node.val.shape and out.eps.shape == (dirs,) + per_node.val.shape
    assert out.val.tobytes() == per_node.val.tobytes()
    assert out.eps.tobytes() == (per_node.eps * x.eps).tobytes()


@pytest.mark.parametrize("chain", list(CHAINS))
def test_compose_of_an_empty_scalar_is_empty(chain):
    # A field called on no points composes an empty column: no values, no
    # runs, and the result keeps x's directions.
    x = du.Dual(np.empty((1, 0)), np.empty((3, 1, 0)))
    out, direct = du.compose(x, CHAINS[chain]), CHAINS[chain](x)
    assert out.val.shape == direct.val.shape and out.eps.shape == direct.eps.shape
