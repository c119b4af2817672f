import numpy as np

from minleg import jets
from minleg.jets import Jet


def test_variables():
    u = np.array([0.3, -1.2])
    x, y = Jet.variables(u)
    assert x.val == 0.3 and y.val == -1.2
    assert np.array_equal(x.grad, [1.0, 0.0])
    assert np.array_equal(y.grad, [0.0, 1.0])
    assert np.all(x.hess == 0.0)


def test_product_rule_polynomial():
    # f = u1^2 * u2: grad (2 u1 u2, u1^2), hess [[2 u2, 2 u1], [2 u1, 0]]
    u1, u2 = 0.7, -0.4
    x, y = Jet.variables([u1, u2])
    f = x * x * y
    assert abs(f.val - u1 * u1 * u2) < 1e-15
    assert np.allclose(f.grad, [2 * u1 * u2, u1 * u1], atol=1e-15)
    assert np.allclose(f.hess, [[2 * u2, 2 * u1], [2 * u1, 0.0]], atol=1e-15)


def test_trig_product():
    a, b = 0.9, 2.1
    x, y = Jet.variables([a, b])
    f = jets.sin(x) * jets.cos(y)
    sa, ca, sb, cb = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
    assert abs(f.val - sa * cb) < 1e-15
    assert np.allclose(f.grad, [ca * cb, -sa * sb], atol=1e-15)
    want_hess = [[-sa * cb, -ca * sb], [-ca * sb, -sa * cb]]
    assert np.allclose(f.hess, want_hess, atol=1e-15)


def test_reflected_scalar_ops():
    (x,) = Jet.variables([2.0])
    f = 3.0 - x
    assert f.val == 1.0 and f.grad[0] == -1.0
    g = 2.0 / x
    # 2/u: value 1, deriv -2/u^2 = -0.5, second 4/u^3 = 0.5
    assert abs(g.val - 1.0) < 1e-15
    assert abs(g.grad[0] + 0.5) < 1e-15
    assert abs(g.hess[0, 0] - 0.5) < 1e-15
    h = 1.0 + x * 2.0
    assert h.val == 5.0 and h.grad[0] == 2.0


def test_quotient_of_jets():
    u1, u2 = 1.3, 0.8
    x, y = Jet.variables([u1, u2])
    f = x / y
    assert abs(f.val - u1 / u2) < 1e-15
    assert np.allclose(f.grad, [1 / u2, -u1 / u2**2], atol=1e-14)
    want = [[0.0, -1 / u2**2], [-1 / u2**2, 2 * u1 / u2**3]]
    assert np.allclose(f.hess, want, atol=1e-13)


def test_sqrt_chain():
    t = 0.6
    (x,) = Jet.variables([t])
    f = jets.sqrt(1.0 + x * x)
    r = np.sqrt(1 + t * t)
    assert abs(f.val - r) < 1e-15
    assert abs(f.grad[0] - t / r) < 1e-14
    assert abs(f.hess[0, 0] - 1.0 / r**3) < 1e-13


def test_exp_of_sin():
    t = -0.35
    (x,) = Jet.variables([t])
    f = jets.exp(jets.sin(x))
    v = np.exp(np.sin(t))
    assert abs(f.val - v) < 1e-15
    assert abs(f.grad[0] - np.cos(t) * v) < 1e-14
    assert abs(f.hess[0, 0] - (np.cos(t) ** 2 - np.sin(t)) * v) < 1e-13


def test_cis_is_unit_circle():
    t = 1.9
    (x,) = Jet.variables([t])
    z = jets.cis(x)
    assert abs(z.val - np.exp(1j * t)) < 1e-15
    assert abs(z.grad[0] - 1j * np.exp(1j * t)) < 1e-14
    w = z * jets.conj(z)
    assert abs(w.val - 1.0) < 1e-15
    # |cis|^2 is constant, so all derivatives vanish
    assert np.max(np.abs(w.grad)) < 1e-15
    assert np.max(np.abs(w.hess)) < 1e-14


def test_conj_of_cis_matches_negative_angle():
    (x,) = Jet.variables([0.77])
    a = jets.conj(jets.cis(x))
    (y,) = Jet.variables([-0.77])
    b = jets.cis(y)
    assert abs(a.val - b.val) < 1e-15
    # d/du cis(-u) = -i cis(-u); conj flips the grad sign through the chain
    assert abs(a.grad[0] + b.grad[0]) < 1e-15


def test_real_part():
    x, y = Jet.variables([0.4, 1.1])
    z = jets.cis(x) * (1.0 + 0.5 * jets.sin(y))
    m = (z * jets.conj(z)).real_part()
    want = (1.0 + 0.5 * np.sin(1.1)) ** 2
    assert abs(m.val - want) < 1e-14
    assert m.grad.dtype.kind == "f"


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(42)
    for _ in range(50):
        u = rng.uniform(-2.0, 2.0, size=3)
        x, y, z = Jet.variables(u)
        f = jets.sin(x * y) * jets.exp(z) + jets.sqrt(4.0 + x * x) / (2.0 + jets.cos(y * z))
        assert np.array_equal(f.hess, f.hess.T)


def test_against_central_differences():
    rng = np.random.default_rng(7)

    def jet(u):
        x, y = Jet.variables(u)
        return jets.sin(x) * jets.cos(2.0 * y) + jets.exp(0.3 * x * y) - x / (2.0 + jets.sin(y))

    def func(u):
        # point values for the differences: the val channel of the jet
        return jet(u).val

    for _ in range(20):
        u = rng.uniform(-1.5, 1.5, size=2)
        f = jet(u)
        h = 1e-5
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (func(u + e) - func(u - e)) / (2 * h)
            assert abs(f.grad[i] - fd) < 1e-8
        h2 = 1e-4  # larger step for second differences keeps rounding below truncation
        for i in range(2):
            for j in range(2):
                ei = np.zeros(2)
                ej = np.zeros(2)
                ei[i] = h2
                ej[j] = h2
                fd2 = (
                    func(u + ei + ej) - func(u + ei - ej) - func(u - ei + ej) + func(u - ei - ej)
                ) / (4 * h2 * h2)
                assert abs(f.hess[i, j] - fd2) < 1e-6


def test_batch_last_layout():
    # derivative axes lead and batch axes follow: on a point stack and on an
    # np.ix_ mesh, the coordinate jets carry (d,) + ones and (d, d) + ones,
    # products carry (d,) + B and (d, d) + B, and jet_eval still returns the
    # batch-major B + (2n+2, ...) arrays, each point with the bits of its own
    # single-point evaluation
    from minleg import zoo

    rng = np.random.default_rng(12)
    stack = rng.uniform(0.1, 1.4, (5, 3))
    x, y, z = Jet.variables(stack)
    assert x.val.shape == (5,) and x.grad.shape == (3, 1) and x.hess.shape == (3, 3, 1)
    assert np.array_equal(y.grad[:, 0], [0.0, 1.0, 0.0])
    f = jets.sin(x) * y * z
    assert f.val.shape == (5,) and f.grad.shape == (3, 5) and f.hess.shape == (3, 3, 5)
    mesh = np.ix_([0.2, 0.5, 0.9, 1.3], [0.1, 2.0], [0.3, 0.4, 0.6])
    x, y, z = Jet.variables(mesh)
    assert x.val.shape == (4, 1, 1) and x.grad.shape == (3, 1, 1, 1) and x.hess.shape == (3, 3, 1, 1, 1)
    xy = jets.cos(x) * jets.sin(y)
    assert xy.val.shape == (4, 2, 1) and xy.grad.shape == (3, 4, 2, 1) and xy.hess.shape == (3, 3, 4, 2, 1)
    g = xy * jets.exp(z)
    assert g.grad.shape == (3, 4, 2, 3) and g.hess.shape == (3, 3, 4, 2, 3)
    one = Jet.variables([0.9, 2.0, 0.4])
    point = jets.cos(one[0]) * jets.sin(one[1]) * jets.exp(one[2])
    for part in ("val", "grad", "hess"):
        got = getattr(g, part)[(..., 2, 1, 1)]
        assert np.array_equal(got, getattr(point, part)), part

    chart = zoo.equivariant_sphere3().chart
    for u, batch, at in ((stack, (5,), (3,)), (mesh, (4, 2, 3), (1, 1, 2))):
        f, jac, hess = chart.jet_eval(u)
        assert f.shape == batch + (8,) and jac.shape == batch + (8, 3) and hess.shape == batch + (8, 3, 3)
        single = np.array([c[at] for c in np.broadcast_arrays(*u)]) if isinstance(u, tuple) else u[at]
        for got, want in zip((f, jac, hess), chart.jet_eval(single)):
            assert np.array_equal(got[at], want)
