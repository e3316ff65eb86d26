import numpy as np
import pytest

from posetransfer import autodiff as ad


def _t(data, grad=True):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---- forward values ----------------------------------------------------

def test_softmax_rows_of_zeros_is_uniform():
    out = ad.softmax_rows(_t(np.zeros((1, 4))))
    assert np.abs(out.data - 0.25).max() < 1e-12


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4))
    out = ad.constant(np.eye(4)) @ _t(x)
    assert np.abs(out.data - x).max() == 0.0


def test_forward_deterministic():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    a = ad.softmax_rows(ad.leaky_relu(_t(x) * 2.0 + 1.0))
    b = ad.softmax_rows(ad.leaky_relu(_t(x) * 2.0 + 1.0))
    assert (a.data == b.data).all()


def _where_leak(x, alpha):
    """The reference leak and its slope, as ``np.where`` formulations."""
    return np.where(x > 0.0, x, alpha * x), np.where(x > 0.0, 1.0, alpha)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("alpha", [0.2, 0.0, 1.0, 1.5])
def test_leaky_relu_is_bitwise_the_slope_array_formulation(alpha):
    """Forward value and gradient equal the ``np.where`` reference bit for
    bit, signed zeros, infinities and NaNs included."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 7))
    x[0, :7] = [0.0, -0.0, 1e-300, np.inf, -np.inf, np.nan, -np.nan]
    x[1, :2] = [1e308, -1e308]
    g = rng.normal(size=x.shape)
    g[2, :3] = [-0.0, np.inf, np.nan]
    t = _t(x)
    with np.errstate(invalid="ignore", over="ignore"):
        out = ad.leaky_relu(t, alpha=alpha)
        ad.sum_(out * ad.constant(g)).backward()
        value, slope = _where_leak(x, alpha)
        assert _same_bits(out.data, value)
        assert _same_bits(t.grad, g * slope)


# ---- backward contracts ------------------------------------------------

def test_backward_sum_gives_ones():
    x = _t(np.arange(6.0).reshape(2, 3))
    ad.sum_(x).backward()
    assert (x.grad == 1.0).all()


def test_backward_quadratic_gives_2x():
    x = _t(np.arange(6.0).reshape(2, 3))
    ad.sum_(x * x).backward()
    assert np.abs(x.grad - 2.0 * x.data).max() < 1e-12


def test_repeated_backward_accumulates():
    x = _t(np.ones((3, 2)))
    loss = ad.sum_(x * x)
    loss.backward()
    g1 = x.grad.copy()
    loss2 = ad.sum_(x * x)
    loss2.backward()
    assert np.abs(x.grad - 2.0 * g1).max() < 1e-12


def test_backward_rejects_non_scalar():
    x = _t(np.ones((2, 2)))
    with pytest.raises(ad.AutodiffError):
        (x * x).backward()


def test_matmul_grad_analytic():
    rng = np.random.default_rng(2)
    a = _t(rng.normal(size=(3, 4)))
    b = rng.normal(size=(4, 2))
    ad.sum_(a @ ad.constant(b)).backward()
    expected = np.ones((3, 2)) @ b.T
    assert np.abs(a.grad - expected).max() < 1e-12


def test_broadcast_add_unbroadcasts_grad():
    x = _t(np.ones((4, 3)))
    bias = _t(np.zeros(3))
    ad.sum_(x + bias).backward()
    assert np.abs(bias.grad - 4.0).max() < 1e-12


def test_shape_mismatch_raises():
    with pytest.raises(Exception):
        _ = _t(np.ones((2, 3))) @ _t(np.ones((2, 3)))


# ---- gradcheck ---------------------------------------------------------

def test_gradcheck_sum_is_exact():
    x = _t(np.random.default_rng(3).normal(size=(3, 3)))
    report = ad.gradcheck(lambda t: ad.sum_(t), x)
    assert report.passed
    assert report.max_rel_err < 1e-9


def test_gradcheck_softmax_cross_entropy():
    rng = np.random.default_rng(4)
    x = _t(rng.normal(size=(5, 4)))
    target = rng.dirichlet(np.ones(4), size=5)

    def f(t):
        p = ad.clip(ad.softmax_rows(t), 1e-12, 1.0)
        return -ad.mean(ad.constant(target) * ad.log(p))

    report = ad.gradcheck(f, x)
    assert report.passed
    assert report.max_rel_err < 1e-4


def test_gradcheck_flags_kink_at_zero():
    x = _t(np.array([[0.0, 1.0, -1.0]]))
    # leaky-relu has a kink exactly at the first coordinate: the two
    # one-sided differences disagree there, so it is flagged and excluded.
    report = ad.gradcheck(lambda t: ad.sum_(ad.leaky_relu(t, alpha=0.2)), x)
    assert report.n_kink_suspect >= 1
    assert report.passed


def test_gradcheck_composite_ops():
    rng = np.random.default_rng(5)
    x = _t(rng.uniform(0.5, 1.5, size=(4, 3)))

    def f(t):
        a = ad.log(t) + ad.sqrt(t)
        b = ad.transpose(a) @ a
        return ad.mean(b) + ad.mean(ad.norm_rows(a, 1e-12))

    report = ad.gradcheck(f, x)
    assert report.passed


def test_gradcheck_randomized_shapes_many_seeds():
    # every exported elementwise op exercised over 20 seeds
    for seed in range(20):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        x = _t(rng.uniform(0.3, 1.2, size=shape))
        c = rng.normal(size=shape)

        def f(t):
            u = t * ad.constant(c) + t / ad.constant(np.abs(c) + 1.0) - t
            v = ad.leaky_relu(u, alpha=0.2)
            return ad.mean(v * v) + ad.mean(ad.sqrt(t))

        report = ad.gradcheck(f, x)
        assert report.passed, f"seed {seed}: {report}"


def test_gather_scatter_grads():
    rng = np.random.default_rng(6)
    x = _t(rng.normal(size=(6, 3)))
    idx = np.array([0, 0, 2, 5])

    def f(t):
        g = ad.rows(t, idx)
        s = ad.scatter_rows(g, idx, 6)
        return ad.mean(s * s)

    report = ad.gradcheck(f, x)
    assert report.passed


def test_einsum_matches_numpy_and_rejects_unsupported_specs():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 2, 5))
    out = ad.einsum("kij,kjl->kil", _t(a), _t(b))
    assert np.abs(out.data - a @ b).max() < 1e-12
    for spec, x, y in (("ii,ij->ij", (3, 3), (3, 4)),  # repeated subscript
                       ("ij,jk->i", (3, 4), (4, 5)),  # k summed within b alone
                       ("...j,jk->...k", (3, 4), (4, 5)),
                       ("kij,kjl->kil", (3, 2), (4, 2, 5))):  # rank mismatch
        with pytest.raises(ad.AutodiffError):
            ad.einsum(spec, _t(np.ones(x)), _t(np.ones(y)))


def _composed_graph_conv(graph, h, w_neigh, w_self, bias, alpha):
    """The layer as six tape nodes: a sparse matmul, two matmuls, two adds
    and the ``np.where`` reference leak."""
    a = graph.matrix
    ah = ad.Tensor(a @ h.data, requires_grad=h.requires_grad,
                   _vjps=[(h, lambda g: a.T @ g)] if h.requires_grad else [])
    pre = ah @ w_neigh + h @ w_self + bias
    value, slope = _where_leak(pre.data, alpha)
    return ad._make(value, [(pre, lambda g: g * slope)])


@pytest.mark.parametrize("alpha", [0.2, 0.0, 1.0, 1.5])
@pytest.mark.parametrize("live", [(True, True, True, True), (False, True, True, True),
                                  (True, False, False, False), (False, False, False, False)])
def test_graph_conv_is_bitwise_the_composed_layer(alpha, live):
    """Forward value and every live input's gradient equal the six-node
    composition's with the ``np.where`` leak, zero, infinite and NaN
    pre-activations included; a frozen input gets no gradient, and with no
    live input the layer records no tape."""
    import scipy.sparse as sp

    from posetransfer.mesh import GraphOperator

    rng = np.random.default_rng(8)
    a = sp.random(30, 30, density=0.2, random_state=1, format="csr") + sp.eye(30)
    graph = GraphOperator(matrix=a.tocsr(), edges=np.zeros((0, 2), dtype=np.int64))
    arrays = [rng.normal(size=shape) for shape in ((30, 5), (5, 6), (5, 6), (6,))]
    for w in arrays[1:3]:
        w[:, 0] = 0.0  # with a zero bias, a pre-activation column of zeros
    arrays[3][:4] = [0.0, np.inf, -np.inf, np.nan]
    g = rng.normal(size=(30, 6))
    outs, grads = [], []
    with np.errstate(invalid="ignore"):
        for layer in (ad.graph_conv, _composed_graph_conv):
            inputs = [_t(x.copy(), grad=flag) for x, flag in zip(arrays, live)]
            out = layer(graph, *inputs, alpha=alpha)
            if any(live):
                ad.sum_(out * ad.constant(g)).backward()
            outs.append(out)
            grads.append([t.grad for t in inputs])
    fused, composed = outs
    assert _same_bits(fused.data, composed.data)
    assert fused.requires_grad == any(live) and bool(fused._vjps) == any(live)
    for flag, gf, gc in zip(live, *grads):
        assert (gf is None) == (not flag) and (gc is None) == (not flag)
        if flag:
            assert _same_bits(gf, gc)
    assert ("transpose" in vars(graph)) == live[0]  # only a live h reads A^T
