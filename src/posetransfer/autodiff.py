"""Reverse-mode automatic differentiation over float64 numpy arrays.

Sized for desk-scale mesh networks: the op set is exactly what the
skinning predictor, encoder, decoder, and losses need.  A Tensor records
its parents and a vector-Jacobian closure per parent; ``backward()``
walks the tape in reverse topological order once, accumulating adjoints
in a scratch map and adding the result into ``.grad`` of every node that
requires gradients (so repeated backward calls accumulate).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AutodiffError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_vjps")

    def __init__(self, data, requires_grad: bool = False, _vjps=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # list of (parent Tensor, fn: adjoint -> parent-shaped gradient)
        self._vjps = _vjps if _vjps is not None else []

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    # ---- graph plumbing ------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise AutodiffError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._vjps:
                if id(parent) not in seen:
                    stack.append((parent, False))
        adjoint: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._vjps:
                node.grad = g if node.grad is None else node.grad + g
            for parent, fn in node._vjps:
                contrib = fn(g)
                key = id(parent)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + contrib
                else:
                    adjoint[key] = contrib

    # ---- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    @property
    def T(self):
        return transpose(self)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """Explicit non-differentiable wrapper (stop-gradient on raw arrays)."""
    data = x.data if isinstance(x, Tensor) else x
    return Tensor(np.asarray(data, dtype=np.float64))


def _live(t: Tensor) -> bool:
    """Whether gradients flow into ``t``: it requires them or has a tape."""
    return t.requires_grad or bool(t._vjps)


def _make(data, pairs) -> Tensor:
    vjps = [(p, fn) for p, fn in pairs if _live(p)]
    return Tensor(data, requires_grad=any(p.requires_grad for p, _ in vjps) or
                  any(p.requires_grad for p, _ in pairs), _vjps=vjps)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---- elementwise -------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data,
                 [(a, lambda g: _unbroadcast(g, a.shape)),
                  (b, lambda g: _unbroadcast(g, b.shape))])


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data,
                 [(a, lambda g: _unbroadcast(g, a.shape)),
                  (b, lambda g: _unbroadcast(-g, b.shape))])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data,
                 [(a, lambda g: _unbroadcast(g * b.data, a.shape)),
                  (b, lambda g: _unbroadcast(g * a.data, b.shape))])


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data / b.data,
                 [(a, lambda g: _unbroadcast(g / b.data, a.shape)),
                  (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape))])


def abs_(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.abs(a.data), [(a, lambda g: g * np.sign(a.data))])


def _leak(x: np.ndarray, alpha: float, out=None) -> np.ndarray:
    """``np.where(x > 0, x, alpha * x)`` bit for bit, without a masked
    kernel: the larger of ``x`` and ``alpha x`` (the smaller when alpha > 1).
    At alpha = 0 that would turn +inf into NaN (0 * inf), so ``x`` is
    multiplied by its mask instead.  Without ``out`` the ``alpha x``
    temporary becomes the result, so a call allocates one array."""
    if alpha == 0.0:
        return np.multiply(x, x > 0.0, out=out)
    pick = np.minimum if alpha > 1.0 else np.maximum
    leaked = x * alpha
    return pick(x, leaked, out=leaked if out is None else out)


def _slope(positive: np.ndarray, alpha: float) -> np.ndarray:
    """The leak's derivative, 1 where ``positive`` and ``alpha`` elsewhere,
    looked up from the bool mask."""
    return np.array([alpha, 1.0]).take(positive.view(np.uint8))


def leaky_relu(a, alpha: float = 0.2) -> Tensor:
    a = as_tensor(a)
    return _make(_leak(a.data, alpha), [(a, lambda g: g * _slope(a.data > 0.0, alpha))])


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log(a.data), [(a, lambda g: g / a.data)])


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make(out, [(a, lambda g: g * 0.5 / out)])


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only strictly inside (lo, hi)."""
    a = as_tensor(a)
    inside = (a.data > lo) & (a.data < hi)
    return _make(np.clip(a.data, lo, hi), [(a, lambda g: g * inside)])


# ---- linear algebra ----------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise AutodiffError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise AutodiffError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return _make(a.data @ b.data,
                 [(a, lambda g: g @ b.data.T),
                  (b, lambda g: a.data.T @ g)])


def einsum(spec: str, a, b) -> Tensor:
    """Two-operand ``np.einsum`` with an explicit output, e.g. ``"kij,kjl->kil"``.

    Each operand's gradient is the einsum of the adjoint with the other
    operand.  That needs every subscript of an operand to appear in the
    other operand or in the output, and no subscript repeated within one
    term (no diagonals, no ellipsis).
    """
    a, b = as_tensor(a), as_tensor(b)
    inputs, arrow, out = spec.replace(" ", "").partition("->")
    sa, _, sb = inputs.partition(",")
    plain = all(c.isalpha() for c in sa + sb + out) and \
        all(len(set(t)) == len(t) for t in (sa, sb, out))
    closed = set(sa) <= set(sb + out) and set(sb) <= set(sa + out) and \
        set(out) <= set(sa + sb)
    if not (arrow and plain and closed):
        raise AutodiffError(f"unsupported einsum spec {spec!r}")
    if a.data.ndim != len(sa) or b.data.ndim != len(sb):
        raise AutodiffError(f"einsum {spec!r} got shapes {a.shape}, {b.shape}")
    return _make(np.einsum(f"{sa},{sb}->{out}", a.data, b.data),
                 [(a, lambda g: np.einsum(f"{out},{sb}->{sa}", g, b.data)),
                  (b, lambda g: np.einsum(f"{sa},{out}->{sb}", a.data, g))])


def graph_conv(graph, h, w_neigh, w_self, bias, alpha: float) -> Tensor:
    """One graph convolution layer, ``leaky_relu(A h W_neigh + h W_self + b)``
    with ``A`` a fixed sparse operator, as one tape node.

    ``graph`` holds ``A`` as ``graph.matrix``; only the backward reads
    ``graph.transpose`` (``A^T``), so inference never builds it.  The
    float ops and their order are those of the composition of
    ``leaky_relu``, ``matmul`` and ``add``, so values and gradients are
    bitwise the same; the node keeps only ``A h`` (when ``w_neigh`` is
    live) and the leak mask, where the composition kept six nodes of
    ``(N, d)`` arrays.  With no live input it records nothing.
    """
    h, w_neigh, w_self, bias = inputs = [as_tensor(t) for t in (h, w_neigh, w_self, bias)]
    ah = graph.matrix @ h.data
    out = ah @ w_neigh.data
    if not _live(w_neigh):
        ah = None
    out += h.data @ w_self.data
    out += bias.data
    live = [i for i, t in enumerate(inputs) if _live(t)]
    positive = out > 0.0 if live else None
    _leak(out, alpha, out=out)
    if not live:
        return Tensor(out)
    rules = (lambda g: graph.transpose @ (g @ w_neigh.data.T) + g @ w_self.data.T,
             lambda g: ah.T @ g,
             lambda g: h.data.T @ g,
             lambda g: _unbroadcast(g, bias.shape))
    pending: dict = {}

    def vjp(i):
        def fn(g):
            # backward() calls each live input's fn once, in turn, with one
            # ``g``: the first call forms every gradient from the leaked adjoint
            if not pending:
                g = g * _slope(positive, alpha)
                pending.update({j: rules[j](g) for j in live})
            return pending.pop(i)
        return fn

    return _make(out, [(inputs[i], vjp(i)) for i in live])


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise AutodiffError("transpose expects a 2-D tensor")
    return _make(a.data.T.copy(), [(a, lambda g: g.T)])


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return _make(a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_fn(i):
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return _make(data, [(t, make_fn(i)) for i, t in enumerate(tensors)])


def index(a, key) -> Tensor:
    """``a[key]``.  Only integer-array keys can pick an element twice, so
    only they need the scatter-add backward; other keys assign."""
    a = as_tensor(a)
    shape = a.shape
    keys = key if isinstance(key, tuple) else (key,)
    repeats = any(isinstance(k, (np.ndarray, list)) for k in keys)

    def fn(g):
        out = np.zeros(shape)
        if repeats:
            np.add.at(out, key, g)
        else:
            out[key] = g
        return out

    return _make(a.data[key], [(a, fn)])


def rows(a, idx) -> Tensor:
    """Gather rows by integer index (duplicates allowed)."""
    idx = np.asarray(idx, dtype=np.int64)
    return index(a, idx)


def scatter_rows(a, idx, n_rows: int) -> Tensor:
    """out[i] = sum of a[j] over j with idx[j] == i (scatter-add)."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    data = np.zeros((n_rows,) + a.shape[1:])
    np.add.at(data, idx, a.data)
    return _make(data, [(a, lambda g: g[idx])])


# ---- reductions --------------------------------------------------------

def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape = a.shape

    def fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return _make(a.data.sum(axis=axis, keepdims=keepdims), [(a, fn)])


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def norm_rows(a, eps: float = 0.0) -> Tensor:
    """Per-row Euclidean norm, (N, 1).  eps > 0 regularizes zero rows."""
    a = as_tensor(a)
    sq = sum_(mul(a, a), axis=1, keepdims=True)
    return sqrt(add(sq, eps)) if eps else sqrt(sq)


def softmax_rows(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2 or a.shape[1] == 0:
        raise AutodiffError(f"softmax_rows expects non-empty 2-D rows, got {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    return _make(s, [(a, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True)))])


def cross_rows(a, b) -> Tensor:
    """Row-wise 3-D cross product, built from column slices."""
    a, b = as_tensor(a), as_tensor(b)
    a0, a1, a2 = a[:, 0:1], a[:, 1:2], a[:, 2:3]
    b0, b1, b2 = b[:, 0:1], b[:, 1:2], b[:, 2:3]
    return concat([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


# ---- gradient checking -------------------------------------------------

@dataclass(frozen=True)
class GradcheckReport:
    """Outcome of comparing analytic and central-difference gradients.

    Coordinates where the two one-sided differences disagree strongly sit
    next to a non-differentiable kink; they are flagged and excluded from
    the pass/fail decision.
    """

    max_rel_err: float
    passed: bool
    n_checked: int
    n_kink_suspect: int


def gradcheck(f, x: Tensor, eps: float = 1e-5, tol: float = 1e-4,
              max_coords: int | None = None, rng: np.random.Generator | None = None) -> GradcheckReport:
    """Compare the analytic gradient of scalar-valued ``f`` at ``x``
    against central finite differences, coordinate by coordinate."""
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise AutodiffError("gradcheck needs a scalar-valued function")
    out.backward()
    analytic = np.zeros(x.shape) if x.grad is None else x.grad.copy()

    flat = x.data.ravel()
    coords = np.arange(flat.size)
    if max_coords is not None and flat.size > max_coords:
        rng = rng or np.random.default_rng(0)
        coords = rng.choice(flat.size, size=max_coords, replace=False)

    f0 = float(f(x).data)
    max_err = 0.0
    suspects = 0
    aflat = analytic.ravel()
    for c in coords:
        keep = flat[c]
        flat[c] = keep + eps
        fp = float(f(x).data)
        flat[c] = keep - eps
        fm = float(f(x).data)
        flat[c] = keep
        num = (fp - fm) / (2.0 * eps)
        err = abs(aflat[c] - num) / max(1.0, abs(aflat[c]), abs(num))
        if err >= tol:
            dplus = (fp - f0) / eps
            dminus = (f0 - fm) / eps
            if abs(dplus - dminus) / (abs(dplus) + abs(dminus) + 1e-8) > 0.1:
                suspects += 1
                continue
        max_err = max(max_err, err)
    return GradcheckReport(max_rel_err=max_err, passed=max_err < tol,
                           n_checked=len(coords), n_kink_suspect=suspects)
