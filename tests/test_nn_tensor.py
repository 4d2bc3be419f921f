"""Tests for repro.nn.tensor: autograd correctness via numeric gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import MLP, Tensor, no_grad
from repro.nn.functional import concat, segment_mean, stack


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. array ``x``."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        plus = f()
        x[idx] = original - eps
        minus = f()
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradients(build, *shapes, seed=0, tol=1e-6):
    """Compare autograd and numeric gradients for ``build(*tensors)``."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    loss = build(*tensors)
    loss.backward()
    for tensor in tensors:
        numeric = numeric_grad(lambda: build(*[Tensor(t.data) for t in tensors]).item(), tensor.data)
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, numeric, atol=tol, rtol=1e-4)


class TestArithmeticGradients:
    def test_add_broadcast(self):
        check_gradients(lambda a, b: (a + b).sum(), (3, 4), (4,))

    def test_sub(self):
        check_gradients(lambda a, b: (a - b).sum(), (2, 3), (2, 3))

    def test_mul_broadcast(self):
        check_gradients(lambda a, b: (a * b).sum(), (3, 4), (3, 1))

    def test_div(self):
        check_gradients(lambda a, b: (a / (b * b + 1.0)).sum(), (2, 2), (2, 2))

    def test_pow(self):
        check_gradients(lambda a: ((a * a + 1.0) ** 1.5).sum(), (3,))

    def test_neg_rsub_rdiv(self):
        check_gradients(lambda a: (1.0 - a).sum() + (2.0 / (a * a + 2.0)).sum(), (4,))

    def test_matmul(self):
        check_gradients(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))

    def test_matmul_chain(self):
        check_gradients(lambda a, b, c: ((a @ b) @ c).sum(), (2, 3), (3, 3), (3, 2))


class TestActivationGradients:
    def test_tanh(self):
        check_gradients(lambda a: a.tanh().sum(), (5,))

    def test_sigmoid(self):
        check_gradients(lambda a: a.sigmoid().sum(), (5,))

    def test_relu(self):
        # keep away from the kink for numeric stability
        rng = np.random.default_rng(0)
        data = rng.normal(size=(6,))
        data[np.abs(data) < 0.1] = 0.5
        a = Tensor(data, requires_grad=True)
        a.relu().sum().backward()
        assert np.allclose(a.grad, (data > 0).astype(float))

    def test_exp_log(self):
        check_gradients(lambda a: ((a * a + 1.0).log() + a.exp()).sum(), (4,))


class TestReductionGradients:
    def test_sum_axis(self):
        check_gradients(lambda a: (a.sum(axis=0) ** 2.0).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_gradients(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), (3, 4))

    def test_mean(self):
        check_gradients(lambda a: (a.mean(axis=1) ** 2.0).sum(), (2, 5))

    def test_max(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(4, 3))
        a = Tensor(data, requires_grad=True)
        a.max(axis=1).sum().backward()
        assert a.grad.sum() == pytest.approx(4.0)


class TestShapeGradients:
    def test_reshape(self):
        check_gradients(lambda a: (a.reshape(6) ** 2.0).sum(), (2, 3))

    def test_transpose(self):
        check_gradients(lambda a, b: (a.transpose() @ b).sum(), (3, 2), (3, 4))

    def test_getitem_rows(self):
        idx = np.array([0, 2, 2])

        def build(a):
            return (a[idx] ** 2.0).sum()

        check_gradients(build, (4, 3))

    def test_concat(self):
        check_gradients(lambda a, b: (concat([a, b], axis=1) ** 2.0).sum(), (2, 3), (2, 2))

    def test_stack(self):
        check_gradients(lambda a, b: (stack([a, b], axis=0) ** 2.0).sum(), (4,), (4,))


class TestMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (t * 2).sum()
        assert not out.requires_grad

    def test_detach(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_grad_accumulates_across_backward(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        (t * 3).sum().backward()
        assert np.allclose(t.grad, [5.0, 5.0])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_shared_subexpression(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        y = t * t  # used twice below
        (y + y).sum().backward()
        assert t.grad[0] == pytest.approx(8.0)

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=4),
            elements=st.floats(-3, 3, allow_nan=False),
        )
    )
    def test_tanh_bounded_and_monotone_grad(self, data):
        t = Tensor(data, requires_grad=True)
        out = t.tanh()
        assert np.all(np.abs(out.data) <= 1.0)
        out.sum().backward()
        assert np.all(t.grad >= 0.0)
        assert np.all(t.grad <= 1.0)


def _graph(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root`` through parent links."""
    seen: dict[int, Tensor] = {}
    todo = [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node._parents)
    return list(seen.values())


class TestGraphRelease:
    """``backward`` frees the graph it walks; leaves keep their gradients."""

    rows = np.array([0, 2, 2, 1, 3, 0])
    groups = np.array([0, 1, 1, 0, 2, 2])

    def _parts(self):
        mlp = MLP([3, 5, 2], activation="tanh", rng=0)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)), requires_grad=True)
        return mlp, x

    def _hidden(self, mlp, x) -> Tensor:
        return segment_mean(mlp(x)[self.rows], self.groups, 3)

    def _loss(self, mlp, x) -> Tensor:
        return (self._hidden(mlp, x) ** 2.0).sum()

    def test_leaves_keep_gradients_and_inner_nodes_are_released(self):
        mlp, x = self._parts()
        loss = self._loss(mlp, x)
        nodes = _graph(loss)
        inner = [n for n in nodes if n._parents]
        leaves = [n for n in nodes if not n._parents and n.requires_grad]
        assert len(inner) > 5 and len(leaves) == 1 + len(mlp.parameters())
        loss.backward()
        for leaf in leaves:
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        for node in inner:
            assert node.grad is None
            assert node._parents == ()

    def test_gradients_match_the_numeric_check(self):
        mlp, x = self._parts()
        self._loss(mlp, x).backward()
        numeric = numeric_grad(lambda: self._loss(mlp, Tensor(x.data)).item(), x.data)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6, rtol=1e-4)

    def test_second_backward_on_the_same_root_raises(self):
        mlp, x = self._parts()
        loss = self._loss(mlp, x)
        loss.backward()
        first = [p.grad.copy() for p in mlp.parameters()]
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        for param, grad in zip(mlp.parameters(), first):
            np.testing.assert_array_equal(param.grad, grad)

    def test_loss_sharing_a_released_tensor_raises(self):
        mlp, x = self._parts()
        hidden = self._hidden(mlp, x)
        (hidden ** 2.0).sum().backward()
        with pytest.raises(RuntimeError, match="released"):
            hidden.sum().backward()

    def test_fresh_graphs_over_the_same_parameters_accumulate(self):
        mlp, x = self._parts()
        self._loss(mlp, x).backward()
        first = [p.grad.copy() for p in mlp.parameters()]
        for param in mlp.parameters():
            param.zero_grad()
        (self._hidden(mlp, x).sum() * 3.0).backward()
        second = [p.grad.copy() for p in mlp.parameters()]
        for param in mlp.parameters():
            param.zero_grad()
        self._loss(mlp, x).backward()
        (self._hidden(mlp, x).sum() * 3.0).backward()
        for param, a, b in zip(mlp.parameters(), first, second):
            np.testing.assert_array_equal(param.grad, a + b)
