"""Reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations applied to
it; calling :meth:`Tensor.backward` on a scalar result walks the recorded
graph in reverse topological order and accumulates gradients into every
leaf created with ``requires_grad=True``.  The walk releases the graph as
it goes: once an inner node's backward has run, it drops its gradient,
parents and backward closure, and a second backward through it raises
(walking it again would skip or double-count gradients).

The op set is exactly what the paper's models need: arithmetic with
broadcasting, matmul, tanh/relu/sigmoid/exp/log, reductions, softmax,
concatenation, indexing (embedding lookup), and a ``segment_mean`` used by
the relational message passing of the Het-Graph encoder.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _released(grad: np.ndarray) -> None:
    """Backward of an inner node whose graph an earlier backward freed."""
    raise RuntimeError(
        "backward through a graph that was already released; "
        "run the forward again to build a fresh graph"
    )


class Tensor:
    """A differentiable numpy array node.

    Create leaves with ``Tensor(data, requires_grad=True)``; intermediate
    nodes are produced by the operator methods below.  ``float64`` is used
    throughout — the models are tiny, and exact gradients make the numeric
    gradient-check tests unambiguous.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: np.ndarray | float | int | list,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # ------------------------------------------------------------- properties
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def item(self) -> float:
        """The scalar value (raises unless the tensor has exactly one element)."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self.data.item()

    def numpy(self) -> np.ndarray:
        """The raw array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing this data but outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------ construction
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=needs, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # -------------------------------------------------------------- arithmetic
    def _coerce(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: "Tensor | float | int") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float | int") -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Tensor | float | int") -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "Tensor | float | int") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | int") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: "Tensor | float | int") -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = np.outer(grad, other.data) if grad.ndim else grad * other.data
                    if self.data.ndim == 1:
                        g = grad * other.data
                    self._accumulate(_unbroadcast(np.asarray(g), self.shape))
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    if self.data.ndim == 1:
                        g = g.reshape(self.shape) if g.size == self.data.size else g.sum(axis=0)
                    self._accumulate(_unbroadcast(np.asarray(g), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = np.outer(self.data, grad)
                    if other.data.ndim == 1:
                        g = self.data * grad
                    other._accumulate(_unbroadcast(np.asarray(g), other.shape))
                else:
                    lhs = np.swapaxes(self.data, -1, -2)
                    if grad.ndim == lhs.ndim - 1:
                        g = lhs @ grad[..., None]
                        g = g[..., 0]
                    else:
                        g = lhs @ grad
                    other._accumulate(_unbroadcast(np.asarray(g), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------- activations
    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (numerically stable)."""
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500))),
            np.exp(np.clip(self.data, -500, 500))
            / (1.0 + np.exp(np.clip(self.data, -500, 500))),
        )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(np.clip(self.data, -700, 700))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm (inputs clipped away from zero)."""
        safe = np.maximum(self.data, 1e-300)
        out_data = np.log(safe)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / safe)

        return Tensor._make(out_data, (self,), backward)

    # --------------------------------------------------------------- reductions
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when ``None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (all axes when ``None``)."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max over ``axis`` (gradient flows to the first argmax)."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = self.data == expanded
            # Split ties evenly so the gradient check stays exact.
            mask = mask / mask.sum(axis=axis, keepdims=True)
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------- shape
    def reshape(self, *shape: int) -> "Tensor":
        """View with a different shape."""
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        """Swap the last two axes."""
        out_data = np.swapaxes(self.data, -1, -2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, -1, -2))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    # ---------------------------------------------------------------- backward
    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the graph.

        Leaves keep their accumulated gradients; every inner node (one
        built with parents) is released as the walk passes it, so the graph
        can be walked once only.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        # Pop in reverse topological order and release each inner node once
        # its backward has run: the graph's activations and gradients are
        # freed as the walk passes them instead of all living to the end.
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None
                node._parents = ()
                node._backward = _released

    def zero_grad(self) -> None:
        """Clear this tensor's accumulated gradient."""
        self.grad = None


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (the paper's ⊕ operator)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0, *sizes])

    def backward(grad: np.ndarray) -> None:
        for tensor, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(int(lo), int(hi))
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)
