"""Reverse-mode automatic differentiation on NumPy arrays.

``Tensor`` wraps a ``numpy.ndarray`` and records the operations applied to it
in a dynamically built computation graph.  Calling ``backward()`` on a scalar
result walks the graph in reverse topological order and accumulates
gradients into every tensor created with ``requires_grad=True``.

The operator set is the minimum needed by the layer library: elementwise
arithmetic, matmul, reductions, reshape/transpose, exp/log/tanh/relu/sigmoid,
and indexing helpers for cross-entropy.  Broadcasting
is fully supported; gradients of broadcast operands are reduced back to the
operand's shape.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def is_grad_enabled() -> bool:
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an autograd tape.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` by default (``float32``
        payloads are preserved).
    requires_grad:
        If True, gradients are accumulated into ``.grad`` during ``backward``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # ensure ndarray.__mul__ defers to Tensor.__rmul__

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- basic protocol ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Deep copy of the data as a new leaf tensor with the same flags."""
        t = Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)
        return t

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # -- graph construction ----------------------------------------------------
    def _make(self, data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        parents = tuple(parents)
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1.0 and is only optional for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Build reverse topological order of the graph rooted at self.
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
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad = node.grad + g
                continue
            node._backward_accumulate(g, grads)

    def _backward_accumulate(self, g: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        # The _backward closure returns per-parent gradients.
        parent_grads = self._backward(g)
        for parent, pg in zip(self._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            if parent._backward is None and parent._parents == ():
                # Leaf tensor: accumulate directly (may receive multiple contributions).
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg
            else:
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # -- elementwise arithmetic --------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data + other.data

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data - other.data

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape))

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data * other.data

        def backward(g):
            return (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            )

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data / other.data

        def backward(g):
            return (
                _unbroadcast(g / other.data, self.shape),
                _unbroadcast(-g * self.data / (other.data**2), other.shape),
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g):
            return (g * exponent * self.data ** (exponent - 1),)

        return self._make(out_data, (self,), backward)

    # -- matrix ops -------------------------------------------------------------
    def matmul(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data @ other.data

        def backward(g):
            # Skip the GEMM for a parent that cannot use the gradient (e.g.
            # the input batch of a first layer) — the engine discards None.
            ga = _unbroadcast(g @ other.data.swapaxes(-1, -2), self.shape) if self.requires_grad else None
            gb = _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.shape) if other.requires_grad else None
            return (ga, gb)

        return self._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(g):
            return (g.transpose(inv),)

        return self._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig_shape = self.shape

        def backward(g):
            return (g.reshape(orig_shape),)

        return self._make(self.data.reshape(shape), (self,), backward)

    # -- reductions ---------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, in_shape).copy(),)
            g_expanded = g
            if not keepdims:
                g_expanded = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g_expanded, in_shape).copy(),)

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                return (mask * g,)
            g_expanded = g if keepdims else np.expand_dims(g, axis=axis)
            out_expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = (self.data == out_expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return (mask * g_expanded,)

        return self._make(out_data, (self,), backward)

    # -- elementwise functions ------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g):
            return (g * out_data,)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g):
            return (g / self.data,)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g):
            return (g * 0.5 / out_data,)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g):
            return (g * (1.0 - out_data**2),)

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            return (g * out_data * (1.0 - out_data),)

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(g):
            return (g * mask,)

        return self._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(g):
            return (g * mask,)

        return self._make(out_data, (self,), backward)

    # -- shaping / selection --------------------------------------------------------
    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select ``out[i] = self[i, indices[i]]`` for a 2-D tensor (NLL loss helper)."""
        if self.ndim != 2:
            raise ValueError("gather_rows expects a 2-D tensor")
        idx = np.asarray(indices, dtype=np.int64)
        rows = np.arange(self.shape[0])
        out_data = self.data[rows, idx]

        def backward(g):
            full = np.zeros_like(self.data)
            full[rows, idx] = g
            return (full,)

        return self._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            return (full,)

        return self._make(out_data, (self,), backward)


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
