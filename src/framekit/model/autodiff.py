"""A minimal reverse-mode autodiff tape over whole-document nodes.

The network's math lives in `network.py`, which computes a batch's
loss and runs its backward explicitly; it hands the result here as one
node per batch (a batch of one document gives a document's node).  This
module only joins those nodes: `addn` sums them, `scale` divides by the
batch's action count, and `backward` runs every node's backward closure
in reverse topological order, with gradients accumulating into the
`Tensor.grad` buffer of each parameter.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np


class Tensor:
    """An array, its gradient buffer, and, for a computed node, the
    parents and the closure that passes its gradient on to them."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 parents: Iterable[Tensor] = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None):
        parents = tuple(parents)
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    def grad_buffer(self) -> np.ndarray:
        """The gradient buffer, zero-filled on first use."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def accumulate(self, grad: np.ndarray) -> None:
        self.grad_buffer()[...] += grad

    def zero_grad(self) -> None:
        self.grad = None


def _post_order(node: Tensor, order: list[Tensor], seen: set[int]) -> None:
    seen.add(id(node))
    for parent in reversed(node._parents):  # the first parent runs first
        if parent.requires_grad and id(parent) not in seen:
            _post_order(parent, order, seen)
    order.append(node)


def backward(root: Tensor) -> None:
    """Backpropagate d(root)/d(everything); root must be scalar-like.
    Nodes are whole batches, so the graph is a few levels deep."""
    order: list[Tensor] = []
    _post_order(root, order, set())
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def scale(a: Tensor, s: float) -> Tensor:
    def back(g):
        a.accumulate(g * s)

    return Tensor(a.data * s, parents=(a,), backward=back)


def addn(tensors: list[Tensor]) -> Tensor:
    data = tensors[0].data.copy()
    for t in tensors[1:]:
        data += t.data

    def back(g):
        for t in tensors:
            if t.requires_grad:
                t.accumulate(g)

    return Tensor(data, parents=tensors, backward=back)
