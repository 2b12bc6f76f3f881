"""Analytical floors: FLOPs and bytes a layer must move, from first principles.

In the style of MLSYSIM, each count follows from the model's shapes, the
worker count m and the batch size B alone — not from a measurement.  A
measured self time divided into these counts gives the rate a layer
achieved; the counts themselves are what an ideal kernel could not avoid:

* forward + loss, per local step: ``m·B`` per-sample forward FLOPs; bytes =
  every worker's parameters read once plus every activation read and written
  once (float64, 8 bytes).
* backward, per local step: twice the forward FLOPs (input and weight
  gradients); bytes = parameters read and gradients written once, plus each
  layer's saved input and output gradient read and input gradient written.
* averaging, per collective: ``m·P`` adds for the mean of the ``(m, P)``
  stack; bytes = the stack read, the mean written, and the mean broadcast
  back into all m rows.
"""

from __future__ import annotations

import math

WORD = 8  # float64


def _leaves(module):
    if not module._modules:
        yield module
    for child in module._modules.values():
        yield from _leaves(child)


def per_sample_costs(model) -> tuple[int, int, int]:
    """Forward FLOPs and forward/backward activation elements for one sample.

    Walks the leaf modules in registration order, which is their execution
    order for the sequential models benchmarked here, propagating the
    per-sample shape.  Raises ``ValueError`` on a layer it cannot cost.
    """
    if hasattr(model, "image_size"):
        shape = (model.in_channels, model.image_size, model.image_size)
    else:
        shape = (next(iter(_leaves(model))).in_features,)
    flops = fwd_elements = bwd_elements = 0
    for leaf in _leaves(model):
        kind = type(leaf).__name__
        n_in = math.prod(shape)
        if kind == "Linear":
            out = (leaf.out_features,)
            flops += 2 * leaf.in_features * leaf.out_features + leaf.out_features
        elif kind == "Conv2d":
            c, h, w = shape
            k, s, p = leaf.kernel_size, leaf.stride, leaf.padding
            out = (leaf.out_channels, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)
            flops += (2 * c * k * k + 1) * math.prod(out)
        elif kind in ("MaxPool2d", "AvgPool2d"):
            c, h, w = shape
            k, s = leaf.kernel_size, leaf.stride
            out = (c, (h - k) // s + 1, (w - k) // s + 1)
            flops += n_in
        elif kind == "Flatten":
            out = (n_in,)
        elif kind in ("ReLU", "Tanh", "Sigmoid", "Dropout"):
            out = shape
            flops += n_in
        elif kind == "BatchNorm1d":
            out = shape
            flops += 4 * n_in
        else:
            raise ValueError(f"no cost model for layer {kind}")
        fwd_elements += n_in + math.prod(out)
        bwd_elements += 2 * n_in + math.prod(out)
        shape = out
    # Softmax cross-entropy on the logits: exp, sum, log, gather, mean.
    flops += 4 * math.prod(shape)
    return flops, fwd_elements, bwd_elements


def step_floors(model, n_workers: int, batch: int) -> dict[str, int]:
    """Per-local-step floors of forward+loss and backward for all m workers."""
    flops, fwd_elements, bwd_elements = per_sample_costs(model)
    params = model.num_parameters()
    samples = n_workers * batch
    return {
        "forward_flops": samples * flops,
        "forward_bytes": WORD * (n_workers * params + samples * fwd_elements),
        "backward_flops": 2 * samples * flops,
        "backward_bytes": WORD * (2 * n_workers * params + samples * bwd_elements),
    }


def average_floors(n_params: int, n_workers: int) -> dict[str, int]:
    """Per-collective floors of the exact ``(m, P)`` mean and its broadcast."""
    return {
        "flops": n_workers * n_params,
        "bytes": WORD * (2 * n_workers + 1) * n_params,
    }
