"""Property-based (hypothesis) tests for the conv/pool param-bank paths.

The example-based suites pin a handful of geometries; these properties
randomize the whole input space — worker counts, batch sizes, channel
counts, kernel sizes, strides, padding, and image sizes — and demand that
an m-stacked ``bank_forward`` (the worker axis folded into the batch axis,
per-worker weights in one batched matmul) is *byte-identical* to running
each worker's slice as its own m=1 replica through ``forward``, outputs and
gradients both.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn.bank import ParameterBank
from repro.nn.layers import AvgPool2d, Conv2d, MaxPool2d
from repro.nn.tensor import Tensor

# Geometry strategy: small enough to stay fast at max_examples, wide enough
# to hit 1-worker banks, stride > kernel, padding > 0, and non-square-friendly
# combinations the fixed tests never touch.


@st.composite
def conv_cases(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    batch = draw(st.integers(min_value=1, max_value=3))
    in_channels = draw(st.integers(min_value=1, max_value=3))
    out_channels = draw(st.integers(min_value=1, max_value=4))
    kernel = draw(st.integers(min_value=1, max_value=3))
    stride = draw(st.integers(min_value=1, max_value=3))
    padding = draw(st.integers(min_value=0, max_value=2))
    # Image must keep at least one output position after padding.
    min_size = max(1, kernel - 2 * padding)
    size = draw(st.integers(min_value=min_size, max_value=6))
    bias = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return m, batch, in_channels, out_channels, kernel, stride, padding, size, bias, seed


@st.composite
def pool_cases(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    batch = draw(st.integers(min_value=1, max_value=3))
    channels = draw(st.integers(min_value=1, max_value=3))
    kernel = draw(st.integers(min_value=1, max_value=3))
    stride = draw(st.integers(min_value=1, max_value=3))
    size = draw(st.integers(min_value=kernel, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return m, batch, channels, kernel, stride, size, seed


def _stacked_param_grads(bank: ParameterBank) -> np.ndarray:
    return np.concatenate(
        [t.grad.reshape(bank.n_workers, -1) for t in bank.params.values()], axis=1
    )


@settings(max_examples=30, deadline=None)
@given(conv_cases())
def test_conv2d_bank_forward_matches_per_worker(case):
    m, batch, in_c, out_c, kernel, stride, padding, size, bias, seed = case
    rng = np.random.default_rng(seed)

    def make():
        return Conv2d(in_c, out_c, kernel_size=kernel, stride=stride,
                      padding=padding, bias=bias, rng=7)

    template = make()
    bank = ParameterBank(template, m)
    stacked = rng.normal(size=(m, bank.n_parameters))
    bank.set_stacked_flat(stacked)
    X = rng.normal(size=(m, batch, in_c, size, size))

    out = template.bank_forward(Tensor(X), bank.params)
    out.sum().backward()
    bank_grads = _stacked_param_grads(bank)

    for i in range(m):
        ref = make()
        ref.set_flat_parameters(stacked[i])
        ref_out = ref(Tensor(X[i]))
        np.testing.assert_array_equal(out.data[i], ref_out.data)
        ref_out.sum().backward()
        np.testing.assert_array_equal(ref.get_flat_gradients(), bank_grads[i])


@settings(max_examples=30, deadline=None)
@given(pool_cases(), st.sampled_from([MaxPool2d, AvgPool2d]))
def test_pool_bank_forward_matches_per_worker(case, pool_cls):
    m, batch, channels, kernel, stride, size, seed = case
    rng = np.random.default_rng(seed)
    pool = pool_cls(kernel, stride=stride)
    X = rng.normal(size=(m, batch, channels, size, size))

    x_bank = Tensor(X, requires_grad=True)
    out = pool.bank_forward(x_bank, {})
    out.sum().backward()

    for i in range(m):
        x_ref = Tensor(X[i], requires_grad=True)
        ref_out = pool(x_ref)
        np.testing.assert_array_equal(out.data[i], ref_out.data)
        ref_out.sum().backward()
        np.testing.assert_array_equal(x_bank.grad[i], x_ref.grad)


@settings(max_examples=15, deadline=None)
@given(conv_cases())
def test_conv2d_bank_input_gradients_match(case):
    m, batch, in_c, out_c, kernel, stride, padding, size, bias, seed = case
    rng = np.random.default_rng(seed)
    conv = Conv2d(in_c, out_c, kernel_size=kernel, stride=stride,
                  padding=padding, bias=bias, rng=7)
    bank = ParameterBank(conv, m)
    X = rng.normal(size=(m, batch, in_c, size, size))

    x_bank = Tensor(X, requires_grad=True)
    conv.bank_forward(x_bank, bank.params).sum().backward()

    for i in range(m):
        x_ref = Tensor(X[i], requires_grad=True)
        conv(x_ref).sum().backward()
        np.testing.assert_array_equal(x_bank.grad[i], x_ref.grad)
