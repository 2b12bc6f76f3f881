"""Neural-network layers built on the autograd Tensor.

The ``Module`` base class provides parameter registration and flat
get/set of the parameter vector, which is what the distributed substrate
needs for model averaging (PASGD averages the *entire* parameter vector
across workers, eq. 3 of the paper).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.nn import init as init_mod
from repro.nn.losses import _lift
from repro.nn.tensor import Tensor
from repro.utils.seeding import check_random_state
from repro.utils.timer import profiled

__all__ = [
    "Module",
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Sequential",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm1d",
    "Residual",
    "clear_kernel_plan_cache",
    "kernel_plan_cache_stats",
]


class Module:
    """Base class for layers and models.

    Subclasses register :class:`Tensor` parameters as attributes; the base
    class discovers them (recursively through sub-modules) for optimization,
    averaging, and serialization.  A layer implements only
    :meth:`bank_forward` (a model also :meth:`bank_loss`); the base class
    derives the single-replica :meth:`forward` and :meth:`loss` from them.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Tensor]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # -- attribute magic -------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        elif name in self.__dict__.get("_buffers", {}):
            # Re-assignment to a registered buffer keeps it registered
            # (BatchNorm rebinds its running stats every training step).
            value = np.asarray(value, dtype=float)
            self.__dict__["_buffers"][name] = value
        object.__setattr__(self, name, value)

    # -- parameter access -------------------------------------------------
    def parameters(self) -> Iterator[Tensor]:
        """Yield all trainable parameters, depth-first."""
        for p in self._parameters.values():
            yield p
        for mod in self._modules.values():
            yield from mod.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- buffer access -----------------------------------------------------
    def register_buffer(self, name: str, value) -> None:
        """Register per-replica state that is *not* a trainable parameter.

        Buffers (e.g. batch-norm running statistics) are excluded from the
        flat parameter vector, so model averaging leaves each worker's copy
        local — matching common DDP semantics.  The vectorized worker-bank
        backend stacks them per worker alongside the parameters (see
        :class:`repro.nn.bank.ParameterBank`).
        """
        arr = np.asarray(value, dtype=float)
        self.__dict__.setdefault("_buffers", OrderedDict())[name] = arr
        object.__setattr__(self, name, arr)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b)
        for mod_name, mod in self._modules.items():
            yield from mod.named_buffers(prefix=f"{prefix}{mod_name}.")

    def buffers(self) -> Iterator[np.ndarray]:
        for _, b in self.named_buffers():
            yield b

    def set_buffer(self, name: str, value) -> None:
        """Assign a buffer by fully-qualified dotted name (see ``named_buffers``)."""
        *path, leaf = name.split(".")
        mod: Module = self
        for part in path:
            try:
                mod = mod._modules[part]
            except KeyError:
                raise KeyError(f"no submodule {part!r} on the path to buffer {name!r}") from None
        if leaf not in mod._buffers:
            raise KeyError(f"module {type(mod).__name__} has no buffer {leaf!r}")
        setattr(mod, leaf, value)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- flat parameter vector (used by model averaging) --------------------
    def get_flat_parameters(self) -> np.ndarray:
        """Concatenate every parameter into one flat float vector (a copy)."""
        parts = [p.data.ravel() for p in self.parameters()]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        """Load a flat vector produced by :meth:`get_flat_parameters` in place."""
        flat = np.asarray(flat, dtype=float)
        expected = self.num_parameters()
        if flat.size != expected:
            raise ValueError(f"flat vector has {flat.size} entries, model needs {expected}")
        offset = 0
        for p in self.parameters():
            n = p.size
            p.data[...] = flat[offset : offset + n].reshape(p.shape)
            offset += n

    def get_flat_gradients(self) -> np.ndarray:
        """Concatenate parameter gradients (zeros where a gradient is unset)."""
        parts = []
        for p in self.parameters():
            if p.grad is None:
                parts.append(np.zeros(p.size))
            else:
                parts.append(p.grad.ravel())
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    # -- state dict -----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            value = np.asarray(state[name])
            if value.shape != p.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {p.shape}")
            p.data[...] = value

    # -- single replica: the m=1 slice of the bank path ------------------------
    def _replica_state(self) -> dict:
        """This module's own values as a one-worker bank state.

        Each parameter is lifted to ``(1, *shape)`` through an autograd
        reshape, so ``backward()`` still lands gradients in ``p.grad``; each
        buffer is a ``(1, *shape)`` view, so in-place running-stat updates
        write through to the module.
        """
        state: dict = {name: p.reshape(1, *p.shape) for name, p in self.named_parameters()}
        state.update((name, b[None]) for name, b in self.named_buffers())
        return state

    def forward(self, x: Tensor) -> Tensor:
        """One replica's forward: :meth:`bank_forward` at m=1."""
        out = self.bank_forward(_lift(x), self._replica_state())
        return out.reshape(out.shape[1:])

    def loss(self, x=None, y=None) -> Tensor:
        """One replica's scalar batch loss: :meth:`bank_loss` at m=1."""
        return self.bank_loss(_lift(x), _lift(y), self._replica_state()).reshape(())

    def __call__(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.forward(x)

    # -- param-bank forward (the one implementation of every layer) ------------
    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        """Run this module's computation for all m workers at once.

        ``x`` carries a leading worker axis — ``(m, B, ...)`` — and ``params``
        maps fully-qualified parameter names (as in :meth:`named_parameters`)
        to tensors stacked along the same axis, ``(m, *shape)``.  ``prefix``
        is this module's name prefix inside ``params``.  This is the only
        forward a layer implements: :meth:`forward` runs it at m=1.  The
        base implementation marks the module as loop-only (see
        :meth:`supports_bank`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the param-bank forward path"
        )

    def bank_loss(self, x, y, params) -> Tensor:
        """Per-worker losses ``(m,)`` of stacked batches under stacked params.

        ``x`` and ``y`` carry a leading worker axis and ``params`` is a
        stacked state (``ParameterBank.state()``, or :meth:`_replica_state`
        at m=1).  Entry i depends only on worker i's batch and parameter
        slice, so ``bank_loss(...).sum().backward()`` deposits every
        worker's own batch gradient into its slice of the bank.  This is
        the only loss a model implements: :meth:`loss` runs it at m=1.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement a param-bank loss"
        )

    def supports_bank(self) -> bool:
        """Whether this module tree can run the stacked param-bank forward."""
        if type(self).bank_forward is Module.bank_forward:
            return False
        return all(mod.supports_bank() for mod in self._modules.values())

    # -- per-worker RNG streams (vectorized worker-bank backend) ---------------
    def stream_modules(self) -> Iterator["Module"]:
        """Depth-first modules that consume a private RNG stream while training.

        On the loop backend each of the m replicas owns its own stream (e.g.
        a ``Dropout`` layer's mask generator).  The worker-bank backend runs
        one template module for all m workers, so it pairs every stream
        module here with the m per-worker streams a loop run would have built
        (see :func:`repro.nn.bank.attach_bank_streams`) — that is what keeps
        seeded trajectories byte-identical across backends.
        """
        if self._consumes_stream():
            yield self
        for mod in self._modules.values():
            yield from mod.stream_modules()

    def _consumes_stream(self) -> bool:
        """Whether *this* module draws from an RNG during a training forward."""
        return False

    @staticmethod
    def _as_bank_input(x) -> Tensor:
        """Coerce a stacked batch to a ``(m, B, F)`` tensor (models' prelude)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim > 3:
            x = x.reshape(x.shape[0], x.shape[1], -1)
        return x


class Linear(Module):
    """Fully connected layer ``y = x W + b`` with weight of shape (in, out)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be positive")
        gen = check_random_state(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init_mod.kaiming_uniform((in_features, out_features), gen), requires_grad=True)
        if bias:
            self.bias = Tensor(init_mod.zeros((out_features,)), requires_grad=True)
        else:
            self.bias = None

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        # (m, B, in) @ (m, in, out) — matmul broadcasts over the worker axis,
        # so one call runs every replica's affine map.
        weight = params[f"{prefix}weight"]
        out = x @ weight
        if self.bias is not None:
            bias = params[f"{prefix}bias"]  # (m, out)
            out = out + bias.reshape(bias.shape[0], 1, bias.shape[1])
        return out


class ReLU(Module):
    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x.relu()


class Tanh(Module):
    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x.sigmoid()


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x.reshape(x.shape[0], x.shape[1], -1)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = check_random_state(rng)
        #: Per-worker mask streams for the bank path; worker i's generator
        #: must sit exactly where loop replica i's ``_rng`` would (wired by
        #: ``repro.nn.bank.attach_bank_streams`` at backend construction).
        self._bank_rngs: "list | None" = None

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        # A lone replica (the loop backend, m=1) draws from its own stream.
        rngs = self._bank_rngs if self._bank_rngs is not None else [self._rng]
        if len(rngs) != x.shape[0]:
            raise RuntimeError(
                "Dropout bank_forward needs one RNG stream per worker; the "
                "worker-bank backend attaches them at construction (see "
                "repro.nn.bank.attach_bank_streams)"
            )
        # One draw of shape (B, ...) per worker stream — each generator is
        # consumed exactly as m independent replicas' would be, so a seeded
        # run produces byte-identical masks (and stream positions) on every
        # backend.  Only the draws loop over m; the masking is one op.
        per_worker = x.shape[1:]
        keep = np.stack([rng.random(per_worker) for rng in rngs]) >= self.p
        # Build the mask in the activation dtype so the float32 bank mode
        # stays float32 end to end; in float64 this is the exact bool/float
        # promotion NumPy would apply anyway (byte-identical to the loop).
        mask = keep.astype(x.data.dtype) / x.data.dtype.type(1.0 - self.p)
        return x * Tensor(mask)

    def _consumes_stream(self) -> bool:
        return self.p > 0.0


class Sequential(Module):
    """Chain of sub-modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, mod in enumerate(modules):
            setattr(self, f"layer{i}", mod)

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        for name, mod in self._modules.items():
            x = mod.bank_forward(x, params, f"{prefix}{name}.")
        return x

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]


class _ConvPlan:
    """Precomputed im2col/col2im index maps for one ``(c, h, w, kh, kw, stride)``.

    The historical implementation rebuilt an ``as_strided`` view plus a
    transpose/reshape copy on *every* forward, and ran a Python loop of
    strided slice-adds on every backward.  The geometry never changes between
    steps, so the gather and scatter index maps are computed once and reused
    — one ``take`` per forward, ``kh·kw`` indexed adds per backward.

    Byte-compatibility contract (load-bearing for the golden fixtures and the
    loop↔vectorized↔sharded equivalence matrix):

    * ``gather`` reproduces exactly the historical patch layout
      ``(oh, ow, c, kh, kw)``, so the GEMM inputs — hence outputs — are
      bit-identical to the stride-trick path.
    * ``col2im`` replays the historical accumulation order: one pass per
      kernel offset ``(i, j)`` in ascending order.  Within a pass every
      destination is unique (windows at a fixed offset never collide), so
      the per-element add order matches the old slice-add loop, keeping
      IEEE-754 sums bit-identical even for overlapping windows
      (stride < kernel).  The two scatter strategies below differ only in
      memory layout of the *source*, never in add order or operands.
    """

    __slots__ = (
        "c", "h", "w", "kh", "kw", "stride", "out_h", "out_w", "gather",
        "scatter_dst", "scatter_src",
    )

    #: cols.size bounds choosing the scatter strategy: below the first the
    #: strided-view passes stay cache-resident, between them the cached
    #: fancy-index scatter wins, above the second the bulk transpose copy
    #: pays for itself.  All three are bit-identical (same pass order).
    _COL2IM_FANCY_MIN = 16384
    _COL2IM_TRANSPOSE_MIN = 131072

    def __init__(self, c: int, h: int, w: int, kh: int, kw: int, stride: int):
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        self.c, self.h, self.w = c, h, w
        self.kh, self.kw, self.stride = kh, kw, stride
        self.out_h, self.out_w = out_h, out_w

        ci = np.arange(c, dtype=np.intp)
        rows = np.arange(out_h, dtype=np.intp)[:, None] * stride + np.arange(kh, dtype=np.intp)
        cols = np.arange(out_w, dtype=np.intp)[:, None] * stride + np.arange(kw, dtype=np.intp)
        # gather[(oi, oj), (ci, i, j)] -> flat position in a (c·h·w) sample.
        self.gather = (
            ci[None, None, :, None, None] * (h * w)
            + rows[:, None, None, :, None] * w
            + cols[None, :, None, None, :]
        ).reshape(out_h * out_w * c * kh * kw)

        # Per-offset flat scatter maps for the mid-size col2im strategy:
        # destination positions in a (c·h·w) sample, source positions in a
        # (oh·ow·c·kh·kw) column row, both in (ci, oi, oj) order.
        ci3, oi3, oj3 = ci[:, None, None], np.arange(out_h, dtype=np.intp)[None, :, None], np.arange(out_w, dtype=np.intp)[None, None, :]
        self.scatter_dst = np.empty((kh * kw, c * out_h * out_w), dtype=np.intp)
        self.scatter_src = np.empty_like(self.scatter_dst)
        for q in range(kh * kw):
            i, j = divmod(q, kw)
            self.scatter_dst[q] = (ci3 * (h * w) + (i + stride * oi3) * w + (j + stride * oj3)).ravel()
            self.scatter_src[q] = ((oi3 * out_w + oj3) * (c * kh * kw) + ci3 * (kh * kw) + i * kw + j).ravel()

    def im2col(self, x: np.ndarray) -> np.ndarray:
        """Gather NCHW input patches to ``(n·oh·ow, c·kh·kw)`` columns."""
        n = x.shape[0]
        flat = x.reshape(n, self.c * self.h * self.w)
        return flat.take(self.gather, axis=1).reshape(-1, self.c * self.kh * self.kw)

    def col2im(self, cols: np.ndarray, n: int) -> np.ndarray:
        """Scatter column gradients back to ``(n, c, h, w)`` (inverse of im2col)."""
        c, h, w, kh, kw, s = self.c, self.h, self.w, self.kh, self.kw, self.stride
        out_h, out_w = self.out_h, self.out_w
        if cols.size >= self._COL2IM_TRANSPOSE_MIN and out_h * out_w >= 64:
            # Large-spatial scatter: one bulk transpose copy up front so every
            # pass reads a contiguous (n, c, oh, ow) block instead of striding
            # through the whole column matrix kh·kw times.  Small spatial maps
            # make those per-pass blocks tiny, where the indexed add below
            # wins despite its gather cost.
            dx = np.zeros((n, c, h, w), dtype=cols.dtype)
            p = np.ascontiguousarray(cols.reshape(n, out_h * out_w, c, kh * kw).transpose(0, 3, 2, 1))
            p = p.reshape(n, kh * kw, c, out_h, out_w)
            for k in range(kh * kw):
                i, j = divmod(k, kw)
                dx[:, :, i : i + s * out_h : s, j : j + s * out_w : s] += p[:, k]
            return dx
        if cols.size >= self._COL2IM_FANCY_MIN:
            # Mid-size scatter: precomputed flat index maps; per pass the
            # destinations are unique, so the buffered fancy add is exact.
            colsf = cols.reshape(n, -1)
            dxf = np.zeros((n, c * h * w), dtype=cols.dtype)
            for dst, src in zip(self.scatter_dst, self.scatter_src):
                dxf[:, dst] += colsf[:, src]
            return dxf.reshape(n, c, h, w)
        # Small scatter: strided pass sources stay cache-resident; skip the
        # transpose copy and the index arithmetic.
        dx = np.zeros((n, c, h, w), dtype=cols.dtype)
        patches = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i : i + s * out_h : s, j : j + s * out_w : s] += patches[:, :, i, j]
        return dx


#: Conv gather/scatter plans keyed by ``(c, h, w, kh, kw, stride)`` and pool
#: backward index maps keyed by ``(n, c, h, w, k, s)``.  Bounded FIFO caches:
#: a handful of geometries per model, but eval batch sizes vary, so evict the
#: oldest entry past the cap instead of growing without bound.
_CONV_PLANS: dict[tuple, _ConvPlan] = {}
_POOL_PLANS: dict[tuple, np.ndarray] = {}
_PLAN_CACHE_CAP = 128
_plan_cache_hits = 0
_plan_cache_misses = 0


def _conv_plan(c: int, h: int, w: int, kh: int, kw: int, stride: int) -> _ConvPlan:
    global _plan_cache_hits, _plan_cache_misses
    key = (c, h, w, kh, kw, stride)
    plan = _CONV_PLANS.get(key)
    if plan is None:
        _plan_cache_misses += 1
        if len(_CONV_PLANS) >= _PLAN_CACHE_CAP:
            _CONV_PLANS.pop(next(iter(_CONV_PLANS)))
        plan = _CONV_PLANS[key] = _ConvPlan(c, h, w, kh, kw, stride)
    else:
        _plan_cache_hits += 1
    return plan


def _pool_base(n: int, c: int, h: int, w: int, out_h: int, out_w: int, s: int) -> np.ndarray:
    """Cached flat indices of each pooling window's origin, shape (n, c, oh, ow)."""
    global _plan_cache_hits, _plan_cache_misses
    key = (n, c, h, w, out_h, out_w, s)
    base = _POOL_PLANS.get(key)
    if base is None:
        _plan_cache_misses += 1
        if len(_POOL_PLANS) >= _PLAN_CACHE_CAP:
            _POOL_PLANS.pop(next(iter(_POOL_PLANS)))
        ni = np.arange(n, dtype=np.intp)[:, None, None, None]
        ci = np.arange(c, dtype=np.intp)[None, :, None, None]
        oi = np.arange(out_h, dtype=np.intp)[None, None, :, None]
        oj = np.arange(out_w, dtype=np.intp)[None, None, None, :]
        base = ((ni * c + ci) * h + s * oi) * w + s * oj
        _POOL_PLANS[key] = base
    else:
        _plan_cache_hits += 1
    return base


#: ``(k, w) -> (k²,)`` flat offsets of each in-window position; tiny and
#: geometry-stable, so cached without a cap alongside the pool bases.
_POOL_OFFSETS: dict[tuple[int, int], np.ndarray] = {}


def _pool_offsets(k: int, w: int) -> np.ndarray:
    """Cached flat offset of window position ``t`` (row-major): ``(t//k)*w + t%k``."""
    key = (k, w)
    offsets = _POOL_OFFSETS.get(key)
    if offsets is None:
        t = np.arange(k * k, dtype=np.intp)
        offsets = _POOL_OFFSETS[key] = (t // k) * w + t % k
    return offsets


def clear_kernel_plan_cache() -> None:
    """Drop all cached conv/pool index plans (test hook; safe at any time)."""
    global _plan_cache_hits, _plan_cache_misses
    _CONV_PLANS.clear()
    _POOL_PLANS.clear()
    _POOL_OFFSETS.clear()
    _plan_cache_hits = 0
    _plan_cache_misses = 0


def kernel_plan_cache_stats() -> dict[str, int]:
    """Sizes and hit/miss counters of the kernel plan caches."""
    return {
        "conv_plans": len(_CONV_PLANS),
        "pool_plans": len(_POOL_PLANS),
        "hits": _plan_cache_hits,
        "misses": _plan_cache_misses,
    }


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Convert NCHW input patches to columns for convolution as matmul."""
    n, c, h, w = x.shape
    plan = _conv_plan(c, h, w, kh, kw, stride)
    with profiled("im2col"):
        return plan.im2col(x), plan.out_h, plan.out_w


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int, stride: int) -> np.ndarray:
    """Scatter column gradients back to the NCHW input shape (inverse of im2col)."""
    n, c, h, w = x_shape
    with profiled("col2im"):
        return _conv_plan(c, h, w, kh, kw, stride).col2im(cols, n)


class Conv2d(Module):
    """2-D convolution (NCHW) implemented with im2col + matmul.

    Small by design; intended for the "resnet-lite"/"vgg-lite" models trained
    on the synthetic CIFAR substitute.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        gen = check_random_state(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(
            init_mod.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), gen),
            requires_grad=True,
        )
        if bias:
            self.bias = Tensor(init_mod.zeros((out_channels,)), requires_grad=True)
        else:
            self.bias = None

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        """All m workers' convolutions in one batched matmul.

        The worker axis is folded into the batch axis for the im2col patch
        extraction — one strided view over ``(m·B, c, h, w)`` — and only the
        weights stay per-worker: ``(m, B·oh·ow, c·kh·kw) @ (m, c·kh·kw,
        out_c)``.  NumPy's stacked matmul runs the identical per-slice GEMM a
        loop replica would, so the outputs (and gradients) are byte-identical
        to m single-replica convolutions.
        """
        if x.ndim != 5:
            raise ValueError(f"Conv2d bank_forward expects (m, B, C, H, W) input, got shape {x.shape}")
        weight = params[f"{prefix}weight"]
        bias = params[f"{prefix}bias"] if self.bias is not None else None

        kh = kw = self.kernel_size
        stride, pad = self.stride, self.padding
        x_data = x.data
        with profiled("conv2d.bank_forward"):
            if pad:
                # Zero-fill + interior assign: same bytes as np.pad without its
                # per-call Python machinery (this runs once per conv per step).
                mm, bb, cc, hh, ww = x_data.shape
                padded = np.zeros((mm, bb, cc, hh + 2 * pad, ww + 2 * pad), dtype=x_data.dtype)
                padded[:, :, :, pad:-pad, pad:-pad] = x_data
                x_data = padded
            m, b, c, h, w = x_data.shape
            cols, out_h, out_w = _im2col(x_data.reshape(m * b, c, h, w), kh, kw, stride)
            cols3 = cols.reshape(m, b * out_h * out_w, c * kh * kw)
            w_mat = weight.data.reshape(m, self.out_channels, -1).transpose(0, 2, 1)
            out_cols = cols3 @ w_mat  # (m, B·oh·ow, out_c)
            # Materialize a C-contiguous output: the transpose view would leak
            # its layout through every downstream ufunc (bias add, ReLU), and
            # the pooling fast path needs C order.
            out_data = np.ascontiguousarray(
                out_cols.reshape(m, b, out_h, out_w, self.out_channels).transpose(0, 1, 4, 2, 3)
            )
            if bias is not None:
                out_data += bias.data.reshape(m, 1, -1, 1, 1)

        padded_shape = (m * b, c, h, w)
        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(g):
            # g: (m, B, out_c, oh, ow)
            with profiled("conv2d.bank_backward"):
                g_cols = g.transpose(0, 1, 3, 4, 2).reshape(m, b * out_h * out_w, self.out_channels)
                dw = (cols3.transpose(0, 2, 1) @ g_cols).transpose(0, 2, 1).reshape(weight.shape)
                if x.requires_grad:
                    dcols = g_cols @ w_mat.transpose(0, 2, 1)
                    dx = _col2im(dcols.reshape(-1, c * kh * kw), padded_shape, kh, kw, stride)
                    dx = dx.reshape(m, b, c, h, w)
                    if pad:
                        dx = dx[:, :, :, pad:-pad, pad:-pad]
                else:
                    # First-layer input: the scatter (and its GEMM) would be
                    # discarded by the engine, so don't compute it.
                    dx = None
                if bias is None:
                    return (dx, dw)
                db = g.sum(axis=(1, 3, 4))
                return (dx, dw, db)

        return x._make(out_data, parents, backward)


class _Pool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def _forward_arrays(self, x_data: np.ndarray):  # pragma: no cover - abstract
        """Array-level pool: return ``(out_data, backward)`` for NCHW input."""
        raise NotImplementedError

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        # Pooling has no parameters, so the worker axis simply folds into the
        # batch axis and the single-replica window arithmetic runs unchanged
        # (byte-identical per slice).  The fold happens at the ndarray level —
        # one graph node instead of reshape→pool→reshape — so the bank path
        # spends nothing on extra autograd bookkeeping.
        if x.ndim != 5:
            raise ValueError(f"pooling bank_forward expects (m, B, C, H, W) input, got shape {x.shape}")
        x_data = x.data
        m, b = x_data.shape[0], x_data.shape[1]
        with profiled("pool.bank_forward"):
            out4, array_backward = self._forward_arrays(x_data.reshape(m * b, *x_data.shape[2:]))
        out_data = out4.reshape(m, b, *out4.shape[1:])

        def backward(g):
            with profiled("pool.bank_backward"):
                dx4 = array_backward(g.reshape(m * b, *g.shape[2:]))
                return (dx4.reshape(x_data.shape),)

        return x._make(out_data, (x,), backward)


class MaxPool2d(_Pool2d):
    """Max pooling over non-overlapping (or strided) windows of an NCHW tensor."""

    def _forward_arrays(self, x_data: np.ndarray):
        k, s = self.kernel_size, self.stride
        n, c, h, w = x_data.shape
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        # Exactly-tiling non-overlapping windows on a C-contiguous input
        # reduce over a plain reshape view — much faster than the strided
        # window view, and the same element set per window either way.
        tiled = s == k and h == out_h * k and w == out_w * k and x_data.flags.c_contiguous
        if tiled:
            blocks = x_data.reshape(n, c, out_h, k, out_w, k)
            views = [blocks[:, :, :, i, :, j] for i in range(k) for j in range(k)]
        else:
            shape = (n, c, out_h, out_w, k, k)
            strides = (
                x_data.strides[0],
                x_data.strides[1],
                x_data.strides[2] * s,
                x_data.strides[3] * s,
                x_data.strides[2],
                x_data.strides[3],
            )
            windows = np.lib.stride_tricks.as_strided(x_data, shape=shape, strides=strides)
            views = [windows[:, :, :, :, i, j] for i in range(k) for j in range(k)]
        # Sequential pairwise maximum over the k² window offsets, ascending
        # (i, j) — max is associativity-free, so this equals the multi-axis
        # reduce bit-for-bit while running one contiguous-output ufunc per
        # offset instead of a strided multi-axis reduction.
        if len(views) == 1:
            out_data = views[0].copy()
        else:
            out_data = np.maximum(views[0], views[1])
            for v in views[2:]:
                np.maximum(out_data, v, out=out_data)

        def backward(g):
            if tiled:
                flat = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, out_h, out_w, k * k)
            else:
                flat = windows.reshape(n, c, out_h, out_w, k * k)
            argmax = flat.argmax(axis=4)
            # Cached window-origin indices turn the scatter into one flat
            # indexed write instead of a 4-array tuple scatter per step; the
            # cached in-window offset table maps argmax straight to a flat
            # offset (one gather) instead of divmod arithmetic per call.
            # Scatter into an explicitly flat buffer: the pooling input is
            # often a non-C-contiguous view, where reshaping zeros_like(...)
            # would silently copy and drop the scattered writes.
            idx = _pool_base(n, c, h, w, out_h, out_w, s) + _pool_offsets(k, w)[argmax]
            dxr = np.zeros(n * c * h * w, dtype=x_data.dtype)
            if s >= k:
                # Non-overlapping windows: one argmax per window, destinations
                # unique — a plain write equals the accumulate bit-for-bit.
                dxr[idx.reshape(-1)] = g.reshape(-1)
            else:
                # Overlapping windows can collide; add.at iterates the index
                # array row-major over (n, c, oh, ow) — the same accumulation
                # order as the historical meshgrid scatter, so sums keep the
                # exact bytes.
                np.add.at(dxr, idx.reshape(-1), g.reshape(-1))
            return dxr.reshape(n, c, h, w)

        return out_data, backward


class AvgPool2d(_Pool2d):
    """Average pooling over windows of an NCHW tensor."""

    def _forward_arrays(self, x_data: np.ndarray):
        k, s = self.kernel_size, self.stride
        n, c, h, w = x_data.shape
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        shape = (n, c, out_h, out_w, k, k)
        strides = (
            x_data.strides[0],
            x_data.strides[1],
            x_data.strides[2] * s,
            x_data.strides[3] * s,
            x_data.strides[2],
            x_data.strides[3],
        )
        windows = np.lib.stride_tricks.as_strided(x_data, shape=shape, strides=strides)
        out_data = windows.mean(axis=(4, 5))

        def backward(g):
            dx = np.zeros_like(x_data)
            scale = 1.0 / (k * k)
            g_scaled = g * scale
            for i in range(k):
                for j in range(k):
                    dx[:, :, i : i + s * out_h : s, j : j + s * out_w : s] += g_scaled
            return dx

        return out_data, backward


class BatchNorm1d(Module):
    """Batch normalization over the feature dimension of (N, F) inputs.

    Running statistics are tracked for eval mode.  Note that running stats
    are *buffers*, not parameters, so PASGD model averaging (which averages
    the flat parameter vector) averages γ/β but leaves each worker's running
    stats local — matching common DDP semantics.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Tensor(np.ones(num_features), requires_grad=True)
        self.bias = Tensor(np.zeros(num_features), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        """Normalize all m workers' batches under per-worker γ/β and stats.

        ``params`` must be a param+buffer mapping (``ParameterBank.state()``):
        the ``(m, F)`` running-stat buffers are read — and, in training mode,
        momentum-updated in place — per worker, exactly as m loop replicas
        would update their local copies.
        """
        if x.ndim != 3:
            raise ValueError("BatchNorm1d bank_forward expects (m, B, F) input")
        weight = params[f"{prefix}weight"]
        bias = params[f"{prefix}bias"]
        try:
            running_mean = params[f"{prefix}running_mean"]
            running_var = params[f"{prefix}running_var"]
        except KeyError:
            raise KeyError(
                "BatchNorm1d bank_forward needs the stacked running-stat buffers; "
                "pass ParameterBank.state() (params + buffers), not .params alone"
            ) from None
        m = x.shape[0]
        if self.training:
            mean = x.mean(axis=1, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=1, keepdims=True)
            running_mean[...] = (
                (1 - self.momentum) * running_mean + self.momentum * mean.data.reshape(m, -1)
            )
            running_var[...] = (
                (1 - self.momentum) * running_var + self.momentum * var.data.reshape(m, -1)
            )
            x_hat = centered / (var + self.eps).sqrt()
        else:
            x_hat = (x - Tensor(running_mean[:, None, :])) / Tensor(
                np.sqrt(running_var[:, None, :] + self.eps)
            )
        w = weight.reshape(m, 1, self.num_features)
        b = bias.reshape(m, 1, self.num_features)
        return x_hat * w + b


class Residual(Module):
    """Residual wrapper: ``y = x + inner(x)`` (the resnet-lite building block)."""

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x + self.inner.bank_forward(x, params, f"{prefix}inner.")
