"""Differentiable numeric core: a small reverse-mode tape over numpy arrays.

Only the operations the dialogue model needs are provided. Values are float64
throughout. One rule keeps the forward pass exactly reproducible when a
dialogue prefix is re-evaluated on its own: every product or reduction over
an axis whose length depends on the dialogue goes through fixed_matmul. It
zero-pads each such axis to a multiple of ROW_BLOCK and computes rows in
blocks of ROW_BLOCK, so BLAS sees shapes fixed by the block count and a
causal row's exact-zero tail meets the same zeros wherever the dialogue ends.
Model-width axes stay unpadded, except a softmax denominator's summed axis.

This is batch invariance by fixed shapes (He et al., 2025, "Defeating
Nondeterminism in LLM Inference"), not avoidance of BLAS. Measured with
numpy 2.4.6 / OpenBLAS 0.3.31 (Haswell kernels) at 1 and 2 threads: an
unpadded GEMM over the first B of 16 rows gives rows that differ in bits
from the same rows of the full 16-row GEMM for 12 of the 16 values of B in
a 64 -> 2 product, 1 (B = 1, a GEMV) in a 32 -> 32 one and 9 (every B <= 9)
in a 32 -> 128 one; over the first B of 64 rows, for 44, 37 and 9 of the 64
values. In padded 16-row blocks a row's bits depend neither on the row
count, nor on the other rows' contents, nor on its position within the
block, and one stacked (blocks, 16, in) product matches the per-block GEMMs
(tests/test_numerics.py checks these and causal sums where it runs, at 1
and at 2 BLAS threads). 16-row blocks pad a training dialogue's 8-10 rows
to 16 instead of 64.

Sequences are batch-major, (B, T, ...), like every other batched array.
lstm_sequence takes and returns that layout and steps its recurrence
time-major inside. It runs every sequence of a batch for all T steps; the
encoder picks each utterance's state at its own last step.

Dialogues batch on a leading axis, padded to the batch's longest. A
dialogue's rows then sit in the same fixed-shape blocks as when it runs
alone, and every forward reduction over its padded axis (softmax
denominators, importance pooling) is a fixed_matmul whose summed axis is
zero-padded, so a padded tail adds exact zeros after its entries. B = 1 and
B > 1 use the same ops, so a dialogue's outputs have the same bits whatever
runs beside it.

Backward closures use plain BLAS products, where speed matters and bitwise
prefix reproducibility does not.

Every attention is one attention() call; leading axes are batch axes, so
split_heads' (L, heads * h) -> (heads, L, h) runs all heads in one call,
and merge_heads restores (L, heads * h). Each head's entries come from
GEMMs of the same shapes and layouts as a 2-D call on that head alone, so
they are bit-identical to it.

Importing this module sets one allocator policy: glibc's trim threshold
(M_TRIM_THRESHOLD, mallopt(3)) is raised to TRIM_THRESHOLD = 64 MiB. A
training sub-batch's tape is freed at once by its backward, and with the
default threshold glibc handed the heap top back to the kernel, so the next
sub-batch faulted the same pages in again: 9.6k-19.9k minor page faults per
epoch of the benchmark's train workload (seed 7, 2 vCPUs, three processes
of 6-10 epochs), 98% of them in lstm_sequence's forward calls and in
backward, against 4-98 per epoch from the third on with the threshold
raised. Raising the mmap threshold as well gave 6-53 per epoch after the
first and no lower peak RSS, so that one stays at glibc's default. The
policy is process-wide: it holds for every malloc in the process. It
applies to glibc only; where the C library has no mallopt (macOS, Windows)
nothing is set. It changes no arithmetic, so every output keeps its bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import heapq
import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError

Array = np.ndarray


ROW_BLOCK = 16

_creation = itertools.count()  # Tensor._seq: a parent is older than its consumers


# mallopt(3)'s M_TRIM_THRESHOLD, and the value the tape needs: well above a
# training sub-batch's working set (the tracemalloc peak of one optimizer
# step is 3.33 MB), so the memory one backward frees stays mapped for the
# next sub-batch.
_M_TRIM_THRESHOLD = -1
TRIM_THRESHOLD = 64 << 20


def _keep_freed_memory_mapped() -> None:
    """Raise glibc's trim threshold to TRIM_THRESHOLD for this process; do
    nothing where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_memory_mapped()


# Lengths whose constant arrays are kept once built: the default
# max_dialogue_len. Longer lengths are built on each call, so the caches
# hold at most the arrays of lengths 1-64 whatever the configuration.
CACHED_LENGTH = 64


def per_length(build: Callable[..., Array]) -> Callable[..., Array]:
    """build(length, *args) as a read-only array, built once per arguments
    for lengths up to CACHED_LENGTH and on every call above it."""
    cached = functools.lru_cache(maxsize=None)(build)

    @functools.wraps(build)
    def get(length: int, *args) -> Array:
        out = (cached if length <= CACHED_LENGTH else build)(length, *args)
        out.flags.writeable = False
        return out

    return get


@per_length
def tril(length: int, k: int = 0) -> Array:
    """The boolean np.tri(length, length, k); the two masks the model uses
    hold 180 kB for lengths 1-64."""
    return np.tri(length, length, k, dtype=bool)


@per_length
def ones_column(length: int) -> Array:
    """np.ones((length, 1)): a row-sum GEMM's right operand."""
    return np.ones((length, 1))


def fixed_matmul(a: Array, b: Array, pad_k: bool = False,
                 pad_n: bool = False) -> Array:
    """a @ b for a (..., M, K) and b (K, N) or (..., K, N), with M, and K if
    pad_k and N if pad_n, zero-padded to a multiple of ROW_BLOCK and rows in
    blocks of ROW_BLOCK; pad the axes whose length depends on the dialogue.
    A C-contiguous a that already fills whole blocks is used as it is, as
    it has the padded copy's layout; b is always copied when padded, since
    a strided b would reach BLAS in another layout."""
    (*batch, m, k), n = a.shape, b.shape[-1]
    m_pad = -(-m // ROW_BLOCK) * ROW_BLOCK
    k_pad = -(-k // ROW_BLOCK) * ROW_BLOCK if pad_k else k
    n_pad = -(-n // ROW_BLOCK) * ROW_BLOCK if pad_n else n
    if m == m_pad and k == k_pad and a.flags.c_contiguous:
        padded = a
    else:
        padded = np.zeros((*batch, m_pad, k_pad))
        padded[..., :m, :k] = a
    if pad_k or pad_n:
        b, unpadded = np.zeros(b.shape[:-2] + (k_pad, n_pad)), b
        b[..., :k, :n] = unpadded
    out = padded.reshape(*batch, -1, ROW_BLOCK, k_pad) @ b[..., None, :, :]
    return out.reshape(*batch, m_pad, n_pad)[..., :m, :n]


class Tensor:
    """Dense float64 array plus an optional gradient slot.

    Tensors are immutable once produced by an operation; the implicit graph
    (parents + backward closures) is confined to one thread of execution.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[Array], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self._seq = next(_creation)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Reverse-mode accumulation from a scalar output. A node's consumers
        are newer than it, so taking the newest waiting node first runs each
        closure on a complete gradient. Each node's grad, closure and parent
        links are freed once its closure has run, so the tape shrinks as
        backward walks it; backward through a used node again raises."""
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar tensor")
        _accum(self, np.ones_like(self.data))
        waiting = [(-self._seq, self)] if self._backward is not None else []
        queued = {self._seq}
        while waiting:
            node = heapq.heappop(waiting)[1]
            if node.grad is None:
                continue
            node._backward(node.grad)
            node.grad, node._backward = None, _used
            for p in node._parents:
                if p._backward is not None and p._seq not in queued:
                    queued.add(p._seq)
                    heapq.heappush(waiting, (-p._seq, p))
            node._parents = ()


def _used(g: Array) -> None:
    raise ContractError("backward through a part of the tape that an earlier "
                        "backward already used")


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _make(data: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    """The one node constructor: every op's output goes through here."""
    if _profiler is not None:
        backward = _profiler.node(backward)
    for p in parents:
        if p.requires_grad:
            return Tensor(data, True, parents, backward)
    return Tensor(data)


# ---------------------------------------------------------------------------
# op profiler
# ---------------------------------------------------------------------------

@dataclass
class OpStats:
    """What one op's nodes cost while a profile() was on."""
    nodes: int = 0           # nodes made
    forward_s: float = 0.0   # wall time up to each node, from the last event
    backward_s: float = 0.0  # wall time in the nodes' backward closures


class _Profiler:
    def __init__(self) -> None:
        self.ops: dict[str, OpStats] = {}
        self.clock = time.perf_counter()

    def node(self, backward: Callable[[Array], None]) -> Callable[[Array], None]:
        """Charge a new node to the op that made it (_make's caller) and
        return its backward closure, timed."""
        now = time.perf_counter()
        stats = self.ops.setdefault(sys._getframe(2).f_code.co_name, OpStats())
        stats.nodes += 1
        stats.forward_s += now - self.clock
        self.clock = now

        def timed(g: Array) -> None:
            start = time.perf_counter()
            backward(g)
            self.clock = time.perf_counter()
            stats.backward_s += self.clock - start

        return timed


# Module state, because _make sees only an op's operands: no object that a
# caller creates reaches it. profile() sets and always clears it.
_profiler: _Profiler | None = None


@contextlib.contextmanager
def profile() -> Iterator[dict[str, OpStats]]:
    """Per-op costs of the nodes made within the block, by the name of the
    op function that made them.

    A node's forward seconds run from the previous event (the block's
    start, the previous node, or the end of a profiled backward closure) to
    its creation, so they include the caller's code just before the op and
    add up to the block's wall time up to its last node. Backward seconds
    are its closure's own time, also when backward runs after the block.
    Off, the profiler costs _make one test."""
    global _profiler
    if _profiler is not None:
        raise ContractError("profile() is already on")
    _profiler = _Profiler()
    try:
        yield _profiler.ops
    finally:
        _profiler = None


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def back(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def back(g: Array) -> None:
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), back)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def back(g: Array) -> None:
        _accum(a, g * s)

    return _make(out, (a,), back)


def divide(a: Tensor, d) -> Tensor:
    """a / d for a constant d (a number or an array that broadcasts); a
    true division rounds once, where a product with 1 / d rounds twice."""
    out = a.data / d

    def back(g: Array) -> None:
        _accum(a, g / d)

    return _make(out, (a,), back)


def square(a: Tensor) -> Tensor:
    out = a.data * a.data

    def back(g: Array) -> None:
        _accum(a, g * (2.0 * a.data))

    return _make(out, (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def back(g: Array) -> None:
        _accum(a, g * out * (1.0 - out))

    return _make(out, (a,), back)


def _sigmoid(x: Array) -> Array:
    # exp(-|x|) never overflows; the sign picks the numerator
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def back(g: Array) -> None:
        _accum(a, g * (1.0 - out * out))

    return _make(out, (a,), back)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def back(g: Array) -> None:
        _accum(a, g * (a.data > 0.0))

    return _make(out, (a,), back)


def log_sums(probs: Tensor, index: tuple[Array, ...], sizes: Sequence[int],
             divisor: Array) -> Tensor:
    """(G,): group g's correctly rounded sum (math.fsum) of log(max(p,
    1e-12)) over its sizes[g] consecutive entries p of probs[index], over
    divisor[g]; index names distinct entries. The gradient is zero in the
    clamped region and at every entry index does not name."""
    picked = probs.data[index]
    clamped = np.maximum(picked, 1e-12)
    logs = np.split(np.log(clamped), np.cumsum(sizes)[:-1])
    out = np.array([math.fsum(x.tolist()) for x in logs]) / divisor
    group = np.repeat(np.arange(len(sizes)), sizes)

    def back(g: Array) -> None:
        full = np.zeros_like(probs.data)
        full[index] = (g / divisor)[group] * np.where(picked >= 1e-12,
                                                      1.0 / clamped, 0.0)
        _accum(probs, full)

    return _make(out, (probs,), back)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def back(g: Array) -> None:
        _accum(a, np.full_like(a.data, float(g)))

    return _make(out, (a,), back)


def exact_sum(*tensors: Tensor) -> Tensor:
    """The sum of every entry of every tensor, correctly rounded
    (math.fsum). An exact sum depends neither on the order of its entries
    nor on zeros among them."""
    out = np.asarray(math.fsum(v for t in tensors for v in t.data.ravel().tolist()))

    def back(g: Array) -> None:
        for t in tensors:
            _accum(t, np.broadcast_to(g, t.data.shape))

    return _make(out, tensors, back)


def sum_squares(tensors: Sequence[Tensor]) -> Tensor:
    """The summed squares of every entry of every tensor, as one node. The
    per-tensor sums are added exactly (fsum), so their order does not matter."""
    tensors = tuple(tensors)
    out = np.asarray(math.fsum(float((t.data * t.data).sum()) for t in tensors))

    def back(g: Array) -> None:
        for t in tensors:
            _accum(t, g * (2.0 * t.data))

    return _make(out, tensors, back)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept entries by 1/(1-p). Train-time only;
    callers must bypass it entirely in evaluation/verification mode."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate {p} outside [0, 1)")
    if p == 0.0:
        return a
    keep = rng.random(a.data.shape) >= p
    out = a.data * (keep / (1.0 - p))

    def back(g: Array) -> None:
        _accum(a, g * (keep / (1.0 - p)))

    return _make(out, (a,), back)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """a and b joined on the last axis; every other axis must match."""
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ContractError("concat_cols row mismatch")
    na = a.data.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)

    def back(g: Array) -> None:
        _accum(a, g[..., :na])
        _accum(b, g[..., na:])

    return _make(out, (a, b), back)


def row(a: Tensor, i) -> Tensor:
    """a[i] for an int, a slice, or a tuple of those, of ... and None, or of
    index arrays that name distinct entries."""
    out = a.data[i]

    def back(g: Array) -> None:
        full = np.zeros_like(a.data)
        full[i] = g
        _accum(a, full)

    return _make(out, (a,), back)


def stack_padded(tensors: Sequence[Tensor], length: int) -> Tensor:
    """(B, length, ...) from B tensors of shape (L_b, ...) with L_b <=
    length: slice b holds tensor b in its first L_b rows, zeros after."""
    tensors = tuple(tensors)
    out = np.zeros((len(tensors), length) + tensors[0].data.shape[1:])
    for b, t in enumerate(tensors):
        out[b, :t.data.shape[0]] = t.data

    def back(g: Array) -> None:
        for b, t in enumerate(tensors):
            _accum(t, g[b, :t.data.shape[0]])

    return _make(out, tensors, back)


def split_heads(a: Tensor, heads: int) -> Tensor:
    """(..., L, heads * h) -> (..., heads, L, h): column block j becomes
    head j.

    Gradients leave split_heads and merge_heads as C-ordered copies: BLAS
    bits depend on memory layout, and these are the layouts that per-head
    column slices and concatenation produce."""
    *lead, length, width = a.data.shape
    if width % heads != 0:
        raise ContractError(f"width {width} not divisible by {heads} heads")
    out = a.data.reshape(*lead, length, heads, width // heads).swapaxes(-3, -2)

    def back(g: Array) -> None:
        _accum(a, np.ascontiguousarray(g.swapaxes(-3, -2)).reshape(a.data.shape))

    return _make(out, (a,), back)


def merge_heads(a: Tensor) -> Tensor:
    """Inverse of split_heads: (..., heads, L, h) -> (..., L, heads * h),
    C-ordered."""
    *lead, heads, length, head_dim = a.data.shape
    out = np.ascontiguousarray(a.data.swapaxes(-3, -2)).reshape(
        *lead, length, heads * head_dim)

    def back(g: Array) -> None:
        _accum(a, np.ascontiguousarray(
            g.reshape(*lead, length, heads, head_dim).swapaxes(-3, -2)))

    return _make(out, (a,), back)


def pad_cols(a: Tensor, width: int) -> Tensor:
    """Zero-pad the last axis to `width`."""
    cols = a.data.shape[-1]
    if width < cols:
        raise ContractError(f"pad_cols target {width} narrower than input {cols}")
    out = np.zeros(a.data.shape[:-1] + (width,))
    out[..., :cols] = a.data

    def back(g: Array) -> None:
        _accum(a, g[..., :cols])

    return _make(out, (a,), back)


def gather_rows(table: Tensor, ids: Sequence[int] | Array) -> Tensor:
    """table[ids] for an array of non-negative ids of any shape; the result
    has the id array's shape plus the table's trailing axes.

    The backward is one np.bincount over the flat bins id * width + column.
    Like np.add.at into zeros, it adds each bin's gradients in the ids'
    order, starting from 0.0, so it gives the same bits, 3-5 times faster."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size == 0:
        raise ContractError("gather_rows requires at least one index")
    if idx.min() < 0:
        raise ContractError("gather_rows requires non-negative indices")
    out = table.data[idx]

    def back(g: Array) -> None:
        _accum(table, _scatter_rows(idx, g, table.data.shape))

    return _make(out, (table,), back)


def _scatter_rows(idx: Array, g: Array, shape: tuple[int, ...]) -> Array:
    """The gradient of table[idx] for a table of this shape: g's rows added
    into zeros by id, each bin in the ids' order (C order of idx)."""
    width = math.prod(shape[1:])
    bins = (idx[..., None] * width + np.arange(width)).ravel()
    return np.bincount(bins, weights=g.ravel(),
                       minlength=math.prod(shape)).reshape(shape)


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def linear_rows(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Row-wise affine map x[..., t, :] -> w @ x[..., t, :] + b, or without
    a bias (e.g. attention key projections, where a key bias would shift
    every score in a row equally and cancel under softmax).

    Forward goes through fixed_matmul over the rows of every leading axis,
    so a row's bits do not depend on how many rows there are or where it
    sits.
    """
    if x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[1]:
        raise ContractError(f"linear_rows shapes x{x.data.shape} w{w.data.shape}")
    if b is not None and b.data.shape != (w.data.shape[0],):
        raise ContractError(f"linear_rows bias shape {b.data.shape}")
    wd = w.data
    rows = x.data.reshape(-1, wd.shape[1])
    out = fixed_matmul(rows, wd.T)
    if b is not None:
        out += b.data
    out = out.reshape(x.data.shape[:-1] + (wd.shape[0],))

    def back(g: Array) -> None:
        g = g.reshape(-1, wd.shape[0])
        _accum(x, (g @ wd).reshape(x.data.shape))
        _accum(w, g.T @ rows)
        if b is not None:
            _accum(b, g.sum(axis=0))

    return _make(out, (x, w) if b is None else (x, w, b), back)


def pairwise_scores(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs dot products a[..., i, :]·b[..., j, :] with both operands'
    rows padded; leading axes (e.g. attention heads) are batch axes."""
    if a.data.ndim < 2 or b.data.ndim != a.data.ndim \
            or a.data.shape[:-2] != b.data.shape[:-2] \
            or a.data.shape[-1] != b.data.shape[-1]:
        raise ContractError(f"pairwise_scores shapes {a.data.shape}, {b.data.shape}")
    out = fixed_matmul(a.data, b.data.swapaxes(-1, -2), pad_n=True)

    def back(g: Array) -> None:
        _accum(a, g @ b.data)
        _accum(b, g.swapaxes(-1, -2) @ a.data)

    return _make(out, (a, b), back)


def attend(weights: Tensor, values: Tensor) -> Tensor:
    """Weighted row sums weights @ values with rows and contraction axis
    padded, so exact-zero weight tails are no-ops; leading axes are batch."""
    if weights.data.ndim < 2 or values.data.ndim != weights.data.ndim \
            or weights.data.shape[:-2] != values.data.shape[:-2] \
            or weights.data.shape[-1] != values.data.shape[-2]:
        raise ContractError(
            f"attend shapes {weights.data.shape} @ {values.data.shape}")
    out = fixed_matmul(weights.data, values.data, pad_k=True)

    def back(g: Array) -> None:
        _accum(weights, g @ values.data.swapaxes(-1, -2))
        _accum(values, weights.data.swapaxes(-1, -2) @ g)

    return _make(out, (weights, values), back)


# ---------------------------------------------------------------------------
# masked softmax / layer norm
# ---------------------------------------------------------------------------

_LOWEST = np.finfo(np.float64).min


def masked_softmax(scores: Tensor, allowed: Array | None) -> Tensor:
    """Exp-normalize each row over its allowed positions (every position
    when allowed is None).

    Disallowed positions get exact 0. A row with no allowed position yields
    the all-zeros row (rather than uniform), so downstream context vectors
    vanish instead of leaking masked information.

    The max-shifted exponentials are written into one zero buffer that pads
    the rows and the summed axis to whole ROW_BLOCKs, the array fixed_matmul
    would build with pad_k, so the denominators are fixed_matmul of that
    buffer with a cached ones column and no copy: a row's denominator sums
    its zero-padded entries in a GEMM of the same shape wherever the row
    ends. A row with an allowed entry holds exp(0) = 1, so its denominator
    is at least 1; an empty row's is 0 and is divided by 1 instead.
    """
    s = scores.data
    shape = s.shape if s.ndim > 1 else (1,) + s.shape
    *lead, m, n = shape
    n_pad = -(-n // ROW_BLOCK) * ROW_BLOCK
    buffer = np.zeros((*lead, -(-m // ROW_BLOCK) * ROW_BLOCK, n_pad))
    e = buffer[..., :m, :n]
    if allowed is None:
        finite = np.isfinite(s).all()
        e[...] = s.reshape(shape)
    else:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != s.shape:
            raise ContractError(
                f"mask shape {allowed.shape} != scores shape {s.shape}")
        finite = np.isfinite(s[allowed]).all()
        e[...] = -np.inf
        np.copyto(e, s.reshape(shape), where=allowed.reshape(shape))
    if not finite:
        raise ContractError("non-finite score at an allowed position")
    rowmax = np.maximum.reduce(e, axis=-1, keepdims=True)
    # an empty row's max is -inf; any finite shift keeps its exps at 0
    np.maximum(rowmax, _LOWEST, out=rowmax)
    e -= rowmax
    np.exp(e, out=e)                         # exp(-inf) == 0 exactly
    denom = fixed_matmul(buffer, ones_column(n_pad))[..., :m, :]
    out = (e / np.maximum(denom, 1.0, out=denom)).reshape(s.shape)

    def back(g: Array) -> None:
        inner = np.add.reduce(g * out, axis=-1, keepdims=True)
        _accum(scores, out * (g - inner))

    return _make(out, (scores,), back)


def attention(queries: Tensor, keys: Tensor, values: Tensor, allowed: Array,
              reweight: Callable[[Tensor], Tensor] | None = None,
              ) -> tuple[Tensor, Tensor]:
    """(context, weights) of masked dot-product attention (Vaswani et al.,
    2017), from the ops above in this order: pairwise_scores, reweight if
    given, masked_softmax over `allowed` (the scores' shape), attend. A row
    with nothing allowed gets a zero context."""
    scores = pairwise_scores(queries, keys)
    if reweight is not None:
        scores = reweight(scores)
    weights = masked_softmax(scores, allowed)
    return attend(weights, values), weights


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance (1/d convention),
    then an elementwise affine map."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ContractError("layer_norm gain/bias must match the last axis")
    # np.add.reduce(...) / d is what .mean computes, without its dispatch
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    centered = x.data - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = gain.data * xhat + bias.data

    def back(g: Array) -> None:
        gx = g * gain.data
        m1 = np.add.reduce(gx, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
        _accum(x, inv * (gx - m1 - xhat * m2))
        _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accum(bias, _unbroadcast(g, bias.data.shape))

    return _make(out, (x, gain, bias), back)


# ---------------------------------------------------------------------------
# recurrent cells
# ---------------------------------------------------------------------------

@dataclass
class LstmParams:
    """Gate-stacked cell parameters; rows ordered input, forget, candidate,
    output. w: (4k, in), u: (4k, k), b: (4k,)."""

    w: Tensor
    u: Tensor
    b: Tensor

    @property
    def hidden_size(self) -> int:
        return self.u.data.shape[1]

    def check(self, input_size: int) -> None:
        k = self.hidden_size
        if self.w.data.shape != (4 * k, input_size):
            raise ContractError(
                f"lstm w shape {self.w.data.shape}, expected {(4 * k, input_size)}")
        if self.u.data.shape != (4 * k, k) or self.b.data.shape != (4 * k,):
            raise ContractError("lstm u/b shape mismatch")


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              params: LstmParams) -> tuple[Tensor, Tensor]:
    """One gated update on (k,) states, built from linear_rows, row, add,
    mul, sigmoid and tanh: the reference lstm_sequence is tested against."""
    params.check(x.data.shape[0])
    k = params.hidden_size
    if h_prev.data.shape != (k,) or c_prev.data.shape != (k,):
        raise ContractError("lstm_step state shape mismatch")
    pre = row(add(add(linear_rows(row(x, (None,)), params.w),
                      linear_rows(row(h_prev, (None,)), params.u)), params.b), 0)
    i = sigmoid(row(pre, slice(0, k)))
    f = sigmoid(row(pre, slice(k, 2 * k)))
    g = tanh(row(pre, slice(2 * k, 3 * k)))
    o = sigmoid(row(pre, slice(3 * k, 4 * k)))
    c = add(mul(f, c_prev), mul(i, g))
    h = mul(o, tanh(c))
    return h, c


def lstm_sequence(x: Tensor, params: LstmParams,
                  carry: tuple[Array, Array] | None = None,
                  index: Array | None = None
                  ) -> tuple[Tensor, tuple[Array, Array]]:
    """Run the cell over B sequences and return every hidden state and the
    final (h, c): x is (B, T, in), the hidden states (B, T, k), h and c
    (B, k) each. Every sequence runs all T steps; a caller with shorter
    sequences reads each one's state at its own last step, and the steps
    after it get an exactly zero gradient.

    With a (B, T) index, x is (R, in) rows and the sequences are x[index]:
    a row that several steps read, as a token table's rows are, is
    projected once, and the backward adds each step's gradient into its
    row in (b, t) order, as gather_rows' backward does for x[index].

    The cell starts from zero, or from carry: the (h, c) an earlier call
    returned. Steps resumed from it have the bits of the same steps in one
    uninterrupted call, as each step's products have the same fixed
    shapes. Only an untaped call takes a carry, since the backward starts
    from zero.

    The interface is batch-major, the recurrence time-major. The input
    projection is one fixed_matmul over the rows of x (the B * T grid rows
    without an index), so each row has the bits it has in any other row
    count; the projections are then gathered time-major into the
    (T, B, 4k) gate buffer, and the result is a (B, T, k) view of the
    (T, B, k) states. The recurrence keeps the previous states in one
    preallocated (16 * blocks, k) buffer, zero past row B, and multiplies
    it in 16-row blocks into another with np.matmul(..., out=), so a
    sequence's bits do not depend on how many sequences run beside it or
    on their contents, and no step allocates.

    Each step takes one tanh for all four gates, as sigmoid(x) =
    (1 + tanh(x / 2)) / 2: the sigmoid gates' rows of W, U and b are halved
    up front (exact in binary), and after the tanh their entries are halved
    and shifted by 1/2. tanh cannot overflow, so no exp guard is needed.

    Backward is hand-written backprop through time that ends in one GEMM
    each for dW, dU and dx. The tape keeps only the gates, (T, B, 4k), and
    the hidden states (and the index); the backward recomputes the cell
    states from the gates, step by step with the forward's operations, and
    their tanh in one call, and rebuilds the time-major (T * B, in) grid
    rows from x.data. Each step's derivatives are written over the gates
    they are formed from, as the backward runs once; only the forget gate
    is copied, for the recurrence.
    """
    if index is None:
        if x.data.ndim != 3 or x.data.shape[1] == 0:
            raise ContractError(
                f"lstm_sequence expects (B, T >= 1, in), got {x.data.shape}")
        B, T, n = x.data.shape
        rows = x.data.reshape(B * T, n)
    else:
        index = np.asarray(index, dtype=np.intp)
        if x.data.ndim != 2 or index.ndim != 2 or index.shape[1] == 0:
            raise ContractError(f"lstm_sequence expects (R, in) rows and a (B, T >= 1) "
                                f"index, got {x.data.shape} and {index.shape}")
        if index.min() < 0 or index.max() >= x.data.shape[0]:
            raise ContractError(f"lstm_sequence index outside rows 0-{x.data.shape[0] - 1}")
        (B, T), n = index.shape, x.data.shape[1]
        rows = x.data
    params.check(n)
    if carry is not None and any(t.requires_grad
                                 for t in (x, params.w, params.u, params.b)):
        raise ContractError("lstm_sequence takes a carried state only untaped")
    k = params.hidden_size
    wd, ud, bd = params.w.data, params.u.data, params.b.data
    half = np.full(4 * k, 0.5)
    half[2 * k:3 * k] = 1.0           # the candidate gate is a plain tanh
    shift = 1.0 - half
    pre_x = fixed_matmul(rows, (wd * half[:, None]).T)
    pre_x += bd * half
    # (k, 4k), C-ordered: 1.7x faster in a 16-row GEMM than the .T view
    u_half = np.ascontiguousarray((ud * half[:, None]).T)

    # (T, B, 4k): the projections, then in place i, f, g, o after their
    # nonlinearity
    if index is None:
        gates = pre_x.reshape(B, T, 4 * k).transpose(1, 0, 2).copy()
    else:
        gates = pre_x.take(index.T, axis=0)
    del pre_x
    i, f, g, o = (gates[..., j * k:(j + 1) * k] for j in range(4))
    hs = np.empty((T, B, k))
    blocks = -(-B // ROW_BLOCK)
    state = np.zeros((blocks, ROW_BLOCK, k))
    product = np.empty((blocks, ROW_BLOCK, 4 * k))
    h_prev = state.reshape(-1, k)[:B]
    recurrent = product.reshape(-1, 4 * k)[:B]
    c = np.zeros((B, k))
    tc = np.empty((B, k))             # tanh of the new cell state
    if carry is not None:
        h_prev[...], c[...] = carry
    for t in range(T):
        act = gates[t]
        np.matmul(state, u_half, out=product)
        np.add(recurrent, act, out=act)
        np.tanh(act, out=act)
        act *= half
        act += shift
        c *= f[t]
        c += i[t] * g[t]
        np.tanh(c, out=tc)
        np.multiply(o[t], tc, out=hs[t])
        h_prev[...] = hs[t]

    def back(grad_h: Array) -> None:
        cs = np.empty((T, B, k))
        c = np.zeros((B, k))
        for t in range(T):
            np.multiply(c, f[t], out=cs[t])
            cs[t] += i[t] * g[t]
            c = cs[t]
        # step-local derivatives for all steps at once, in place: d pre / d c
        # for i, f and g, d pre / d h for o
        f_kept = f.copy()
        tcs = np.tanh(cs)
        dc_dh = tcs * tcs
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o                                # o * (1 - tanh(c)^2)
        tcs *= o
        np.subtract(1.0, o, out=o)
        np.multiply(o, tcs, out=o)                # tanh(c) * o * (1 - o)
        di = g * i
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
        np.multiply(g, i, out=g)                  # i * (1 - g * g)
        np.subtract(1.0, i, out=i)
        np.multiply(i, di, out=i)                 # g * i * (1 - i)
        f[0] *= 0.0                               # the state before step 0 is zero
        f[1:] *= cs[:-1]
        np.multiply(f, 1.0 - f_kept, out=f)       # c_prev * f * (1 - f)
        del cs, tcs, di
        grad_h = grad_h.transpose(1, 0, 2)
        dh = np.zeros((B, k))
        dc = np.zeros((B, k))
        for t in range(T - 1, -1, -1):
            dh += grad_h[t]
            dc += dh * dc_dh[t]
            dpre = gates[t]
            by_gate = dpre.reshape(B, 4, k)
            by_gate[:, :3] *= dc[:, None]
            by_gate[:, 3] *= dh
            dh = dpre @ ud
            dc *= f_kept[t]
        del f_kept, dc_dh
        flat = gates.reshape(T * B, 4 * k)
        h_prev = np.concatenate([np.zeros((1, B, k)), hs[:-1]]).reshape(T * B, k)
        dx = (flat @ wd).reshape(T, B, n).transpose(1, 0, 2)
        if index is None:
            _accum(x, dx)
            grid = x.data.transpose(1, 0, 2)
        else:
            _accum(x, _scatter_rows(index, dx, x.data.shape))
            grid = x.data[index.T]
        _accum(params.w, flat.T @ grid.reshape(T * B, n))
        _accum(params.u, flat.T @ h_prev)
        _accum(params.b, flat.sum(axis=0))

    return (_make(hs.transpose(1, 0, 2), (x, params.w, params.u, params.b), back),
            (hs[-1], c))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def glorot_uniform(shape: int | tuple[int, ...], rng: np.random.Generator) -> Array:
    if isinstance(shape, int):
        shape = (shape,)
    fan_in, fan_out = (shape[1], shape[0]) if len(shape) == 2 else (shape[0], shape[0])
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    per_block: dict[str, float] = field(default_factory=dict)
    max_rel_error: float = 0.0
    tol: float = 1e-4
    aborted: bool = False
    message: str = ""

    @property
    def passed(self) -> bool:
        return not self.aborted and self.max_rel_error < self.tol

    def to_json(self) -> dict:
        return {
            "per_block": {k: float(v) for k, v in sorted(self.per_block.items())},
            "max_rel_error": float(self.max_rel_error),
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "aborted": bool(self.aborted),
            "message": self.message,
        }


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    samples_per_block: int = 8,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences on
    a random subsample of each parameter block.

    loss_fn must be deterministic (dropout off, fixed inputs) and is
    re-evaluated twice per sampled entry. Relative error per entry is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    rng = rng or np.random.default_rng(0)
    report = GradCheckReport(tol=tol)

    for p in params.values():
        p.grad = None
    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        report.aborted = True
        report.message = "loss is non-finite at the evaluation point"
        return report
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    worst = 0.0
    for name, p in params.items():
        n = p.data.size
        if n == 0:
            continue
        count = min(samples_per_block, n)
        idxs = rng.choice(n, size=count, replace=False)
        block_worst = 0.0
        flat = p.data.reshape(-1)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn().item()
            flat[idx] = orig - eps
            down = loss_fn().item()
            flat[idx] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                report.aborted = True
                report.message = f"non-finite loss while perturbing block '{name}'"
                return report
            numeric = (up - down) / (2.0 * eps)
            a = analytic[name].reshape(-1)[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            block_worst = max(block_worst, rel)
        report.per_block[name] = block_worst
        worst = max(worst, block_worst)

    report.max_rel_error = worst
    return report
