"""Seeded inputs and independent NumPy references for the 12 Rodinia kernels.

Nothing here imports ``repro``: inputs and expected outputs are built
before the program under test is loaded, so their cost never lands in a
set-up or latency figure, and the references share no code with the
transpiler.  Each reference follows the C statement order in float32
where the order is fixed by the source; results are still compared within
a tolerance because the cuda and omp variants of a reduction sum in
different orders.

A kernel spec names the suite entry (``repro.rodinia.suite.BENCHMARKS``),
builds its argument list from an ``np.random.Generator`` and a size dict,
and returns ``{argument index: expected array}`` for the outputs it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

F32 = np.float32
I64 = np.int64

#: float outputs: |got - want| <= ATOL + RTOL * |want|.  Integer outputs
#: compare exactly.  The widest float gap between the two variants is a
#: 32-term reduction summed tree-wise against sequentially (a few ulp).
RTOL = 1e-4
ATOL = 1e-5


def _f32(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.random(count, dtype=np.float64).astype(F32) + F32(0.1)


# -- matmul ------------------------------------------------------------------
def _matmul_inputs(rng, n):
    return [_f32(rng, n * n), _f32(rng, n * n), np.zeros(n * n, F32), n]


def _matmul_ref(args):
    a, b, _, n = args
    product = a.reshape(n, n).astype(np.float64) @ b.reshape(n, n).astype(np.float64)
    return {2: product.astype(F32).ravel()}


# -- backprop ------------------------------------------------------------------
def _layerforward_inputs(rng, n):
    return [_f32(rng, n), _f32(rng, n + 16), np.zeros(n, F32),
            np.zeros(n // 16, F32), n, 1]


def _layerforward_ref(args):
    inputs, weights, _, _, n, hid = args
    products = weights[: n * hid: hid] * inputs
    total = np.zeros(n // 16, F32)
    for lane in range(16):
        total = total + products[lane::16]
    return {3: total}


def _adjust_inputs(rng, n):
    return [_f32(rng, n), _f32(rng, n), _f32(rng, n), n, 0.3, 0.2]


def _adjust_ref(args):
    weights, delta, inputs, _, eta, momentum = args
    step = F32(eta) * delta * inputs + F32(momentum) * weights
    return {0: weights + step}


# -- bfs -------------------------------------------------------------------------
BFS_DEGREE = 4
BFS_LEVEL = 2


def _bfs_inputs(rng, n):
    row_offsets = np.arange(0, (n + 1) * BFS_DEGREE, BFS_DEGREE, dtype=I64)
    columns = rng.integers(0, n, size=n * BFS_DEGREE, dtype=I64)
    frontier = (rng.random(n) < 0.25).astype(I64)
    visited = rng.random(n) < 0.25
    cost = np.where(frontier == 1, BFS_LEVEL,
                    np.where(visited, rng.integers(0, BFS_LEVEL, n), -1)).astype(I64)
    return [row_offsets, columns, frontier, np.zeros(n, I64), cost, n, BFS_LEVEL]


def _bfs_ref(args):
    _, columns, frontier, next_frontier, cost, n, level = args
    # every writer stores the same value, so visiting order cannot matter.
    neighbours = columns.reshape(n, BFS_DEGREE)[frontier == 1].ravel()
    reached = neighbours[cost[neighbours] < 0]
    new_cost, new_next = cost.copy(), next_frontier.copy()
    new_cost[reached] = level + 1
    new_next[reached] = 1
    return {3: new_next, 4: new_cost}


# -- hotspot -------------------------------------------------------------------
def _hotspot_inputs(rng, n):
    return [_f32(rng, n), np.zeros(n, F32), _f32(rng, n), n, 0.5, 0.1]


def _hotspot_ref(args):
    temp, _, power, _, cap, rx = args
    left = np.concatenate([temp[:1], temp[:-1]])
    right = np.concatenate([temp[1:], temp[-1:]])
    delta = F32(cap) * (power + (left + right - F32(2.0) * temp) * F32(rx))
    return {1: temp + delta}


# -- lud -------------------------------------------------------------------------
def _lud_inputs(rng, n):
    return [_f32(rng, n * n) + F32(1.0), n, 0]


def _lud_ref(args):
    matrix, n, offset = args
    square = matrix.reshape(n, n).copy()
    span = slice(offset + 1, min(offset + 17, n))
    square[span, span] -= np.outer(square[span, offset], square[offset, span])
    return {0: square.ravel()}


# -- nw --------------------------------------------------------------------------
NW_PENALTY = 1


def _nw_inputs(rng, n):
    score = rng.integers(-16, 16, size=(n + 1) * (n + 1)).astype(I64)
    reference = rng.integers(-2, 3, size=n * n).astype(I64)
    diagonal = int(rng.integers(1, 2 * n))
    return [score, reference, n, diagonal, NW_PENALTY]


def _nw_ref(args):
    score, reference, n, diagonal, penalty = args
    table = score.reshape(n + 1, n + 1).copy()
    rows = np.arange(1, n + 1)
    cols = diagonal - rows + 1
    keep = (cols >= 1) & (cols <= n)
    i, j = rows[keep], cols[keep]
    up = table[i - 1, j] - penalty
    left = table[i, j - 1] - penalty
    upleft = table[i - 1, j - 1] + reference.reshape(n, n)[i - 1, j - 1]
    table[i, j] = np.maximum(np.maximum(up, left), upleft)
    return {0: table.ravel()}


# -- pathfinder ----------------------------------------------------------------
PATHFINDER_ROWS = 4


def _pathfinder_inputs(rng, cols):
    wall = rng.integers(0, 10, size=PATHFINDER_ROWS * cols).astype(I64)
    src = rng.integers(0, 10, size=cols).astype(I64)
    row = int(rng.integers(0, PATHFINDER_ROWS))
    return [wall, src, np.zeros(cols, I64), cols, row]


def _pathfinder_ref(args):
    wall, src, _, cols, row = args
    left = np.concatenate([src[:1], src[:-1]])
    right = np.concatenate([src[1:], src[-1:]])
    best = np.minimum(np.minimum(src, left), right)
    return {2: wall[row * cols:(row + 1) * cols] + best}


# -- srad ------------------------------------------------------------------------
def _srad_inputs(rng, n):
    return [_f32(rng, n) + F32(0.5), np.zeros(n, F32), np.zeros(n, F32),
            np.zeros(n, F32), n, 0.5]


def _srad_ref(args):
    image, _, _, _, _, lam = args
    north = np.concatenate([image[:1], image[:-1]])
    south = np.concatenate([image[1:], image[-1:]])
    grad_n = north - image
    grad_s = south - image
    g2 = (grad_n * grad_n + grad_s * grad_s) / (image * image + F32(0.00001))
    coeff = F32(1.0) / (F32(1.0) + g2)
    coeff_s = np.concatenate([coeff[1:], coeff[-1:]])
    divergence = coeff * grad_n + coeff_s * grad_s
    return {0: image + F32(0.25) * F32(lam) * divergence}


# -- particlefilter ------------------------------------------------------------
def _particlefilter_inputs(rng, n):
    return [_f32(rng, n) + F32(0.1), np.zeros(n // 32, F32), n]


def _particlefilter_ref(args):
    weights, _, n = args
    blocks = weights.reshape(n // 32, 32)
    total = np.zeros(n // 32, F32)
    for lane in range(32):
        total = total + blocks[:, lane]
    return {0: (blocks / total[:, None]).ravel()}


# -- streamcluster -------------------------------------------------------------
def _streamcluster_inputs(rng, n, k=4, dim=4):
    return [_f32(rng, n * dim), _f32(rng, k * dim), np.zeros(n, F32),
            np.zeros(n, I64), n, k, dim]


def streamcluster_distances(args) -> np.ndarray:
    """Squared distances ``[point, center]`` summed in the kernel's order."""
    points, centers, _, _, n, k, dim = args
    diff = points.reshape(n, 1, dim) - centers.reshape(1, k, dim)
    squares = diff * diff
    dist = np.zeros((n, k), F32)
    for d in range(dim):
        dist = dist + squares[:, :, d]
    return dist


def _streamcluster_ref(args):
    dist = streamcluster_distances(args)
    best = np.argmin(dist, axis=1).astype(I64)   # first minimum, as `<` keeps
    return {2: dist[np.arange(len(best)), best], 3: best}


# -- myocyte ---------------------------------------------------------------------
def _myocyte_inputs(rng, n, steps=8):
    return [_f32(rng, n), _f32(rng, n), n, steps, 0.05]


def _myocyte_ref(args):
    state, rates, _, steps, dt = args
    y = state.copy()
    for _ in range(steps):
        y = y + F32(dt) * (rates - F32(0.1) * y)
    return {0: y}


def _myocyte_omp_ref(args):
    # The omp source puts `parallel for` on the time-step loop that carries
    # `y`.  Iterations of a parallel loop may not depend on each other, so
    # each one starts from the initial y, and the value stored is one step.
    state, rates, _, _, dt = args
    return {0: state + F32(dt) * (rates - F32(0.1) * state)}


@dataclass(frozen=True)
class KernelSpec:
    """One suite kernel: how to make its inputs and what they must become."""

    name: str                       # key in repro.rodinia.suite.BENCHMARKS
    make_inputs: Callable[..., List]
    reference: Callable[[List], Dict[int, np.ndarray]]
    #: a separate reference for the omp variant when its source computes
    #: something else; such kernels are left out of the agreement check.
    omp_reference: Optional[Callable[[List], Dict[int, np.ndarray]]] = None

    def expected(self, variant: str, arguments: List) -> Dict[int, np.ndarray]:
        if variant == "omp" and self.omp_reference is not None:
            return self.omp_reference(arguments)
        return self.reference(arguments)

    @property
    def variants_agree(self) -> bool:
        return self.omp_reference is None


KERNELS: List[KernelSpec] = [
    KernelSpec("matmul", _matmul_inputs, _matmul_ref),
    KernelSpec("backprop layerforward", _layerforward_inputs, _layerforward_ref),
    KernelSpec("backprop adjust_weights", _adjust_inputs, _adjust_ref),
    KernelSpec("bfs", _bfs_inputs, _bfs_ref),
    KernelSpec("hotspot", _hotspot_inputs, _hotspot_ref),
    KernelSpec("lud", _lud_inputs, _lud_ref),
    KernelSpec("nw", _nw_inputs, _nw_ref),
    KernelSpec("pathfinder", _pathfinder_inputs, _pathfinder_ref),
    KernelSpec("srad_v1", _srad_inputs, _srad_ref),
    KernelSpec("particlefilter", _particlefilter_inputs, _particlefilter_ref),
    KernelSpec("streamcluster", _streamcluster_inputs, _streamcluster_ref),
    KernelSpec("myocyte", _myocyte_inputs, _myocyte_ref, _myocyte_omp_ref),
]
SPECS = {spec.name: spec for spec in KERNELS}

#: the suite's smallest inputs (``make_inputs(scale=1)`` sizes).
SMALL = {
    "matmul": {"n": 16},
    "backprop layerforward": {"n": 16},
    "backprop adjust_weights": {"n": 64},
    "bfs": {"n": 32},
    "hotspot": {"n": 32},
    "lud": {"n": 32},
    "nw": {"n": 32},
    "pathfinder": {"cols": 32},
    "srad_v1": {"n": 32},
    "particlefilter": {"n": 32},
    "streamcluster": {"n": 32},
    "myocyte": {"n": 16},
}

#: kernels-large sizes, per variant.  The omp variants of backprop
#: layerforward, srad_v1, particlefilter and myocyte keep a sequential host
#: loop that runs as Python closures, so their time grows in Python, not in
#: C; they get sizes that hold one run to a few milliseconds.  lud and nw
#: have fixed launch geometry (16x16 and 1x32 threads): no input makes their
#: C work larger, so they stay at the small sizes.
LARGE = {
    "matmul": {"cuda": {"n": 64}, "omp": {"n": 64}},
    "backprop layerforward": {"cuda": {"n": 1 << 14}, "omp": {"n": 256}},
    "backprop adjust_weights": {"cuda": {"n": 1 << 15}, "omp": {"n": 1 << 15}},
    "bfs": {"cuda": {"n": 1 << 14}, "omp": {"n": 1 << 14}},
    "hotspot": {"cuda": {"n": 1 << 16}, "omp": {"n": 1 << 16}},
    "lud": {"cuda": {"n": 32}, "omp": {"n": 32}},
    "nw": {"cuda": {"n": 32}, "omp": {"n": 32}},
    "pathfinder": {"cuda": {"cols": 1 << 14}, "omp": {"cols": 1 << 14}},
    "srad_v1": {"cuda": {"n": 1 << 14}, "omp": {"n": 32}},
    "particlefilter": {"cuda": {"n": 1 << 13}, "omp": {"n": 256}},
    "streamcluster": {"cuda": {"n": 1 << 10, "k": 16, "dim": 16},
                      "omp": {"n": 1 << 10, "k": 16, "dim": 16}},
    "myocyte": {"cuda": {"n": 1 << 12, "steps": 64},
                "omp": {"n": 32, "steps": 64}},
}

VARIANTS = ("cuda", "omp")

#: a kernel that reads ``a[i + n]`` past the end of an 8-element buffer and
#: only stores in bounds.  The Python engines raise ``IndexError``; the
#: native engine reads whatever lies beyond the buffer (a known fault).
OOB_SOURCE = """
__global__ void oob_kernel(float* a, float* out, int n) {
    int i = threadIdx.x;
    out[i] = a[i + n];
}

void oob_read(float* a, float* out, int n) {
    oob_kernel<<<1, 8>>>(a, out, n);
}
"""
OOB_ENTRY = "oob_read"


def oob_inputs() -> List:
    """Fixed inputs (independent of the seed): the read is always past the end."""
    return [np.arange(8, dtype=F32), np.zeros(8, F32), 8]


def sizes_for(workload: str, name: str, variant: str) -> Dict[str, int]:
    if workload == "kernels-large":
        return LARGE[name][variant]
    return SMALL[name]


def make_inputs(seed: int, workload: str, name: str, variant: str) -> List:
    """The argument list for one function; the same seed gives the same list.

    Variants of a kernel that run at the same sizes get identical inputs,
    which is what the cuda/omp agreement check relies on.
    """
    index = [spec.name for spec in KERNELS].index(name)
    rng = np.random.default_rng([seed, index])
    return SPECS[name].make_inputs(rng, **sizes_for(workload, name, variant))


def fresh_copy(arguments: List) -> List:
    """A writable copy of an argument list (kernels update buffers in place)."""
    return [argument.copy() if isinstance(argument, np.ndarray) else argument
            for argument in arguments]


def matches(name: str, got: np.ndarray, want: np.ndarray, arguments=None) -> bool:
    """Whether one output agrees with its expected value.

    streamcluster's ``assign`` may name a different center only when that
    center is exactly as close (a tie the kernel's ``<`` may break either way
    once float sums differ in the last ulp).
    """
    got = np.asarray(got)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    if np.issubdtype(want.dtype, np.floating):
        return bool(np.allclose(got, want, rtol=RTOL, atol=ATOL))
    if np.array_equal(got, want):
        return True
    if name == "streamcluster" and arguments is not None:
        dist = streamcluster_distances(arguments)
        rows = np.arange(len(want))
        if got.min() < 0 or got.max() >= dist.shape[1]:
            return False
        return bool(np.allclose(dist[rows, got], dist[rows, want],
                                rtol=RTOL, atol=ATOL))
    return False


def check(name: str, result: List, expected: Dict[int, np.ndarray],
          arguments: List) -> bool:
    """Whether every checked output of one run matches its reference."""
    return all(matches(name, result[index], want, arguments)
               for index, want in expected.items())
