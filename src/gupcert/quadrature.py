"""Gauss-Legendre panel rules, their error estimates and integration helpers.

Auxiliary and wavenumber densities live on composite panel rules.  Panels
are geometrically refined toward interval endpoints whenever an integrand can
be endpoint-singular (the deformed-wavenumber Jacobian blows up at the edge
of the auxiliary interval); a fixed number of Gauss nodes per panel then
resolves logarithmic or weak algebraic singularities to near machine
precision, while nodes never touch the endpoints themselves.  Position and
smeared densities live on uniform trapezoid lattices.

Each rule estimates its own error from the samples it already holds, in
O(nodes): a panel rule from the decay of the Legendre coefficients of the
integrand on each panel (Trefethen, Approximation Theory and Approximation
Practice, SIAM 2013), a lattice from the gap between the trapezoid sum and
its every-other-node subsample (Trefethen & Weideman, SIAM Rev. 56 (2014)
385).

The dense kernel sums behind every Fourier transform and tabulated `J`, and
the one pass over the bins of `entropy.binned_sums`, run their blocks on
one pool of two threads (`map_blocks`), which takes the blocks as the
pool frees up.  Each block does the same arithmetic whichever thread runs
it, and its results are taken in block order, so the sums do not depend
on the pool.  The block size,
_BLOCK_ENTRIES, is read at call time by those and by a smear's captured
mass in `measurement`.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import chain, islice

import numpy as np
from scipy.special import eval_legendre, roots_legendre

ENTROPY_FLOOR = 1e-300  # below this a density value is treated as exact zero
_GRADED_LEVELS = 40  # halvings of the outer gap toward a graded endpoint
_MAX_BULK_PANELS = 48  # cap on the bulk panels of one half interval
# kernel entries dense_sum forms at once (1 MiB per complex block), and the
# bins or smear sources of one block elsewhere.  The transient is two
# block-sized arrays per worker, the kernel's argument and its values; at
# 4e6 entries they took 128 MB and set the peak memory of the Fourier sums,
# while 2^14 to 2^18 entries ran as fast (the work is trig-bound)
_BLOCK_ENTRIES = 2 ** 16
# the pool's workers, whatever the CPU count: the most that were measured
# (2-core VM, BENCH_21.json), and with two 1 MiB blocks each they keep a
# Fourier sum's transient at a few MB
_WORKERS = 2
_TAIL_COEFFS = 4  # trailing Legendre coefficients read by panel_error


@lru_cache(maxsize=1)
def _pool() -> ThreadPoolExecutor:
    """The pool of _WORKERS threads that map_blocks runs blocks on: the
    row blocks of dense_sum and the bin blocks of entropy.binned_sums.

    NumPy's trig functions, matmul, interp, power and log release the
    interpreter lock, so the blocks run in parallel (the CDF spline's
    reads do not).  Created on first use and kept: a pool started per call
    made the Fourier-heavy passes 3-12% slower.  Dropped in a forked child,
    whose copy of the pool has no threads behind it.
    """
    return ThreadPoolExecutor(_WORKERS, "gupcert_blocks")


if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_pool.cache_clear)


@lru_cache(maxsize=128)
def _gl_rule(n: int):
    x, w = roots_legendre(n)
    return x, w


def composite_rule(breakpoints, n_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule, n_per_panel nodes on each panel of breakpoints."""
    edges = np.asarray(breakpoints, dtype=float)
    x, w = _gl_rule(n_per_panel)
    a, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (a + half * (x + 1.0)).ravel(), (half * w).ravel()


def interval_breakpoints(half_width: float, scale: float,
                         graded: bool) -> list[float]:
    """Panel edges on (0, half_width) for a symmetric interval.

    The bulk `[0, half_width/2]` is split into panels of width comparable to
    `scale` (the finest feature size of the states that will live on the
    grid), at most _MAX_BULK_PANELS of them.  When `graded`, the outer half is
    refined geometrically toward the endpoint, halving the remaining gap
    _GRADED_LEVELS times; otherwise it is split like the bulk.
    """
    mid = 0.5 * half_width
    width = min(1.5 * scale, mid)
    n_bulk = int(min(_MAX_BULK_PANELS, max(2, np.ceil(mid / width))))
    edges = list(np.linspace(0.0, mid, n_bulk + 1))
    if graded:
        edges.extend(half_width * (1.0 - 2.0 ** (-j))
                     for j in range(2, _GRADED_LEVELS + 1))
        edges.append(half_width)
    else:
        edges.extend(np.linspace(mid, half_width, n_bulk + 1)[1:])
    return edges


def symmetric_rule(half_width: float, scale: float, n_per_panel: int,
                   graded: bool):
    """Composite rule on (-half_width, +half_width), mirrored from the right half."""
    right = interval_breakpoints(half_width, scale, graded=graded)
    x, w = composite_rule(right, n_per_panel)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def dense_sum(kernel, targets: np.ndarray, nodes: np.ndarray,
              *coeffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """sum_j kernel(targets[i], nodes[j]) * c[j] for every target i and c.

    `kernel` is called on broadcast (block, 1) and (1, nodes) arrays; rows are
    formed in blocks of about _BLOCK_ENTRIES entries (at least two rows), so
    memory stays at a few block-sized temporaries per worker whatever the
    number of targets.  Each block serves every c; the sums come back as a
    tuple of one array per c, in order (one c gives a 1-tuple).  A last
    single row joins the block before it: a one-row product takes a dot
    kernel that rounds differently.  Complex rows then do not depend on the
    block layout; real rows may differ in the last bit when the layout
    changes (the BLAS picks its kernel by block shape).

    The blocks go through `map_blocks`, so several run on the pool and a
    single one on the calling thread; both make the same product per
    block, so the sums are the same floats.  `kernel` must not call
    dense_sum itself.
    """
    def products(cut):  # each block is freed once its products are taken
        block = kernel(targets[cut[0]:cut[1], None], nodes[None, :])
        return [block @ c for c in coeffs]

    chunk = max(2, _BLOCK_ENTRIES // max(nodes.size, 1))
    cuts = [*range(0, max(targets.size - 1, 1), chunk), targets.size]
    rows = map_blocks(products, zip(cuts, cuts[1:]))
    return tuple(np.concatenate(col) for col in zip(*rows))


def map_blocks(fn, blocks: Iterable) -> list:
    """[fn(block) for block in blocks], in order: several blocks on
    `_pool()`, a single one on the calling thread.  A block is taken from
    `blocks` as a result is, at most 3 * _WORKERS submitted and not yet
    taken, so a stream drawn on the calling thread overlaps the work and
    is never held whole.  (With _WORKERS + 1 the workers idled while the
    calling thread waited for a core: Fourier sums ran about 5% slower on
    2 cores.)  A block's error cancels the queued blocks and propagates, as
    from Executor.map.  `fn` must not call map_blocks itself: a worker
    waiting on the pool it belongs to can deadlock it."""
    blocks = iter(blocks)
    head = list(islice(blocks, 2))
    if len(head) < 2:
        return [fn(block) for block in head]
    pool, queued, results = _pool(), [], []
    try:
        for block in chain(head, blocks):
            queued.append(pool.submit(fn, block))
            if len(queued) >= 3 * _WORKERS:
                results.append(queued.pop(0).result())
        results.extend(future.result() for future in queued)
    finally:
        for future in queued:  # a no-op on the futures already done
            future.cancel()
    return results


@lru_cache(maxsize=16)
def _tail_transform(n: int) -> np.ndarray:
    """(n, 4) map from a panel's n products w_j f_j of weights and samples
    to the last four Legendre coefficients of the integrand in the panel's
    reference variable: c_k = (2k + 1)/2 sum_j P_k(x_j) w_j f_j."""
    x, _ = _gl_rule(n)
    k = np.arange(n - _TAIL_COEFFS, n)[:, None]
    return ((k + 0.5) * eval_legendre(k, x[None, :])).T


def panel_error(weights: np.ndarray, values: np.ndarray,
                n_per_panel: int) -> float:
    """Error estimate of sum(weights * values) on a composite Gauss rule.

    The nodes are consecutive panels of n_per_panel Gauss-Legendre nodes
    each, and the weights may carry a change of variables (an image grid is
    the same rule in the pulled-back variable).  On each panel the Legendre
    coefficients of the integrand in the panel's own variable come from one
    matrix product; the panel's error is the largest of the last four
    |c_k|, that is half the panel width times those of the integrand.
    """
    masses = (np.asarray(weights) * values).reshape(-1, n_per_panel)
    return float(np.sum(np.max(np.abs(masses @ _tail_transform(n_per_panel)),
                               axis=1)))


def lattice_error(nodes: np.ndarray, values: np.ndarray) -> float:
    """|T_h - T_2h|: the trapezoid sum against its every-other-node subsample.

    Both sums run over the longest odd-length prefix of the nodes, so that
    the subsample ends on the same node; for an even count the last
    interval is left out of both.
    """
    n = nodes.size - (1 - nodes.size % 2)
    if n < 3:
        return 0.0
    x, f = nodes[:n], values[:n]
    return abs(float(np.trapezoid(f, x) - np.trapezoid(f[::2], x[::2])))
