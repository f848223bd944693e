"""Blocks of rows: the row kernel's one leaf sum.

On frequencies (j0 + i) * delta the phases of row j = j0 + l factor into
a base block and one offset per block of rows (``fourier._row_phases``),
so a leaf block's row sums are columns of one matrix product, and the
inner columns are read only at a few Chebyshev nodes of each block and
interpolated.  Any other rows are blocks of one row, each its own node,
summed pairwise.  ``fourier._image_rows`` plans every job (``_grid_plan``
or L = K = 1, ``_row_plan``), sums its leaf blocks (``_grid_sums``) and
adds the ``row_interpolation`` term (``_row_interpolation``, 0 at
L = 1); its docstring derives the term.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .fourier import EPS, PHASE_BLOCK, _buffer, _centring_rounding, _mu_hat_rows, _roundoff, _row_phases
from .ifs import FRONTIER_BLOCK

MAX_NODES = 16          # Chebyshev nodes per block of grid rows, at most (``_grid_plan``)


def _interpolation_order(spread: float) -> Optional[int]:
    """K, the fewest Chebyshev nodes whose remainder spread^K / (2^(K-1) K!) is within 16 EPS.

    ``spread`` is pi R Delta eta for a block of grid rows whose inner
    frequencies move by at most Delta eta (``_image_rows``): the
    remainder is then at most 16 EPS per unit weight, the constant floor
    of ``_phase_rounding``.  None when no K up to ``MAX_NODES`` reaches it.
    """
    remainder = spread      # K = 1
    for order in range(1, MAX_NODES + 1):
        if remainder <= 16.0 * EPS:
            return order
        remainder *= spread / (2.0 * (order + 1))
    return None


def _grid_plan(n_leaves: int, step: float, reach: float):
    """(L, K): rows per block and nodes per block of a grid group's jobs.

    L starts at ``PHASE_BLOCK`` terms per block of the group's largest
    leaf block and halves until ``_interpolation_order`` finds K for
    spread pi R (L - 1) |step| s J, with ``reach`` = 2 pi R s J the inner
    reach (0 without an inner transform, which takes K = 1).  L = 1
    always succeeds.
    """
    size = max(1, PHASE_BLOCK // min(n_leaves, FRONTIER_BLOCK))
    while True:
        order = _interpolation_order(0.5 * (size - 1) * abs(step) * reach) if reach else 1
        if order is not None:
            return size, min(order, size)
        size //= 2


def _row_nodes(count: int, order: int):
    """(nodes (K,), Lagrange weights (count, K), lebesgue, omega) of a block of ``count`` grid rows.

    The nodes are the K Chebyshev points of the first kind on the
    block's own span [0, count - 1],
    x_k = (count - 1) / 2 (1 - cos((2k + 1) pi / 2K)), and row l's
    weights are l_k(l) = prod_{m != k} (l - x_m) / (x_k - x_m), each
    within 2K EPS of its exact value (K - 1 quotients of two rounded
    differences, multiplied in turn).  A block of at most K rows takes
    its rows themselves, padded with its last row at weight 0: the
    weights are then exactly 0 and 1, and its interpolation is exact.
    ``lebesgue`` bounds max_l sum_k |l_k(l)| over the block's rows, at
    most the Lebesgue constant Lambda_K <= 2/pi log K + 1 of Chebyshev
    nodes, and ``omega`` bounds max_l |prod_k (l - x_k)|, at most
    ((count - 1) / 2)^K / 2^(K - 1) (Trefethen, Approximation Theory
    and Approximation Practice, SIAM 2013, ch. 7 and 15); both are
    computed from the nodes used, rounded up by their K roundings.
    """
    rows = np.arange(count, dtype=float)[:, None]
    if count <= order:
        nodes = np.minimum(np.arange(order), count - 1).astype(float)
        return nodes, (rows == np.arange(order)).astype(float), 1.0, 0.0
    nodes = 0.5 * (count - 1) * (1.0 - np.cos((2 * np.arange(order) + 1) * (math.pi / (2 * order))))
    gaps = rows - nodes
    weights = np.ones((count, order))
    for m in range(order):
        apart = nodes - nodes[m]
        apart[m] = 1.0
        factor = gaps[:, m : m + 1] / apart
        factor[:, m] = 1.0
        weights *= factor
    lebesgue = float(np.abs(weights).sum(axis=1).max()) * (1.0 + order * EPS)
    omega = float(np.prod(np.abs(gaps), axis=1).max()) * (1.0 + 2.0 * order * EPS)
    return nodes, weights, lebesgue, omega


class _RowPlan(NamedTuple):
    """The interpolation plan of one grid job: L, K, ``_row_nodes`` per block length, and their maxima."""

    size: int
    order: int
    nodes: dict
    lebesgue: float
    omega: float


def _row_plan(count: int, size: int, order: int) -> _RowPlan:
    """The plan of a job of ``count`` rows in blocks of ``size``: its full blocks and a shorter last one."""
    lengths = {min(size, count)} | ({count % size} if count > size and count % size else set())
    nodes = {length: _row_nodes(length, order) for length in lengths}
    return _RowPlan(size, order, nodes, max(n[2] for n in nodes.values()), max(n[3] for n in nodes.values()))


def _exact_columns(freqs, b_forms, weights, inner):
    """mu_hat of ``ifs.centred`` at the node frequencies freqs B_w, (blocks, K, n), and (blocks, K) errors.

    One nested call over every node of the job's leaf block, at the inner
    ``tol``, with the centring allowance; a node's error is
    sum_w p_w e_{k,w}.
    """
    ifs, _, tol, budget = inner
    flat = np.tensordot(freqs, b_forms, axes=(2, 2)).reshape(-1, ifs.ambient_dim)
    vals, errs, _ = _mu_hat_rows(ifs.centred, flat, tol, budget, 1)
    errs += _centring_rounding(ifs, np.sqrt(np.vecdot(flat, flat)))
    shape = (*freqs.shape[:2], len(weights))
    return vals.reshape(shape), np.add.reduce(errs.reshape(shape) * weights, axis=2)


def _grid_sums(x, grid, coefs, b_forms, weights, curv, inner, plan: _RowPlan, work: dict):
    """Row sums of one leaf block at the rows ``x`` (count, d) of a job, block by block.

    A block of L = ``plan.size`` rows (the last shorter) has the phases
    base[l] offsets[j0] (``_row_phases``, the weights folded into the
    offsets, which are the phases at its first row).  The inner columns G
    of the leaves are read only at the block's K nodes x_k
    (``_row_nodes``): with ``grid`` = (j, delta), row i is (j + i) delta
    and node k is at ((j0 + x_k) delta) B_w; without it the blocks are
    single rows and the node is the row's own xi B_w.  ``inner`` is (ifs,
    table, tol, budget): a ``fourier._MuHatTable`` read per chunk, or
    None for mu_hat of ``ifs.centred`` at ``tol``, read once
    (``_exact_columns``); None for order 0, K = 1.  Every block's K sums
    M_k[l] = sum_w base[l, w] (offsets[j0] p_w G_k)[w] are, for L > 1,
    columns of one matrix product base @ rhs.T (numpy's matmul, a BLAS
    zgemm), and for L = 1 the pairwise sums along the leaf axis.  The
    Lagrange combine sum_k l_k(l) M_k[l] gives the rows, node by node in
    a fixed order.  With ``curv`` (order 2) the right-hand side also
    holds offsets p_w q_w G1 for the second sum.  A chunk of blocks
    shares one product or sum of about ``PHASE_BLOCK`` terms.

    Returns (sums (1 or 2, count), node errors per row or None).  With
    node errors e_{k,w}, a row's is what they move its sum by at most,
    sum_k |l_k(l)| sum_w p_w e_{k,w}.
    """
    size, order, nodes = plan.size, plan.order, plan.nodes
    count, n, cols = len(x), len(weights), 1 if curv is None else 2
    blocks = -(-count // size)
    starts = size * np.arange(blocks)
    table = exact = errs = None
    if inner is not None:
        if grid is None:
            freqs = x[:, None, :]
        else:
            positions = np.repeat(nodes[min(size, count)][0][None], blocks, axis=0)
            positions[-1] = nodes[count - starts[-1]][0]
            freqs = (((grid[0] + starts)[:, None] + positions) * grid[1])[:, :, None]
        table = inner[1]
        if table is None:
            exact, errs = _exact_columns(freqs, b_forms, weights, inner)
    chunk = max(1, PHASE_BLOCK // (cols * order * max(size, n)))
    rows = min(size, count)
    if size > 1:
        # in pieces of about PHASE_BLOCK terms, so that the angles and the unit phases' scratch stay that small
        base = _buffer(work, "base", (rows, n), complex)
        piece = max(1, PHASE_BLOCK // n)
        for i in range(0, rows, piece):
            lags = np.arange(i, min(i + piece, rows)) * grid[1]
            _row_phases(lags[:, None], coefs, base[i : i + piece], work)
    sums = np.empty((cols, count), dtype=complex)
    node_err = None if errs is None else np.empty(count)
    for b0 in range(0, blocks, chunk):
        firsts = starts[b0 : b0 + chunk]
        lengths = np.minimum(size, count - firsts)
        nb = len(firsts)
        rhs = _buffer(work, "rhs", (cols, nb, order, n), complex)
        # K = 1: the offsets are the right-hand side's first column, multiplied in place
        offsets = rhs[0, :, 0] if order == 1 else _buffer(work, "offsets", (nb, n), complex)
        _row_phases(x[firsts], coefs, offsets, work)
        offsets *= weights
        if inner is not None:
            if table is None:
                columns = [exact[b0 : b0 + nb]]
            else:
                eta = _buffer(work, "eta", (nb, order, n))
                columns = table.lookup(np.multiply(freqs[b0 : b0 + nb], b_forms[:, 0, 0], out=eta), work)
            if cols == 2:
                np.multiply(offsets[:, None, :], curv, out=rhs[1])
                rhs[1] *= columns[1]
            np.multiply(offsets[:, None, :], columns[0], out=rhs[0])
        if size == 1:
            # pairwise along each row's contiguous leaf axis, as _roundoff assumes
            products = np.add.reduce(rhs, axis=3)[None]
        else:
            products = np.matmul(base, rhs.reshape(-1, n).T,
                                 out=_buffer(work, "products", (rows, cols * nb * order), complex))
            products = products.reshape(rows, cols, nb, order)
        # only a job's last block is shorter: the blocks before it share one set of weights
        same = nb if lengths[-1] == lengths[0] else nb - 1
        for b, stop, length in ((0, same, lengths[0]), (same, nb, lengths[-1])):
            if b == stop:
                continue
            lagrange, part = nodes[length][1], products[:length, :, b:stop]
            combined = lagrange[:, 0, None, None] * part[..., 0]
            for k in range(1, order):
                combined += lagrange[:, k, None, None] * part[..., k]
            span = slice(firsts[b], firsts[b] + (stop - b) * length)
            sums[:, span] = combined.transpose(1, 2, 0).reshape(cols, -1)
            if node_err is not None:
                # the node errors through the row's weights: sum_k |l_k(l)| sum_w p_w e_{k,w}
                node_err[span] = (np.abs(lagrange) @ errs[b0 + b : b0 + stop].T).T.reshape(-1)
    return sums, node_err


def _row_interpolation(plan: _RowPlan, node, gain: float, remainder, kappa, carried, n_leaves: int,
                       xi_top: float, reach: float):
    """The ``row_interpolation`` term: what blocks of L > 1 rows add to a row's bound; 0 at L = 1.

    ``node`` is the inner bound N the rest of the bound charges, and
    ``gain`` what the interpolation multiplies it by: Lambda for a
    table's slacks, 1 for exact inner columns, whose node errors
    ``_grid_sums`` carries through each row's weights into N.
    ``remainder`` is the interpolation remainder R_K per row, ``carried``
    the rounding terms that the bound multiplies by 1 + kappa,
    ``n_leaves`` the cover's leaves (the largest leaf block W is at most
    ``FRONTIER_BLOCK`` of them), ``xi_top`` the job's largest |xi| and
    ``reach`` its 2 pi R s J.  ``fourier._image_rows`` derives the term:
    G = (gain - 1) N + R_K, plus 1 + kappa times G carried and, for
    L > 1, Lambda (the any-order allowance ``_roundoff(W, pairwise=False)``
    + EPS (3K + 3 + 1.5 |xi| reach)).
    """
    growth = (gain - 1.0) * node + remainder
    rounding = 0.0
    if plan.size > 1:   # matrix products; one-row blocks sum pairwise at their rows, weight exactly 1
        width = min(n_leaves, FRONTIER_BLOCK)
        rounding = plan.lebesgue * (_roundoff(width, pairwise=False)
                                    + EPS * (3.0 * plan.order + 3.0 + 1.5 * xi_top * reach))
    return growth + (1.0 + kappa) * (rounding + growth * carried)
