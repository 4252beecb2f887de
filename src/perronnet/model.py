"""Multilayer and multiplex network models and the supra-adjacency operator.

A multilayer network on N nodes and L layers is identified with its
supra-adjacency matrix B of order NL: block (k, l) holds the weights of
edges from nodes in layer k to nodes in layer l.  A multiplex network
stores only the L intra-layer adjacency matrices; the inter-layer
coupling is uniform and diagonal with weight gamma and is applied
implicitly by the operator, never materialized as a dense matrix.

Node-layer pairs are flattened as  (node i, layer k)  ->  N*(k-1) + i
with 1-based i and k throughout the public API.

Networks and operators are immutable after construction; mutation
helpers return new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DenseCapError, InputError, ParseError

DEFAULT_DENSE_CAP = 5000


@dataclass(frozen=True)
class EdgeKey:
    """Directed supra-edge: node i in layer k -> node j in layer l (1-based)."""

    i: int
    j: int
    k: int
    l: int

    def reversed(self) -> "EdgeKey":
        return EdgeKey(self.j, self.i, self.l, self.k)

    def pair_key(self):
        """Canonical key of the unordered node-layer pair behind this edge."""
        a = (self.k, self.i)
        b = (self.l, self.j)
        return (a, b) if a <= b else (b, a)

    def validate(self, N: int, L: int) -> None:
        if not (1 <= self.i <= N and 1 <= self.j <= N):
            raise InputError(f"node index out of range in {self}: N={N}")
        if not (1 <= self.k <= L and 1 <= self.l <= L):
            raise InputError(f"layer index out of range in {self}: L={L}")


def flat_index(i: int, k: int, N: int) -> int:
    """0-based position of node i (1-based) in layer k (1-based) in a supra vector."""
    return N * (k - 1) + (i - 1)


def unflatten_index(a: int, N: int) -> tuple[int, int]:
    """Inverse of :func:`flat_index`: 0-based supra position -> (i, k), 1-based."""
    return int(a) % N + 1, int(a) // N + 1


class SupraOperator:
    """Matrix-free view of a supra-adjacency matrix.

    Wraps forward and transpose matrix-vector products on vectors of
    length ``dim``.  For multiplex networks the gamma coupling is applied
    blockwise: (B v)_(k) = A^(k) v_(k) + gamma * sum_{m != k} v_(m).
    """

    def __init__(self, dim, matvec, rmatvec):
        self.dim = dim
        self._matvec = matvec
        self._rmatvec = rmatvec

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._matvec(np.asarray(v, dtype=float))

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self._rmatvec(np.asarray(v, dtype=float))


@dataclass(frozen=True, eq=False)
class MultilayerNetwork:
    """General L-layer network: an L x L grid of N x N sparse weight blocks.

    ``blocks[k][l]`` (0-based) holds w_ij of edges from node i in layer
    k+1 to node j in layer l+1; absent blocks are None.  All stored
    weights are strictly positive and finite, and an undirected network's
    supra matrix is symmetric.
    """

    N: int
    L: int
    blocks: tuple
    directed: bool

    def __post_init__(self):
        if self.N < 1 or self.L < 1:
            raise InputError("N and L must be positive")
        if len(self.blocks) != self.L or any(len(row) != self.L for row in self.blocks):
            raise InputError("block grid must be L x L")
        for row in self.blocks:
            for blk in row:
                if blk is None:
                    continue
                if blk.shape != (self.N, self.N):
                    raise InputError("every block must be N x N")
                _check_weights(blk)
        if not self.directed:
            _check_symmetric(assemble_sparse(self))

    @property
    def dim(self) -> int:
        return self.N * self.L

    def weight(self, e: EdgeKey) -> float:
        e.validate(self.N, self.L)
        blk = self.blocks[e.k - 1][e.l - 1]
        if blk is None:
            return 0.0
        return float(blk[e.i - 1, e.j - 1])

    def edges(self):
        """Iterate all stored directed edges as (EdgeKey, weight)."""
        for k in range(self.L):
            for l in range(self.L):
                blk = self.blocks[k][l]
                if blk is None:
                    continue
                coo = blk.tocoo()
                for i, j, w in zip(coo.row, coo.col, coo.data):
                    yield EdgeKey(int(i) + 1, int(j) + 1, k + 1, l + 1), float(w)

    def edge_count(self) -> int:
        return sum(blk.nnz for row in self.blocks for blk in row if blk is not None)


@dataclass(frozen=True, eq=False)
class MultiplexNetwork:
    """Multiplex network: L intra-layer adjacency matrices plus uniform
    diagonal inter-layer coupling of finite weight gamma >= 0.  Layers of
    an undirected network are symmetric."""

    N: int
    L: int
    layers: tuple
    gamma: float
    directed: bool

    def __post_init__(self):
        if self.N < 1 or self.L < 1:
            raise InputError("N and L must be positive")
        _check_gamma(self.gamma)
        if len(self.layers) != self.L:
            raise InputError("layer list length must equal L")
        for A in self.layers:
            if A.shape != (self.N, self.N):
                raise InputError("every layer matrix must be N x N")
            _check_weights(A)
            if not self.directed:
                _check_symmetric(A)

    @property
    def dim(self) -> int:
        return self.N * self.L

    def weight(self, e: EdgeKey) -> float:
        e.validate(self.N, self.L)
        if e.k != e.l:
            return self.gamma if e.i == e.j else 0.0
        return float(self.layers[e.k - 1][e.i - 1, e.j - 1])

    def edges(self):
        """Iterate stored intra-layer edges as (EdgeKey, weight).

        Coupling entries are structural, not data, and are not listed.
        """
        for l, A in enumerate(self.layers):
            coo = A.tocoo()
            for i, j, w in zip(coo.row, coo.col, coo.data):
                yield EdgeKey(int(i) + 1, int(j) + 1, l + 1, l + 1), float(w)

    def edge_count(self) -> int:
        return sum(A.nnz for A in self.layers)


Network = MultilayerNetwork | MultiplexNetwork


def _check_weights(m) -> None:
    if m.nnz and not (np.isfinite(m.data).all() and m.data.min() > 0):
        raise InputError("stored weights must be strictly positive and finite")


def _check_symmetric(m) -> None:
    # undirected edge semantics (one candidate per pair, mirrored edits)
    # hold only for a symmetric matrix
    if (m != m.T).nnz:
        raise InputError("an undirected network needs a symmetric weight matrix")


def _check_gamma(gamma) -> None:
    if not (0 <= gamma < math.inf):
        raise InputError(f"gamma must be finite and nonnegative, got {gamma}")


def editable_arcs(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Supra-indexed COO ``(rows, cols, weights)`` of the editable arcs.

    These are all stored arcs of a general network, and the intra-layer
    arcs of a multiplex, whose gamma coupling is fixed by the model.  On
    undirected networks both arcs of each edge are listed.
    """
    if isinstance(net, MultiplexNetwork):
        coo = sp.block_diag(net.layers, format="coo")
    else:
        coo = assemble_sparse(net).tocoo()
    return coo.row, coo.col, coo.data


# ---------------------------------------------------------------------------
# file loading

def _read_edge_lines(path):
    """Yield (line_number, tokens) for data lines; '#' comments and blanks skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split()


def _parse_header(tokens, path, lineno):
    if len(tokens) != 2:
        raise ParseError("header must be 'N L'", path, lineno)
    try:
        N, L = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", path, lineno) from None
    if N < 1 or L < 1:
        raise ParseError("N and L must be positive", path, lineno)
    return N, L


def _parse_weight(tok, path, lineno):
    try:
        w = float(tok)
    except ValueError:
        raise ParseError(f"bad weight {tok!r}", path, lineno) from None
    if not 0 < w < math.inf:
        raise ParseError(f"weight must be positive and finite, got {w}",
                         path, lineno)
    return w


def _check_range(val, hi, what, path, lineno):
    if not (1 <= val <= hi):
        raise ParseError(f"{what} {val} out of range 1..{hi}", path, lineno)
    return val


def load_multiplex(path, gamma: float, directed: bool = False) -> MultiplexNetwork:
    """Load a multiplex edge list: header 'N L', then lines 'layer i j weight'.

    With ``directed=False`` each input edge populates both (i, j) and
    (j, i).  Duplicate edges are a hard error rather than being summed.
    """
    path = Path(path)
    _check_gamma(gamma)
    lines = _read_edge_lines(path)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError("empty file", path) from None
    N, L = _parse_header(tokens, path, lineno)

    entries = [dict() for _ in range(L)]
    for lineno, tokens in lines:
        if len(tokens) != 4:
            raise ParseError("expected 'layer i j weight'", path, lineno)
        try:
            l, i, j = (int(t) for t in tokens[:3])
        except ValueError as exc:
            raise ParseError(f"bad index: {exc}", path, lineno) from None
        _check_range(l, L, "layer id", path, lineno)
        _check_range(i, N, "node id", path, lineno)
        _check_range(j, N, "node id", path, lineno)
        if i == j:
            raise ParseError("self-loops are not allowed in multiplex layers", path, lineno)
        w = _parse_weight(tokens[3], path, lineno)
        keys = [(i - 1, j - 1)] if directed else [(i - 1, j - 1), (j - 1, i - 1)]
        for key in keys:
            if key in entries[l - 1]:
                raise ParseError(
                    f"duplicate edge ({i},{j}) in layer {l}", path, lineno)
            entries[l - 1][key] = w

    layers = tuple(_dict_to_csr(d, N) for d in entries)
    return MultiplexNetwork(N=N, L=L, layers=layers, gamma=float(gamma),
                            directed=directed)


def load_multilayer(path, directed: bool = False) -> MultilayerNetwork:
    """Load a general multilayer edge list: header 'N L', then lines
    'k i l j weight' for the edge (node i, layer k) -> (node j, layer l)."""
    path = Path(path)
    lines = _read_edge_lines(path)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError("empty file", path) from None
    N, L = _parse_header(tokens, path, lineno)

    entries = {}
    for lineno, tokens in lines:
        if len(tokens) != 5:
            raise ParseError("expected 'k i l j weight'", path, lineno)
        try:
            k, i, l, j = (int(t) for t in tokens[:4])
        except ValueError as exc:
            raise ParseError(f"bad index: {exc}", path, lineno) from None
        _check_range(k, L, "layer id", path, lineno)
        _check_range(l, L, "layer id", path, lineno)
        _check_range(i, N, "node id", path, lineno)
        _check_range(j, N, "node id", path, lineno)
        w = _parse_weight(tokens[4], path, lineno)
        key, rkey = (k, i, l, j), (l, j, k, i)
        if key in entries or (not directed and rkey in entries):
            raise ParseError(
                f"duplicate edge ({i},{k})->({j},{l})", path, lineno)
        entries[key] = w
        if not directed and rkey != key:
            entries[rkey] = w

    return _multilayer_from_entries(N, L, entries, directed)


def _dict_to_csr(d, N):
    if not d:
        return sp.csr_matrix((N, N))
    rows, cols, vals = zip(*((r, c, w) for (r, c), w in d.items()))
    return sp.csr_matrix((vals, (rows, cols)), shape=(N, N))


def _multilayer_from_entries(N, L, entries, directed):
    per_block = [[dict() for _ in range(L)] for _ in range(L)]
    for (k, i, l, j), w in entries.items():
        per_block[k - 1][l - 1][(i - 1, j - 1)] = w
    blocks = tuple(
        tuple(_dict_to_csr(d, N) if d else None for d in row)
        for row in per_block
    )
    return MultilayerNetwork(N=N, L=L, blocks=blocks, directed=directed)


# ---------------------------------------------------------------------------
# operators and assembly

def supra_operator(net: Network) -> SupraOperator:
    """Matrix-free supra-adjacency operator for either network type."""
    if isinstance(net, MultiplexNetwork):
        return _multiplex_operator(net)
    csr = assemble_sparse(net)
    csc = csr.T.tocsr()
    return SupraOperator(net.dim, lambda v: csr @ v, lambda v: csc @ v)


def _multiplex_operator(net: MultiplexNetwork) -> SupraOperator:
    N, L, g = net.N, net.L, net.gamma
    layers = net.layers
    layers_t = tuple(A.T.tocsr() for A in layers)

    def apply(blocks_by_layer, v):
        V = v.reshape(L, N)
        out = np.empty_like(V)
        if g != 0.0:
            total = V.sum(axis=0)
        for k in range(L):
            out[k] = blocks_by_layer[k] @ V[k]
            if g != 0.0:
                out[k] += g * (total - V[k])
        return out.reshape(-1)

    return SupraOperator(net.dim,
                         lambda v: apply(layers, v),
                         lambda v: apply(layers_t, v))


def hub_operator(net: Network) -> SupraOperator:
    """Operator v -> B (B^T v); symmetric by construction."""
    op = supra_operator(net)

    def mv(v):
        return op.matvec(op.rmatvec(v))

    return SupraOperator(op.dim, mv, mv)


def authority_operator(net: Network) -> SupraOperator:
    """Operator v -> B^T (B v); symmetric by construction."""
    op = supra_operator(net)

    def mv(v):
        return op.rmatvec(op.matvec(v))

    return SupraOperator(op.dim, mv, mv)


def assemble_sparse(net: Network) -> sp.csr_matrix:
    """Assemble the full NL x NL supra-adjacency matrix in sparse form."""
    if isinstance(net, MultiplexNetwork):
        intra = sp.block_diag(net.layers, format="csr")
        if net.gamma == 0.0:
            return intra
        coupling = sp.kron(
            np.ones((net.L, net.L)) - np.eye(net.L),
            sp.identity(net.N, format="csr"),
            format="csr")
        return (intra + net.gamma * coupling).tocsr()
    grid = [[net.blocks[k][l] for l in range(net.L)] for k in range(net.L)]
    if all(blk is None for row in grid for blk in row):
        return sp.csr_matrix((net.dim, net.dim))
    return sp.bmat(grid, format="csr")


def assemble_dense(net: Network, dense_cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense supra-adjacency matrix; refuses above ``dense_cap``."""
    if net.dim > dense_cap:
        raise DenseCapError(
            f"dense assembly of order {net.dim} exceeds cap {dense_cap}")
    return assemble_sparse(net).toarray()


def is_strongly_connected(net: Network) -> bool:
    """True iff the NL-node directed graph of the supra matrix is strongly
    connected (equivalently, the matrix is irreducible)."""
    if net.dim == 1:
        return True
    B = assemble_sparse(net)
    n_comp, _ = connected_components(B, directed=True, connection="strong")
    return n_comp == 1


# ---------------------------------------------------------------------------
# mutation

def apply_edge_delta(net: Network, e: EdgeKey, delta: float) -> Network:
    """Return a new network with the weight of edge ``e`` changed by ``delta``.

    Creates the edge when absent and delta > 0; removes it when the new
    weight is exactly 0.  On undirected networks the symmetric entry is
    updated identically.  Multiplex edits must stay intra-layer; the
    gamma coupling is fixed by the model and cannot be edited.
    """
    e.validate(net.N, net.L)
    if delta == 0:
        return net

    if isinstance(net, MultiplexNetwork):
        if e.k != e.l:
            raise InputError("multiplex edits must be intra-layer (k == l)")
        if e.i == e.j:
            raise InputError("multiplex layers cannot carry self-loops")
        layers = list(net.layers)
        layers[e.k - 1] = _bump(layers[e.k - 1], e.i - 1, e.j - 1, delta,
                                mirror=not net.directed)
        return MultiplexNetwork(N=net.N, L=net.L, layers=tuple(layers),
                                gamma=net.gamma, directed=net.directed)

    blocks = [list(row) for row in net.blocks]
    blk = blocks[e.k - 1][e.l - 1]
    if blk is None:
        blk = sp.csr_matrix((net.N, net.N))
    mirror_here = (not net.directed) and e.k == e.l
    blocks[e.k - 1][e.l - 1] = _bump(blk, e.i - 1, e.j - 1, delta,
                                     mirror=mirror_here)
    if not net.directed and e.k != e.l:
        rblk = blocks[e.l - 1][e.k - 1]
        if rblk is None:
            rblk = sp.csr_matrix((net.N, net.N))
        blocks[e.l - 1][e.k - 1] = _bump(rblk, e.j - 1, e.i - 1, delta,
                                         mirror=False)
    blocks = tuple(tuple(b if (b is not None and b.nnz) else None for b in row)
                   for row in blocks)
    return MultilayerNetwork(N=net.N, L=net.L, blocks=blocks,
                             directed=net.directed)


def _bump(A, r, c, delta, mirror=False):
    """Return csr copy of A with entry (r, c) [and (c, r)] changed by delta."""
    A = A.tolil(copy=True)
    for rr, cc in ((r, c), (c, r)) if (mirror and r != c) else ((r, c),):
        new = A[rr, cc] + delta
        if new < 0:
            raise InputError(
                f"edge weight would become negative ({new}) at ({rr + 1},{cc + 1})")
        A[rr, cc] = new
    out = A.tocsr()
    out.eliminate_zeros()
    return out
