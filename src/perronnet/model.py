"""Multilayer and multiplex network models and the supra-adjacency operator.

A multilayer network on N nodes and L layers is identified with its
supra-adjacency matrix B of order NL: block (k, l) holds the weights of
edges from nodes in layer k to nodes in layer l.  A multiplex network
stores only the L intra-layer adjacency matrices; the inter-layer
coupling is uniform and diagonal with weight gamma and is applied
implicitly by the operator, a ``scipy.sparse.linalg.LinearOperator``,
never materialized as a dense matrix.

Node-layer pairs are flattened as  (node i, layer k)  ->  N*(k-1) + i
with 1-based i and k throughout the public API.

Networks and operators are immutable after construction; mutation
helpers return new values.
"""

from __future__ import annotations

import io
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator

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
#
# A data line holds whitespace-separated tokens: decimal integer ids and a
# weight in any spelling Python's float() accepts; only whole-line '#'
# comments are skipped.  A file is parsed in one numpy pass when numpy's
# reader takes it, and line by line otherwise (ids such as '1_0' or
# non-ASCII digits, an unparsable line).  Both feed the same array checks,
# which name the first offending line in file order.

def _read_edge_lines(path):
    """Yield (line_number, tokens) for data lines; '#' comments and blanks skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from _data_lines(fh)


def _data_lines(lines):
    """(line_number, tokens) of the data lines of an iterable of lines."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _parse_header(lines, path):
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError("empty file", path) from None
    if len(tokens) != 2:
        raise ParseError("header must be 'N L'", path, lineno)
    try:
        N, L = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", path, lineno) from None
    if N < 1 or L < 1:
        raise ParseError("N and L must be positive", path, lineno)
    return N, L, lineno


@dataclass
class _EdgeRows:
    """The data rows of an edge file, before any check.

    ``ids`` holds the integer columns (int64, or object when an id does
    not fit), ``w`` the weights, and ``lineno(r)`` the file line of row r.
    A file read line by line ends at its first unparsable line: its
    ``error`` is raised once the rows before it pass every check, and an
    unparsable weight keeps its row, with ``weight_error`` as the fault of
    its weight check.
    """

    N: int
    L: int
    ids: np.ndarray
    w: np.ndarray
    lineno: Callable[[int], int]
    error: Exception | None = None
    weight_error: str | None = None


def _read_edge_rows(path, nids, usage) -> _EdgeRows:
    """Header and rows of an edge file whose data lines hold ``nids`` ids
    and a weight; ``usage`` is the error for a wrong token count."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return _read_per_line(path, nids, usage)
    N, L, header_line = _parse_header(_data_lines(io.StringIO(text)), path)
    if _has_inline_comment(text):
        return _read_per_line(path, nids, usage)
    try:
        with warnings.catch_warnings():
            # "input contained no data" on a header-only file
            warnings.simplefilter("error")
            rows = np.loadtxt(io.StringIO(text), comments="#",
                              skiprows=header_line, ndmin=1,
                              dtype=[("ids", np.int64, (nids,)),
                                     ("w", np.float64)])
    except (ValueError, UserWarning):
        return _read_per_line(path, nids, usage)

    def lineno(r):
        data = islice(_data_lines(io.StringIO(text)), r + 1, None)
        return next(data)[0]

    return _EdgeRows(N, L, rows["ids"], rows["w"], lineno)


def _has_inline_comment(text):
    """True when a '#' follows data on its line: numpy's reader would drop
    it as a comment, but it is an error here."""
    p = text.find("#")
    while p >= 0:
        start = text.rfind("\n", 0, p) + 1
        if text[start:p].strip():
            return True
        end = text.find("\n", p)
        p = text.find("#", end) if end >= 0 else -1
    return False


def _read_per_line(path, nids, usage) -> _EdgeRows:
    lines = _read_edge_lines(path)
    N, L, _ = _parse_header(lines, path)
    ids, w, linenos = [], [], []
    error = weight_error = None
    try:
        for lineno, tokens in lines:
            if len(tokens) != nids + 1:
                raise ParseError(usage, path, lineno)
            try:
                ids.append([int(t) for t in tokens[:nids]])
            except ValueError as exc:
                raise ParseError(f"bad index: {exc}", path, lineno) from None
            linenos.append(lineno)
            try:
                w.append(float(tokens[nids]))
            except ValueError:
                w.append(math.nan)
                weight_error = f"bad weight {tokens[nids]!r}"
                break
    except (ParseError, UnicodeDecodeError) as exc:
        error = exc
    try:
        ids = np.array(ids, dtype=np.int64).reshape(-1, nids)
    except OverflowError:
        ids = np.array(ids, dtype=object).reshape(-1, nids)
    return _EdgeRows(N, L, ids, np.array(w, dtype=np.float64),
                     linenos.__getitem__, error, weight_error)


def _range_checks(t: _EdgeRows, columns):
    """Range checks of the id columns, as ``(mask, message(row))`` pairs,
    and the ids with every out-of-range id zeroed, as int64 where they fit.

    ``columns`` lists ``(column, name, upper bound)`` in the order a line
    is checked.
    """
    ids = t.ids
    out_of_range = np.zeros(ids.shape, dtype=bool)
    checks = []
    for c, name, hi in columns:
        out_of_range[:, c] = (ids[:, c] < 1) | (ids[:, c] > hi)
        checks.append((out_of_range[:, c],
                       lambda r, c=c, name=name, hi=hi:
                           f"{name} {int(ids[r, c])} out of range 1..{hi}"))
    safe = np.where(out_of_range, 0, ids)
    try:
        safe = safe.astype(np.int64)
    except OverflowError:  # ids in range of a header N past int64
        pass
    return checks, safe


def _weight_check(t: _EdgeRows):
    w, last = t.w, len(t.w) - 1

    def message(r):
        if t.weight_error is not None and r == last:
            return t.weight_error
        return f"weight must be positive and finite, got {float(w[r])}"

    return ~((w > 0) & (w < math.inf)), message


def _repeats(cols, bounds):
    """Mask of the rows whose key, one value per column, is on an earlier
    row; column c holds values in 0..bounds[c]."""
    size = math.prod(b + 1 for b in bounds)
    dtype = np.int64 if size <= np.iinfo(np.int64).max else object
    key = np.zeros(len(cols[0]), dtype=dtype)
    for c, b in zip(cols, bounds):
        key = key * (b + 1) + c.astype(dtype)
    order = np.argsort(key)
    s = key[order]
    mask = np.ones(key.size, dtype=bool)
    if key.size:  # all but the earliest row of each run of equal keys
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        mask[np.minimum.reduceat(order, starts)] = False
    return mask


def _raise_first_fault(t: _EdgeRows, path, checks):
    """Raise the ParseError of the earliest row failing one of ``checks``,
    ``(mask, message(row))`` pairs in the order a line is checked, so a
    row failing several reports the first; else the error that ended the
    rows, if any."""
    fault = None
    for mask, message in checks:
        hit = np.flatnonzero(mask)
        if hit.size and (fault is None or hit[0] < fault[0]):
            fault = (int(hit[0]), message)
    if fault is not None:
        row, message = fault
        raise ParseError(message(row), path, t.lineno(row))
    if t.error is not None:
        raise t.error


def _csr_blocks(N, block, rows, cols, w) -> dict:
    """N x N CSR matrix of the 0-based arcs of each nonempty block, keyed
    by block id; ``block`` gives each arc's block."""
    order = np.argsort(block, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(block[order])) + 1)
    return {int(block[g[0]]): sp.csr_matrix((w[g], (rows[g], cols[g])), shape=(N, N))
            for g in groups if g.size}


def load_multiplex(path, gamma: float, directed: bool = False) -> MultiplexNetwork:
    """Load a multiplex edge list: header 'N L', then lines 'layer i j weight'.

    With ``directed=False`` each input edge populates both (i, j) and
    (j, i).  Duplicate edges are a hard error rather than being summed.
    """
    path = Path(path)
    _check_gamma(gamma)
    t = _read_edge_rows(path, 3, "expected 'layer i j weight'")
    N, L = t.N, t.L
    checks, ids = _range_checks(
        t, ((0, "layer id", L), (1, "node id", N), (2, "node id", N)))
    l, i, j = ids.T
    pair = (i, j) if directed else (np.minimum(i, j), np.maximum(i, j))
    checks += [
        (i == j, lambda r: "self-loops are not allowed in multiplex layers"),
        _weight_check(t),
        (_repeats((l, *pair), (L, N, N)),
         lambda r: f"duplicate edge ({i[r]},{j[r]}) in layer {l[r]}"),
    ]
    _raise_first_fault(t, path, checks)

    l, i, j, w = l - 1, i - 1, j - 1, t.w
    if not directed:
        l, i, j, w = (np.concatenate(p) for p in ((l, l), (i, j), (j, i), (w, w)))
    blocks = _csr_blocks(N, l, i, j, w)
    layers = tuple(blocks.get(k, sp.csr_matrix((N, N))) for k in range(L))
    return MultiplexNetwork(N=N, L=L, layers=layers, gamma=float(gamma),
                            directed=directed)


def load_multilayer(path, directed: bool = False) -> MultilayerNetwork:
    """Load a general multilayer edge list: header 'N L', then lines
    'k i l j weight' for the edge (node i, layer k) -> (node j, layer l)."""
    path = Path(path)
    t = _read_edge_rows(path, 4, "expected 'k i l j weight'")
    N, L = t.N, t.L
    checks, ids = _range_checks(t, ((0, "layer id", L), (2, "layer id", L),
                                    (1, "node id", N), (3, "node id", N)))
    k, i, l, j = ids.T
    key = (k, i, l, j)
    if not directed:  # the edge's node-layer pairs, smaller first
        swap = (k > l) | ((k == l) & (i > j))
        key = (np.where(swap, l, k), np.where(swap, j, i),
               np.where(swap, k, l), np.where(swap, i, j))
    checks += [
        _weight_check(t),
        (_repeats(key, (L, N, L, N)),
         lambda r: f"duplicate edge ({i[r]},{k[r]})->({j[r]},{l[r]})"),
    ]
    _raise_first_fault(t, path, checks)

    k, i, l, j, w = k - 1, i - 1, l - 1, j - 1, t.w
    if not directed:
        rev = (k != l) | (i != j)
        k, i, l, j, w = (np.concatenate((a, b[rev]))
                         for a, b in ((k, l), (i, j), (l, k), (j, i), (w, w)))
    blocks = _csr_blocks(N, k * L + l, i, j, w)
    grid = tuple(tuple(blocks.get(a * L + b) for b in range(L)) for a in range(L))
    return MultilayerNetwork(N=N, L=L, blocks=grid, directed=directed)


# ---------------------------------------------------------------------------
# operators and assembly

def supra_operator(net: Network) -> LinearOperator:
    """Matrix-free supra-adjacency operator B, with products B v and B^T v,
    for either network type.

    A general network multiplies by its CSR matrix and a precomputed CSR
    transpose.  A multiplex applies the gamma coupling blockwise:
    (B v)_(k) = A^(k) v_(k) + gamma * sum_{m != k} v_(m).
    """
    if isinstance(net, MultiplexNetwork):
        return _multiplex_operator(net)
    csr = assemble_sparse(net)
    csr_t = csr.T.tocsr()
    return LinearOperator((net.dim, net.dim), matvec=lambda v: csr @ v,
                          rmatvec=lambda v: csr_t @ v, dtype=float)


def _multiplex_operator(net: MultiplexNetwork) -> LinearOperator:
    N, L, g = net.N, net.L, net.gamma
    layers = net.layers
    layers_t = tuple(A.T.tocsr() for A in layers)

    def apply(blocks_by_layer, v):
        # float first: an int V would truncate the products written to out
        V = np.asarray(v, dtype=float).reshape(L, N)
        out = np.empty_like(V)
        if g != 0.0:
            total = V.sum(axis=0)
        for k in range(L):
            out[k] = blocks_by_layer[k] @ V[k]
            if g != 0.0:
                out[k] += g * (total - V[k])
        return out.reshape(-1)

    return LinearOperator((net.dim, net.dim),
                          matvec=lambda v: apply(layers, v),
                          rmatvec=lambda v: apply(layers_t, v), dtype=float)


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
    cells = ((r, c), (c, r)) if (mirror and r != c) else ((r, c),)
    for rr, cc in cells:
        new = float(A[rr, cc]) + delta
        if new < 0:
            raise InputError(
                f"edge weight would become negative ({new}) at ({rr + 1},{cc + 1})")
    rows, cols = zip(*cells)
    out = A + sp.csr_matrix(([delta] * len(cells), (rows, cols)), shape=A.shape)
    out.eliminate_zeros()
    return out
