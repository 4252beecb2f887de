"""The multilayer network model and the supra-adjacency operator.

A multilayer network on N nodes and L layers is identified with its
supra-adjacency matrix B of order NL: block (k, l) holds the weights of
edges from nodes in layer k to nodes in layer l.  One class,
:class:`Network`, stores the editable arcs of B as one supra-indexed CSR
matrix.  A multiplex is the case whose arcs lie in the diagonal blocks
and whose inter-layer coupling, uniform and diagonal with weight gamma,
is fixed by the model and not editable.  ``Network.supra`` is B itself,
the arcs plus that coupling as sparse entries, built once per network;
the operator, a ``scipy.sparse.linalg.LinearOperator``, applies the
coupling implicitly.  B is never made dense outside
:func:`assemble_dense`.

Node-layer pairs are flattened as  (node i, layer k)  ->  N*(k-1) + i
with 1-based i and k throughout the public API.

Networks and operators are immutable after construction.  Every edit is
one supra update ``(rows, cols, deltas)`` (:func:`edge_update`), which
:func:`apply_update` applies to a new network.
"""

from __future__ import annotations

import io
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .errors import DenseCapError, InputError, ParseError

# scipy.sparse.csgraph and scipy.sparse.linalg are imported by their only
# users, _reach_all, _reaches and supra_operator, so that loading a network
# imports neither
if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator

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

    def arc(self, N: int, L: int) -> tuple[int, int]:
        """Supra positions (a, b) of this edge, its ids checked against N, L
        (:meth:`validate`): the entry (N(k-1)+i, N(l-1)+j) of B, 0-based."""
        self.validate(N, L)
        return flat_index(self.i, self.k, N), flat_index(self.j, self.l, N)

    @staticmethod
    def at(a, b, N: int) -> "EdgeKey":
        """The edge of the arc from supra position a to supra position b."""
        (i, k), (j, l) = unflatten_index(a, N), unflatten_index(b, N)
        return EdgeKey(i, j, k, l)


def flat_index(i: int, k: int, N: int) -> int:
    """0-based position of node i (1-based) in layer k (1-based) in a supra vector."""
    return N * (k - 1) + (i - 1)


def unflatten_index(a: int, N: int) -> tuple[int, int]:
    """Inverse of :func:`flat_index`: 0-based supra position -> (i, k), 1-based."""
    return int(a) % N + 1, int(a) // N + 1


# set on a loader's CSR matrix, built from rows that passed every check
# (weights, intra-layer keys, each undirected arc stored with its mirror):
# Network adopts it unchecked and uncopied, and removes the mark
_LOADED = "_perronnet_loaded"


@dataclass(frozen=True, eq=False)
class Network:
    """Multilayer network on N nodes and L layers: the NL x NL CSR matrix
    ``arcs`` of its stored, editable arcs, indexed by :func:`flat_index`.

    A general network (``gamma`` None) stores every arc.  A multiplex
    stores its intra-layer arcs only, all in the diagonal blocks and none
    of them a self-loop; its uniform diagonal inter-layer coupling of
    finite weight gamma >= 0 is fixed by the model: :attr:`supra` stores
    it, the operator applies it implicitly.  All stored weights are
    strictly positive and finite, and an undirected network's arcs are
    symmetric.  The network keeps a
    checked canonical copy of the ``arcs`` it is given; a loader's own
    matrix, built from checked rows, is adopted as it is.
    """

    N: int
    L: int
    arcs: sp.csr_matrix
    directed: bool
    gamma: float | None = None

    def __post_init__(self):
        if getattr(self.arcs, "__dict__", {}).pop(_LOADED, False):
            return  # a loader's matrix, checked row by row (see _network)
        if self.N < 1 or self.L < 1:
            raise InputError("N and L must be positive")
        if self.multiplex:
            _check_gamma(self.gamma)
        arcs = sp.csr_matrix(self.arcs, dtype=float, copy=True)
        # a copy drops scipy's canonical flag: a matrix known to be
        # canonical is not summed again
        if getattr(self.arcs, "has_canonical_format", False):
            arcs.has_canonical_format = True
        else:
            arcs.sum_duplicates()
        object.__setattr__(self, "arcs", arcs)
        if arcs.shape != (self.dim, self.dim):
            raise InputError("arcs must be an NL x NL matrix")
        if arcs.nnz and not (np.isfinite(arcs.data).all() and arcs.data.min() > 0):
            raise InputError("stored weights must be strictly positive and finite")
        if self.multiplex and arcs.nnz:
            # each row's column indices are sorted: its first and last one
            # must lie in the row's own layer
            r = np.flatnonzero(np.diff(arcs.indptr))
            lo = r - r % self.N
            if ((arcs.indices[arcs.indptr[r]] < lo).any()
                    or (arcs.indices[arcs.indptr[r + 1] - 1] >= lo + self.N).any()):
                raise InputError("a multiplex stores intra-layer arcs only")
            if arcs.diagonal().any():
                raise InputError("self-loops are not allowed in multiplex layers")
        # undirected edge semantics (one candidate per pair, mirrored edits)
        # hold only for a symmetric matrix
        if not (self.directed or _same_csr(arcs, arcs.T.tocsr())):
            raise InputError("an undirected network needs a symmetric weight matrix")

    @property
    def dim(self) -> int:
        return self.N * self.L

    @property
    def multiplex(self) -> bool:
        return self.gamma is not None

    @cached_property
    def supra(self) -> sp.csr_matrix:
        """The NL x NL supra-adjacency matrix B in CSR form, built on first
        use: the stored arcs plus, on a multiplex with gamma > 0, the
        coupling gamma * kron(ones - I_L, I_N).  Without coupling this is
        ``arcs`` itself, not a copy."""
        if not self.gamma:
            return self.arcs
        coupling = sp.kron(np.ones((self.L, self.L)) - np.eye(self.L),
                           sp.identity(self.N, format="csr"), format="csr")
        return (self.arcs + self.gamma * coupling).tocsr()

    @cached_property
    def arcs_t(self) -> sp.csr_matrix:
        """The CSR transpose of ``arcs``, built on first use; on undirected
        input ``arcs`` itself."""
        return self.arcs.T.tocsr() if self.directed else self.arcs

    @cached_property
    def _strongly_connected(self) -> bool:
        """:func:`is_strongly_connected` without an update, found on first
        use: the CLI's warning and a connected removal scan share it.

        B is strongly connected iff position 0 reaches every position and
        every position reaches position 0: a breadth-first search from 0 on
        ``arcs`` and, on directed input, one on ``arcs_t`` decide it
        (:func:`_reach_all`).  Without coupling both must reach all NL
        positions.  With gamma > 0, which joins the L copies of each node
        both ways, B is strongly connected iff the union of the layers, a
        graph on the N nodes, is: a path in B projects onto the union, and
        from any copy of a node the coupling reaches each layer's arcs out
        of it.  The searches on ``arcs`` settle that when they reach the N
        nodes of layer 1; otherwise the same searches on the union decide."""
        sides = (self.arcs, self.arcs_t) if self.directed else (self.arcs,)
        if not self.gamma:
            return _reach_all(self.dim, *sides)
        if _reach_all(self.N, *sides):
            return True
        coo = self.arcs.tocoo()
        union = sp.csr_matrix((coo.data, (coo.row % self.N, coo.col % self.N)),
                              shape=(self.N, self.N))
        return _reach_all(self.N, *((union, union.T) if self.directed
                                    else (union,)))

    def weight(self, e: EdgeKey) -> float:
        """Weight of the arc ``e``: a stored arc, or a multiplex coupling
        (i == j, k != l), which is gamma."""
        a, b = e.arc(self.N, self.L)
        if self.multiplex and e.i == e.j and e.k != e.l:
            return float(self.gamma)
        p = _position(self.arcs, a, b)
        return float(self.arcs.data[p]) if p >= 0 else 0.0

    def edges(self):
        """Iterate the stored arcs as (EdgeKey, weight) in supra row order.

        A multiplex's coupling entries are structural, not data, and are
        not listed.
        """
        for a, b, x in zip(*editable_arcs(self)):
            yield EdgeKey.at(a, b, self.N), float(x)

    def edge_count(self) -> int:
        return self.arcs.nnz


def _position(m, r: int, c: int) -> int:
    """Position of the entry (r, c) in the arrays of the CSR matrix ``m``,
    whose indices are sorted, or -1 when ``m`` stores none."""
    lo, hi = m.indptr[r], m.indptr[r + 1]
    p = lo + int(np.searchsorted(m.indices[lo:hi], c))
    return p if p < hi and m.indices[p] == c else -1


def _same_csr(m, other) -> bool:
    """True iff two CSR matrices in canonical form (sorted indices, no
    duplicate or explicit zero entries), which is one form per matrix,
    hold the same arrays."""
    return all(np.array_equal(getattr(m, v), getattr(other, v))
               for v in ("indptr", "indices", "data"))


def _check_gamma(gamma) -> None:
    if not (0 <= gamma < math.inf):
        raise InputError(f"gamma must be finite and nonnegative, got {gamma}")


def editable_arcs(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Supra-indexed COO ``(rows, cols, weights)`` of the stored arcs, in
    supra row order: all arcs of a general network, the intra-layer arcs
    of a multiplex.  On undirected networks both arcs of each edge are
    listed.  Positions are int64, the weights a copy.
    """
    arcs = net.arcs
    rows = np.repeat(np.arange(net.dim, dtype=np.int64), np.diff(arcs.indptr))
    return rows, arcs.indices.astype(np.int64), arcs.data.copy()


# ---------------------------------------------------------------------------
# file loading
#
# A data line holds whitespace-separated tokens: decimal integer ids and a
# weight in any spelling Python's float() accepts; only whole-line '#'
# comments are skipped.  A file is parsed in one numpy pass when numpy's
# reader takes it, and line by line otherwise (ids such as '1_0' or
# non-ASCII digits, an unparsable line).  Both feed the same array checks,
# which name the first offending line in file order.  numpy reads the
# path itself: handed a text stream, its reader goes line by line in
# Python, about a third slower.  The header and the line numbers come from
# one read of the text, the rows from numpy's; every row's ids are checked
# against the header's N and L, so a file that changes between the two
# reads still gives a network of the order the header sets, or an error.

# suffixes numpy's reader decompresses by; such a file is read line by line,
# as the text it holds
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read_edge_lines(path):
    """Yield (line_number, tokens) for data lines; '#' comments and blanks
    skipped.  The text reader fails a whole chunk of about 8 KB on a byte
    that is not UTF-8: the lines before that byte's line are then read
    from the bytes, and a ParseError names the file and the byte's offset."""
    given = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for given, tokens in _data_lines(fh):
                yield given, tokens
        return
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        end = max(data.rfind(b"\n", 0, exc.start),
                  data.rfind(b"\r", 0, exc.start)) + 1
        lines = io.StringIO(data[:end].decode("utf-8"), newline=None)
        yield from ((n, t) for n, t in _data_lines(lines) if n > given)
        raise ParseError(f"not UTF-8 text ({exc})", path) from None
    raise ParseError("changed while it was read", path)


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
    top = math.isqrt(np.iinfo(np.int64).max)  # every key is below (NL)**2
    if N * L > top:
        raise ParseError(f"N*L must be at most {top}, got {N * L}",
                         path, lineno)
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
    N, L, header_line = _parse_header(_data_lines(_text_lines(text)), path)
    if _has_inline_comment(text) or path.suffix in _COMPRESSED:
        return _read_per_line(path, nids, usage)
    try:
        with warnings.catch_warnings():
            # "input contained no data" on a header-only file
            warnings.simplefilter("error")
            rows = np.loadtxt(path, encoding="utf-8", comments="#",
                              skiprows=header_line, ndmin=1,
                              dtype=[("ids", np.int64, (nids,)),
                                     ("w", np.float64)])
    except (ValueError, UserWarning):
        return _read_per_line(path, nids, usage)

    def lineno(r):
        data = islice(_data_lines(_text_lines(text)), r + 1, None)
        return next(data)[0]

    return _EdgeRows(N, L, rows["ids"], rows["w"], lineno)


def _text_lines(text):
    """The lines of ``text``, as iterating a text file gives them, without
    copying the text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


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
    except ParseError as exc:
        error = exc
    try:
        ids = np.array(ids, dtype=np.int64).reshape(-1, nids)
    except OverflowError:
        ids = np.array(ids, dtype=object).reshape(-1, nids)
    return _EdgeRows(N, L, ids, np.array(w, dtype=np.float64),
                     linenos.__getitem__, error, weight_error)


def _range_checks(t: _EdgeRows, columns):
    """Range checks of the id columns, as ``(mask, message(row))`` pairs,
    and the ids with every out-of-range id set to 1, as int64.

    ``columns`` lists ``(column, name, upper bound)`` in the order a line
    is checked; a column whose ids all lie in range has no check.
    """
    ids = t.ids
    out_of_range = None
    checks = []
    for c, name, hi in columns:
        if ids.size == 0 or (1 <= ids[:, c].min() and ids[:, c].max() <= hi):
            continue
        if out_of_range is None:
            out_of_range = np.zeros(ids.shape, dtype=bool)
        out_of_range[:, c] = (ids[:, c] < 1) | (ids[:, c] > hi)
        checks.append((out_of_range[:, c],
                       lambda r, c=c, name=name, hi=hi:
                           f"{name} {int(ids[r, c])} out of range 1..{hi}"))
    if out_of_range is None:  # every id in range, so int64
        return checks, ids
    # an id in range is at most N, which _parse_header keeps in int64
    return checks, np.where(out_of_range, 1, ids).astype(np.int64)


def _weight_check(t: _EdgeRows):
    w, last = t.w, len(t.w) - 1

    def message(r):
        if t.weight_error is not None and r == last:
            return t.weight_error
        return f"weight must be positive and finite, got {float(w[r])}"

    return ~((w > 0) & (w < math.inf)), message


def _arc_order(keys, rows, span, count):
    """The arc keys sorted, and the row of each, an arc key repeated
    being ordered by row, from keys below ``span`` and rows below
    ``count``, no (key, row) pair twice.

    Where key * 2**bits + row fits in int64 (bits for the rows), one sort
    of the keys packed with their rows gives both; otherwise a lexsort by
    key, then row, gives the same order."""
    bits = max(count - 1, 0).bit_length()
    if span << bits <= 1 << 63:
        packed = np.sort(keys << bits | rows)
        return packed >> bits, packed & ((1 << bits) - 1)
    order = np.lexsort((rows, keys))
    return keys[order], rows[order]


def _repeats(keys, rows, count):
    """Mask of the ``count`` rows that own an arc whose key is on an arc
    of an earlier row, from the arc keys and rows :func:`_arc_order`
    gives, or None when no key repeats."""
    repeat = keys[1:] == keys[:-1]
    if not repeat.any():
        return None
    mask = np.zeros(count, dtype=bool)
    mask[rows[1:][repeat]] = True  # each arc after its key's first row
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


def _network(t: _EdgeRows, path, checks, a, b, duplicate, directed,
             gamma=None) -> Network:
    """Network of the rows' arcs from 0-based supra position a to b, once
    no row fails ``checks`` or repeats an edge of an earlier row, which
    ``duplicate(row)`` names; undirected input stores each arc's mirror
    too, a self-loop once.

    One sort of the arc keys a * NL + b, each with its row
    (:func:`_arc_order`), finds the repeated arcs and gives the CSR
    order; :func:`_repeats` names a repeat's row only once one is known,
    and no array of order NL is sized before every check passes.
    """
    n, count = t.N * t.L, t.w.size
    rows = np.arange(count)
    keys = a * n + b
    if not directed:
        mirror = a != b
        keys = np.concatenate((keys, (b * n + a)[mirror]))
        rows = np.concatenate((rows, rows[mirror]))
    keys, rows = _arc_order(keys, rows, n * n, count)
    repeats = _repeats(keys, rows, count)
    if repeats is not None:
        checks.append((repeats, duplicate))
    _raise_first_fault(t, path, checks)

    tails = keys // n
    heads = keys - tails * n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    arcs = sp.csr_matrix((t.w[rows], heads, indptr), shape=(n, n))
    arcs.has_canonical_format = True  # sorted by key, no repeat
    setattr(arcs, _LOADED, True)  # no copy, no second check
    return Network(t.N, t.L, arcs, directed, gamma)


def load_multiplex(path, gamma: float, directed: bool = False) -> Network:
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
    checks += [
        (i == j, lambda r: "self-loops are not allowed in multiplex layers"),
        _weight_check(t),
    ]
    return _network(t, path, checks, N * (l - 1) + i - 1, N * (l - 1) + j - 1,
                    lambda r: f"duplicate edge ({i[r]},{j[r]}) in layer {l[r]}",
                    directed, float(gamma))


def load_multilayer(path, directed: bool = False) -> Network:
    """Load a general multilayer edge list: header 'N L', then lines
    'k i l j weight' for the edge (node i, layer k) -> (node j, layer l)."""
    path = Path(path)
    t = _read_edge_rows(path, 4, "expected 'k i l j weight'")
    N, L = t.N, t.L
    checks, ids = _range_checks(t, ((0, "layer id", L), (2, "layer id", L),
                                    (1, "node id", N), (3, "node id", N)))
    k, i, l, j = ids.T
    checks.append(_weight_check(t))
    return _network(t, path, checks, N * (k - 1) + i - 1, N * (l - 1) + j - 1,
                    lambda r: f"duplicate edge ({i[r]},{k[r]})->({j[r]},{l[r]})",
                    directed)


# ---------------------------------------------------------------------------
# operators and assembly

def supra_operator(net: Network) -> LinearOperator:
    """Matrix-free supra-adjacency operator B, with products B v and B^T v
    and, on an NL x k block V, B V and B^T V.  Its attribute ``symmetric``
    is true exactly on undirected input, where B^T = B.

    The stored arcs multiply as one CSR matrix and its CSR transpose,
    ``net.arcs_t``, built once per network (on undirected input the
    matrix itself); a multiplex adds its gamma coupling blockwise,
    (B v)_(k) = A^(k) v_(k) + gamma * sum_{m != k} v_(m), at O(NL) per
    column, where ``net.supra`` stores NL(L - 1) coupling entries.
    """
    from scipy.sparse.linalg import LinearOperator

    N, L, g = net.N, net.L, net.gamma or 0.0
    arcs, arcs_t = net.arcs, net.arcs_t

    def apply(m, V):
        V = np.asarray(V, dtype=float)
        out = m @ V
        if g != 0.0:
            W = V.reshape((L, N) + V.shape[1:])
            coupled = W.sum(axis=0) - W
            if g != 1.0:  # 1.0 * z is z
                coupled *= g
            out += coupled.reshape(V.shape)
        return out

    B, B_t = partial(apply, arcs), partial(apply, arcs_t)
    op = LinearOperator(arcs.shape, dtype=float, matvec=B, rmatvec=B_t,
                        matmat=B, rmatmat=B_t)
    op.symmetric = not net.directed
    return op


def assemble_dense(net: Network) -> np.ndarray:
    """Dense supra-adjacency matrix; refuses above ``DEFAULT_DENSE_CAP``."""
    if net.dim > DEFAULT_DENSE_CAP:
        raise DenseCapError(f"dense assembly of order {net.dim} exceeds cap "
                            f"{DEFAULT_DENSE_CAP}")
    return net.supra.toarray()


def is_strongly_connected(net: Network, update=None) -> bool:
    """True iff the NL-node directed graph of the supra matrix is strongly
    connected (equivalently, the matrix is irreducible), found once per
    network by breadth-first searches from position 0
    (``Network._strongly_connected``); with a supra update
    ``(rows, cols, deltas)``, that of the network :func:`apply_update`
    makes.

    On a strongly connected base, an update that only lowers stored arcs
    keeps it so iff the head v of each arc u -> v it drops (to weight 0)
    is still reachable from its tail u: one breadth-first search per
    distinct u decides it, without building that network.  Any other
    update (an arc added or raised, a weight made negative, a multiplex's
    coupling edited), or a reducible base, gets the answer, or the
    InputError, of the network :func:`apply_update` makes; a cell outside
    0..NL-1 raises its InputError before any lookup."""
    if update is None:
        return net._strongly_connected
    _check_cells(net, update)
    B, N = net.supra, net.N
    # the update's entries, repeats summed as a sparse sum does
    sums = {}
    for r, c, delta in zip(*(np.asarray(v).tolist() for v in update)):
        sums[r, c] = sums.get((r, c), 0.0) + delta
    at = {rc: _position(B, *rc) for rc in sums}
    # a pure lowering of stored arcs, none of them a multiplex's coupling
    if not (net._strongly_connected and all(
            p >= 0 and sums[rc] <= 0 <= B.data[p] + sums[rc]
            and not (net.multiplex and rc[0] // N != rc[1] // N)
            for rc, p in at.items())):
        return apply_update(net, update)._strongly_connected
    gone = [rc for rc, p in at.items() if B.data[p] + sums[rc] == 0]
    if not gone:
        return True
    # B without the dropped arcs: each u -> v becomes the self-loop
    # u -> u, which lies on no path between two other nodes (B + update
    # builds the same graph at about three times the cost of a search)
    indices = B.indices.copy()
    for rc in gone:
        indices[at[rc]] = rc[0]
    return _reaches(sp.csr_matrix((B.data, indices, B.indptr), shape=B.shape),
                    gone)


def _reach_all(count, *graphs) -> bool:
    """True iff a breadth-first search from position 0 reaches ``count``
    positions in the directed graph of each sparse matrix in ``graphs``."""
    from scipy.sparse.csgraph import breadth_first_order

    return all(breadth_first_order(g, 0, return_predecessors=False).size
               == count for g in graphs)


def _reaches(graph, arcs) -> bool:
    """True iff the head of each arc ``(tail, head)`` is reachable from its
    tail in the directed graph of the sparse matrix ``graph``: one
    breadth-first search per distinct tail."""
    from scipy.sparse.csgraph import breadth_first_order

    heads = {}
    for u, v in arcs:
        heads.setdefault(u, []).append(v)
    for u, vs in heads.items():
        reached = breadth_first_order(graph, u, return_predecessors=False)
        if not all((reached == v).any() for v in vs):
            return False
    return True


# ---------------------------------------------------------------------------
# mutation

def edge_update(net: Network, e: EdgeKey, delta: float):
    """The supra update ``(rows, cols, deltas)`` that changes the weight of
    edge ``e`` by ``delta``: its arc and, on undirected input, the mirror
    arc.  Raises InputError for an edge out of range, and on a multiplex
    for an inter-layer edge or a self-loop, the gamma coupling being fixed
    by the model."""
    r, c = e.arc(net.N, net.L)
    if net.multiplex and e.k != e.l:
        raise InputError("multiplex edits must be intra-layer (k == l)")
    if net.multiplex and e.i == e.j:
        raise InputError("multiplex layers cannot carry self-loops")
    rows, cols = ([r], [c]) if net.directed or r == c else ([r, c], [c, r])
    return np.array(rows), np.array(cols), np.full(len(rows), float(delta))


def _check_cells(net: Network, update) -> None:
    """Raise InputError naming the first cell of the supra update
    ``(rows, cols, deltas)`` that lies outside 0..NL-1."""
    rows, cols = np.asarray(update[0]), np.asarray(update[1])
    out = (rows < 0) | (rows >= net.dim) | (cols < 0) | (cols >= net.dim)
    if out.any():
        p = int(np.argmax(out))
        raise InputError(f"supra entry ({int(rows[p])},{int(cols[p])}) is "
                         f"outside 0..{net.dim - 1}")


def apply_update(net: Network, update) -> Network:
    """Return a new network whose stored arcs are ``net.arcs + E`` for the
    supra update E = ``(rows, cols, deltas)``; an entry that becomes
    exactly 0 is removed.  Raises InputError for a cell outside 0..NL-1
    and when an entry would become negative."""
    _check_cells(net, update)
    rows, cols, deltas = update
    E = sp.csr_matrix((deltas, (rows, cols)), shape=net.arcs.shape)
    arcs = net.arcs + E
    if arcs.nnz and arcs.data.min() < 0:  # stored arcs are positive
        new = np.asarray(arcs[rows, cols]).ravel()
        if (new < 0).any():  # the update's first negative cell
            p = int(np.argmax(new < 0))
            r, c, w = rows[p], cols[p], new[p]
        else:  # the first stored one, as after an edit of net.arcs in place
            p = int(np.argmax(arcs.data < 0))
            r = np.searchsorted(arcs.indptr, p, side="right") - 1
            c, w = arcs.indices[p], arcs.data[p]
        raise InputError(f"edge weight would become negative ({float(w)})"
                         f" at supra entry ({int(r)},{int(c)})")
    arcs.eliminate_zeros()
    return replace(net, arcs=arcs)


def apply_edge_delta(net: Network, e: EdgeKey, delta: float) -> Network:
    """Return a new network with the weight of edge ``e`` changed by ``delta``.

    Creates the edge when absent and delta > 0; removes it when the new
    weight is exactly 0.  On undirected networks the symmetric entry is
    updated identically.  Multiplex edits must stay intra-layer; the
    gamma coupling is fixed by the model and cannot be edited.
    """
    update = edge_update(net, e, delta)  # checks e by the edit rules
    if delta == 0:
        return net
    return apply_update(net, update)
