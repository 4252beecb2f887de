"""Edge ranking by Perron-root sensitivity and perturbation experiments.

An edge insertion between node-layer positions a and b has first-order
impact proportional to y_a * x_b, so the best candidates pair the
largest entries of y with the largest entries of x.  Candidates are
ranked as unordered position pairs scored by the larger of the two
directional products.  Every candidate set is ranked by one array
routine over candidate arcs: the stored arcs for strengthening, and for
insertions the arcs between the m largest entries of y and of x, a
window that doubles until no arc outside it can reach the top k, so
every product is formed only when the top k cannot be settled sooner.
Existing edges (removal candidates, strengthening candidates and the
removal baseline pool) are read from the supra-indexed arc arrays of
:func:`~perronnet.model.editable_arcs`; an ``EdgeKey`` is built only for
a row that is emitted or checked.
Removal candidates are scanned in increasing score order, optionally
skipping any whose removal disconnects the supra graph; only the arcs
scored at most the m-th smallest score are put in that order, a window
that doubles whenever the scan runs past it.

The experiment harness re-solves the eigenproblem exactly for each
perturbed network (the first-order score is only an estimate) and pairs
every row with a seeded random baseline edge treated the same way.

Each exact re-solve request (an edge, a mode, eps and whether to mirror)
becomes one supra update ``(rows, cols, deltas)``, checked once by
:func:`_edits`.  All the requests of one call are re-solved together by
:func:`~perronnet.eigen.perron_block` on the base network's operator,
without copying the network.  Only the roots are needed, so it makes no
product with B^T: a row is accepted only when the Collatz-Wielandt
bracket of its own perturbed operator holds its root within tol.  A row
the block pass does not accept is solved alone by ``perron()``, which
reports why a row cannot be solved, on the network
:func:`~perronnet.model.apply_update` makes of its update: an undirected
one runs the Lanczos recurrence.  Both passes start from the base Perron
pair when both of its vectors are strictly positive, and cold otherwise.
A removal that must keep the supra graph strongly connected is checked
only on a strongly connected base, removing arcs never making a graph
strongly connected: by one breadth-first search per tail of a dropped
arc, on the base supra matrix with the dropped arcs made self-loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .eigen import DEFAULT_TOL, PerronTriple, perron, perron_block
from .errors import ConvergenceError, InfeasibleError, InputError
# perfbench/spans.py times perron, supra_operator, is_strongly_connected,
# apply_edge_delta and sensitivity_entry by replacing these names in this
# module, so they stay imported by name; apply_edge_delta is imported for
# that tracer only, this module editing through apply_update
from .model import (EdgeKey, Network, apply_edge_delta, apply_update,
                    edge_update, editable_arcs, is_strongly_connected,
                    supra_operator)
from .sensitivity import arc_sensitivity, sensitivity_entry


@dataclass(frozen=True)
class RankedEdge:
    edge: EdgeKey
    score: float
    rho_before: float
    rho_after: float | None = None
    connected_after: bool | None = None


@dataclass(frozen=True)
class ExperimentRow:
    edge: EdgeKey
    score: float
    rho_new: float | None
    baseline_edge: EdgeKey | None
    baseline_rho_new: float | None
    error: str | None = None
    baseline_error: str | None = None


def _shown(a, b, net: Network):
    """The arcs (a, b), arrays or scalars, as the arcs that show their
    pairs: flipped when a > b and the arc lies in one layer (i < j) or
    the input is undirected.  Directed inter-layer arcs keep their way."""
    flip = (a > b) & ((a // net.N == b // net.N) | (not net.directed))
    return np.where(flip, b, a), np.where(flip, a, b)


def _tie_key(a: np.ndarray, b: np.ndarray, net: Network) -> np.ndarray:
    """The tie key (k, l, i, j) of each arc (a, b), packed into one
    integer, unique per arc: int64, being below (NL)**2."""
    N, L = net.N, net.L
    return ((a // N * L + b // N) * N + a % N) * N + b % N


def _tie_order(a: np.ndarray, b: np.ndarray, net: Network,
               score: np.ndarray) -> np.ndarray:
    """Permutation sorting arcs (a, b) by ascending ``score``, then by the
    tie key."""
    return np.lexsort((_tie_key(a, b, net), score))


def _lowest(score: np.ndarray, m: int) -> np.ndarray:
    """Indices of the scores at most the m-th smallest, ties included: the
    arcs of a prefix of the order by score, at least m of them (all when
    m reaches the count or the m-th smallest is NaN, which sorts last)."""
    if m < score.size:
        cut = np.partition(score, m - 1)[m - 1]
        if not np.isnan(cut):
            return np.flatnonzero(score <= cut)
    return np.arange(score.size)


def _leading(v: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` columns of each row of ``np.argsort(v, axis=1,
    kind="stable")``, ties going to the lower index, from one partition:
    each row's entries below its count-th smallest, then the first of
    those equal to it.  ``v`` holds no NaN."""
    size = v.shape[1]
    if count >= size:
        return np.argsort(v, axis=1, kind="stable")
    cut = np.partition(v, count - 1, axis=1)[:, count - 1:count]
    below, tied = v < cut, v == cut
    fill = count - np.count_nonzero(below, axis=1, keepdims=True)
    keep = below | (tied & (np.cumsum(tied, axis=1) <= fill))
    lead = np.nonzero(keep)[1].reshape(-1, count)  # ascending per row
    rank = np.argsort(np.take_along_axis(v, lead, axis=1), axis=1,
                      kind="stable")
    return np.take_along_axis(lead, rank, axis=1)


def _removable_arcs(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Supra positions (a, b) of the removable edges.  An undirected
    network lists each edge once, as its arc with a <= b: intra-layer
    edges then read i <= j, inter-layer ones run from the lower layer."""
    a, b, _w = editable_arcs(net)
    if not net.directed:
        keep = a <= b
        a, b = a[keep], b[keep]
    return a, b


def rank_insertions(t: PerronTriple, net: Network, top_k: int,
                    candidate_set: str = "all", eps: float = 0.3,
                    recompute: bool = False,
                    tol: float = DEFAULT_TOL) -> list[RankedEdge]:
    """Top insertion/strengthening candidates by first-order sensitivity.

    Candidates are unordered node-layer pairs (multiplex: intra-layer
    pairs only, the coupling being fixed), never a supra self-loop; a
    pair's score is the larger directional sensitivity kappa * y_a * x_b
    of its candidate arcs, as :func:`~perronnet.sensitivity.arc_sensitivity`
    rounds it.  On undirected input (y = x) a pair is scored and shown by
    its one arc with a < b.  candidate_set 'existing' ranks
    the stored arcs (weight strengthening).  'all' and 'absent' rank the
    arcs from the m largest entries of y to the m largest entries of x,
    per layer on a multiplex; 'absent' skips pairs that carry an arc in
    either direction.  m starts at top_k + 1 and doubles until the k-th
    score is strictly above every score outside the window, or the window
    is the whole layer (supra vector).  With ``recompute`` the root of the
    network with the pair's weight raised by eps, finite and positive, in
    both directions is re-solved exactly.
    """
    if top_k < 1:
        raise InputError("top_k must be >= 1")
    if candidate_set not in ("all", "absent", "existing"):
        raise InputError("candidate_set must be 'all', 'absent' or 'existing'")
    if recompute and not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be finite and positive, got {eps}")

    if candidate_set == "existing":
        a, b, score = _strongest(t, net, *editable_arcs(net)[:2], top_k)
    else:
        a, b, score = _strongest_in_window(t, net, top_k,
                                           candidate_set == "absent")
    out = [RankedEdge(edge=EdgeKey.at(p, q, net.N), score=float(s),
                      rho_before=t.rho) for p, q, s in zip(a, b, score)]
    if recompute:
        requests = [_edits(net, r.edge, "increase", eps, mirror=True)
                    for r in out]
        out = _with_roots(net, t, out, requests, tol)
    return out


def _strongest(t: PerronTriple, net: Network, a, b, top_k: int):
    """(a, b, score) arrays of the top_k unordered pairs among the arcs
    (a, b), best first: each pair's best arc, shown as :func:`_shown`
    shows it, ties going to the smaller tie key of the shown arc.  Supra
    self-loops are dropped, and on undirected input every arc with
    a > b."""
    keep = a != b if net.directed else a < b
    a, b = a[keep], b[keep]
    score = arc_sensitivity(t, a, b)
    da, db = _shown(a, b, net)
    order = _tie_order(da, db, net, -score)
    pair = (np.minimum(a, b) * net.dim + np.maximum(a, b))[order]
    _, first = np.unique(pair, return_index=True)
    best = order[np.sort(first)[:top_k]]
    return da[best], db[best], score[best]


def _strongest_in_window(t: PerronTriple, net: Network, top_k: int,
                         absent: bool):
    """:func:`_strongest` over the arcs from the m largest entries of y to
    the m largest entries of x within each block (a layer of a multiplex,
    the whole supra vector otherwise), without the pairs that carry an
    arc when ``absent``.  m doubles from top_k + 1 until the k-th score is
    strictly above the largest score an arc outside the window can have,
    so no outside arc can enter or tie the top k, or until m is the block.
    Each window reads the first m + 1 entries of each block's stable
    descending order of y and of x (:func:`_leading`), x's being y's on
    undirected input, where y is x."""
    blocks = net.L if net.multiplex else 1
    size = net.dim // blocks
    base = np.arange(blocks)[:, None] * size
    if absent:  # the keys a * dim + b of the arcs either way
        ea, eb, _w = editable_arcs(net)
        stored = np.concatenate([ea * net.dim + eb, eb * net.dim + ea])
    m = min(top_k + 1, size)
    while True:
        # entries 0..m of each block's order, m itself bounding the arcs
        # outside the window
        oy = _leading(-t.y.reshape(blocks, size), m + 1) + base
        ox = oy if t.x is t.y else _leading(-t.x.reshape(blocks, size),
                                             m + 1) + base
        a, b = (v.ravel() for v in
                np.broadcast_arrays(oy[:, :m, None], ox[:, None, :m]))
        if absent:
            free = ~np.isin(a * net.dim + b, stored)
            a, b = a[free], b[free]
        a, b, score = _strongest(t, net, a, b, top_k)
        # rounding is monotone, so no arc outside the window scores above
        # the arc from its y-entry m to its x-entry 0, or from 0 to m
        if m == size or (score.size == top_k and score[-1] > max(
                arc_sensitivity(t, oy[:, m], ox[:, 0]).max(),
                arc_sensitivity(t, oy[:, 0], ox[:, m]).max())):
            return a, b, score
        m = min(2 * m, size)


def rank_removals(t: PerronTriple, net: Network, top_k: int,
                  require_connected: bool = False, recompute: bool = False,
                  tol: float = DEFAULT_TOL) -> list[RankedEdge]:
    """Existing edges in increasing sensitivity order: removal candidates.

    Undirected networks report one row per unordered edge; the coupling
    entries of a multiplex are never candidates.  With
    ``require_connected`` the scan walks the sorted list lazily and keeps
    only removals that leave the supra graph strongly connected, after
    refusing a base network that is not.  Only a window of the lowest
    scores is sorted, m = top_k of them and ties, doubled whenever the
    scan runs past it: each window is a prefix of the full order.
    """
    if top_k < 1:
        raise InputError("top_k must be >= 1")
    a, b = _removable_arcs(net)
    if not a.size:
        raise InfeasibleError("network has no removable edges")
    disconnected = "no removal leaves the network strongly connected"
    if require_connected and not is_strongly_connected(net):
        raise InfeasibleError(disconnected)
    score = arc_sensitivity(t, a, b)

    out, requests = [], []
    scanned, m = 0, top_k
    while len(out) < top_k and scanned < a.size:
        window = _lowest(score, m)
        order = window[_tie_order(a[window], b[window], net, score[window])]
        for p in order[scanned:]:
            if len(out) >= top_k:
                break
            e = EdgeKey.at(a[p], b[p], net.N)
            update = (_edits(net, e, "remove") if require_connected or recompute
                      else None)
            connected = None
            if require_connected:
                connected = is_strongly_connected(net, update)
                if not connected:
                    continue
            out.append(RankedEdge(edge=e, score=float(score[p]),
                                  rho_before=t.rho, connected_after=connected))
            requests.append(update)
        scanned, m = order.size, 2 * order.size
    if require_connected and not out:
        raise InfeasibleError(disconnected)
    if recompute:
        out = _with_roots(net, t, out, requests, tol)
    return out


def _edits(net: Network, e: EdgeKey, mode: str, eps: float = 0.0,
           mirror: bool = False):
    """The supra update ``(rows, cols, deltas)`` of one request: edge ``e``
    raised by eps ('increase'), lowered by eps ('decrease') or zeroed
    ('remove'), and, when mirroring, its reverse arc too.

    Undirected networks mirror every edit already (see edge_update).
    A decrease or removal needs an existing edge, and a decrease an eps
    below its weight.  On directed networks a mirrored increase touches
    both arcs; a mirrored decrease or removal touches the reverse arc only
    where that arc exists, and a decrease must stay below its weight.
    Raises InputError when a check fails.
    """
    if mode == "increase":
        delta = eps
    else:
        w = net.weight(e)
        if w <= 0:
            raise InputError(f"edge {e} does not exist")
        if mode == "decrease" and eps >= w:
            raise InputError(f"eps={eps} not below weight {w} of {e}")
        delta = -eps if mode == "decrease" else -w
    update = edge_update(net, e, delta)
    r = e.reversed()
    if mirror and net.directed and r != e:
        w_rev = net.weight(r)
        if mode == "remove":
            delta = -w_rev
        elif delta < 0 and w_rev == 0:  # no reverse arc to lower
            delta = 0.0
        elif delta < 0 and -delta >= w_rev:
            raise InputError(f"mirrored decrease {-delta} not below reverse "
                             f"weight {w_rev} of {r}")
        if delta:
            update = tuple(np.concatenate(v) for v in
                           zip(update, edge_update(net, r, delta)))
    return update


def _warm_start(t: PerronTriple):
    """The base Perron pair as the start of a re-solve when both vectors
    are strictly positive; (None, None), a cold start, when a sink or
    source node zeroes an entry."""
    if t.x.min() > 0 and t.y.min() > 0:
        return t.x, t.y
    return None, None


def _exact_roots(net: Network, t: PerronTriple, requests, tol: float) -> list:
    """Exact Perron root of ``net`` after each supra update in
    ``requests``, or the error that flags the row: an InputError in place
    of a request's update as it is, or the InputError or ConvergenceError
    its solve raised.

    All are solved at once by :func:`~perronnet.eigen.perron_block` on
    the base operator; a row the block pass does not accept is solved
    alone by ``perron`` on the network :func:`apply_update` makes of its
    update.  Both start from :func:`_warm_start`.
    """
    roots = list(requests)
    todo = [i for i, update in enumerate(requests)
            if not isinstance(update, InputError)]
    if not todo:
        return roots
    x0, y0 = _warm_start(t)
    block = perron_block(supra_operator(net), [requests[i] for i in todo],
                         tol=tol, x0=x0, y0=y0)
    for i, rho in zip(todo, block):
        if rho is None:
            try:
                rho = perron(supra_operator(apply_update(net, requests[i])),
                             tol=tol, x0=x0, y0=y0).rho
            except (InputError, ConvergenceError) as exc:
                roots[i] = exc
                continue
        roots[i] = rho
    return roots


def _with_roots(net, t, ranked, requests, tol) -> list[RankedEdge]:
    """``ranked`` with each row's rho_after re-solved exactly from its
    supra update; a failed solve raises."""
    out = []
    for r, rho in zip(ranked, _exact_roots(net, t, requests, tol)):
        if isinstance(rho, Exception):
            raise rho
        out.append(replace(r, rho_after=rho))
    return out


def perturbation_experiment(net: Network, edges: list[EdgeKey], eps: float,
                            mode: str, baseline_count: int | None = None,
                            seed: int = 42, mirror: bool = True,
                            tol: float = DEFAULT_TOL,
                            triple: PerronTriple | None = None) -> list[ExperimentRow]:
    """Exact re-solved root shifts for a list of edge perturbations.

    mode 'increase' raises weights by eps (creating absent edges),
    'decrease' lowers existing weights by eps (eps must stay below the
    weight), 'remove' zeroes them; eps must be finite and positive in
    every mode.  Each row carries the first-order score and is paired
    with a seeded random baseline edge given the same treatment.  Rows
    whose precondition fails, or whose re-solve does not converge, are
    flagged, not dropped.  ``triple`` is the Perron triple of ``net``
    when the caller has already solved it; otherwise it is solved here
    at ``tol``.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be finite and positive, got {eps}")
    if mode not in ("increase", "decrease", "remove"):
        raise InputError("mode must be 'increase', 'decrease' or 'remove'")
    t = triple if triple is not None else perron(supra_operator(net), tol=tol)
    if baseline_count is None:
        baseline_count = len(edges)
    baselines = _draw_baselines(t, net, mode, baseline_count, seed)

    scores = [sensitivity_entry(t, e, net.N) for e in edges]
    paired = baselines[:len(edges)]

    def edits_or_error(e):
        try:
            return _edits(net, e, mode, eps, mirror)
        except InputError as exc:
            return exc

    # every row, then every baseline: its root, or the error that flags it
    results = _exact_roots(net, t, [edits_or_error(e) for e in edges + paired],
                           tol)
    unpaired = [None] * (len(edges) - len(paired))
    return [ExperimentRow(edge=e, score=s, rho_new=_root_or_none(rho),
                          baseline_edge=b, baseline_rho_new=_root_or_none(b_rho),
                          error=_error_or_none(rho),
                          baseline_error=_error_or_none(b_rho))
            for e, s, rho, b, b_rho in zip(edges, scores, results,
                                           paired + unpaired,
                                           results[len(edges):] + unpaired)]


def _root_or_none(result):
    return result if isinstance(result, float) else None


def _error_or_none(result):
    return str(result) if isinstance(result, Exception) else None


def _draw_baselines(t: PerronTriple, net: Network, mode: str, count: int,
                    seed: int) -> list[EdgeKey]:
    """Seeded uniform draw of distinct baseline edges for the mode.

    Increase mode samples uniformly over all unordered candidate
    position pairs (multiplex: intra-layer only) without enumerating
    them; decrease/remove sample from the existing edges.
    """
    if count <= 0:
        return []
    rng = np.random.default_rng(seed)

    if mode != "increase":
        a, b = _removable_arcs(net)
        if not a.size:
            return []
        # the arcs at the drawn ranks of the tie-key order, which the
        # unique keys fix without sorting them all
        picks = rng.choice(a.size, size=min(count, a.size), replace=False)
        arcs = np.argpartition(_tie_key(a, b, net), picks)[picks]
        return [EdgeKey.at(a[p], b[p], net.N) for p in arcs]

    if net.dim < 2 or (net.multiplex and net.N < 2):
        return []
    picked: list[EdgeKey] = []
    seen = set()
    guard = 0
    while len(picked) < count and guard < 100 * count + 1000:
        guard += 1
        if net.multiplex:  # two distinct nodes of one layer
            base = (int(rng.integers(1, net.L + 1)) - 1) * net.N
            a, b = (base + int(v) for v in
                    rng.choice(net.N, size=2, replace=False))
        else:
            a, b = (int(v) for v in rng.integers(0, net.dim, size=2))
            if a == b:
                continue
        e = EdgeKey.at(*_shown(a, b, net), net.N)  # as ranked
        pair = e.pair_key()
        if pair in seen:
            continue
        seen.add(pair)
        picked.append(e)
    return picked
