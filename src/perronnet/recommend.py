"""Edge ranking by Perron-root sensitivity and perturbation experiments.

An edge insertion between node-layer positions a and b has first-order
impact proportional to y_a * x_b, so the best candidates pair the
largest entries of y with the largest entries of x.  Candidates are
ranked as unordered position pairs scored by the larger of the two
directional products, found lazily with a frontier heap over the two
sorted vectors instead of forming all N^2 L^2 products.  Existing
edges (removal candidates, strengthening candidates and the removal
baseline pool) are scored and ordered with array operations over the
supra-indexed arc arrays of :func:`~perronnet.model.editable_arcs`;
an ``EdgeKey`` is built only for a row that is emitted or checked.
Removal candidates are scanned in increasing score order, optionally
skipping any whose removal disconnects the supra graph.

The experiment harness re-solves the eigenproblem exactly for each
perturbed network (the first-order score is only an estimate) and pairs
every row with a seeded random baseline edge treated the same way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .eigen import PerronTriple, perron
from .errors import ConvergenceError, InfeasibleError, InputError
# perfbench/spans.py times perron, supra_operator, is_strongly_connected,
# apply_edge_delta and sensitivity_entry by replacing these names in this
# module, so they stay imported by name
from .model import (EdgeKey, MultiplexNetwork, Network, apply_edge_delta,
                    editable_arcs, is_strongly_connected, supra_operator,
                    unflatten_index)
from .sensitivity import sensitivity_entry


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


def _tie_key(e: EdgeKey):
    return (e.k, e.l, e.i, e.j)


def _canonical_display(e: EdgeKey) -> EdgeKey:
    """Intra-layer pairs are displayed with i < j; inter-layer pairs keep
    the orientation that achieved the pair score."""
    if e.k == e.l and e.i > e.j:
        return EdgeKey(e.j, e.i, e.k, e.l)
    return e


def _has_any_arc(net: Network, e: EdgeKey) -> bool:
    return net.weight(e) > 0 or net.weight(e.reversed()) > 0


def _edge_at(a, b, N: int) -> EdgeKey:
    """EdgeKey of the arc from supra position a to supra position b."""
    i, k = unflatten_index(a, N)
    j, l = unflatten_index(b, N)
    return EdgeKey(i, j, k, l)


def _tie_order(a: np.ndarray, b: np.ndarray, N: int, score=None) -> np.ndarray:
    """Permutation sorting arcs (a, b) by ascending ``score`` when given,
    then by the tie key (k, l, i, j)."""
    keys = (b % N, a % N, b // N, a // N)
    return np.lexsort(keys if score is None else keys + (score,))


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
                    recompute: bool = False, tol: float = 1e-10) -> list[RankedEdge]:
    """Top insertion/strengthening candidates by first-order sensitivity.

    Candidates are unordered node-layer pairs (multiplex: intra-layer
    pairs only, the coupling being fixed); a pair's score is the larger
    directional sensitivity kappa * y_a * x_b.  candidate_set 'absent'
    restricts to pairs carrying no arc in either direction; 'existing'
    ranks only stored edges (weight strengthening), scoring just the arc
    directions that actually exist.  With ``recompute`` the root of the
    network with the pair's weight raised by eps in both directions is
    re-solved exactly.
    """
    if top_k < 1:
        raise InputError("top_k must be >= 1")
    if candidate_set not in ("all", "absent", "existing"):
        raise InputError("candidate_set must be 'all', 'absent' or 'existing'")

    if candidate_set == "existing":
        ranked = _strongest_existing(t, net, top_k)
    else:
        found: dict = {}
        for a, b, product in _descending_products(t, net):
            if len(found) >= top_k:
                kth = sorted(found.values(),
                             key=lambda se: (-se[0], _tie_key(se[1])))
                kth_score = kth[top_k - 1][0]
                if t.kappa * product < kth_score:
                    break
            e = _edge_at(a, b, net.N)
            pair = e.pair_key()
            if pair in found:
                continue
            if candidate_set == "absent" and _has_any_arc(net, e):
                continue
            found[pair] = (t.kappa * product, _canonical_display(e))
        ranked = sorted(found.values(),
                        key=lambda se: (-se[0], _tie_key(se[1])))[:top_k]

    out = []
    for score, e in ranked:
        rho_after = None
        if recompute:
            mutated = _shift_group(net, e, eps, mirror=True)
            # warm start: the perturbed Perron pair stays near the base one
            rho_after = perron(supra_operator(mutated), tol=tol,
                               x0=t.x, y0=t.y).rho
        out.append(RankedEdge(edge=e, score=score, rho_before=t.rho,
                              rho_after=rho_after))
    return out


def _strongest_existing(t: PerronTriple, net: Network, top_k: int):
    """Top (score, display edge) over the stored arcs, one per unordered
    pair: the pair's best arc direction, ties going to the smaller tie key
    of the displayed edge."""
    N = net.N
    a, b, _w = editable_arcs(net)
    score = t.kappa * t.y[a] * t.x[b]
    # intra-layer pairs display with i <= j
    flip = (a // N == b // N) & (a > b)
    da, db = np.where(flip, b, a), np.where(flip, a, b)
    order = _tie_order(da, db, N, -score)
    lo, hi = np.minimum(a, b).astype(np.int64), np.maximum(a, b)
    pair = (lo * net.dim + hi)[order]
    _, first = np.unique(pair, return_index=True)
    best = order[np.sort(first)[:top_k]]
    return [(float(score[p]), _edge_at(da[p], db[p], N)) for p in best]


def _descending_products(t: PerronTriple, net: Network):
    """Yield (a, b, y_a * x_b) over admissible positions in descending
    product order via a frontier heap on the two sorted vectors.

    Supra self-loops (a == b) are skipped; for multiplex networks only
    intra-layer position pairs are admissible.
    """
    multiplex = isinstance(net, MultiplexNetwork)
    N = net.N

    def frontier(y_idx, x_idx):
        # classic top-product enumeration of two descending arrays
        heap = [(-t.y[y_idx[0]] * t.x[x_idx[0]], 0, 0)]
        seen = {(0, 0)}
        while heap:
            negp, p, q = heapq.heappop(heap)
            yield y_idx[p], x_idx[q], -negp
            for dp, dq in ((1, 0), (0, 1)):
                pp, qq = p + dp, q + dq
                if pp < len(y_idx) and qq < len(x_idx) and (pp, qq) not in seen:
                    seen.add((pp, qq))
                    heapq.heappush(heap, (-t.y[y_idx[pp]] * t.x[x_idx[qq]], pp, qq))

    if not multiplex:
        order_y = np.argsort(-t.y, kind="stable")
        order_x = np.argsort(-t.x, kind="stable")
        for a, b, p in frontier(order_y, order_x):
            if a != b:
                yield a, b, p
        return

    # one frontier per layer, merged by current best product
    streams = []
    for l in range(net.L):
        sel = np.arange(l * N, (l + 1) * N)
        oy = sel[np.argsort(-t.y[sel], kind="stable")]
        ox = sel[np.argsort(-t.x[sel], kind="stable")]
        streams.append(frontier(oy, ox))
    merge = []
    for li, st in enumerate(streams):
        a, b, p = next(st)
        heapq.heappush(merge, (-p, li, a, b))
    while merge:
        negp, li, a, b = heapq.heappop(merge)
        if a != b:
            yield a, b, -negp
        nxt = next(streams[li], None)
        if nxt is not None:
            heapq.heappush(merge, (-nxt[2], li, nxt[0], nxt[1]))


def rank_removals(t: PerronTriple, net: Network, top_k: int,
                  require_connected: bool = False, recompute: bool = False,
                  tol: float = 1e-10) -> list[RankedEdge]:
    """Existing edges in increasing sensitivity order: removal candidates.

    Undirected networks report one row per unordered edge; the coupling
    entries of a multiplex are never candidates.  With
    ``require_connected`` the scan walks the sorted list lazily and keeps
    only removals that leave the supra graph strongly connected.
    """
    if top_k < 1:
        raise InputError("top_k must be >= 1")
    a, b = _removable_arcs(net)
    if not a.size:
        raise InfeasibleError("network has no removable edges")
    score = t.kappa * t.y[a] * t.x[b]
    order = _tie_order(a, b, net.N, score)

    out = []
    for p in order:
        if len(out) >= top_k:
            break
        e = _edge_at(a[p], b[p], net.N)
        connected = None
        rho_after = None
        if require_connected or recompute:
            mutated = _remove_group(net, e, mirror=not net.directed)
            if require_connected:
                connected = is_strongly_connected(mutated)
                if not connected:
                    continue
            if recompute:
                rho_after = perron(supra_operator(mutated), tol=tol,
                                   x0=t.x, y0=t.y).rho
        out.append(RankedEdge(edge=e, score=float(score[p]), rho_before=t.rho,
                              rho_after=rho_after, connected_after=connected))
    if require_connected and not out:
        raise InfeasibleError("no removal leaves the network strongly connected")
    return out


def _shift_group(net: Network, e: EdgeKey, delta: float, mirror: bool) -> Network:
    """Shift an edge weight by delta and, when mirroring, its reverse arc.

    Undirected networks mirror inside apply_edge_delta already.  On
    directed networks a positive mirrored delta touches both arcs; a
    negative one touches the reverse arc only where that arc exists, and
    must stay below its weight.
    """
    mutated = apply_edge_delta(net, e, delta)
    if mirror and net.directed:
        r = e.reversed()
        if r != e:
            w_rev = net.weight(r)
            if delta > 0 or (w_rev > 0 and -delta < w_rev):
                mutated = apply_edge_delta(mutated, r, delta)
            elif w_rev > 0:
                raise InputError(
                    f"mirrored decrease {-delta} not below reverse weight "
                    f"{w_rev} of {r}")
    return mutated


def _remove_group(net: Network, e: EdgeKey, mirror: bool) -> Network:
    """Remove an edge entirely; when mirroring, the reverse arc too."""
    mutated = apply_edge_delta(net, e, -net.weight(e))
    if mirror and net.directed:
        r = e.reversed()
        if r != e:
            w_rev = net.weight(r)
            if w_rev > 0:
                mutated = apply_edge_delta(mutated, r, -w_rev)
    return mutated


def perturbation_experiment(net: Network, edges: list[EdgeKey], eps: float,
                            mode: str, baseline_count: int | None = None,
                            seed: int = 42, mirror: bool = True,
                            tol: float = 1e-10,
                            triple: PerronTriple | None = None) -> list[ExperimentRow]:
    """Exact re-solved root shifts for a list of edge perturbations.

    mode 'increase' raises weights by eps (creating absent edges),
    'decrease' lowers existing weights by eps (eps must stay below the
    weight), 'remove' zeroes them.  Each row carries the first-order
    score and is paired with a seeded random baseline edge given the
    same treatment.  Rows whose precondition fails, or whose re-solve
    does not converge, are flagged, not dropped.  ``triple`` is the
    Perron triple of ``net`` when the caller has already solved it;
    otherwise it is solved here at ``tol``.
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    if mode not in ("increase", "decrease", "remove"):
        raise InputError("mode must be 'increase', 'decrease' or 'remove'")
    t = triple if triple is not None else perron(supra_operator(net), tol=tol)
    if baseline_count is None:
        baseline_count = len(edges)
    baselines = _draw_baselines(t, net, mode, baseline_count, seed)

    rows = []
    for idx, e in enumerate(edges):
        score = sensitivity_entry(t, e, net.N)
        rho_new, err = _resolve_row(net, e, eps, mode, mirror, tol, t)
        b_edge = baselines[idx] if idx < len(baselines) else None
        b_rho = None
        if b_edge is not None:
            b_rho, b_err = _resolve_row(net, b_edge, eps, mode, mirror, tol, t)
            if b_err is not None:
                b_rho = None
        rows.append(ExperimentRow(edge=e, score=score, rho_new=rho_new,
                                  baseline_edge=b_edge, baseline_rho_new=b_rho,
                                  error=err))
    return rows


def _resolve_row(net, e, eps, mode, mirror, tol, t):
    try:
        e.validate(net.N, net.L)
        if mode == "increase":
            mutated = _shift_group(net, e, eps, mirror)
        else:
            w = net.weight(e)
            if w <= 0:
                return None, f"edge {e} does not exist"
            if mode == "decrease":
                if eps >= w:
                    return None, f"eps={eps} not below weight {w} of {e}"
                mutated = _shift_group(net, e, -eps, mirror)
            else:
                mutated = _remove_group(net, e, mirror)
        # warm start from the unperturbed Perron pair
        return perron(supra_operator(mutated), tol=tol, x0=t.x, y0=t.y).rho, None
    except (InputError, ConvergenceError) as exc:
        return None, str(exc)


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
        pool = _tie_order(a, b, net.N)
        picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
        return [_edge_at(a[pool[p]], b[pool[p]], net.N) for p in picks]

    if net.dim < 2 or (isinstance(net, MultiplexNetwork) and net.N < 2):
        return []
    picked: list[EdgeKey] = []
    seen = set()
    guard = 0
    while len(picked) < count and guard < 100 * count + 1000:
        guard += 1
        if isinstance(net, MultiplexNetwork):
            l = int(rng.integers(1, net.L + 1))
            i, j = (int(v) + 1 for v in
                    np.sort(rng.choice(net.N, size=2, replace=False)))
            e = EdgeKey(i, j, l, l)
        else:
            a, b = (int(v) for v in rng.integers(0, net.dim, size=2))
            if a == b:
                continue
            e = _canonical_display(_edge_at(a, b, net.N))
        pair = e.pair_key()
        if pair in seen:
            continue
        seen.add(pair)
        picked.append(e)
    return picked
