"""Seeded input generator for the perronnet benchmark.

Each workload is a set of PARTS random multilayer networks made from the
seed alone: the same (workload, seed, part) always gives the same arrays
and the same bytes on disk.  Every network carries a ring through a random
permutation of its nodes, so the supra graph is strongly connected, and
holds no duplicate edge and no self-loop.  Weights are multiples of
1/64 in [0.5, 1.5], exactly representable, so the file and the arrays
hold the same numbers.

Run alone to write the edge files:

    python3 perfbench/gen.py --seed 7 --out perfbench/_work/inputs
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# name -> make-up.  'degree' is the mean degree per layer of an undirected
# multiplex; 'arcs' the arc count of a directed general network, of which
# 'inter' is the share running between two different layers.
WORKLOADS = {
    "mpx-query": dict(kind="multiplex", N=2000, L=4, degree=6),
    "general-remove": dict(kind="multilayer", N=1000, L=4, arcs=24000, inter=0.25),
}
# networks per (workload, seed); a run cycles through them, so that one
# seed's graph does not set a run's figures alone
PARTS = 4


@dataclass(frozen=True)
class Instance:
    """A generated network as arrays of 0-based supra positions.

    Multiplex: one entry per undirected intra-layer edge (src < dst in
    node order), coupling gamma implicit.  General: one entry per arc.
    """

    kind: str  # 'multiplex' | 'multilayer'
    N: int
    L: int
    gamma: float
    directed: bool
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @property
    def dim(self) -> int:
        return self.N * self.L

    @property
    def lines(self) -> int:
        return int(self.src.size)


def _distinct_pairs(n, need, fixed_keys, draw, canonical):
    """Draw ``need`` distinct new keys a*n+b (a != b) not among ``fixed_keys``."""
    keys = fixed_keys
    while keys.size < fixed_keys.size + need:
        a, b = draw(2 * need)
        ok = a != b
        a, b = a[ok], b[ok]
        if canonical:
            a, b = np.minimum(a, b), np.maximum(a, b)
        keys = np.concatenate([keys, a * n + b])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    return keys[fixed_keys.size:fixed_keys.size + need]


def _weights(rng, m):
    return rng.integers(32, 97, size=m) / 64.0


def _multiplex(rng, N, L, degree):
    per_layer = N * degree // 2
    src, dst = [], []
    for l in range(L):
        perm = rng.permutation(N)
        a, b = perm, np.roll(perm, -1)
        ring = np.minimum(a, b) * N + np.maximum(a, b)
        extra = _distinct_pairs(
            N, per_layer - N, ring,
            lambda m: (rng.integers(0, N, m), rng.integers(0, N, m)), True)
        keys = np.concatenate([ring, extra])
        src.append(l * N + keys // N)
        dst.append(l * N + keys % N)
    src, dst = np.concatenate(src), np.concatenate(dst)
    return Instance("multiplex", N, L, 1.0, False, src, dst,
                    _weights(rng, src.size))


def _multilayer(rng, N, L, arcs, inter):
    n = N * L
    perm = rng.permutation(n)
    ring = perm * n + np.roll(perm, -1)

    def draw(m):
        k = rng.integers(0, L, m)
        shift = rng.integers(1, L, m)
        l = np.where(rng.random(m) < inter, (k + shift) % L, k)
        return k * N + rng.integers(0, N, m), l * N + rng.integers(0, N, m)

    keys = np.concatenate([ring, _distinct_pairs(n, arcs - n, ring, draw, False)])
    return Instance("multilayer", N, L, 0.0, True, keys // n, keys % n,
                    _weights(rng, keys.size))


def generate(workload: str, seed: int, part: int) -> Instance:
    spec = dict(WORKLOADS[workload])
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload), part])
    kind = spec.pop("kind")
    return _multiplex(rng, **spec) if kind == "multiplex" else _multilayer(rng, **spec)


def write_edges(inst: Instance, path: Path) -> None:
    """Write the instance in the perronnet edge-list format (1-based ids)."""
    N = inst.N
    k, i = np.divmod(inst.src, N)
    l, j = np.divmod(inst.dst, N)
    w = [repr(float(x)) for x in inst.weight]
    if inst.kind == "multiplex":
        body = [f"{a} {b} {c} {d}" for a, b, c, d in
                zip((k + 1).tolist(), (i + 1).tolist(), (j + 1).tolist(), w)]
    else:
        body = [f"{a} {b} {c} {d} {e}" for a, b, c, d, e in
                zip((k + 1).tolist(), (i + 1).tolist(), (l + 1).tolist(),
                    (j + 1).tolist(), w)]
    path.write_text(f"{inst.N} {inst.L}\n" + "\n".join(body) + "\n",
                    encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        for part in range(PARTS):
            write_edges(generate(name, args.seed, part),
                        args.out / f"{name}-{part}.edges")


if __name__ == "__main__":
    main()
