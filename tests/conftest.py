"""Shared fixtures, seeded instance generators, and independent oracles.

The oracles here deliberately avoid the library's own code paths: dense
eigendecompositions, explicit BFS reachability, and brute-force product
enumeration are used to cross-check the iterative and lazy
implementations.
"""

import os
import subprocess
import sys
from pathlib import Path

# one OpenBLAS thread, set before numpy is first imported, as CI runs the
# suite: test_c5's thread-time budget then counts all BLAS work and no
# helper thread's spinning.  A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest
import scipy.sparse as sp

import perronnet
from perronnet import EdgeKey, Network, load_demo_network

DATA_DIR = os.environ.get("PERRON_DATA_DIR", "")

SCOTLAND_FILE = "scotland_yard.edges"
AIRLINES_FILE = "european_airlines.edges"
GENERAL160_FILE = "general_160.edges"


def dataset_path(name):
    if not DATA_DIR:
        return None
    p = Path(DATA_DIR) / name
    return p if p.exists() else None


def needs_dataset(name):
    return pytest.mark.skipif(
        dataset_path(name) is None,
        reason=f"dataset {name} not present under $PERRON_DATA_DIR "
               "(manual download; see README)")


def run_fresh(code: str, **env) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this
    checkout's package, with ``env`` added to the environment."""
    src = str(Path(perronnet.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **env,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout


@pytest.fixture(scope="session")
def demo_net():
    return load_demo_network()


# ---------------------------------------------------------------------------
# constructors

def multilayer_from_dense(B, N, L, directed=True):
    """Build a general multilayer network from a dense supra matrix."""
    B = np.asarray(B, dtype=float)
    blocks = [[sp.csr_matrix(B[k * N:(k + 1) * N, l * N:(l + 1) * N])
               for l in range(L)] for k in range(L)]
    return Network(N, L, sp.bmat(blocks, format="csr"), directed)


def multiplex_from_layers(layers, gamma, directed=False):
    mats = tuple(sp.csr_matrix(np.asarray(A, dtype=float)) for A in layers)
    N = mats[0].shape[0]
    return Network(N, len(mats), sp.block_diag(mats, format="csr"), directed,
                   gamma=float(gamma))


# ---------------------------------------------------------------------------
# seeded random instances (irreducible by construction)

def random_general_dense(rng, n, density=0.3):
    """Random nonnegative irreducible n x n matrix: sparse positive entries
    plus a full cycle so every node reaches every other."""
    B = (rng.random((n, n)) < density) * rng.uniform(0.2, 1.2, (n, n))
    for a in range(n):
        B[a, (a + 1) % n] = rng.uniform(0.5, 1.5)
    np.fill_diagonal(B, 0.0)
    return B


def random_general_net(seed, N, L, density=0.3):
    rng = np.random.default_rng(seed)
    B = random_general_dense(rng, N * L, density)
    return multilayer_from_dense(B, N, L, directed=True), B


def undirected_general_net(seed, N, L):
    rng = np.random.default_rng(seed)
    B = np.triu(random_general_dense(rng, N * L), 1)
    B = B + B.T  # the cycle's arcs a -> a + 1 keep it connected
    return multilayer_from_dense(B, N, L, directed=False), B


def random_multiplex_net(seed, N, L, gamma=1.0, density=0.3, directed=False):
    """Random multiplex; a ring in layer 1 plus gamma > 0 coupling keeps the
    supra graph strongly connected."""
    rng = np.random.default_rng(seed)
    layers = []
    for l in range(L):
        A = (rng.random((N, N)) < density) * rng.uniform(0.2, 1.2, (N, N))
        np.fill_diagonal(A, 0.0)
        if not directed:
            A = np.triu(A, 1)
            A = A + A.T
        if l == 0 and N > 1:
            for a in range(N):
                w = rng.uniform(0.5, 1.5)
                A[a, (a + 1) % N] = w
                if not directed:
                    A[(a + 1) % N, a] = w
        layers.append(A)
    assert gamma > 0 or L == 1
    return multiplex_from_layers(layers, gamma, directed=directed)


def airlines_shaped():
    """An undirected multiplex shaped like the European airlines one, N=417,
    L=37, gamma=1: 20-200 random edges per layer, and a ring through every
    node in layer 1.  Its gap ratio |lambda_2| / rho is about 0.99."""
    rng = np.random.default_rng(2024)
    N, L = 417, 37
    layers = []
    for layer in range(L):
        m = int(rng.integers(20, 201))
        seen = set()
        if layer == 0:
            perm = rng.permutation(N)
            seen = {(min(a, b), max(a, b))
                    for a, b in zip(perm, np.roll(perm, -1))}
        while len(seen) < m + (N if layer == 0 else 0):
            a, b = rng.integers(0, N, 2)
            if a != b:
                seen.add((min(a, b), max(a, b)))
        a, b = np.array(sorted(seen)).T
        A = sp.csr_matrix((np.ones(a.size), (a, b)), shape=(N, N))
        layers.append(A + A.T)
    return Network(N, L, sp.block_diag(layers, format="csr"), False,
                   gamma=1.0)


def write_multiplex(net, path):
    """Write the undirected multiplex ``net`` as a multiplex edge file,
    one 'layer i j weight' line per edge with i < j."""
    A = net.arcs.tocoo()
    layer, i = np.divmod(A.row, net.N)
    j = A.col % net.N
    lines = [f"{l + 1} {a + 1} {b + 1} {w!r}" for l, a, b, w in
             sorted(zip(layer.tolist(), i.tolist(), j.tolist(),
                        A.data.tolist())) if a < b]
    path.write_text(f"{net.N} {net.L}\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# independent oracles

def supra_reference(net):
    """Dense supra matrix of ``net`` from its dense stored arcs (a
    multiplex's layers) plus gamma * kron(ones - I_L, I_N), built without
    ``Network.supra``."""
    B = net.arcs.toarray()
    if net.multiplex:
        L, N = net.L, net.N
        B = B + net.gamma * np.kron(np.ones((L, L)) - np.eye(L), np.eye(N))
    return B


def dense_perron_pair(B):
    """Perron triple via numpy's full eigensolver, selecting the real
    positive eigenvalue on the spectral circle.  Independent of the
    package's solver module."""
    B = np.asarray(B, dtype=float)

    def side(M):
        w, V = np.linalg.eig(M)
        near = np.abs(w) >= (1 - 1e-9) * np.abs(w).max()
        idx = np.flatnonzero(near)
        k = idx[np.argmax(w[idx].real)]
        v = V[:, k].real
        v = v * np.sign(v[np.argmax(np.abs(v))])
        return float(w[k].real), v / np.linalg.norm(v)

    rho, x = side(B)
    _, y = side(B.T)
    return rho, x, y


def dense_rho(B):
    return dense_perron_pair(np.asarray(B, dtype=float))[0]


def bfs_strongly_connected(B):
    """All-pairs reachability check via two BFS passes on the dense pattern."""
    B = np.asarray(B)
    n = B.shape[0]
    if n == 1:
        return True

    def covers(adj):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for b in np.flatnonzero(adj[a]):
                    if b not in seen:
                        seen.add(int(b))
                        nxt.append(int(b))
            frontier = nxt
        return len(seen) == n

    return covers(B > 0) and covers(B.T > 0)


def condition_of(x, y):
    """kappa = 1 / (y^T x), with y^T x summed as ``perron`` sums it, in
    numpy's einsum loop: a BLAS dot may round the last bit the other way,
    and the ranking oracles below break exact ties by kappa's bits."""
    return 1.0 / float(np.einsum("i,i->", y, x))


def brute_insertion_ranking(rho, x, y, net, top_k, candidate_set="all"):
    """Enumerate every candidate pair's score directly from the dense outer
    product; mirrors the documented pair semantics and the documented
    rounding (kappa * y_a) * x_b, as brute_removal_ranking does, so that
    arcs whose scores tie in exact arithmetic fall to the tie key."""
    kappa = condition_of(x, y)
    N, L = net.N, net.L
    n = N * L
    S = np.outer(kappa * y, x)
    best = {}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            # undirected: each pair is scored and shown by its arc with a < b
            if not net.directed and a > b:
                continue
            i, k = a % N + 1, a // N + 1
            j, l = b % N + 1, b // N + 1
            if net.multiplex and k != l:
                continue
            e = EdgeKey(i, j, k, l)
            has_arc = net.weight(e) > 0 or net.weight(e.reversed()) > 0
            if candidate_set == "absent" and has_arc:
                continue
            # strengthening considers stored arc directions only
            if candidate_set == "existing" and net.weight(e) == 0:
                continue
            if e.k == e.l and e.i > e.j:
                disp = EdgeKey(e.j, e.i, e.k, e.l)
            else:
                disp = e
            key = e.pair_key()
            val = float(S[a, b])
            cur = best.get(key)
            if (cur is None or val > cur[0]
                    or (val == cur[0] and _tie(disp) < _tie(cur[1]))):
                best[key] = (val, disp)
    ranked = sorted(best.values(), key=lambda sv: (-sv[0], _tie(sv[1])))
    return ranked[:top_k]


def brute_removal_ranking(rho, x, y, net, top_k):
    kappa = condition_of(x, y)
    N = net.N
    rows = []
    seen = set()
    for e, w in net.edges():
        if not net.directed:
            if e.pair_key() in seen:
                continue
            seen.add(e.pair_key())
            if e.k == e.l and e.i > e.j:
                e = EdgeKey(e.j, e.i, e.k, e.l)
        a = N * (e.k - 1) + e.i - 1
        b = N * (e.l - 1) + e.j - 1
        rows.append((kappa * float(y[a]) * float(x[b]), e))
    rows.sort(key=lambda se: (se[0], _tie(se[1])))
    return rows[:top_k]


def _tie(e):
    return (e.k, e.l, e.i, e.j)
