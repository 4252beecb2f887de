"""Seeded fuzz test of the edge-file loaders against a per-line reference.

The reference below is the straightforward loader: one pass over the
data lines, one dict per layer or block, every check made line by line.
Each generated file mixes valid lines with a few defects, or spellings
that only Python's int()/float() accept; the loaders must accept exactly
the files the reference accepts, fail with the same message on the same
line otherwise, and store bit-identical CSR arrays.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import perronnet.model as model
from perronnet.errors import ParseError
from perronnet.model import (MultilayerNetwork, MultiplexNetwork,
                             load_multilayer, load_multiplex)


# ---------------------------------------------------------------------------
# reference parser

def _ref_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split()


def _ref_header(lines, path):
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
    return N, L


def _ref_weight(tok, path, lineno):
    try:
        w = float(tok)
    except ValueError:
        raise ParseError(f"bad weight {tok!r}", path, lineno) from None
    if not 0 < w < math.inf:
        raise ParseError(f"weight must be positive and finite, got {w}",
                         path, lineno)
    return w


def _ref_range(val, hi, what, path, lineno):
    if not (1 <= val <= hi):
        raise ParseError(f"{what} {val} out of range 1..{hi}", path, lineno)


def _ref_csr(d, N):
    if not d:
        return sp.csr_matrix((N, N))
    rows, cols, vals = zip(*((r, c, w) for (r, c), w in d.items()))
    return sp.csr_matrix((vals, (rows, cols)), shape=(N, N))


def ref_load_multiplex(path, gamma, directed=False):
    path = Path(path)
    lines = _ref_lines(path)
    N, L = _ref_header(lines, path)
    entries = [dict() for _ in range(L)]
    for lineno, tokens in lines:
        if len(tokens) != 4:
            raise ParseError("expected 'layer i j weight'", path, lineno)
        try:
            l, i, j = (int(t) for t in tokens[:3])
        except ValueError as exc:
            raise ParseError(f"bad index: {exc}", path, lineno) from None
        _ref_range(l, L, "layer id", path, lineno)
        _ref_range(i, N, "node id", path, lineno)
        _ref_range(j, N, "node id", path, lineno)
        if i == j:
            raise ParseError("self-loops are not allowed in multiplex layers",
                             path, lineno)
        w = _ref_weight(tokens[3], path, lineno)
        keys = [(i - 1, j - 1)] if directed else [(i - 1, j - 1), (j - 1, i - 1)]
        for key in keys:
            if key in entries[l - 1]:
                raise ParseError(
                    f"duplicate edge ({i},{j}) in layer {l}", path, lineno)
            entries[l - 1][key] = w
    layers = tuple(_ref_csr(d, N) for d in entries)
    return MultiplexNetwork(N=N, L=L, layers=layers, gamma=float(gamma),
                            directed=directed)


def ref_load_multilayer(path, directed=False):
    path = Path(path)
    lines = _ref_lines(path)
    N, L = _ref_header(lines, path)
    entries = {}
    for lineno, tokens in lines:
        if len(tokens) != 5:
            raise ParseError("expected 'k i l j weight'", path, lineno)
        try:
            k, i, l, j = (int(t) for t in tokens[:4])
        except ValueError as exc:
            raise ParseError(f"bad index: {exc}", path, lineno) from None
        _ref_range(k, L, "layer id", path, lineno)
        _ref_range(l, L, "layer id", path, lineno)
        _ref_range(i, N, "node id", path, lineno)
        _ref_range(j, N, "node id", path, lineno)
        w = _ref_weight(tokens[4], path, lineno)
        key, rkey = (k, i, l, j), (l, j, k, i)
        if key in entries or (not directed and rkey in entries):
            raise ParseError(
                f"duplicate edge ({i},{k})->({j},{l})", path, lineno)
        entries[key] = w
        if not directed and rkey != key:
            entries[rkey] = w
    per_block = [[dict() for _ in range(L)] for _ in range(L)]
    for (k, i, l, j), w in entries.items():
        per_block[k - 1][l - 1][(i - 1, j - 1)] = w
    blocks = tuple(tuple(_ref_csr(d, N) if d else None for d in row)
                   for row in per_block)
    return MultilayerNetwork(N=N, L=L, blocks=blocks, directed=directed)


# ---------------------------------------------------------------------------
# seeded files

WEIGHTS = ["1", "0.5", "2.25", "1e-3", "3", ".75", "1.5E+1"]
BAD_WEIGHTS = ["0", "-1", "nan", "inf", "1e999", "0x10", "x", "-0", "1e-400"]
# spellings float() accepts and numpy's reader does not
ODD_WEIGHTS = ["1_5", "٢", "2٥"]
BAD_IDS = ["3.0", "x", "1e3", "99999999999999999999", "-99999999999999999999",
           "1" * 30]


def _valid_lines(rng, N, L, general, directed, count):
    """Up to ``count`` distinct valid data lines, as token lists."""
    seen, lines = set(), []
    for _ in range(4 * count):
        if len(lines) == count:
            break
        k = int(rng.integers(1, L + 1))
        l = int(rng.integers(1, L + 1)) if general else k
        i, j = (int(v) for v in rng.integers(1, N + 1, size=2))
        if not general and i == j:
            continue
        key = (k, i, l, j)
        if not directed:
            key = min(key, (l, j, k, i))
        if key in seen:
            continue
        seen.add(key)
        w = str(rng.choice(WEIGHTS)) if rng.random() < 0.7 else repr(
            float(rng.uniform(0.1, 2.0)))
        ids = [k, i, l, j] if general else [k, i, j]
        lines.append([str(v) for v in ids] + [w])
    return lines


def _defect(rng, lines, N, L, general):
    """Apply one randomly chosen defect or odd spelling to ``lines``."""
    nids = 4 if general else 3
    pos = int(rng.integers(0, len(lines) + 1))
    rows = [r for r in lines if not isinstance(r, str)]
    row = rows[int(rng.integers(0, len(rows)))] if rows else None
    kind = int(rng.integers(0, 22))
    if kind == 0:                                           # token missing
        lines.insert(pos, [str(rng.integers(1, 3))] * nids)
    elif kind == 1 and row:                                 # token extra
        row.append("1")
    elif kind == 2 and row:
        row[int(rng.integers(0, nids))] = str(rng.choice(BAD_IDS))
    elif kind == 3 and row:                                 # '+3', '0_3', '03'
        c = int(rng.integers(0, nids))
        row[c] = str(rng.choice(["+", "0_", "0"])) + row[c]
    elif kind == 4 and row:                                 # '1_0', Arabic-Indic
        row[int(rng.integers(0, nids))] = str(rng.choice(["1_0", "١",
                                                          "٢"]))
    elif kind == 5 and row:                                 # out of range
        c = int(rng.integers(0, nids))
        hi = L if c in ((0, 2) if general else (0,)) else N
        row[c] = str(rng.choice([0, -1, hi + 1]))
    elif kind == 6 and row:                                 # self-loop
        if general:
            row[2], row[3] = row[0], row[1]
        else:
            row[2] = row[1]
    elif kind == 7 and row:
        row[-1] = str(rng.choice(BAD_WEIGHTS))
    elif kind == 8 and row:
        row[-1] = str(rng.choice(ODD_WEIGHTS))
    elif kind == 9 and row:                                 # exact duplicate
        lines.insert(int(rng.integers(pos, len(lines) + 1)), list(row))
    elif kind == 10 and row:                                # reversed duplicate
        rev = ([row[2], row[3], row[0], row[1]] if general
               else [row[0], row[2], row[1]]) + [row[-1]]
        lines.insert(int(rng.integers(pos, len(lines) + 1)), rev)
    elif kind == 11:
        lines.insert(pos, "# mid-file comment")
    elif kind == 12 and row:
        row += ["#", "inline"]
    elif kind == 13:
        lines.insert(pos, str(rng.choice(["", "   ", "\t", "  # indented"])))
    elif kind == 14 and row:
        lines[_index(lines, row)] = "\t".join(row)
    elif kind == 15 and row:                                # other whitespace
        sep = str(rng.choice(["\u3000", "\x0c", "  \t "]))
        lines[_index(lines, row)] = " " + sep.join(row) + sep
    elif kind == 16:
        lines[:] = []                                       # header-only
    elif kind == 17 and row:
        lines[_index(lines, row)] = "\ufeff" + " ".join(row)
    elif kind == 18 and row:
        row[-1] = str(rng.choice(BAD_WEIGHTS))
        row[0] = str(rng.choice(["0", "x"]))                # two faults, one line
    elif kind == 19 and row:                                # numeric fault
        row[-1] = str(rng.choice(["0", "-1", "nan", "-inf", "1e999"]))
    elif kind == 20 and row:                                # exact duplicate
        lines.append(list(row))
    elif kind == 21:
        lines.insert(pos, "1 2")                            # short line


def _index(lines, row):
    return next(n for n, r in enumerate(lines) if r is row)


def _render(rng, N, L, lines, crlf):
    out = []
    if rng.random() < 0.3:
        out.append("# leading comment")
    out.append(f"{N} {L}")
    for line in lines:
        out.append(line if isinstance(line, str) else " ".join(line))
    eol = "\r\n" if crlf else "\n"
    text = eol.join(out)
    if rng.random() < 0.8:
        text += eol
    return text


def _outcome(load, path, **kw):
    try:
        net = load(path, **kw)
    except ParseError as exc:
        return "error", str(exc), exc.line
    if isinstance(net, MultiplexNetwork):
        mats = list(net.layers)
    else:
        mats = [blk for row in net.blocks for blk in row]
    arrays = []
    for m in mats:
        if m is None:
            arrays.append(None)
        else:
            arrays.append(tuple((a.dtype.str, a.tobytes())
                                for a in (m.indptr, m.indices, m.data)))
    return "ok", arrays


@pytest.mark.parametrize("general", [False, True], ids=["multiplex", "general"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_loader_matches_reference(tmp_path, general, directed):
    rng = np.random.default_rng([20, general, directed])
    if general:
        load, ref = load_multilayer, ref_load_multilayer
        kw = {"directed": directed}
    else:
        load, ref = load_multiplex, ref_load_multiplex
        kw = {"gamma": 0.5, "directed": directed}
    accepted = rejected = 0
    for n in range(150):
        N = int(rng.choice([2, 3, 5, 6, 12]))
        L = int(rng.integers(1, 4))
        lines = _valid_lines(rng, N, L, general, directed,
                             int(rng.integers(0, 14)))
        for _ in range(int(rng.choice([0, 0, 0, 1, 1, 2, 3]))):
            _defect(rng, lines, N, L, general)
        path = tmp_path / f"f{n}.edges"
        path.write_bytes(_render(rng, N, L, lines,
                                 crlf=rng.random() < 0.2).encode("utf-8"))
        expected = _outcome(ref, path, **kw)
        assert _outcome(load, path, **kw) == expected, path.read_bytes()
        accepted += expected[0] == "ok"
        rejected += expected[0] == "error"
    assert accepted >= 30 and rejected >= 30


def test_fault_before_undecodable_chunk_is_reported(tmp_path):
    # the file is read line by line once it cannot be decoded whole, and a
    # fault on a line before the undecodable bytes still comes first
    body = "".join(f"1 {i % 9 + 1} {i % 9 + 2} 1\n" for i in range(2000))
    raw = ("10 1\n1 1 11 1\n" + body).encode() + b"1 2 \xff 1\n"
    p = tmp_path / "bad.edges"
    p.write_bytes(raw)
    with pytest.raises(ParseError) as ei:
        load_multiplex(p, gamma=0.0, directed=True)
    assert ei.value.line == 2 and "node id 11 out of range" in str(ei.value)
    p.write_bytes(b"10 1\n1 1 2 1\n" + b"1 2 \xff 1\n")
    with pytest.raises(UnicodeDecodeError):
        load_multiplex(p, gamma=0.0, directed=True)


def test_numpy_reader_takes_plain_files(tmp_path, monkeypatch):
    # a file of decimal ids and plain weights, with whole-line comments,
    # never reaches the per-line parser
    def refuse(*args):
        raise AssertionError("per-line parser used")

    monkeypatch.setattr(model, "_read_per_line", refuse)
    p = tmp_path / "plain.edges"
    p.write_text("# c\n3 2\n# layer 1\n1 1 2 0.5\n\n2 2 3 1e-1\n  # x\n"
                 "2 3 1 +7\n", encoding="utf-8")
    net = load_multiplex(p, gamma=0.0, directed=False)
    assert net.edge_count() == 6
    p.write_text("3 2\n1 1 2 3 0.5\n2 2 2 2 1.5\n", encoding="utf-8")
    assert load_multilayer(p, directed=False).edge_count() == 3


@pytest.mark.parametrize("N", [2**62, 2**63 - 1, 10**30])
def test_huge_header_keeps_every_check(tmp_path, N):
    # the duplicate keys of such a file do not fit in int64
    p = tmp_path / "huge.edges"
    for body, kw in (("1 1 2 1\n1 5 6 1\n1 2 1 1\n", {"directed": False}),
                     (f"1 1 {N} 1\n1 {N} 1 1\n1 1 {N} 1\n", {"directed": True}),
                     (f"1 1 {N + 1} 1\n", {"directed": True})):
        p.write_text(f"{N} 2\n{body}", encoding="utf-8")
        want = _outcome(ref_load_multiplex, p, gamma=0.0, **kw)
        assert want[0] == "error"
        assert _outcome(load_multiplex, p, gamma=0.0, **kw) == want
        p.write_text(f"{N} 2\n" + "".join(f"1 {line} 1" for line in body.splitlines(True)),
                     encoding="utf-8")
        want = _outcome(ref_load_multilayer, p, **kw)
        assert want[0] == "error"
        assert _outcome(load_multilayer, p, **kw) == want
