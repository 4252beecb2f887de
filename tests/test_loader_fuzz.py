"""Seeded fuzz test of the edge-file loaders against a per-line reference.

The reference below is the straightforward loader: one pass over the
data lines, one dict per layer or block, every check made line by line.
Each generated file mixes valid lines with a few defects, or spellings
that only Python's int()/float() accept; the loaders must accept exactly
the files the reference accepts, fail with the same message on the same
line otherwise, and store bit-identical supra CSR arrays.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import perronnet.model as model
from perronnet import cli
from perronnet.errors import ParseError
from perronnet.model import Network, load_multilayer, load_multiplex


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
    if N * L > 3037000499:  # isqrt(2**63 - 1)
        raise ParseError(f"N*L must be at most 3037000499, got {N * L}",
                         path, lineno)
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
    return Network(N, L, sp.block_diag(layers, format="csr"), directed,
                   gamma=float(gamma))


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
    blocks = [[_ref_csr(d, N) for d in row] for row in per_block]
    return Network(N, L, sp.bmat(blocks, format="csr"), directed)


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
    m = net.arcs
    # a loader's matrix, adopted without a second check, passes every
    # check of the public constructor
    assert model._same_csr(Network(net.N, net.L, m, net.directed,
                                   net.gamma).arcs, m)
    return "ok", tuple((a.dtype.str, a.tobytes())
                       for a in (m.indptr, m.indices, m.data))


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
    with pytest.raises(ParseError) as ei:
        load_multiplex(p, gamma=0.0, directed=True)
    assert str(ei.value).startswith(f"{p}: not UTF-8 text (")


@pytest.mark.parametrize("pad", [10, 100000])
@pytest.mark.parametrize("newline", [b"\n", b"\r", b"\r\n"],
                         ids=["lf", "cr", "crlf"])
@pytest.mark.parametrize("bad", [b"1 2 \xff 1.0", b"\xff 2 3 1.0"],
                         ids=["mid-line", "line-start"])
def test_lines_before_an_undecodable_byte_are_checked(tmp_path, pad, newline,
                                                      bad):
    # the text reader decodes the file in chunks of about 8 KB and fails a
    # chunk whole: at pad 10 the byte shares a chunk with the lines before
    # it.  Line 3's fault comes first either way; with line 3 clean, the
    # error gives the byte's offset in the file
    lines = [b"3 1", b"#" * pad, b"1 1 9 1.0", bad, b""]
    p = tmp_path / "bad.edges"
    p.write_bytes(newline.join(lines))
    for directed in (False, True):
        with pytest.raises(ParseError) as ei:
            load_multiplex(p, gamma=1.0, directed=directed)
        assert str(ei.value) == f"{p}:3: node id 9 out of range 1..3"
    lines[2] = b"1 1 2 1.0"
    raw = newline.join(lines)
    p.write_bytes(raw)
    at = raw.index(b"\xff")
    with pytest.raises(ParseError) as ei:
        load_multiplex(p, gamma=1.0)
    assert str(ei.value) == (
        f"{p}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
        f"position {at}: invalid start byte)")


def test_a_file_changed_to_utf8_between_reads_is_refused(tmp_path,
                                                         monkeypatch):
    # the second read, as bytes, finds every byte UTF-8
    p = tmp_path / "net.edges"
    p.write_bytes(b"3 1\n1 1 2 1.0\n1 2 \xff 1.0\n")
    read_bytes = Path.read_bytes

    def changed(path):
        p.write_bytes(b"3 1\n1 1 2 1.0\n1 2 3 1.0\n")
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", changed)
    with pytest.raises(ParseError) as ei:
        load_multiplex(p, gamma=1.0)
    assert str(ei.value) == f"{p}: changed while it was read"


@pytest.mark.parametrize("header, line, message", [
    (None, None, "empty file"),
    ("5", 2, "header must be 'N L'"),
    ("3 x", 2, "bad header: invalid literal for int() with base 10: 'x'"),
    ("0 2", 2, "N and L must be positive"),
])
def test_header_faults_are_named(tmp_path, capsys, header, line, message):
    # each through both loaders and the CLI, in a file the numpy reader
    # would take, one with a compressed suffix and one whose body is not
    # UTF-8, which the line-by-line reader takes from its start
    cases = []
    for fmt, body in (("multiplex", "1 1 2 1.0\n"),
                      ("multilayer", "1 1 1 2 1.0\n")):
        text = "# c\n\n" if header is None else f"# c\n{header}\n{body}"
        cases += [(fmt, "net.edges", text.encode()),
                  (fmt, "net.edges.gz", text.encode())]
        if header is not None:
            cases.append((fmt, "net.edges", text.encode() + b"2 \xff\n"))
    for fmt, name, raw in cases:
        p = tmp_path / name
        p.write_bytes(raw)
        want = f"{p}:{line}: {message}" if line else f"{p}: {message}"
        for load, kw in ((load_multiplex, {"gamma": 1.0}),
                         (load_multilayer, {})):
            with pytest.raises(ParseError) as ei:
                load(p, **kw)
            assert str(ei.value) == want and ei.value.line == line
        assert cli.main(["spectrum", str(p), "--input-format", fmt]) == 1
        assert capsys.readouterr() == ("", f"error: {want}\n")


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


@pytest.mark.parametrize("N", [1518500249, 1518500250, 2**40, 2**62 - 1, 2**62,
                               2**63 - 1, 10**30])
def test_huge_header_keeps_every_check(tmp_path, N):
    # at N = 1518500249, N*L = 2N is just below the header's limit
    # isqrt(2**63 - 1) = 3037000499, and each body's own error is named at
    # its line, a repeat found by its int64 arc key; from N = 1518500250 on
    # the header is refused at line 1 first.  Every body is invalid, so no
    # array of order N*L is sized
    p = tmp_path / "huge.edges"
    for body, kw in (("1 1 2 1\n1 5 6 1\n1 2 1 1\n", {"directed": False}),
                     (f"1 1 {N} 1\n1 {N} 1 1\n1 1 {N} 1\n", {"directed": True}),
                     (f"1 1 {N + 1} 1\n", {"directed": True})):
        p.write_text(f"{N} 2\n{body}", encoding="utf-8")
        want = _outcome(ref_load_multiplex, p, gamma=0.0, **kw)
        assert want[0] == "error" and (want[2] == 1) == (2 * N > 3037000499)
        assert _outcome(load_multiplex, p, gamma=0.0, **kw) == want
        # the same body as intra-layer lines 'l i l j w' of a general file
        lines = (line.split() for line in body.splitlines())
        p.write_text(f"{N} 2\n" + "".join(f"{l} {i} {l} {j} {w}\n"
                                          for l, i, j, w in lines),
                     encoding="utf-8")
        want = _outcome(ref_load_multilayer, p, **kw)
        assert want[0] == "error" and (want[2] == 1) == (2 * N > 3037000499)
        assert _outcome(load_multilayer, p, **kw) == want


@pytest.mark.parametrize("header", ["3037000500 1", "3000000000 4000000000",
                                    f"{2**62} 2", f"{10**30} 1"])
def test_header_past_int64_is_refused(tmp_path, capsys, header):
    # past N*L = isqrt(2**63 - 1) an arc key a * NL + b may not fit in
    # int64; every line but the header is valid, so the header's error is
    # the first, and no matrix of order N*L is ever sized
    N, L = (int(v) for v in header.split())
    want = f"N*L must be at most 3037000499, got {N * L}"
    for body, load, kw in (("1 1 2 1\n", load_multiplex, {"gamma": 1.0}),
                           ("1 1 1 2 1\n", load_multilayer, {})):
        p = tmp_path / "huge.edges"
        p.write_text(f"# comment\n{header}\n{body}", encoding="utf-8")
        with pytest.raises(ParseError) as ei:
            load(p, **kw)
        assert str(ei.value) == f"{p}:2: {want}"
        assert cli.main(["spectrum", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {p}:2: {want}\n"


# ---------------------------------------------------------------------------
# files of the benchmark's size

def _big_lines(seed, N, L, general, directed, count, self_loops=0):
    """``count`` distinct valid lines of a seeded network, as token lists,
    ``self_loops`` of them supra self-loops (general networks only)."""
    rng = np.random.default_rng(seed)
    k = rng.integers(1, L + 1, size=4 * count)
    l = rng.integers(1, L + 1, size=4 * count) if general else k
    i, j = rng.integers(1, N + 1, size=(2, 4 * count))
    loops = np.arange(4 * count) < self_loops
    l, j = np.where(loops, k, l), np.where(loops, i, j)
    lines, seen = [], set()
    for row in zip(k.tolist(), i.tolist(), l.tolist(), j.tolist(),
                   rng.integers(32, 97, size=4 * count).tolist()):
        a, b, c, d, w = row
        key = (a, b, c, d) if directed else min((a, b, c, d), (c, d, a, b))
        if (not general and b == d) or key in seen:
            continue
        seen.add(key)
        ids = (a, b, c, d) if general else (a, b, d)
        lines.append([str(v) for v in ids] + [repr(w / 64)])
        if len(lines) == count:
            return lines
    raise AssertionError("too few distinct lines")


def _write_lines(path, N, L, lines):
    path.write_text(f"{N} {L}\n" + "".join(" ".join(r) + "\n" for r in lines),
                    encoding="utf-8")


@pytest.mark.parametrize("general, directed, N, self_loops", [
    (False, False, 2000, 0), (True, True, 1000, 0), (True, False, 500, 40)],
    ids=["multiplex-undirected", "general-directed", "general-self-loops"])
def test_benchmark_sized_files_match_the_reference(tmp_path, monkeypatch,
                                                   general, directed, N,
                                                   self_loops):
    # the numpy reader takes every such file, and the one sort gives the
    # reference's CSR arrays and dtypes byte for byte; a repeated line last,
    # or an undirected edge given again as its mirror, is named at its line
    def refuse(*args):
        raise AssertionError("per-line parser used")

    monkeypatch.setattr(model, "_read_per_line", refuse)
    L = 4 if N > 500 else 3
    lines = _big_lines(N, N, L, general, directed, 24000 if N > 500 else 6000,
                       self_loops)
    load, ref, kw = ((load_multilayer, ref_load_multilayer, {}) if general
                     else (load_multiplex, ref_load_multiplex, {"gamma": 1.0}))
    kw["directed"] = directed
    p = tmp_path / "big.edges"
    _write_lines(p, N, L, lines)
    want = _outcome(ref, p, **kw)
    assert want[0] == "ok" and _outcome(load, p, **kw) == want
    first = lines[len(lines) // 3]
    mirror = (first[2:4] + first[0:2] if general
              else [first[0], first[2], first[1]]) + first[-1:]
    for extra in ([first] + ([mirror] if not directed else [])):
        _write_lines(p, N, L, lines + [extra])
        want = _outcome(ref, p, **kw)
        assert want[:2] == ("error", f"{p}:{len(lines) + 2}: " + (
            f"duplicate edge ({extra[1]},{extra[0]})->({extra[3]},{extra[2]})"
            if general else
            f"duplicate edge ({extra[1]},{extra[2]}) in layer {extra[0]}"))
        assert _outcome(load, p, **kw) == want


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_a_compressed_suffix_is_read_as_the_text_it_holds(tmp_path, suffix):
    # numpy's reader would decompress such a path
    body = "3 2\n1 1 2 0.5\n2 2 3 1.5\n"
    plain, named = tmp_path / "net.edges", tmp_path / f"net.edges{suffix}"
    plain.write_text(body, encoding="utf-8")
    named.write_text(body, encoding="utf-8")
    assert (_outcome(load_multiplex, named, gamma=1.0)
            == _outcome(load_multiplex, plain, gamma=1.0))


# ---------------------------------------------------------------------------
# the order of the arc keys

def test_wide_keys_keep_the_packed_order(monkeypatch):
    # keys that do not fit in int64 once packed with their rows are put in
    # the same order by a lexsort; a header that large would size an O(NL)
    # indptr, so the ordering is checked on its own
    rng = np.random.default_rng(7)
    count = 50
    rows = np.concatenate([np.arange(count), rng.choice(count, 30, replace=False)])
    keys = rng.integers(0, 40, rows.size)  # many keys repeat
    pairs = sorted(set(zip(keys.tolist(), rows.tolist())))
    rng.shuffle(pairs)
    keys, rows = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    want = sorted(pairs)
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort",
                        lambda *a: lexsorts.append(1) or lexsort(*a))

    def order(keys, span):
        return list(zip(*(v.tolist() for v in
                          model._arc_order(keys, rows, span, count))))

    assert order(keys, 40) == want and not lexsorts  # packed
    # keys below 2**62 take 2**68 and more once shifted by the 6 row bits
    assert order(keys, 2**62) == want and len(lexsorts) == 1


@pytest.mark.parametrize("general", [False, True], ids=["multiplex", "general"])
def test_mirrored_duplicates_and_self_loops_name_their_line(tmp_path, general):
    # an undirected edge given again as its mirror is named at the later
    # line, whichever of its arc keys sorts first; a self-loop is stored
    # once, and given again is a repeat
    p = tmp_path / "net.edges"

    def line(k, i, j, w, l=None):
        return f"{k} {i} {l or k} {j} {w}" if general else f"{k} {i} {j} {w}"

    def error(text):
        p.write_text(text, encoding="utf-8")
        load = load_multilayer if general else load_multiplex
        kw = {"directed": False} if general else {"gamma": 1.0, "directed": False}
        with pytest.raises(ParseError) as ei:
            load(p, **kw)
        return str(ei.value).removeprefix(f"{p}:")

    def dup(k, i, j):
        return (f"duplicate edge ({i},{k})->({j},{k})" if general
                else f"duplicate edge ({i},{j}) in layer {k}")

    body = [line(1, 3, 1, 1.0), line(1, 1, 2, 1.0), line(2, 2, 3, 1.0)]
    assert error("3 2\n" + "\n".join(body + [line(1, 1, 3, 2.0)])) == (
        f"5: {dup(1, 1, 3)}")
    assert error("3 2\n" + "\n".join(body + [line(2, 3, 2, 2.0),
                                            line(1, 3, 1, 1.0)])) == (
        f"5: {dup(2, 3, 2)}")
    assert error("3 2\n" + "\n".join([line(1, 2, 1, 1.0)] + body)) == (
        f"4: {dup(1, 1, 2)}")
    if general:
        loops = [line(1, 2, 2, 1.5), line(1, 1, 2, 1.0), line(1, 2, 2, 0.5)]
        assert error("3 2\n" + "\n".join(loops)) == f"4: {dup(1, 2, 2)}"
        p.write_text("3 2\n" + "\n".join(loops[:2]), encoding="utf-8")
        net = load_multilayer(p, directed=False)
        assert net.arcs.nnz == 3 and net.weight(model.EdgeKey(2, 2, 1, 1)) == 1.5
