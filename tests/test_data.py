"""Parsers, graph splits and contact-map construction."""

import math

import numpy as np
import pytest

from protprompt import data as D
from protprompt.errors import ConfigError, DataError, FormatError


# ---------------------------------------------------------------------------
# FASTA


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_fasta_folding_and_header_token(tmp_path):
    p = _write(tmp_path, "a.fasta",
               ">p1 some description\nACDEF\nGHI\n\n>p2\nWY\n")
    table = D.parse_fasta(p)
    assert list(table) == ["p1", "p2"]
    assert table["p1"] == "ACDEFGHI"
    assert table["p2"] == "WY"


def test_fasta_duplicate_id(tmp_path):
    p = _write(tmp_path, "d.fasta", ">x\nAA\n>x\nCC\n")
    with pytest.raises(FormatError, match="duplicate"):
        D.parse_fasta(p)


def test_fasta_data_before_header(tmp_path):
    p = _write(tmp_path, "h.fasta", "ACDEF\n>x\nAA\n")
    with pytest.raises(FormatError, match="before the first"):
        D.parse_fasta(p)


def test_fasta_empty_sequence_and_header(tmp_path):
    p = _write(tmp_path, "e.fasta", ">x\n>y\nAA\n")
    with pytest.raises(FormatError, match="empty sequence"):
        D.parse_fasta(p)
    p2 = _write(tmp_path, "e2.fasta", ">\nAA\n")
    with pytest.raises(FormatError, match="empty FASTA header"):
        D.parse_fasta(p2)


# ---------------------------------------------------------------------------
# interaction tables


def test_ppi_binary_parse(tmp_path):
    p = _write(tmp_path, "b.tsv", "# comment\np2\tp1\t1\np1\tp3\t0\n\n")
    graph, skipped = D.parse_ppi_tsv(p)
    assert skipped == []
    assert graph.label_width == 1
    assert set(graph.nodes) == {"p1", "p2", "p3"}
    # keys are canonical: smaller id first
    assert set(graph.edges) == {("p1", "p2"), ("p1", "p3")}
    assert graph.edges[("p1", "p2")].tolist() == [1]
    assert graph.edges[("p1", "p3")].tolist() == [0]


def test_ppi_typed_parse_and_or_merge(tmp_path):
    p = _write(tmp_path, "t.tsv",
               "a\tb\t1\t0\t0\t0\t0\t0\t1\n"
               "b\ta\t0\t1\t0\t0\t0\t0\t1\n")
    graph, _ = D.parse_ppi_tsv(p)
    assert graph.label_width == 7
    assert list(graph.edges) == [("a", "b")]
    assert graph.edges[("a", "b")].tolist() == [1, 1, 0, 0, 0, 0, 1]


def test_ppi_self_loop_goes_to_skip_report(tmp_path):
    p = _write(tmp_path, "s.tsv", "a\ta\t1\na\tb\t1\n")
    graph, skipped = D.parse_ppi_tsv(p)
    assert len(skipped) == 1 and "self-loop" in skipped[0] and ":1:" in skipped[0]
    assert list(graph.edges) == [("a", "b")]


def test_ppi_format_errors(tmp_path):
    with pytest.raises(FormatError, match="3 or 9"):
        D.parse_ppi_tsv(_write(tmp_path, "c.tsv", "a\tb\t1\t0\n"))
    with pytest.raises(FormatError, match="earlier rows had"):
        D.parse_ppi_tsv(_write(
            tmp_path, "m.tsv", "a\tb\t1\nc\td\t1\t0\t0\t0\t0\t0\t0\n"))
    with pytest.raises(FormatError, match="0 or 1"):
        D.parse_ppi_tsv(_write(tmp_path, "n.tsv", "a\tb\t2\n"))
    with pytest.raises(FormatError, match="integers"):
        D.parse_ppi_tsv(_write(tmp_path, "i.tsv", "a\tb\tyes\n"))
    with pytest.raises(FormatError, match="empty protein id"):
        D.parse_ppi_tsv(_write(tmp_path, "e.tsv", "a\t\t1\n"))


def test_attach_sequences(tmp_path):
    graph, _ = D.parse_ppi_tsv(_write(tmp_path, "g.tsv", "a\tb\t1\n"))
    with pytest.raises(DataError, match="no sequence"):
        graph.attach_sequences({"a": "ACD"})
    graph.attach_sequences({"a": "ACD", "b": "WY", "c": "MM"})
    assert graph.nodes["b"] == "WY"


# ---------------------------------------------------------------------------
# graph splits


def _graph(edge_list):
    g = D.PPIGraph()
    for a, b in edge_list:
        g.add_edge(a, b, np.array([1]))
    return g


# fixture: 4-cycle a-b-c-d-a; with seed 11 the root draw lands on "a"
FOUR_CYCLE = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]


def test_split_four_cycle_frozen_trace():
    for mode in ("bfs", "dfs"):
        spec = D.split_graph(_graph(FOUR_CYCLE), mode, 0.5, seed=11)
        assert spec.root == "a"
        assert spec.selected == ("a", "b")
        assert spec.train_edges == (("c", "d"),)
        assert spec.test_edges == (("a", "b"), ("a", "d"), ("b", "c"))


# fixture where the traversal order matters: a-b, a-c, b-d, c-e.
# From root "a" with k=3, breadth order visits a,b,c while depth order
# dives a,b,d, so only the depth split leaves a training edge (c,e).
FIVE_NODE = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "e")]


def test_split_five_node_bfs_dfs_differ():
    bfs = D.split_graph(_graph(FIVE_NODE), "bfs", 0.5, seed=11)
    dfs = D.split_graph(_graph(FIVE_NODE), "dfs", 0.5, seed=11)
    assert bfs.root == dfs.root == "a"
    assert bfs.selected == ("a", "b", "c")
    assert bfs.train_edges == ()
    assert len(bfs.test_edges) == 4
    assert dfs.selected == ("a", "b", "d")
    assert dfs.train_edges == (("c", "e"),)
    assert dfs.test_edges == (("a", "b"), ("a", "c"), ("b", "d"))


def test_split_validation():
    g = _graph(FOUR_CYCLE)
    with pytest.raises(ConfigError, match="bfs or dfs"):
        D.split_graph(g, "random", 0.5, 0)
    for f in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigError, match="fraction"):
            D.split_graph(g, "bfs", f, 0)
    with pytest.raises(DataError, match="no edges"):
        D.split_graph(D.PPIGraph(), "bfs", 0.5, 0)
    # ceil(0.9 * 4) = 4 selects the whole component
    with pytest.raises(ConfigError, match="nothing would remain"):
        D.split_graph(g, "bfs", 0.9, 0)


def test_split_confined_to_largest_component():
    edges = FOUR_CYCLE + [("x", "y")]
    spec = D.split_graph(_graph(edges), "bfs", 0.4, seed=11)
    assert set(spec.selected) <= {"a", "b", "c", "d"}
    # the satellite edge has no selected endpoint, so it trains
    assert ("x", "y") in spec.train_edges


def test_split_properties_random_graphs():
    for trial in range(40):
        rng = np.random.default_rng(900 + trial)
        n = int(rng.integers(4, 20))
        names = [f"n{i:02d}" for i in range(n)]
        g = D.PPIGraph()
        for i in range(n - 1):  # a path keeps one component dominant
            g.add_edge(names[i], names[i + 1], np.array([1]))
        for _ in range(int(rng.integers(0, 2 * n))):
            i, j = rng.integers(n, size=2)
            if i != j:
                g.add_edge(names[int(i)], names[int(j)], np.array([1]))
        mode = "bfs" if rng.random() < 0.5 else "dfs"
        frac = float(rng.uniform(0.1, 0.6))
        if math.ceil(frac * n) >= n:
            continue
        spec = D.split_graph(g, mode, frac, seed=int(rng.integers(10_000)))
        again = D.split_graph(g, mode, frac, seed=spec.seed)
        assert spec == again  # rerun is bit-for-bit identical
        assert len(spec.selected) == math.ceil(frac * n)
        assert len(set(spec.selected)) == len(spec.selected)
        chosen = set(spec.selected)
        assert set(spec.train_edges) | set(spec.test_edges) == set(g.edges)
        assert not set(spec.train_edges) & set(spec.test_edges)
        for a, b in spec.test_edges:
            assert a in chosen or b in chosen
        for a, b in spec.train_edges:
            assert a not in chosen and b not in chosen


def test_split_selected_order_is_traversal_order():
    spec = D.split_graph(_graph(FIVE_NODE), "bfs", 0.7, seed=11)
    assert spec.selected == ("a", "b", "c", "d")  # breadth layers, sorted ties


# ---------------------------------------------------------------------------
# PDB


def _atom(serial, name, res, chain, idx, x, y, z, alt=" ", icode=" "):
    # fixed-width ATOM record, coordinate fields in columns 31-54
    return (
        f"ATOM  {serial:>5} {name:<4}{alt}{res:<3} {chain}{idx:>4}{icode}"
        f"   {x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00\n"
    )


def test_pdb_cb_preferred_ca_for_glycine(tmp_path):
    text = (
        _atom(1, "N", "ALA", "A", 1, 0.0, 0.0, 0.0)
        + _atom(2, "CA", "ALA", "A", 1, 1.0, 0.0, 0.0)
        + _atom(3, "CB", "ALA", "A", 1, 2.0, 0.0, 0.0)
        + _atom(4, "CA", "GLY", "A", 2, 3.0, 1.0, 0.0)
        + _atom(5, "CB", "GLY", "A", 2, 9.0, 9.0, 9.0)
        + "TER\n"
    )
    chains, skipped = D.parse_pdb(_write(tmp_path, "a.pdb", text))
    assert skipped == []
    (recs,) = chains.values()
    assert [r.atom for r in recs] == ["CB", "CA"]
    assert recs[0].xyz.tolist() == [2.0, 0.0, 0.0]
    assert recs[1].xyz.tolist() == [3.0, 1.0, 0.0]  # glycine ignores its CB
    assert [r.index for r in recs] == [1, 2]
    assert recs[0].name == "ALA"


def test_pdb_altloc_filtering(tmp_path):
    text = (
        _atom(1, "CB", "SER", "A", 1, 1.0, 1.0, 1.0, alt="B")
        + _atom(2, "CB", "SER", "A", 1, 2.0, 2.0, 2.0, alt="A")
        + _atom(3, "CB", "SER", "A", 1, 3.0, 3.0, 3.0)
    )
    chains, _ = D.parse_pdb(_write(tmp_path, "alt.pdb", text))
    rec = chains["A"][0]
    assert rec.xyz.tolist() == [2.0, 2.0, 2.0]  # first accepted wins, B ignored


def test_pdb_insertion_code_rejected(tmp_path):
    text = _atom(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0, icode="A")
    with pytest.raises(FormatError, match="insertion code"):
        D.parse_pdb(_write(tmp_path, "i.pdb", text))


def test_pdb_short_line_rejected(tmp_path):
    with pytest.raises(FormatError, match="shorter"):
        D.parse_pdb(_write(tmp_path, "s.pdb", "ATOM      1  CA  ALA A   1\n"))


def test_pdb_malformed_fields_rejected(tmp_path):
    line = _atom(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0).replace("   0.000", "  BADVAL", 1)
    with pytest.raises(FormatError, match="malformed"):
        D.parse_pdb(_write(tmp_path, "m.pdb", line))


def test_pdb_non_increasing_residues_rejected(tmp_path):
    text = (
        _atom(1, "CA", "ALA", "A", 5, 0.0, 0.0, 0.0)
        + _atom(2, "CA", "SER", "A", 4, 1.0, 0.0, 0.0)
    )
    with pytest.raises(FormatError, match="strictly"):
        D.parse_pdb(_write(tmp_path, "o.pdb", text))


def test_pdb_residue_without_usable_atom_is_reported(tmp_path):
    text = (
        _atom(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        + _atom(2, "N", "SER", "A", 2, 1.0, 0.0, 0.0)
        + _atom(3, "O", "SER", "A", 2, 1.5, 0.0, 0.0)
        + _atom(4, "CA", "LYS", "A", 3, 2.0, 0.0, 0.0)
    )
    chains, skipped = D.parse_pdb(_write(tmp_path, "n.pdb", text))
    assert [r.index for r in chains["A"]] == [1, 3]
    assert len(skipped) == 1
    assert "residue 2" in skipped[0] and "neither CB nor CA" in skipped[0]


def test_pdb_only_first_model_read(tmp_path):
    text = (
        _atom(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        + "ENDMDL\n"
        + _atom(2, "CA", "SER", "A", 2, 1.0, 0.0, 0.0)
    )
    chains, _ = D.parse_pdb(_write(tmp_path, "mdl.pdb", text))
    assert len(chains["A"]) == 1


def test_pdb_multiple_chains(tmp_path):
    text = (
        _atom(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        + _atom(2, "CA", "SER", "B", 1, 1.0, 0.0, 0.0)
        + _atom(3, "CA", "LYS", "B", 2, 2.0, 0.0, 0.0)
    )
    chains, _ = D.parse_pdb(_write(tmp_path, "c.pdb", text))
    assert sorted(chains) == ["A", "B"]
    assert len(chains["A"]) == 1 and len(chains["B"]) == 2


def test_pdb_no_atoms_error(tmp_path):
    with pytest.raises(FormatError, match="no usable ATOM"):
        D.parse_pdb(_write(tmp_path, "x.pdb", "HEADER    NOTHING\nTER\n"))


# ---------------------------------------------------------------------------
# contact maps


def _records(coords):
    return [
        D.ResidueRecord(index=i + 1, name="ALA", xyz=np.asarray(c, dtype=float), atom="CB")
        for i, c in enumerate(coords)
    ]


def test_contact_map_matches_brute_force():
    for trial in range(50):
        rng = np.random.default_rng(1700 + trial)
        n = int(rng.integers(2, 40))
        coords = rng.uniform(-20, 20, size=(n, 3))
        thr = float(rng.uniform(4, 16))
        cmap = D.build_contact_map(_records(coords), threshold=thr)
        for i in range(n):
            for j in range(n):
                want = i != j and math.dist(coords[i], coords[j]) < thr
                assert cmap.bits[i, j] == want, (trial, i, j)


def test_contact_map_distances_are_bitwise_the_delta_formula():
    # the (n, n, 3) delta formula build_contact_map used to evaluate is the
    # oracle: the plane-by-plane sum must reproduce every distance's bits,
    # so thresholds exactly at a computed distance classify the same way
    rng = np.random.default_rng(1800)
    cases = [
        # the first two points are exactly 8.0 apart: no contact at 8.0
        np.array([(10.5, -3.25, 7.0), (18.5, -3.25, 7.0), (10.5, 4.749, 7.0)]),
        np.array([(3.0, -1.0, 2.0)]),  # one residue
    ]
    for trial in range(200):
        n = int(rng.integers(1, 120))
        coords = rng.normal(size=(n, 3)) * rng.choice([0.01, 1.0, 30.0, 1e4])
        if trial % 2:
            coords = np.round(coords, 3)  # PDB precision, many exact ties
        cases.append(coords)
    for trial, coords in enumerate(cases):
        n = len(coords)
        delta = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((delta * delta).sum(axis=2))
        off = dist[~np.eye(n, dtype=bool)]
        for thr in (8.0, *(off[rng.integers(off.size, size=3)] if off.size else ())):
            if thr <= 0:
                continue
            want = dist < thr
            np.fill_diagonal(want, False)
            cmap = D.build_contact_map(_records(coords), threshold=float(thr))
            assert np.array_equal(cmap.bits, want), (trial, thr)


def test_contact_threshold_is_strict():
    cmap = D.build_contact_map(_records([(0, 0, 0), (8, 0, 0), (0, 7.999, 0)]))
    assert not cmap.bits[0, 1]  # exactly 8.0 is not a contact
    assert cmap.bits[0, 2]


def test_contact_diagonal_false_even_for_coincident_points():
    cmap = D.build_contact_map(_records([(1, 1, 1), (1, 1, 1)]))
    assert not cmap.bits[0, 0] and not cmap.bits[1, 1]
    assert cmap.bits[0, 1] and cmap.bits[1, 0]


def test_contact_map_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    cmap = D.build_contact_map(_records(rng.uniform(-9, 9, size=(17, 3))),
                               threshold=6.5, tag="native")
    path = tmp_path / "m.cmap"
    D.write_contact_map(cmap, path)
    back = D.read_contact_map(path)
    assert back.n == 17 and back.threshold == 6.5 and back.tag == "native"
    assert np.array_equal(back.bits, cmap.bits)
    empty = tmp_path / "empty.cmap"
    empty.write_text("n=0 threshold=8.0 tag=native\n")
    back = D.read_contact_map(empty)
    assert back.n == 0 and back.bits.shape == (0, 0) and back.bits.dtype == bool


@pytest.mark.parametrize("n", [0, 1, 2, 17, 60])
def test_contact_map_writer_bytes(tmp_path, n):
    # byte for byte what the per-character writer produced
    bits = np.random.default_rng(n).random((n, n)) < 0.4
    bits = np.triu(bits, 1)
    cmap = D.ContactMap(n=n, bits=bits | bits.T, threshold=7.25, tag="native")
    want = f"n={n} threshold=7.25 tag=native\n" + "".join(
        "".join("1" if b else "0" for b in row) + "\n" for row in cmap.bits)
    path = tmp_path / "m.cmap"
    D.write_contact_map(cmap, path)
    assert path.read_bytes() == want.encode("ascii")
    assert np.array_equal(D.read_contact_map(path).bits, cmap.bits)


def test_contact_map_tamper_detection(tmp_path):
    good = D.build_contact_map(_records([(0, 0, 0), (1, 0, 0), (30, 0, 0)]))
    path = tmp_path / "g.cmap"
    D.write_contact_map(good, path)
    lines = path.read_text().splitlines()

    def expect(mutant, pattern):
        bad = tmp_path / "bad.cmap"
        bad.write_text("\n".join(mutant) + "\n")
        with pytest.raises(FormatError, match=pattern):
            D.read_contact_map(bad)

    expect([lines[0], "010", "000", "000"], "not symmetric")
    expect([lines[0], "110", "100", "000"], "diagonal")
    expect([lines[0], lines[1], lines[2]], "expected 3 rows, found 2")
    expect([lines[0], "01", "10", "00"], r"bad\.cmap:2: expected 3 characters of 0/1")
    expect([lines[0], lines[1], "1000", lines[3]], r"bad\.cmap:3: .*'1000'")
    expect([lines[0], lines[1], "", lines[2], "002"], r"bad\.cmap:5: .*'002'")
    expect([lines[0], "01x", "100", "x00"], r"bad\.cmap:2: .*0/1")
    expect(["n=3 tag=native", *lines[1:]], "bad contact map header")
    expect(["n=three threshold=8.0 tag=native", *lines[1:]], "non-numeric")


def test_contact_map_validation():
    with pytest.raises(DataError, match="zero residues"):
        D.build_contact_map([])
    with pytest.raises(ConfigError, match="positive"):
        D.build_contact_map(_records([(0, 0, 0)]), threshold=0.0)
    with pytest.raises(ConfigError, match="tag"):
        D.ContactMap(n=1, bits=np.zeros((1, 1), dtype=bool), tag="guess")
    with pytest.raises(DataError, match="shape"):
        D.ContactMap(n=2, bits=np.zeros((1, 1), dtype=bool))
