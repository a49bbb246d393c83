"""Data pipelines: FASTA, TSV tables, graph splits, PDB, contacts.

All parsers fail loudly with file/line context. Nothing is ever silently
dropped: rejected records (self-loops, residues without usable atoms,
HETATM residues) are returned in skip reports so callers can surface them.
Each reader returns finished records: an interaction graph is its edges,
whose endpoints are its nodes. parse_fasta reads every line into
per-record groups before it checks and joins each record, and parse_pdb
reads every ATOM line into per-residue groups before it picks each
residue's atom and checks residue order.
"""

from __future__ import annotations

import io
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write
from .errors import ConfigError, DataError, FormatError

CONTACT_THRESHOLD = 8.0
CONTACT_TAGS = ("native", "interaction")

# a residue's representative atom, then its stand-in (reversed for glycine);
# other atoms are ignored
_COORD_ATOMS = ("CB", "CA")


def read_lines(path):
    """(line number, line) pairs of a UTF-8 text file, newlines translated as
    in text mode; bytes that are not UTF-8 are a FormatError naming the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return enumerate(io.StringIO(raw.decode("utf-8"), newline=None), start=1)
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not utf-8 (byte {raw[exc.start]:#04x})") from None


def parse_fasta(path) -> dict[str, str]:
    """Read a FASTA file into an ordered id -> sequence map.

    The id is the first whitespace-delimited token of the header. Folded
    sequence lines are joined. Duplicate ids, sequence data before the
    first header and a file without a record are errors. Every line is read
    before the records are built, so an empty header or sequence data before
    the first header is reported ahead of a duplicate id or an empty record.
    """
    # one (header line number, id, sequence lines) group per header, in file order
    groups: list[tuple[int, str, list[str]]] = []
    for lineno, line in read_lines(path):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(">"):
            header = stripped[1:].strip()
            if not header:
                raise FormatError(f"{path}:{lineno}: empty FASTA header")
            groups.append((lineno, header.split()[0], []))
        elif not groups:
            raise FormatError(f"{path}:{lineno}: sequence data before the first '>' header")
        else:
            groups[-1][2].append(stripped)

    table: dict[str, str] = {}
    for lineno, name, chunks in groups:
        if name in table:
            raise FormatError(f"{path}:{lineno}: duplicate sequence id {name!r}")
        if not chunks:
            raise FormatError(f"{path}: record {name!r} has an empty sequence")
        table[name] = "".join(chunks)
    if not table:
        raise FormatError(f"{path}: empty corpus")
    return table


@dataclass
class PPIGraph:
    """Undirected interaction graph with per-edge 0/1 label vectors; its
    nodes are the endpoints of its edges.

    Edge keys are canonical (lexicographically smaller id first). Label
    vectors have width 1 (binary interaction files) or 7 (typed files);
    widths never mix within one graph.
    """

    edges: dict[tuple[str, str], np.ndarray]
    label_width: int

    @property
    def nodes(self) -> list[str]:
        """The endpoints of the edges, sorted."""
        return sorted({name for edge in self.edges for name in edge})


def _tsv_rows(path):
    """(line number, cells) of each row of path that is not blank or a # comment."""
    for lineno, line in read_lines(path):
        row = line.rstrip("\n")
        if row.strip() and not row.startswith("#"):
            yield lineno, row.split("\t")


def parse_ppi_tsv(path) -> tuple[PPIGraph, list[str]]:
    """Read a tab-separated interaction table.

    Rows are id1, id2, then either one 0/1 column (binary) or seven
    (interaction types). Duplicate pairs merge by bitwise OR; self-loops
    are rejected into the returned skip report.
    """
    edges: dict[tuple[str, str], np.ndarray] = {}
    label_width = 0
    skipped: list[str] = []
    for lineno, cells in _tsv_rows(path):
        if len(cells) not in (3, 9):
            raise FormatError(
                f"{path}:{lineno}: expected 3 or 9 tab-separated columns, got {len(cells)}"
            )
        a, b = cells[0].strip(), cells[1].strip()
        if not a or not b:
            raise FormatError(f"{path}:{lineno}: empty protein id")
        raw = cells[2:]
        if label_width and label_width != len(raw):
            raise FormatError(
                f"{path}:{lineno}: {len(raw)} label columns, earlier rows had {label_width}"
            )
        label_width = len(raw)
        try:
            labels = np.array([int(c) for c in raw], dtype=np.int64)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: labels must be integers, got {raw}")
        if not np.all((labels == 0) | (labels == 1)):
            raise FormatError(f"{path}:{lineno}: labels must be 0 or 1, got {raw}")
        if a == b:
            skipped.append(f"{path}:{lineno}: self-loop {a!r} skipped")
            continue
        key = (a, b) if a < b else (b, a)
        edges[key] = edges[key] | labels if key in edges else labels
    return PPIGraph(edges, label_width), skipped


def parse_labeled_tsv(path, classes: int | None = None) -> list[tuple[str, str, object]]:
    """Rows (id, residues, truth) of an id, sequence, value TSV; later columns
    are ignored. With classes, truth is the value's one digit per residue,
    each below classes, as an int64 array; without, the value as a finite
    float. A bad row (a repeated id, an empty sequence, a bad value) is a
    FormatError naming its line and id."""
    rows, seen = [], set()
    for lineno, cells in _tsv_rows(path):
        if len(cells) < 3:
            raise FormatError(f"{path}:{lineno}: expected id, sequence, value columns")
        name, residues, value = cells[0].strip(), cells[1].strip(), cells[2]
        where = f"{path}:{lineno}: row {name!r}"
        if name in seen:
            raise FormatError(f"{where} repeats an earlier row's id")
        seen.add(name)
        if not residues:
            raise FormatError(f"{where} has an empty sequence")
        if classes is None:
            try:
                truth = float(value)
            except ValueError:
                truth = math.nan
            if not math.isfinite(truth):
                raise FormatError(f"{where} has value {value!r}, not a finite number")
        # strip leaves nothing exactly when every label is a digit below classes
        elif len(value) != len(residues) or value.strip("0123456789"[:classes]):
            raise FormatError(f"{where} needs one digit below {classes} per residue, "
                              f"got {value!r}")
        else:
            truth = np.array([int(c) for c in value], dtype=np.int64)
        rows.append((name, residues, truth))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


@dataclass
class SplitSpec:
    """Outcome of a traversal-based edge split."""

    mode: str  # "bfs" or "dfs"
    seed: int
    root: str
    selected: tuple[str, ...]
    train_edges: tuple[tuple[str, str], ...]
    test_edges: tuple[tuple[str, str], ...]


def _walk(adj: dict[str, list[str]], root: str, mode: str, limit: float = math.inf) -> list[str]:
    """Up to limit nodes reached from root, in visit order: breadth first for
    bfs, else a stack walk that marks a node when it is pushed. Neighbours go
    in sorted order, so the smallest is visited first in both."""
    order, marked, frontier = [], {root}, deque([root])
    take, ahead = (frontier.popleft, iter) if mode == "bfs" else (frontier.pop, reversed)
    while frontier and len(order) < limit:
        order.append(take())
        for nb in ahead(adj[order[-1]]):
            if nb not in marked:
                marked.add(nb)
                frontier.append(nb)
    return order


def split_graph(graph: PPIGraph, mode: str, fraction: float, seed: int) -> SplitSpec:
    """Select ceil(fraction * |C|) nodes by BFS/DFS over the largest
    component C from a seed-chosen random root; an edge is TEST iff at
    least one endpoint was selected.

    Of equally large components, C is the one holding the smallest id.
    Neighbor order is sorted ids, so the traversal is fully deterministic
    given (mode, seed). Selecting every node of the component would leave
    no training edges inside it and is a config error. cmd_split's gates
    admit only bfs or dfs and a graph with an edge.
    """
    if not (0.0 < fraction < 1.0):
        raise ConfigError(f"test fraction must be in (0, 1), got {fraction}")
    if seed < 0:
        raise ConfigError(f"split seed must be >= 0, got {seed}")
    adj: dict[str, list[str]] = {n: [] for n in graph.nodes}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    for nbs in adj.values():
        nbs.sort()
    component: list[str] = []
    seen: set[str] = set()
    for start in adj:  # sorted, so the first largest holds the smallest id
        if start not in seen:
            reached = _walk(adj, start, "bfs")
            seen.update(reached)
            if len(reached) > len(component):
                component = reached
    component.sort()
    k = math.ceil(fraction * len(component))
    if k >= len(component):
        raise ConfigError(
            f"fraction {fraction} selects all {len(component)} nodes of the "
            f"largest component; nothing would remain for training"
        )
    rng = np.random.default_rng(seed)
    root = component[int(rng.integers(len(component)))]
    selected = _walk(adj, root, mode, k)

    chosen = set(selected)
    train: list[tuple[str, str]] = []
    test: list[tuple[str, str]] = []
    for key in sorted(graph.edges):
        if key[0] in chosen or key[1] in chosen:
            test.append(key)
        else:
            train.append(key)
    return SplitSpec(
        mode=mode,
        seed=seed,
        root=root,
        selected=tuple(selected),
        train_edges=tuple(train),
        test_edges=tuple(test),
    )


@dataclass
class ResidueRecord:
    """One residue's representative coordinate from a PDB chain."""

    index: int  # author residue number, strictly increasing per chain
    xyz: np.ndarray  # CB's, or CA's for glycine / fallback


def parse_pdb(path) -> tuple[dict[str, list[ResidueRecord]], list[str]]:
    """Fixed-width parse of ATOM records into per-chain residue coordinates.

    Policy: CB is the representative atom, CA for glycine; either stands in
    for the other when it is missing. Alternate locations other than ' ' or
    'A' are ignored. Insertion codes, and chain ids other than a letter, a
    digit or blank (the ids that can name a map file), are rejected. Only
    the first model is read. Residues with neither CB nor CA, and each
    HETATM residue (HETATM lines are never read for coordinates), go to the
    skip report. Every line is read before residue order is checked, so a
    malformed line is reported ahead of residue numbers that do not
    strictly increase.
    """
    # one (chain, residue number, residue name, {CB/CA: xyz}) group per run of
    # lines naming the same residue, in file order; a residue without CB or CA
    # keeps its group so it reaches the skip report, and a HETATM residue's
    # group holds its number as written and None for its atoms
    groups: list[tuple[str, int | str, str, dict[str, tuple] | None]] = []
    for lineno, line in read_lines(path):
        if line.startswith("ENDMDL"):
            break
        if line.startswith("HETATM"):
            het = (line[21:22], line[22:27].strip(), line[17:20].strip(), None)
            if not groups or groups[-1] != het:
                groups.append(het)
            continue
        if not line.startswith("ATOM"):
            continue
        if len(line.rstrip("\n")) < 54:
            raise FormatError(f"{path}:{lineno}: ATOM line shorter than coordinate fields")
        try:
            res_index = int(line[22:26])
            xyz = (float(line[30:38]), float(line[38:46]), float(line[46:54]))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed fixed-width ATOM fields")
        if line[26] != " ":
            raise FormatError(
                f"{path}:{lineno}: insertion code {line[26]!r} not supported"
            )
        if not (line[21] == " " or line[21].isascii() and line[21].isalnum()):
            raise FormatError(f"{path}:{lineno}: chain id {line[21]!r} is not a letter, "
                              "a digit or blank")
        if line[16] not in (" ", "A"):
            continue
        if not groups or groups[-1][:2] != (line[21], res_index):
            groups.append((line[21], res_index, line[17:20].strip(), {}))
        atom_name = line[12:16].strip()
        if atom_name in _COORD_ATOMS:
            groups[-1][3].setdefault(atom_name, xyz)

    chains: dict[str, list[ResidueRecord]] = {}
    skipped: list[str] = []
    for chain_id, index, res_name, atoms in groups:
        if atoms is None:
            skipped.append(f"{path}: chain {chain_id} residue {index} ({res_name}) "
                           f"is a HETATM record; skipped")
            continue
        order = _COORD_ATOMS[::-1] if res_name == "GLY" else _COORD_ATOMS
        picked = [atoms[name] for name in order if name in atoms]
        if not picked:
            skipped.append(f"{path}: chain {chain_id} residue {index} ({res_name}) "
                           f"has neither CB nor CA; skipped")
            continue
        chain = chains.setdefault(chain_id, [])
        if chain and chain[-1].index >= index:
            raise FormatError(
                f"{path}: chain {chain_id} residue numbers not strictly "
                f"increasing at residue {index}"
            )
        chain.append(ResidueRecord(index=index, xyz=np.array(picked[0], dtype=np.float64)))
    if not chains:
        raise FormatError(f"{path}: no usable ATOM records found")
    return chains, skipped


@dataclass
class ContactMap:
    """Symmetric boolean residue-residue contact matrix, false diagonal; tag
    is one of CONTACT_TAGS (build-contacts --tag, read_contact_map's header)."""

    n: int
    bits: np.ndarray
    threshold: float = CONTACT_THRESHOLD
    tag: str = "native"

    def __post_init__(self):
        if self.bits.shape != (self.n, self.n):
            raise DataError(f"contact bits shape {self.bits.shape} does not match n={self.n}")


def build_contact_map(
    residues: list[ResidueRecord], threshold: float = CONTACT_THRESHOLD, tag: str = "native"
) -> ContactMap:
    """Pairwise Euclidean distance < threshold (strict); diagonal false."""
    coords = np.stack([r.xyz for r in residues])
    # one (n, n) plane per axis, summed (dx² + dy²) + dz² in the order
    # (delta * delta).sum(axis=2) over an (n, n, 3) delta sums them, so
    # every distance keeps its bits
    dx, dy, dz = (np.subtract.outer(c, c) for c in coords.T)
    dx *= dx
    dy *= dy
    dz *= dz
    dx += dy
    dx += dz
    bits = np.sqrt(dx, out=dx) < threshold
    np.fill_diagonal(bits, False)
    return ContactMap(n=len(residues), bits=bits, threshold=threshold, tag=tag)


def write_contact_map(cmap: ContactMap, path) -> None:
    """Text form: 'n=<n> threshold=<t> tag=<tag>' then n rows of 0/1."""
    body = np.full((cmap.n, cmap.n + 1), ord("\n"), dtype=np.uint8)
    body[:, :-1] = np.where(cmap.bits, ord("1"), ord("0"))
    with atomic_write(path) as fh:
        fh.write(f"n={cmap.n} threshold={cmap.threshold!r} tag={cmap.tag}\n")
        fh.write(body.tobytes().decode("ascii"))


def _raise_first_bad_row(path, n: int, rows: list[tuple[int, str]]) -> None:
    """FormatError naming the first of rows (line number, row) that is not
    n characters of 0/1."""
    for lineno, row in rows:
        # strip("01") leaves nothing exactly when every character is 0 or 1
        if len(row) != n or row.strip("01"):
            raise FormatError(f"{path}:{lineno}: expected {n} characters of 0/1, got {row!r}")


def read_contact_map(path) -> ContactMap:
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].strip()
    fields = dict(
        part.split("=", 1) for part in header.split() if "=" in part
    )
    if set(fields) != {"n", "threshold", "tag"}:
        raise FormatError(f"{path}:1: bad contact map header {header!r}")
    try:
        n = int(fields["n"])
        threshold = float(fields["threshold"])
    except ValueError:
        raise FormatError(f"{path}:1: non-numeric header fields in {header!r}")
    if not 0 < threshold < np.inf or fields["tag"] not in CONTACT_TAGS:
        raise FormatError(f"{path}:1: bad contact map header {header!r}")
    rows = []  # (line number, row)
    for lineno, line in lines:
        stripped = line.strip()
        if stripped:
            rows.append((lineno, stripped))
            if len(stripped) != n:
                _raise_first_bad_row(path, n, rows)
    # the 0/1 check runs once over all rows; a non-ASCII character makes the
    # UTF-8 bytes outnumber the characters
    text = "".join([row for _, row in rows])
    codes = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ones = codes == ord("1")
    if codes.size != len(text) or not (ones | (codes == ord("0"))).all():
        _raise_first_bad_row(path, n, rows)
    if len(rows) != n:
        raise FormatError(f"{path}: expected {n} rows, found {len(rows)}")
    bits = ones.reshape(n, n)
    if not np.array_equal(bits, bits.T):
        raise FormatError(f"{path}: contact map is not symmetric")
    if n and bits.diagonal().any():
        raise FormatError(f"{path}: contact map has true diagonal entries")
    return ContactMap(n=n, bits=bits, threshold=threshold, tag=fields["tag"])
