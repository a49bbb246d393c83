"""Data pipelines: FASTA, interaction tables, graph splits, PDB, contacts.

All parsers fail loudly with file/line context. Nothing is ever silently
dropped: rejected records (self-loops, residues without usable atoms) are
returned in skip reports so callers can surface them.
"""

from __future__ import annotations

import io
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write
from .errors import ConfigError, DataError, FormatError

CONTACT_THRESHOLD = 8.0
CONTACT_TAGS = ("native", "interaction")

# residues resolved to CB, glycine to CA; other atoms are ignored
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
    sequence lines are joined. Duplicate ids and sequence data before the
    first header are errors.
    """
    table: dict[str, str] = {}
    current: str | None = None
    chunks: list[str] = []

    def flush():
        if current is not None:
            seq = "".join(chunks)
            if not seq:
                raise FormatError(f"{path}: record {current!r} has an empty sequence")
            table[current] = seq

    for lineno, line in read_lines(path):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(">"):
            flush()
            header = stripped[1:].strip()
            if not header:
                raise FormatError(f"{path}:{lineno}: empty FASTA header")
            name = header.split()[0]
            if name in table:
                raise FormatError(f"{path}:{lineno}: duplicate sequence id {name!r}")
            current = name
            chunks = []
        else:
            if current is None:
                raise FormatError(
                    f"{path}:{lineno}: sequence data before the first '>' header"
                )
            chunks.append(stripped)
    flush()
    return table


@dataclass
class PPIGraph:
    """Undirected interaction graph with per-edge 0/1 label vectors.

    Edge keys are canonical (lexicographically smaller id first). Label
    vectors have width 1 (binary interaction files) or 7 (typed files);
    widths never mix within one graph.
    """

    nodes: dict[str, str | None] = field(default_factory=dict)
    edges: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    label_width: int = 0

    def add_edge(self, a: str, b: str, labels: np.ndarray) -> None:
        if a == b:
            raise DataError(f"self-loop {a!r} cannot be added")
        key = (a, b) if a < b else (b, a)
        self.nodes.setdefault(a, None)
        self.nodes.setdefault(b, None)
        if key in self.edges:
            self.edges[key] = self.edges[key] | labels
        else:
            self.edges[key] = labels.copy()

    def neighbors(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def attach_sequences(self, table: dict[str, str]) -> None:
        """Link node ids to residue strings; every endpoint must resolve."""
        missing = sorted(n for n in self.nodes if n not in table)
        if missing:
            raise DataError(f"no sequence for interaction endpoints: {missing}")
        for n in self.nodes:
            self.nodes[n] = table[n]


def parse_ppi_tsv(path) -> tuple[PPIGraph, list[str]]:
    """Read a tab-separated interaction table.

    Rows are id1, id2, then either one 0/1 column (binary) or seven
    (interaction types). Duplicate pairs merge by bitwise OR; self-loops
    are rejected into the returned skip report.
    """
    graph = PPIGraph()
    skipped: list[str] = []
    for lineno, line in read_lines(path):
        stripped = line.rstrip("\n")
        if not stripped.strip() or stripped.startswith("#"):
            continue
        cells = stripped.split("\t")
        if len(cells) not in (3, 9):
            raise FormatError(
                f"{path}:{lineno}: expected 3 or 9 tab-separated columns, got {len(cells)}"
            )
        a, b = cells[0].strip(), cells[1].strip()
        if not a or not b:
            raise FormatError(f"{path}:{lineno}: empty protein id")
        raw = cells[2:]
        width = len(raw)
        if graph.label_width == 0:
            graph.label_width = width
        elif graph.label_width != width:
            raise FormatError(
                f"{path}:{lineno}: {width} label columns, "
                f"earlier rows had {graph.label_width}"
            )
        try:
            labels = np.array([int(c) for c in raw], dtype=np.int64)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: labels must be integers, got {raw}")
        if not np.all((labels == 0) | (labels == 1)):
            raise FormatError(f"{path}:{lineno}: labels must be 0 or 1, got {raw}")
        if a == b:
            skipped.append(f"{path}:{lineno}: self-loop {a!r} skipped")
            continue
        graph.add_edge(a, b, labels)
    return graph, skipped


@dataclass
class SplitSpec:
    """Outcome of a traversal-based edge split."""

    mode: str  # "bfs" or "dfs"
    seed: int
    fraction: float
    root: str
    selected: tuple[str, ...]
    train_edges: tuple[tuple[str, str], ...]
    test_edges: tuple[tuple[str, str], ...]


def _components(adj: dict[str, list[str]]) -> list[list[str]]:
    seen: set[str] = set()
    comps: list[list[str]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            comp.append(node)
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        comps.append(sorted(comp))
    return comps


def split_graph(graph: PPIGraph, mode: str, fraction: float, seed: int) -> SplitSpec:
    """Select ceil(fraction * |C|) nodes by BFS/DFS over the largest
    component C from a seed-chosen random root; an edge is TEST iff at
    least one endpoint was selected.

    Neighbor order is sorted ids, so the traversal is fully deterministic
    given (mode, seed). Selecting every node of the component would leave
    no training edges inside it and is a config error.
    """
    if mode not in ("bfs", "dfs"):
        raise ConfigError(f"split mode must be bfs or dfs, got {mode!r}")
    if not (0.0 < fraction < 1.0):
        raise ConfigError(f"test fraction must be in (0, 1), got {fraction}")
    if seed < 0:
        raise ConfigError(f"split seed must be >= 0, got {seed}")
    if not graph.edges:
        raise DataError("cannot split a graph with no edges")
    adj = {n: sorted(nbs) for n, nbs in graph.neighbors().items()}
    comps = _components(adj)
    component = max(comps, key=len)  # _components yields sorted, stable order
    k = math.ceil(fraction * len(component))
    if k >= len(component):
        raise ConfigError(
            f"fraction {fraction} selects all {len(component)} nodes of the "
            f"largest component; nothing would remain for training"
        )
    rng = np.random.default_rng(seed)
    root = component[int(rng.integers(len(component)))]

    selected: list[str] = []
    visited = {root}
    if mode == "bfs":
        queue = deque([root])
        while queue and len(selected) < k:
            node = queue.popleft()
            selected.append(node)
            for nb in adj[node]:
                if nb not in visited:
                    visited.add(nb)
                    queue.append(nb)
    else:
        stack = [root]
        while stack and len(selected) < k:
            node = stack.pop()
            selected.append(node)
            for nb in reversed(adj[node]):
                if nb not in visited:
                    visited.add(nb)
                    stack.append(nb)

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
        fraction=fraction,
        root=root,
        selected=tuple(selected),
        train_edges=tuple(train),
        test_edges=tuple(test),
    )


@dataclass
class ResidueRecord:
    """One residue's representative coordinate from a PDB chain."""

    index: int  # author residue number, strictly increasing per chain
    name: str  # 3-letter residue code
    xyz: np.ndarray
    atom: str  # "CB", or "CA" for glycine / fallback


def parse_pdb(path) -> tuple[dict[str, list[ResidueRecord]], list[str]]:
    """Fixed-width parse of ATOM records into per-chain residue coordinates.

    Policy: CB is the representative atom, CA for glycine. Alternate
    locations other than ' ' or 'A' are ignored. Insertion codes are
    rejected. Only the first model is read. Residues with neither CB nor
    CA go to the skip report.
    """
    chains: dict[str, list[ResidueRecord]] = {}
    skipped: list[str] = []
    pending: dict | None = None

    def flush():
        nonlocal pending
        if pending is None:
            return
        atoms = pending["atoms"]
        if "CB" in atoms and pending["name"] != "GLY":
            xyz, atom = atoms["CB"], "CB"
        elif "CA" in atoms:
            xyz, atom = atoms["CA"], "CA"
        elif "CB" in atoms:  # glycine with a (modelled) CB but no CA
            xyz, atom = atoms["CB"], "CB"
        else:
            skipped.append(
                f"{path}: chain {pending['chain']} residue {pending['index']} "
                f"({pending['name']}) has neither CB nor CA; skipped"
            )
            pending = None
            return
        rec = ResidueRecord(index=pending["index"], name=pending["name"], xyz=xyz, atom=atom)
        chain = chains.setdefault(pending["chain"], [])
        if chain and chain[-1].index >= rec.index:
            raise FormatError(
                f"{path}: chain {pending['chain']} residue numbers not strictly "
                f"increasing at residue {rec.index}"
            )
        chain.append(rec)
        pending = None

    for lineno, line in read_lines(path):
        if line.startswith("ENDMDL"):
            break
        if not line.startswith("ATOM"):
            continue
        if len(line.rstrip("\n")) < 54:
            raise FormatError(f"{path}:{lineno}: ATOM line shorter than coordinate fields")
        atom_name = line[12:16].strip()
        alt_loc = line[16]
        res_name = line[17:20].strip()
        chain_id = line[21]
        icode = line[26]
        try:
            res_index = int(line[22:26])
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed fixed-width ATOM fields")
        if icode != " ":
            raise FormatError(
                f"{path}:{lineno}: insertion code {icode!r} not supported"
            )
        if alt_loc not in (" ", "A"):
            continue
        # every residue opens a record so ones lacking CB/CA still
        # reach flush() and land in the skip report
        key = (chain_id, res_index)
        if pending is not None and (pending["chain"], pending["index"]) != key:
            flush()
        if pending is None:
            pending = {
                "chain": chain_id,
                "index": res_index,
                "name": res_name,
                "atoms": {},
            }
        if atom_name in _COORD_ATOMS:
            pending["atoms"].setdefault(
                atom_name, np.array([x, y, z], dtype=np.float64)
            )
    flush()
    if not chains:
        raise FormatError(f"{path}: no usable ATOM records found")
    return chains, skipped


@dataclass
class ContactMap:
    """Symmetric boolean residue-residue contact matrix, false diagonal."""

    n: int
    bits: np.ndarray
    threshold: float = CONTACT_THRESHOLD
    tag: str = "native"

    def __post_init__(self):
        if self.tag not in CONTACT_TAGS:
            raise ConfigError(f"contact map tag must be one of {CONTACT_TAGS}")
        if self.bits.shape != (self.n, self.n):
            raise DataError(f"contact bits shape {self.bits.shape} does not match n={self.n}")


def build_contact_map(
    residues: list[ResidueRecord], threshold: float = CONTACT_THRESHOLD, tag: str = "native"
) -> ContactMap:
    """Pairwise Euclidean distance < threshold (strict); diagonal false."""
    if threshold <= 0:
        raise ConfigError(f"contact threshold must be positive, got {threshold}")
    if not residues:
        raise DataError("cannot build a contact map from zero residues")
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
