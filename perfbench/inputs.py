"""Seeded input files: FASTA corpora, interaction tables and PDB chains.

Every function draws only from the generator it is given, so one seed
gives byte-identical files and another seed gives different ones. Lengths
are stratified (one draw per equal-width stratum of the range), so the
total work of a workload hardly changes from seed to seed while the
residues, graphs and coordinates do.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
# approximate natural residue frequencies (percent), in RESIDUES order; a
# skewed composition gives the masked-LM head something to learn
_FREQ = np.array(
    [8.25, 1.37, 5.45, 6.75, 3.86, 7.07, 2.27, 5.96, 5.84, 9.66,
     2.42, 4.06, 4.70, 3.93, 5.53, 6.56, 5.34, 6.87, 1.08, 2.92]
)
_PROBS = _FREQ / _FREQ.sum()
_THREE = dict(zip(RESIDUES, (
    "ALA CYS ASP GLU PHE GLY HIS ILE LYS LEU "
    "MET ASN PRO GLN ARG SER THR VAL TRP TYR"
).split()))

CA_STEP = 3.8  # angstroms between consecutive C-alpha atoms
CB_OFFSET = 1.53  # angstroms from C-alpha to C-beta


def stratified_lengths(rng: np.random.Generator, count: int, lo: int, hi: int) -> list[int]:
    """`count` lengths in [lo, hi], one per equal-width stratum, shuffled."""
    width = (hi + 1 - lo) / count
    picks = np.floor(lo + width * (np.arange(count) + rng.random(count))).astype(int)
    return [int(n) for n in rng.permutation(np.minimum(picks, hi))]


def proteins(rng: np.random.Generator, prefix: str, count: int, lo: int, hi: int) -> dict[str, str]:
    """Ordered id -> residue string map with stratified lengths."""
    table = {}
    for i, n in enumerate(stratified_lengths(rng, count, lo, hi)):
        picks = rng.choice(len(RESIDUES), size=n, p=_PROBS)
        table[f"{prefix}{i:03d}"] = "".join(RESIDUES[k] for k in picks)
    return table


def hub_graph(rng: np.random.Generator, names: list[str], links: int) -> list[tuple[str, str]]:
    """Preferential-attachment edges: each new node links to `links` earlier
    nodes picked in proportion to their degree, so a few hubs collect most
    interactions."""
    edges: set[tuple[str, str]] = set()
    ends: list[int] = list(range(links + 1))
    for i in range(links + 1):
        for j in range(i):
            edges.add(tuple(sorted((names[j], names[i]))))
            ends += [i, j]
    for i in range(links + 1, len(names)):
        chosen: set[int] = set()
        while len(chosen) < links:
            chosen.add(ends[int(rng.integers(len(ends)))])
        for j in sorted(chosen):
            a, b = sorted((names[i], names[j]))
            edges.add((a, b))
            ends += [i, j]
    return sorted(edges)


def non_edges(
    rng: np.random.Generator, names: list[str], edges: list[tuple[str, str]], count: int
) -> list[tuple[str, str]]:
    """`count` distinct unordered pairs that are not in `edges`."""
    taken = set(edges)
    out: list[tuple[str, str]] = []
    while len(out) < count:
        i, j = (int(k) for k in rng.integers(len(names), size=2))
        key = tuple(sorted((names[i], names[j])))
        if i == j or key in taken:
            continue
        taken.add(key)
        out.append(key)
    return sorted(out)


def write_fasta(path: Path, table: dict[str, str]) -> None:
    with open(path, "w") as fh:
        for name, seq in table.items():
            fh.write(f">{name}\n{seq}\n")


def write_pairs(path: Path, positives, negatives=()) -> None:
    """Binary interaction TSV: id_a, id_b, 0/1 label."""
    rows = [(a, b, 1) for a, b in positives] + [(a, b, 0) for a, b in negatives]
    with open(path, "w") as fh:
        for a, b, label in sorted(rows):
            fh.write(f"{a}\t{b}\t{label}\n")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def chain_trace(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) C-alpha coordinates of a compact random walk: each step keeps
    some of the previous direction and is pulled towards the origin, so the
    chain folds back on itself and forms long-range contacts."""
    ca = np.zeros((n, 3))
    direction = _unit(rng.normal(size=3))
    for i in range(1, n):
        pull = -ca[i - 1] / 12.0
        direction = _unit(0.6 * direction + rng.normal(size=3) + pull)
        ca[i] = ca[i - 1] + CA_STEP * direction
    return ca


def write_pdb(path: Path, residues: str, ca: np.ndarray, rng: np.random.Generator) -> None:
    """Chain A with a CA atom per residue and a CB for every non-glycine."""
    lines = []
    serial = 1
    for i, (res, xyz) in enumerate(zip(residues, ca), start=1):
        atoms = [("CA", xyz)]
        if res != "G":
            atoms.append(("CB", xyz + CB_OFFSET * _unit(rng.normal(size=3))))
        for atom, (x, y, z) in atoms:
            lines.append(
                f"ATOM  {serial:>5} {atom:<4} {_THREE[res]:<3} A{i:>4}    "
                f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00\n"
            )
            serial += 1
    lines.append("END\n")
    Path(path).write_text("".join(lines))
