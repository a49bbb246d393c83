"""Binary checkpoint format.

Layout (all integers little-endian):

    magic            4 bytes  b"CFPT"
    format version   u32      currently 1
    config length    u64      byte length of the UTF-8 config text
    config text      bytes    canonical key=value lines
    entry count      u64
    per entry:
        name length  u32
        name         UTF-8 bytes
        ndim         u32
        dims         ndim x u64
        payload      float64 little-endian, C order

Entries appear in a fixed order: model parameters in registration order,
then optional training-state entries under the reserved "opt." prefix
(step counter and Adam moments), which loaders ignore for inference.

Checkpoints go through atomic_write, as do the CLI's eval records, probe
CSVs, contact maps, split TSVs and vocab.txt, so an interrupted write
leaves no partial file.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError

MAGIC = b"CFPT"
VERSION = 1

OPT_PREFIX = "opt."


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open path.tmp for writing and rename it onto path when the block ends.

    If the block or the write fails, path.tmp is removed and path keeps
    whatever it held before, so a reader never sees a partial file.
    """
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, config_text: str, entries: dict[str, np.ndarray]) -> None:
    """Write the checkpoint through atomic_write: a failed save leaves no partial path."""
    blob = config_text.encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<Q", len(entries)))
        for name, arr in entries.items():
            # asarray keeps 0-d entries 0-d (opt.step is a scalar)
            data = np.asarray(arr, dtype=np.float64)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(data.astype("<f8", copy=False).tobytes(order="C"))


def _read_exact(fh, count: int, path, what: str) -> bytes:
    # sizes come from the header: check them against the file before reading
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise FormatError(f"{path}: truncated checkpoint while reading {what}")
    buf = fh.read(count)
    if len(buf) != count:
        raise FormatError(f"{path}: truncated checkpoint while reading {what}")
    return buf


def _read_text(fh, count: int, path, what: str) -> str:
    try:
        return _read_exact(fh, count, path, what).decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: {what} is not UTF-8")


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    """Read a checkpoint; returns (config text, ordered name -> array map)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        (cfg_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "config length"))
        config_text = _read_text(fh, cfg_len, path, "config text")
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, path, "entry count"))
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "name length"))
            name = _read_text(fh, name_len, path, "entry name")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, path, "ndim"))
            dims = tuple(
                struct.unpack("<Q", _read_exact(fh, 8, path, "dim"))[0] for _ in range(ndim)
            )
            n_elem = 1
            for dim in dims:
                n_elem *= dim
            payload = _read_exact(fh, n_elem * 8, path, f"payload of {name}")
            try:
                entries[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
            except ValueError:  # dims numpy cannot represent, whose product is 0
                raise FormatError(f"{path}: entry {name} has impossible dims {dims}")
        trailing = fh.read(1)
        if trailing:
            raise FormatError(f"{path}: trailing bytes after last entry")
    return config_text, entries


def split_entries(entries: dict[str, np.ndarray]):
    """Separate model parameters from reserved training-state entries."""
    params = {k: v for k, v in entries.items() if not k.startswith(OPT_PREFIX)}
    state = {k: v for k, v in entries.items() if k.startswith(OPT_PREFIX)}
    return params, state


def validate_shapes(expected: dict[str, tuple], got: dict[str, np.ndarray], path) -> None:
    """Check the loaded parameter set against config-derived expectations."""
    missing = [k for k in expected if k not in got]
    extra = [k for k in got if k not in expected]
    if missing or extra:
        raise FormatError(
            f"{path}: parameter set mismatch; missing {missing or 'none'}, "
            f"unexpected {extra or 'none'}"
        )
    for name, shape in expected.items():
        if got[name].shape != tuple(shape):
            raise ShapeError(
                f"{path}: parameter {name} has shape {got[name].shape}, "
                f"config expects {tuple(shape)}"
            )


def save_model(path, model, run_config, optimizer=None) -> None:
    """Serialise model parameters (and optionally training state)."""
    entries: dict[str, np.ndarray] = {
        name: p.data for name, p in model.parameters().items()
    }
    if optimizer is not None:
        entries.update(optimizer.state_entries())
    save_checkpoint(path, run_config.to_text(), entries)


def load_model(path):
    """Rebuild a ProteinEncoder from a checkpoint.

    Returns (model, run_config, training-state entries). Parameter names
    and shapes are validated against the stored config before assignment.
    """
    from .config import build_config
    from .model import ModelConfig, ProteinEncoder

    config_text, entries = load_checkpoint(path)
    run_config = build_config(base_text=config_text)
    model = ProteinEncoder(ModelConfig.from_run_config(run_config), seed=run_config.seed)
    params, state = split_entries(entries)
    expected = {name: p.shape for name, p in model.parameters().items()}
    validate_shapes(expected, params, path)
    for name, p in model.parameters().items():
        p.data = params[name].copy()
    return model, run_config, state
