"""Binary checkpoint format: round trips, validation, corruption handling."""

import struct
from pathlib import Path

import numpy as np
import pytest

from protprompt import checkpoint as C
from protprompt.config import RunConfig
from protprompt.errors import FormatError, ShapeError
from protprompt.model import ModelConfig, ProteinEncoder
from protprompt.objectives import Adam


def test_raw_round_trip_is_bitwise(tmp_path):
    path = tmp_path / "x.bin"
    entries = {
        "a": np.arange(6, dtype=np.float64).reshape(2, 3),
        "b": np.asarray(3.25),
        "c.long.name": np.linspace(-1, 1, 7),
    }
    C.save_checkpoint(path, "d=64\n", entries)
    text, back = C.load_checkpoint(path)
    assert text == "d=64\n"
    assert list(back) == list(entries)  # order preserved
    for k in entries:
        assert back[k].dtype == np.float64
        assert np.array_equal(back[k], entries[k])
        assert back[k].shape == entries[k].shape


def test_magic_and_version_checks(tmp_path):
    path = tmp_path / "x.bin"
    C.save_checkpoint(path, "", {"a": np.zeros(1)})
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="magic"):
        C.load_checkpoint(bad)
    raw2 = bytearray(raw)
    raw2[4] = 99
    bad.write_bytes(bytes(raw2))
    with pytest.raises(FormatError, match="version"):
        C.load_checkpoint(bad)


def test_truncated_and_trailing_bytes(tmp_path):
    path = tmp_path / "x.bin"
    C.save_checkpoint(path, "k=v\n", {"a": np.ones((3, 3))})
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(FormatError, match="truncated"):
        C.load_checkpoint(cut)
    fat = tmp_path / "fat.bin"
    fat.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        C.load_checkpoint(fat)


def _raw_checkpoint(config: bytes, name: bytes, dims: tuple, payload: bytes) -> bytes:
    return (C.MAGIC + struct.pack("<IQ", C.VERSION, len(config)) + config
            + struct.pack("<QI", 1, len(name)) + name
            + struct.pack(f"<I{len(dims)}Q", len(dims), *dims) + payload)


@pytest.mark.parametrize("what", ["config text", "entry name"])
def test_non_utf8_header_text_is_a_format_error(tmp_path, what):
    config, name = (b"d=\xff\n", b"a") if what == "config text" else (b"", b"\xfe")
    path = tmp_path / "x.bin"
    path.write_bytes(_raw_checkpoint(config, name, (1,), bytes(8)))
    with pytest.raises(FormatError, match=f"x.bin: {what} is not UTF-8"):
        C.load_checkpoint(path)


def test_impossible_zero_size_dims_are_a_format_error(tmp_path):
    # 0 * 2**63 elements needs no payload, but numpy holds no dim of 2**63
    path = tmp_path / "x.bin"
    path.write_bytes(_raw_checkpoint(b"", b"a", (0, 2**63), b""))
    with pytest.raises(FormatError, match="x.bin: entry a has impossible dims"):
        C.load_checkpoint(path)


def _tiny_model(seed=0):
    rc = RunConfig(d=16, layers=1, heads=2, max_len=8, prompts="Seq,IC", seed=seed)
    return ProteinEncoder(ModelConfig.from_run_config(rc), seed=seed), rc


def test_model_round_trip_bitwise(tmp_path):
    model, rc = _tiny_model(seed=5)
    path = tmp_path / "m.bin"
    C.save_model(path, model, rc)
    back, rc2, state = C.load_model(path)
    assert rc2 == rc
    assert state == {}
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, back.parameters()[name].data), name


def test_model_round_trip_with_optimizer_state(tmp_path):
    model, rc = _tiny_model(seed=6)
    opt = Adam(model.parameters(), lr=1e-3)
    grads = {n: np.full(p.shape, 0.5) for n, p in model.parameters().items()}
    opt.step(grads)
    opt.step(grads)
    path = tmp_path / "m.bin"
    C.save_model(path, model, rc, optimizer=opt)
    _, _, state = C.load_model(path)
    assert int(state["opt.step"]) == 2
    opt2 = Adam(model.parameters(), lr=1e-3)
    opt2.load_state_entries(state)
    assert opt2.t == 2
    for name in model.parameters():
        assert np.array_equal(opt2.m[name], opt.m[name])
        assert np.array_equal(opt2.v[name], opt.v[name])


def test_resumed_optimizer_holds_the_states_moment_arrays(tmp_path):
    # load_checkpoint made the moments fresh and a resumed run keeps the
    # state alive, so a copy would hold every moment twice
    model, rc = _tiny_model(seed=6)
    opt = Adam(model.parameters(), lr=1e-3)
    opt.step({n: np.full(p.shape, 0.5) for n, p in model.parameters().items()})
    path = tmp_path / "m.bin"
    C.save_model(path, model, rc, optimizer=opt)
    back, _, state = C.load_model(path)
    opt2 = Adam(back.parameters(), lr=1e-3)
    opt2.load_state_entries(state)
    for name in back.parameters():
        assert opt2.m[name] is state[f"opt.m.{name}"]
        assert opt2.v[name] is state[f"opt.v.{name}"]


def test_load_model_returns_the_reserved_prefix_as_state(tmp_path):
    model, rc = _tiny_model(seed=4)
    entries = {n: p.data for n, p in model.parameters().items()}
    moments = {"opt.m.embed.tok": np.ones((25, 16)), "opt.v.embed.tok": np.ones((25, 16))}
    path = tmp_path / "m.bin"
    C.save_checkpoint(path, rc.to_text(), {**entries, "opt.step": np.asarray(4.0), **moments})
    back, _, state = C.load_model(path)
    assert list(back.parameters()) == list(entries)
    assert list(state) == ["opt.step", *moments]


PARAMETER_SET_ERRORS = {
    # case: (entry, its new value or None to delete it, the error's message)
    "extra": ("b", np.zeros(2),
              r"m.bin: parameter set mismatch; missing none, unexpected \['b'\]"),
    "missing": ("head.mlm.b", None,
                r"m.bin: parameter set mismatch; missing \['head.mlm.b'\], unexpected none"),
}


@pytest.mark.parametrize("case", PARAMETER_SET_ERRORS)
def test_load_model_parameter_set_messages(tmp_path, case):
    entry, value, message = PARAMETER_SET_ERRORS[case]
    model, rc = _tiny_model(seed=3)
    entries = {n: p.data for n, p in model.parameters().items()}
    if value is None:
        del entries[entry]
    else:
        entries[entry] = value
    path = tmp_path / "m.bin"
    C.save_checkpoint(path, rc.to_text(), entries)
    with pytest.raises(FormatError, match=message):
        C.load_model(path)


def test_load_model_rejects_shape_drift(tmp_path):
    model, rc = _tiny_model(seed=7)
    entries = {n: p.data for n, p in model.parameters().items()}
    entries["embed.tok"] = np.zeros((3, 3))
    path = tmp_path / "drift.bin"
    C.save_checkpoint(path, rc.to_text(), entries)
    with pytest.raises(ShapeError, match=r"drift.bin: parameter embed.tok has shape \(3, 3\), "
                                         r"config expects \(25, 16\)"):
        C.load_model(path)


def test_config_text_round_trips_exactly(tmp_path):
    _, rc = _tiny_model(seed=8)
    path = tmp_path / "m.bin"
    model = ProteinEncoder(ModelConfig.from_run_config(rc), seed=8)
    C.save_model(path, model, rc)
    text, _ = C.load_checkpoint(path)
    assert text == rc.to_text()


def test_readme_load_snippet_runs(tmp_path, monkeypatch):
    # the README's "Load a checkpoint" block, run as written against a fresh
    # small checkpoint, so the documented API cannot drift from the code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Load a checkpoint with:\n\n```python\n", 1)[1].split("```", 1)[0]
    cfg = RunConfig(d=16, layers=1, heads=2, max_len=24)
    (tmp_path / "run").mkdir()
    C.save_model(tmp_path / "run" / "final.bin",
                 ProteinEncoder(ModelConfig.from_run_config(cfg), seed=0), cfg)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(block, scope)
    assert scope["pooled"].shape == (16,)
    assert scope["per_residue"].shape == (9, 16)  # the snippet's nine residues
