"""Config parsing, precedence, canonical text and validation."""

import re
from pathlib import Path

import pytest

from protprompt.config import (
    _RETIRED_KEYS,
    _VALID_KEYS,
    RunConfig,
    build_config,
    parse_kv_line,
    parse_overrides,
    read_config_file,
)
from protprompt.errors import ConfigError


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.d == 64 and cfg.layers == 2 and cfg.heads == 4
    assert cfg.prompt_names() == ("Seq", "IC")
    assert cfg.alpha() == {"ppi": 1.0}


def test_to_text_is_sorted_and_round_trips():
    cfg = RunConfig(d=32, lr=0.004, routing=False)
    lines = cfg.to_text().strip().splitlines()
    keys = [line.split("=")[0] for line in lines]
    assert keys == sorted(keys)
    assert "lambda=1.0" in lines
    assert "routing=false" in lines
    again = build_config(base_text=cfg.to_text())
    assert again == cfg
    assert again.hash() == cfg.hash()


def test_hash_is_sha256_hex_and_sensitive():
    a, b = RunConfig(), RunConfig(d=32)
    assert len(a.hash()) == 64 and set(a.hash()) <= set("0123456789abcdef")
    assert a.hash() != b.hash()
    assert a.hash() == RunConfig().hash()


def test_precedence_cli_over_file_over_defaults(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# comment line\nd=48\nlr=0.0001\n\nsteps=7\n")
    cfg = build_config(str(f), {"d": "96"})
    assert cfg.d == 96  # CLI wins
    assert cfg.lr == 0.0001  # file wins over default
    assert cfg.steps == 7
    assert cfg.layers == 2  # untouched default


def test_base_text_sits_below_file_and_overrides(tmp_path):
    base = RunConfig(d=32, steps=50).to_text()
    f = tmp_path / "run.cfg"
    f.write_text("steps=60\n")
    cfg = build_config(str(f), {"seed": "9"}, base_text=base)
    assert cfg.d == 32 and cfg.steps == 60 and cfg.seed == 9


def test_lambda_key_maps_to_attribute():
    cfg = build_config(overrides={"lambda": "0.5"})
    assert cfg.lambda_weight == 0.5
    assert "lambda=0.5" in cfg.to_text()
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(overrides={"lambda_weight": "0.5"})


def test_unknown_key_and_bad_values():
    with pytest.raises(ConfigError, match="unknown config key 'dd'"):
        build_config(overrides={"dd": "3"})
    with pytest.raises(ConfigError, match="integer"):
        build_config(overrides={"d": "big"})
    with pytest.raises(ConfigError, match="number"):
        build_config(overrides={"lr": "fast"})
    with pytest.raises(ConfigError, match="true/false"):
        build_config(overrides={"routing": "maybe"})
    for raw in ("nan", "inf", "-Infinity"):
        with pytest.raises(ConfigError, match="'lambda' needs a finite number"):
            build_config(overrides={"lambda": raw})


def test_bool_spellings():
    for raw, want in (("true", True), ("1", True), ("on", True),
                      ("false", False), ("0", False), ("off", False)):
        assert build_config(overrides={"routing": raw}).routing is want


def test_validation_rejections():
    with pytest.raises(ConfigError, match="divisible"):
        RunConfig(d=30, heads=4)
    with pytest.raises(ConfigError, match="sum to"):
        RunConfig(mask_prob_mask=0.5, mask_prob_random=0.1, mask_prob_keep=0.1)
    with pytest.raises(ConfigError, match="duplicate prompt"):
        RunConfig(prompts="Seq,Seq")
    with pytest.raises(ConfigError):
        RunConfig(lambda_weight=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(alpha_ppi=-0.5)
    with pytest.raises(ConfigError):
        RunConfig(mlm_reduction="max")
    with pytest.raises(ConfigError):
        RunConfig(max_len=1)
    with pytest.raises(ConfigError):
        RunConfig(lr=0.0)
    for key, value in (("adam_eps", 0.0), ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0),
                       ("seed", -1), ("batch_seqs", 0), ("batch_pairs", -2)):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})
    # the edges of each range are valid
    RunConfig(beta1=0.0, beta2=0.0, adam_eps=1e-300, seed=0, batch_seqs=1, batch_pairs=1)
    with pytest.raises(ConfigError, match="probe_cutoff"):
        RunConfig(probe_cutoff=-0.5)
    with pytest.raises(ConfigError, match="unknown config key 'weight_decay'"):
        build_config(overrides=parse_overrides(["weight_decay=0.01"]))


RETIRED = {"alpha_contact": "0.25", "alpha_regress": "3.0", "alpha_ss": "0.5",
           "out_dir": "run", "weight_decay": "0.0", "mask_mode": "additive"}


def test_retired_keys_are_skipped_in_stored_text_only(tmp_path):
    # older checkpoints store keys that never shaped a run's outputs, or did
    # so only as the code still runs: their stored config still loads, and
    # drops them, but no user may set them
    stored = RunConfig(d=32).to_text() + "".join(f"{k}={v}\n" for k, v in RETIRED.items())
    cfg = build_config(base_text=stored)
    assert cfg == RunConfig(d=32) and cfg.to_text() == RunConfig(d=32).to_text()
    f = tmp_path / "c.cfg"
    for key, value in RETIRED.items():
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_config(overrides={key: value})
        f.write_text(f"{key}={value}\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_config(str(f), base_text=stored)


def test_soft_bounds_warn_but_do_not_fail():
    cfg = RunConfig(lr=0.01)
    notes = cfg.warnings()
    assert len(notes) == 1 and "lr=0.01" in notes[0]
    assert RunConfig().warnings() == []


def test_parse_kv_line():
    assert parse_kv_line("a = 3") == ("a", "3")
    assert parse_kv_line("  # note") is None
    assert parse_kv_line("") is None
    with pytest.raises(ConfigError):
        parse_kv_line("just words")


def test_parse_overrides():
    assert parse_overrides(["a=1", "b = x "]) == {"a": "1", "b": "x"}
    with pytest.raises(ConfigError):
        parse_overrides(["oops"])


def test_read_config_file_last_wins(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("d=32\nd=48\n")
    assert read_config_file(str(f)) == {"d": "48"}


def test_empty_prompts_allowed():
    cfg = RunConfig(prompts="")
    assert cfg.prompt_names() == ()


def test_readme_config_table_lists_exactly_the_keys():
    # the backticked names in the first column of README's key table
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    listed = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        listed += re.findall(r"`([^`]+)`", line.split("|")[1])
    assert sorted(listed) == sorted(_VALID_KEYS)
    assert not set(listed) & set(_RETIRED_KEYS)
