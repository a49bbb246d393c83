"""Run configuration: flat key=value files, CLI overrides, canonical hash.

Precedence is CLI override > config file > built-in default. The canonical
text form (sorted key=value lines) is embedded verbatim in checkpoints and
its SHA-256 hash is stamped on every other artifact, so any two artifacts
can be checked for config agreement.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

from .data import CONTACT_THRESHOLD, read_lines
from .errors import ConfigError

# keys that define the network topology; a command that reads a checkpoint
# refuses explicit user values that contradict its stored ones
STRUCTURAL_KEYS = ("d", "layers", "heads", "max_len", "prompts")


def check_structural(cfg: RunConfig, stored: RunConfig) -> None:
    """Refuse structural values of cfg that contradict stored's (cfg is
    built on stored's text, so only a value the user supplied can differ)."""
    for key in STRUCTURAL_KEYS:
        if getattr(cfg, key) != getattr(stored, key):
            raise ConfigError(
                f"{key}={getattr(cfg, key)!r} contradicts checkpoint "
                f"value {getattr(stored, key)!r} (config hash {stored.hash()[:12]})"
            )


@dataclass
class RunConfig:
    # model topology
    d: int = 64
    layers: int = 2
    heads: int = 4
    max_len: int = 256
    prompts: str = "Seq,IC"
    # objective weights
    lambda_weight: float = 1.0
    alpha_ppi: float = 1.0
    mlm_reduction: str = "sum"  # or "mean"
    # masking and learning rates; the 80/10/10 split and Adam's betas and eps are fixed
    mask_rate: float = 0.15
    lr: float = 1e-5
    # training loop
    steps: int = 200
    batch_seqs: int = 8
    batch_pairs: int = 8
    routing: bool = True
    checkpoint_every: int = 100
    keep_last: int = 3
    seed: int = 42
    # data
    fasta: str = ""
    ppi: str = ""
    contact_threshold: float = CONTACT_THRESHOLD
    probe_cutoff: float = 1.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.d <= 0 or self.layers <= 0 or self.heads <= 0:
            raise ConfigError("d, layers and heads must be positive")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} is not divisible by heads={self.heads}")
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
        if self.mlm_reduction not in ("sum", "mean"):
            raise ConfigError(f"mlm_reduction must be sum or mean, got {self.mlm_reduction!r}")
        if self.lambda_weight < 0:
            raise ConfigError("lambda must be >= 0")
        if self.alpha_ppi < 0:
            raise ConfigError("alpha_ppi must be >= 0")
        if not (0.0 < self.mask_rate < 1.0):
            raise ConfigError(f"mask_rate must be in (0, 1), got {self.mask_rate}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.steps < 0 or self.checkpoint_every <= 0 or self.keep_last <= 0:
            raise ConfigError("steps must be >= 0, checkpoint_every and keep_last positive")
        if self.batch_seqs < 1 or self.batch_pairs < 1:
            raise ConfigError(f"batch_seqs and batch_pairs must be >= 1, got "
                              f"{self.batch_seqs}, {self.batch_pairs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        names = self.prompt_names()
        for n in names:
            if not n.replace("_", "").isalnum():  # an empty name too
                raise ConfigError(f"prompts={self.prompts!r}: prompt name {n!r} "
                                  "must be alphanumeric")
        if len(set(names)) != len(names):
            raise ConfigError(f"prompts={self.prompts!r}: duplicate prompt names")
        if self.contact_threshold <= 0:
            raise ConfigError("contact_threshold must be positive")
        if self.probe_cutoff < 0:
            raise ConfigError(f"probe_cutoff must be >= 0, got {self.probe_cutoff}")

    def prompt_names(self) -> tuple[str, ...]:
        if not self.prompts.strip():
            return ()
        return tuple(p.strip() for p in self.prompts.split(","))

    def alpha(self) -> dict[str, float]:
        return {"ppi": self.alpha_ppi}

    def to_text(self) -> str:
        """Canonical text form: sorted key=value lines."""
        pairs = {}
        for f in dataclasses.fields(self):
            key = _FIELD_TO_KEY.get(f.name, f.name)
            val = getattr(self, f.name)
            if isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = repr(val)
            pairs[key] = str(val)
        return "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs)) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


# "lambda" is a reserved word, so the attribute is lambda_weight but the
# config key stays "lambda"
_FIELD_TO_KEY = {"lambda_weight": "lambda"}
_KEY_TO_FIELD = {v: k for k, v in _FIELD_TO_KEY.items()}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# the config surface accepts canonical keys only (so "lambda", never the
# internal attribute spelling)
_VALID_KEYS = {_FIELD_TO_KEY.get(name, name) for name in _FIELD_TYPES}
# keys that older checkpoints store: skipped in a stored config, unknown
# everywhere else. Each maps to the one stored value the code still runs, so
# a checkpoint holding another is refused, or to None for a key that never
# shaped a run's outputs (out_dir only named where they went)
_RETIRED_KEYS = {"alpha_contact": None, "alpha_regress": None, "alpha_ss": None,
                 "out_dir": None, "weight_decay": None, "mask_mode": "additive",
                 "beta1": "0.9", "beta2": "0.999", "adam_eps": "1e-08", "warmup_updates": "0",
                 "mask_prob_mask": "0.8", "mask_prob_random": "0.1", "mask_prob_keep": "0.1"}


def _coerce(key: str, raw: str):
    """raw as the type of config key's field; errors name the key."""
    ftype = _FIELD_TYPES[_KEY_TO_FIELD.get(key, key)]
    raw = raw.strip()
    if ftype in ("int",):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} needs an integer, got {raw!r}")
    if ftype in ("float",):
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} needs a number, got {raw!r}")
        if not math.isfinite(val):
            raise ConfigError(f"key {key!r} needs a finite number, got {raw!r}")
        return val
    if ftype in ("bool",):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r} needs true/false, got {raw!r}")
    return raw


def parse_kv(items) -> dict[str, str]:
    """The key -> value map of (source, text) items: each text is split at its
    first '=' and both sides stripped, and the last value of a key wins. A
    text without '=' is a ConfigError naming its source."""
    pairs: dict[str, str] = {}
    for source, text in items:
        key, eq, value = text.partition("=")
        if not eq:
            raise ConfigError(f"{source}: {text.strip()!r} is not key=value")
        pairs[key.strip()] = value.strip()
    return pairs


def build_config(
    file_path: str | None = None,
    overrides: dict[str, str] | None = None,
    base_text: str | None = None,
) -> RunConfig:
    """Assemble a RunConfig from (optional) base text, file and overrides.

    base_text is a stored config read from a file (a checkpoint's, or a log
    header's); the file, then the overrides, are layered on top of it. Blank
    and # lines of base_text and the file are dropped. Retired keys in
    base_text are dropped, so checkpoints that name them still load, unless
    one holds a value the code no longer runs.
    """
    values: dict[str, object] = {}

    def absorb(pairs: dict[str, str]):
        for key, raw in pairs.items():
            if key not in _VALID_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            values[_KEY_TO_FIELD.get(key, key)] = _coerce(key, raw)

    if base_text is not None:
        stored = parse_kv(("stored config", line) for line in base_text.splitlines()
                          if line.strip()[:1] not in ("", "#"))
        for key, kept in _RETIRED_KEYS.items():
            if kept is not None and stored.get(key, kept) != kept:
                raise ConfigError(f"stored {key}={stored[key]} is no longer supported; "
                                  f"only {key}={kept} loads")
        absorb({k: v for k, v in stored.items() if k not in _RETIRED_KEYS})
    if file_path:
        absorb(parse_kv((f"{file_path}:{n}", line) for n, line in read_lines(file_path)
                        if line.strip()[:1] not in ("", "#")))
    if overrides:
        absorb(dict(overrides))
    return RunConfig(**values)

