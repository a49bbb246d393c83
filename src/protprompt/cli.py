"""Command-line interface.

Subcommands: pretrain, inject, eval, build-contacts, split, probe.
Exit codes: 0 success, 1 data error, 2 config error.

Every command that reads a checkpoint (pretrain --resume, inject, eval,
probe) builds its config in one order: the checkpoint's stored config,
then --config, then --set, then flags. A supplied value that contradicts
a structural key of the checkpoint is a config error.

Runs are deterministic: all randomness is derived per step from
(seed, step, purpose), so a resumed run reproduces the uninterrupted one
bitwise and two runs with the same config produce identical checkpoints.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import data as D
from . import metrics as MX
from . import objectives as O
from . import tokenizer as T
from .config import (
    RunConfig,
    build_config,
    check_structural,
    parse_overrides,
)
from .errors import ConfigError, DataError, Error, FormatError
from .model import PROMPT_INIT_STD, ModelConfig, ProteinEncoder
from .numerics import Tensor

# rng stream purposes, mixed into the per-step seed tuple
_RNG_MLM_PICK = 0
_RNG_PAIR_PICK = 1
_RNG_MLM_MASK = 2
_RNG_NEGATIVES = 3


def _step_rng(seed: int, step: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng((seed, step, purpose))


# ---------------------------------------------------------------------------
# corpus / batch assembly


def _encode_table(table: dict[str, str], max_len: int) -> dict[str, T.TokenSequence]:
    return {name: T.encode(seq, max_len, name) for name, seq in sorted(table.items())}


def _load_ppi(tsv, table: dict[str, str]) -> D.PPIGraph:
    """Parse an interaction TSV, report its skipped lines, attach residues."""
    graph, skips = D.parse_ppi_tsv(tsv)
    for line in skips:
        print(line, file=sys.stderr)
    graph.attach_sequences(table)
    return graph


def _pick_rows(rows: list, cfg: RunConfig, step: int) -> list:
    """The step's draw of up to batch_pairs distinct rows."""
    rng = _step_rng(cfg.seed, step, _RNG_PAIR_PICK)
    idx = rng.choice(len(rows), size=min(cfg.batch_pairs, len(rows)), replace=False)
    return [rows[int(i)] for i in idx]


def _mlm_batch(corpus, cfg: RunConfig, step: int) -> O.MlmTaskBatch:
    rng = _step_rng(cfg.seed, step, _RNG_MLM_PICK)
    size = min(cfg.batch_seqs, len(corpus))
    idx = rng.choice(len(corpus), size=size, replace=False)
    seqs = [corpus[int(i)] for i in idx]
    probs = (cfg.mask_prob_mask, cfg.mask_prob_random, cfg.mask_prob_keep)
    masked = [
        T.apply_mlm_mask(s, cfg.mask_rate, (cfg.seed, step, _RNG_MLM_MASK, int(i)), probs)
        for i, s in zip(idx, seqs)
    ]
    return O.MlmTaskBatch(sequences=seqs, masked=masked)


def _ppi_batches(graph: D.PPIGraph, encoded, cfg: RunConfig, width: int):
    """Per-step batches of rows for a pair head of the given width.

    Width 1 labels a row 1 when any of its bits is set and adds an equal
    count of non-adjacent negatives; binary files that carry explicit 0
    labels supply their own negatives and are sampled as given. A wider head
    takes the file's rows and bits as given.
    """
    rows = sorted(graph.edges.items())
    names = sorted(graph.nodes)
    has_explicit_negatives = graph.label_width == 1 and any(
        not bits.any() for bits in graph.edges.values()
    )

    def build(step: int) -> O.PairTaskBatch:
        picked = _pick_rows(rows, cfg, step)
        size = len(picked)
        pairs = [(encoded[a], encoded[b]) for (a, b), _ in picked]
        labels = [bits.astype(np.float64) if width > 1 else [float(bits.any())]
                  for _, bits in picked]
        if width == 1 and not has_explicit_negatives:
            neg_rng = _step_rng(cfg.seed, step, _RNG_NEGATIVES)
            got, tries = 0, 0
            while got < size and tries < 1000 * size:
                tries += 1
                a, b = (names[int(k)] for k in neg_rng.integers(len(names), size=2))
                if a == b:
                    continue
                key = (a, b) if a < b else (b, a)
                if key in graph.edges:
                    continue
                pairs.append((encoded[a], encoded[b]))
                labels.append([0.0])
                got += 1
            if got < size:
                raise DataError("graph too dense to sample non-interacting pairs")
        return O.PairTaskBatch(name="ppi", pairs=pairs, labels=np.array(labels))

    return build


# ---------------------------------------------------------------------------
# run output helpers


def _metrics_log_header(cfg: RunConfig, task_order) -> list[str]:
    lines = [f"# config_hash={cfg.hash()}"]
    lines += [f"# {line}" for line in cfg.to_text().strip().splitlines()]
    cells = ["step", "l_conserve"] + [f"l_{t}" for t in task_order] + ["total", "ms"]
    lines.append(",".join(cells))
    return lines


def _checkpoint_path(out_dir: Path, step: int) -> Path:
    return out_dir / f"ckpt_step{step}.bin"


def _prune_checkpoints(out_dir: Path, keep_last: int) -> None:
    ckpts = sorted(
        out_dir.glob("ckpt_step*.bin"),
        key=lambda p: int(p.stem.replace("ckpt_step", "")),
    )
    for old in ckpts[:-keep_last]:
        old.unlink()


def _drop_log_rows_from(log_path: Path, start_step: int) -> None:
    """Cut the log before its first row of step >= start_step; resume replays those."""
    offset = 0
    with open(log_path, "r+b") as fh:
        for line in fh:
            cell = line.split(b",", 1)[0]
            if cell.isdigit() and int(cell) >= start_step:
                break
            offset += len(line)
        fh.truncate(offset)


def _print_warnings(cfg: RunConfig) -> None:
    for note in cfg.warnings():
        print(note, file=sys.stderr)


def _adam(params: dict[str, Tensor], cfg: RunConfig) -> O.Adam:
    return O.Adam(params, lr=cfg.lr, betas=(cfg.beta1, cfg.beta2), eps=cfg.adam_eps,
                  warmup_updates=cfg.warmup_updates)


# ---------------------------------------------------------------------------
# subcommands


def cmd_pretrain(args) -> int:
    cfg, model, state = _load_config(args, ("fasta", "ppi", "steps", "seed"), args.resume)
    _print_warnings(cfg)
    if not cfg.fasta:
        raise ConfigError("pretrain needs a FASTA corpus (--fasta or config key fasta)")

    table = D.parse_fasta(cfg.fasta)
    encoded = _encode_table(table, cfg.max_len)
    if not encoded:
        raise DataError(f"{cfg.fasta}: empty corpus")
    corpus = list(encoded.values())
    # the graph's endpoints reuse the corpus's encodings
    graph = _load_ppi(cfg.ppi, table) if cfg.ppi else None
    tasks = ("ppi",) if graph is not None else ()
    pair_batch = _ppi_batches(graph, encoded, cfg, 1) if graph is not None else None

    start_step = int(state.get("opt.step", np.asarray(0.0)))
    if model is None:
        model = ProteinEncoder(ModelConfig.from_run_config(cfg), seed=cfg.seed)
    optimizer = _adam(model.parameters(), cfg)
    if state:
        optimizer.load_state_entries(state)

    # the output directory stays out of the config, so it leaves no trace in
    # the checkpoints
    out_dir = Path(args.out_dir or (Path(args.resume).parent if args.resume else "run"))
    out_dir.mkdir(parents=True, exist_ok=True)
    T.write_vocab(out_dir / "vocab.txt")
    log_path = out_dir / "metrics.csv"
    resumed_log = Path(args.resume).parent / "metrics.csv" if args.resume else None
    if resumed_log and resumed_log.exists() and not log_path.exists():
        # a run resumed into a new directory carries the steps before its
        # checkpoint over from the checkpoint's own log
        with ckpt.atomic_write(log_path, "wb") as fh:
            fh.write(resumed_log.read_bytes())
    log_mode = "a" if args.resume and log_path.exists() else "w"
    if log_mode == "a":
        _drop_log_rows_from(log_path, start_step)
    with open(log_path, log_mode) as log:
        if log_mode == "w":
            log.write("\n".join(_metrics_log_header(cfg, tasks)) + "\n")
        for step in range(start_step, cfg.steps):
            mlm = _mlm_batch(corpus, cfg, step)
            report = O.train_step(
                model,
                optimizer,
                mlm,
                [pair_batch(step)] if pair_batch is not None else [],
                cfg.routing,
                cfg.lambda_weight,
                cfg.alpha(),
                step=step,
                mlm_reduction=cfg.mlm_reduction,
            )
            log.write(report.log_line(tasks) + "\n")
            if (step + 1) % cfg.checkpoint_every == 0:
                log.flush()  # a checkpoint never runs ahead of its log rows
                ckpt.save_model(_checkpoint_path(out_dir, step + 1), model, cfg, optimizer)
                _prune_checkpoints(out_dir, cfg.keep_last)
    ckpt.save_model(out_dir / "final.bin", model, cfg, optimizer)
    print(f"pretrain complete: {cfg.steps} steps, checkpoint {out_dir / 'final.bin'}")
    return 0


def _read_labeled_tsv(path):
    """Rows of id, sequence, value... used by ss/regress tasks."""
    rows = []
    for lineno, line in D.read_lines(path):
        stripped = line.rstrip("\n")
        if not stripped.strip() or stripped.startswith("#"):
            continue
        cells = stripped.split("\t")
        if len(cells) < 3:
            raise FormatError(f"{path}:{lineno}: expected id, sequence, value columns")
        rows.append((cells[0].strip(), cells[1].strip(), cells[2:]))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def cmd_inject(args) -> int:
    """Register a new prompt and train it (plus the task head) on a task.

    The encoder is frozen unless --no-freeze-encoder is given; frozen
    parameters are absent from the optimizer and need no gradient, so they
    stay bitwise identical to the base checkpoint.
    """
    cfg, model, _ = _load_config(args, ("steps", "lr", "seed"), args.checkpoint)
    _print_warnings(cfg)
    prompt_name = args.prompt
    # a name the prompts key cannot list back (empty, or holding a comma)
    if not prompt_name.replace("_", "").isalnum():
        raise ConfigError(f"prompt name {prompt_name!r} must be alphanumeric")
    if prompt_name in O.frozen_prompts((prompt_name,), "ppi", True):
        raise ConfigError(f"prompt {prompt_name!r} learns from the conservation loss only, "
                          "so inject could never train it")
    if not args.data or not args.fasta:
        raise ConfigError("inject --task ppi needs --data (TSV) and --fasta")
    graph = _load_ppi(args.data, D.parse_fasta(args.fasta))
    pair_batch = _ppi_batches(graph, _encode_table(graph.nodes, cfg.max_len), cfg,
                              graph.label_width)
    init_rng = np.random.default_rng((cfg.seed, len(model.prompts)))
    model.prompts.register(
        prompt_name, Tensor(init_rng.normal(0.0, PROMPT_INIT_STD, cfg.d))
    )
    new_prompts = cfg.prompt_names() + (prompt_name,)
    cfg = build_config(
        base_text=cfg.to_text(), overrides={"prompts": ",".join(new_prompts)}
    )

    trainable: dict[str, Tensor] = {f"prompt.{prompt_name}": model.prompts.get(prompt_name)}
    all_params = model.parameters()
    for name in ("head.pair.w", "head.pair.b", "head.pair_bin.w", "head.pair_bin.b"):
        trainable[name] = all_params[name]
    if args.no_freeze_encoder:
        trainable.update(model.encoder_parameters())
    for name, p in all_params.items():
        p.requires_grad = name in trainable

    optimizer = _adam(trainable, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.csv", "w") as log:
        log.write("\n".join(_metrics_log_header(cfg, ("ppi",))) + "\n")
        for step in range(cfg.steps):
            report = O.train_step(
                model, optimizer, None, [pair_batch(step)], True, cfg.lambda_weight,
                cfg.alpha(), step=step, mlm_reduction=cfg.mlm_reduction,
            )
            log.write(report.log_line(("ppi",)) + "\n")
    ckpt.save_model(out_dir / "injected.bin", model, cfg, optimizer)
    print(f"inject complete: prompt {prompt_name!r}, checkpoint {out_dir / 'injected.bin'}")
    return 0


def cmd_eval(args) -> int:
    cfg, model, _ = _load_config(args, (), args.checkpoint)
    if args.prompts is None:
        prompt_sel = model.prompts.names()
    elif args.prompts == "":
        prompt_sel = ()
    else:
        prompt_sel = tuple(p.strip() for p in args.prompts.split(","))
        for p in prompt_sel:
            model.prompts.get(p)  # raises ConfigError on unknown names

    records = _EVAL_TASKS[args.task](model, cfg, args, prompt_sel)
    lines = [f"# config_hash={cfg.hash()}", "task,metric,value,prompts"]
    sel = "|".join(prompt_sel)
    for task, metric, value in records:
        lines.append(f"{task},{metric},{value!r},{sel}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with ckpt.atomic_write(args.out) as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _eval_ppi(model, cfg, args, prompt_sel):
    if not args.data or not args.fasta:
        raise ConfigError("eval --task ppi needs --data (TSV) and --fasta")
    graph = _load_ppi(args.data, D.parse_fasta(args.fasta))
    encoded = _encode_table(graph.nodes, cfg.max_len)
    pooled: dict[str, Tensor] = {}

    def pool_of(name: str) -> Tensor:
        if name not in pooled:
            pooled[name] = model.pool(model.encode(encoded[name], prompt_sel))
        return pooled[name]

    preds, truths = [], []
    for (a, b), bits in sorted(graph.edges.items()):
        logits = model.pair_logits(pool_of(a), pool_of(b), graph.label_width).data
        preds.append((logits > 0).astype(np.int64))
        truths.append(bits)
    f1 = MX.micro_f1(np.stack(preds), np.stack(truths))
    acc = float(np.mean(np.stack(preds) == np.stack(truths)))
    return [("ppi", "micro_f1", f1), ("ppi", "accuracy", acc)]


def _eval_contact(model, cfg, args, prompt_sel):
    if not args.maps_dir or (not args.fasta and not args.scores_dir):
        raise ConfigError(
            "eval --task contact needs --maps-dir plus --fasta (model scores) "
            "or --scores-dir (precomputed scores)"
        )
    maps_dir = Path(args.maps_dir)
    map_files = sorted(maps_dir.glob("*.cmap"))
    if not map_files:
        raise DataError(f"{maps_dir}: no .cmap files")
    table = D.parse_fasta(args.fasta) if args.fasta else {}
    per_class: dict[str, list[float]] = {name: [] for name in MX.RANGE_CLASSES}
    truncated = 0
    for map_file in map_files:
        truth = D.read_contact_map(map_file)
        stem = map_file.stem
        if args.scores_dir:
            scores = D.read_contact_map(Path(args.scores_dir) / map_file.name).bits.astype(
                np.float64
            )
        else:
            if stem not in table:
                raise DataError(f"no sequence with id {stem!r} for map {map_file}")
            seq = T.encode(table[stem], cfg.max_len, stem)
            if seq.n_residues != truth.n:
                raise DataError(
                    f"{map_file}: map n={truth.n} but sequence {stem!r} has "
                    f"{seq.n_residues} residues"
                )
            scores = model.contact_logits(model.encode(seq, prompt_sel)).data
        for name, rc in MX.RANGE_CLASSES.items():
            result = MX.precision_at_l_half(scores, truth, rc)
            per_class[name].append(result.precision)
            truncated += int(result.truncated)
    records = [
        ("contact", f"p_at_l2_{name}", float(np.mean(vals)))
        for name, vals in per_class.items()
    ]
    records.append(("contact", "truncated_evals", float(truncated)))
    return records


def _eval_ss(model, cfg, args, prompt_sel):
    if not args.data:
        raise ConfigError("eval --task ss needs --data (id, sequence, labels TSV)")
    classes = args.classes
    rows = _read_labeled_tsv(args.data)
    preds, truths = [], []
    for name, residues, values in rows:
        label_str = values[0]
        if len(label_str) != len(residues):
            raise FormatError(
                f"{args.data}: row {name!r} has {len(label_str)} labels "
                f"for {len(residues)} residues"
            )
        try:
            truth = np.array([int(c) for c in label_str], dtype=np.int64)
        except ValueError:
            raise FormatError(f"{args.data}: row {name!r} has non-digit labels {label_str!r}")
        seq = T.encode(residues, cfg.max_len, name)
        logits = model.token_logits(model.encode(seq, prompt_sel), classes)
        preds.append(np.argmax(logits.data, axis=1))
        truths.append(truth)
    acc = MX.q_accuracy(np.concatenate(preds), np.concatenate(truths), classes)
    return [("ss", f"q{classes}", acc)]


def _eval_regress(model, cfg, args, prompt_sel):
    if not args.data:
        raise ConfigError("eval --task regress needs --data (id, sequence, value TSV)")
    rows = _read_labeled_tsv(args.data)
    preds, truths = [], []
    for name, residues, values in rows:
        try:
            truths.append(float(values[0]))
        except ValueError:
            raise FormatError(f"{args.data}: row {name!r} has non-numeric value {values[0]!r}")
        if not np.isfinite(truths[-1]):
            raise FormatError(f"{args.data}: row {name!r} has non-finite value {values[0]!r}")
        seq = T.encode(residues, cfg.max_len, name)
        pooled = model.pool(model.encode(seq, prompt_sel))
        preds.append(float(model.regress(pooled).data))
    rho = MX.spearman_rho(np.array(preds), np.array(truths))
    return [("regress", "spearman", rho)]


_EVAL_TASKS = {"ppi": _eval_ppi, "contact": _eval_contact, "ss": _eval_ss,
               "regress": _eval_regress}


def cmd_build_contacts(args) -> int:
    cfg, _, _ = _load_config(args, ("contact_threshold",))
    pdb_dir = Path(args.pdb_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_lines = [f"# config_hash={cfg.hash()}"]
    hard_errors = 0
    pdb_files = sorted(pdb_dir.glob("*.pdb"))
    for pdb_file in pdb_files:
        try:
            chains, skips = D.parse_pdb(pdb_file)
        except DataError as exc:
            report_lines.append(f"error: {exc}")
            print(f"error: {exc}", file=sys.stderr)
            hard_errors += 1
            continue
        report_lines.extend(skips)
        for chain_id, residues in sorted(chains.items()):
            cmap = D.build_contact_map(residues, cfg.contact_threshold, tag=args.tag)
            out_path = out_dir / f"{pdb_file.stem}_{chain_id}.cmap"
            D.write_contact_map(cmap, out_path)
            report_lines.append(f"{out_path.name}: n={cmap.n} from {pdb_file.name}")
    with ckpt.atomic_write(out_dir / "report.txt") as fh:
        fh.write("\n".join(report_lines) + "\n")
    print(f"built contact maps for {len(pdb_files)} files, {hard_errors} hard errors")
    return 1 if hard_errors else 0


def cmd_split(args) -> int:
    graph, skips = D.parse_ppi_tsv(args.ppi)
    for line in skips:
        print(line, file=sys.stderr)
    spec = D.split_graph(graph, args.mode, args.fraction, args.seed)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    for part, edges in (("train", spec.train_edges), ("test", spec.test_edges)):
        with ckpt.atomic_write(f"{prefix}_{part}.tsv") as fh:
            for a, b in edges:
                bits = "\t".join(str(int(v)) for v in graph.edges[(a, b)])
                fh.write(f"{a}\t{b}\t{bits}\n")
    print(
        f"split mode={spec.mode} seed={spec.seed} root={spec.root} "
        f"selected={len(spec.selected)} train={len(spec.train_edges)} "
        f"test={len(spec.test_edges)}"
    )
    return 0


def cmd_probe(args) -> int:
    cfg, model, _ = _load_config(args, ("probe_cutoff",), args.checkpoint)
    model.prompts.get(args.prompt)
    table = D.parse_fasta(args.fasta)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, residues in sorted(table.items()):
        seq = T.encode(residues, cfg.max_len, name)
        report = MX.embedding_shift_probe(model, seq, args.prompt, cfg.probe_cutoff)
        lines = [f"# config_hash={cfg.hash()}"] + report.csv_lines()
        with ckpt.atomic_write(out_dir / f"{name}.csv") as fh:
            fh.write("\n".join(lines) + "\n")
        flagged = sum(e.flagged for e in report.entries)
        print(f"{name}: {len(report.entries)} residues, {flagged} above cutoff")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _flag_overrides(args, keys: tuple[str, ...]) -> dict[str, str]:
    """Combine --set pairs with direct flags (flags win)."""
    overrides = parse_overrides(args.set or [])
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = str(val)
    return overrides


def _load_config(args, keys: tuple[str, ...], checkpoint=None):
    """(cfg, model, state) from the checkpoint's stored config, if one is
    given, then --config, --set and the flags named in keys. Without a
    checkpoint, model is None and state is empty."""
    model, stored, state = ckpt.load_model(checkpoint) if checkpoint else (None, None, {})
    overrides = _flag_overrides(args, keys)
    base_text = stored.to_text() if stored is not None else None
    cfg = build_config(args.config, overrides, base_text=base_text)
    if stored is not None:
        check_structural(cfg, stored)
    return cfg, model, state


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable; wins over the file)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protprompt",
        description="prompt-guided knowledge injection for protein encoders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="multi-task pretraining run")
    _add_common(p)
    p.add_argument("--fasta", default=None, help="training corpus")
    p.add_argument("--ppi", default=None, help="interaction TSV for the injection task")
    p.add_argument(
        "--out-dir", dest="out_dir", default=None,
        help="output directory (default: the --resume checkpoint's directory, else run)",
    )
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("inject", help="train a new prompt on a task")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", required=True, help="name of the new prompt")
    p.add_argument("--task", required=True, choices=("ppi",))
    p.add_argument("--data", default=None, help="task data file")
    p.add_argument("--fasta", default=None, help="sequences for the task data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--no-freeze-encoder", action="store_true",
        help="also update encoder parameters (frozen by default)",
    )
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", required=True, choices=tuple(_EVAL_TASKS))
    p.add_argument("--data", default=None, help="task data file (ppi/ss/regress)")
    p.add_argument("--fasta", default=None)
    p.add_argument("--maps-dir", dest="maps_dir", default=None, help="truth contact maps")
    p.add_argument(
        "--scores-dir", dest="scores_dir", default=None,
        help="read contact scores from files instead of the model",
    )
    p.add_argument("--classes", type=int, default=3, choices=(3, 8))
    p.add_argument(
        "--prompts", default=None,
        help="comma list of prompts to attach ('' = none; default: all)",
    )
    p.add_argument("--out", default=None, help="also write records to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("build-contacts", help="PDB directory to contact maps")
    _add_common(p)
    p.add_argument("--pdb-dir", dest="pdb_dir", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument(
        "--threshold", dest="contact_threshold", type=float, default=None,
        help="contact distance threshold in angstroms",
    )
    p.add_argument("--tag", default="native", choices=D.CONTACT_TAGS)
    p.set_defaults(func=cmd_build_contacts)

    p = sub.add_parser("split", help="BFS/DFS edge split of an interaction graph")
    p.add_argument("--ppi", required=True)
    p.add_argument("--mode", required=True, choices=("bfs", "dfs"))
    p.add_argument("--fraction", type=float, required=True, help="test node fraction")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("probe", help="per-residue embedding shift report")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument(
        "--cutoff", dest="probe_cutoff", type=float, default=None,
        help="flag residues whose representation moved further than this",
    )
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
