"""Command-line interface.

Subcommands: pretrain, inject, resume, eval, build-contacts, split, probe.
Exit codes: 0 success, 1 data error, 2 config error.

A config holds what a training run reads, so only pretrain and inject take
--config and --set. inject layers them, then its flags, on its checkpoint's
stored config, its fasta and ppi blanked, and a value that contradicts a
structural key of it is a config error. resume, eval and probe take the
checkpoint's config as stored (resume apart from --steps).

Runs are deterministic: all randomness is derived per step from
(seed, step, purpose), so a resumed run reproduces the uninterrupted one
bitwise and two runs with the same config produce identical checkpoints.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import sys
import time
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
    parse_kv,
)
from .errors import ConfigError, DataError, Error
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


def _task_ppi(command: str, tsv: str, fasta: str, max_len: int) -> tuple[D.PPIGraph, dict]:
    """The --data interaction TSV of inject or eval, and its endpoints encoded
    from --fasta."""
    if not tsv or not fasta:
        raise ConfigError(f"{command} --task ppi needs --data (TSV) and --fasta")
    table = D.parse_fasta(fasta)
    graph = _load_ppi(tsv, table)
    return graph, _encode_table({name: table[name] for name in graph.nodes}, max_len)


def _load_ppi(tsv, table: dict[str, str] | None = None) -> D.PPIGraph:
    """Parse an interaction TSV, report its skipped lines and refuse it if no
    edge is left or, given table, if an endpoint has no residues there."""
    graph, skips = D.parse_ppi_tsv(tsv)
    for line in skips:
        print(line, file=sys.stderr)
    if not graph.edges:
        raise DataError(f"{tsv}: no interaction rows (self-loops are skipped)")
    missing = [name for name in graph.nodes if table is not None and name not in table]
    if missing:
        raise DataError(f"no sequence for interaction endpoints: {missing}")
    return graph


def _pick_rows(rows: list, cfg: RunConfig, step: int) -> list:
    """The step's draw of up to batch_pairs distinct rows."""
    rng = _step_rng(cfg.seed, step, _RNG_PAIR_PICK)
    idx = rng.choice(len(rows), size=min(cfg.batch_pairs, len(rows)), replace=False)
    return [rows[int(i)] for i in idx]


def _mlm_batch(corpus, cfg: RunConfig, step: int) -> list[T.MlmBatch]:
    rng = _step_rng(cfg.seed, step, _RNG_MLM_PICK)
    size = min(cfg.batch_seqs, len(corpus))
    idx = rng.choice(len(corpus), size=size, replace=False)
    return [T.apply_mlm_mask(corpus[int(i)], cfg.mask_rate,
                             (cfg.seed, step, _RNG_MLM_MASK, int(i))) for i in idx]


def _ppi_batches(graph: D.PPIGraph, encoded, cfg: RunConfig, width: int):
    """Per-step batches of rows for a pair head of the given width.

    Width 1 labels a row 1 when any of its bits is set and adds an equal
    count of non-adjacent negatives, drawn by rejection and, where a dense
    graph leaves that short, from the sorted non-adjacent pairs; binary
    files that carry explicit 0 labels supply their own negatives and are
    sampled as given; without them, a complete graph is refused here,
    before any step. A wider head takes the file's rows and bits as given.
    """
    rows = sorted(graph.edges.items())
    names = graph.nodes
    has_explicit_negatives = graph.label_width == 1 and any(
        not bits.any() for bits in graph.edges.values()
    )
    complete = len(rows) == len(names) * (len(names) - 1) // 2
    if width == 1 and not has_explicit_negatives and complete:
        raise DataError(f"every pair of the graph's {len(names)} proteins interacts, "
                        "so no non-interacting pair can be sampled")

    def build(step: int) -> O.PairTaskBatch:
        picked = _pick_rows(rows, cfg, step)
        size = len(picked)
        ends = [edge for edge, _ in picked]
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
                ends.append((a, b))
                labels.append([0.0])
                got += 1
            if got < size:
                free = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                        if (a, b) not in graph.edges]
                ends += [free[int(k)] for k in neg_rng.integers(len(free), size=size - got)]
                labels += [[0.0]] * (size - got)
        # each protein's index into the batch's proteins, in order of first use
        slot: dict[str, int] = {}
        pairs = np.array([[slot.setdefault(name, len(slot)) for name in edge] for edge in ends])
        return O.PairTaskBatch(name="ppi", proteins=[encoded[name] for name in slot],
                               pairs=pairs, labels=np.array(labels))

    return build


# ---------------------------------------------------------------------------
# the training loop and its run outputs


def _log_header(cfg: RunConfig, tasks: tuple[str, ...]) -> str:
    lines = [f"# config_hash={cfg.hash()}"]
    lines += [f"# {line}" for line in cfg.to_text().strip().splitlines()]
    lines.append(",".join(["step", "l_conserve", *(f"l_{t}" for t in tasks), "total"]))
    return "\n".join(lines) + "\n"


def _log_row(step: int, l_conserve: float, task_losses: dict[str, float], cfg: RunConfig) -> str:
    """One metrics.csv row, every loss at full precision; the total is
    L_conserve + (sum_t L_t * alpha_t) * lambda, tasks in list order."""
    alpha, inject = cfg.alpha(), 0.0
    for name, loss in task_losses.items():
        inject += loss * alpha.get(name, 1.0)
    cells = [str(step), repr(l_conserve), *map(repr, task_losses.values()),
             repr(l_conserve + inject * cfg.lambda_weight)]
    return ",".join(cells) + "\n"


def _input_digests(cfg: RunConfig) -> dict[str, np.ndarray]:
    """opt.sha256.<key>: each input file cfg names, its SHA-256 as 32 byte values."""
    return {f"opt.sha256.{key}": np.array([*hashlib.sha256(Path(path).read_bytes()).digest()])
            for key, path in (("fasta", cfg.fasta), ("ppi", cfg.ppi)) if path}


def _timing_rows(path: Path, start: int) -> str:
    """The rows of an earlier try's timing.csv at path for steps before
    start, one per step; a row that does not parse is dropped."""
    rows, text = {}, path.read_text(errors="replace") if path.exists() else ""
    for line in text.splitlines():
        step, _, ms = line.partition(",")
        try:
            if 0 <= int(step) < start:
                rows[int(step)] = f"{int(step)},{float(ms):.3f}\n"
        except ValueError:
            continue
    return "".join(rows[step] for step in sorted(rows))


def _checkpoints(out_dir: Path) -> list[Path]:
    """out_dir's ckpt_step<digits>.bin files, oldest step first; other names
    are left out."""
    steps = {p: p.stem.removeprefix("ckpt_step") for p in out_dir.glob("ckpt_step*.bin")}
    return [p for _, p in sorted((int(step), p) for p, step in steps.items() if step.isdecimal())]


def _check_unused(out_dir: Path, *cfgs: RunConfig) -> None:
    """Refuse an out_dir that holds another run's metrics.csv or rolling
    checkpoints; one whose metrics.csv starts with the hash of one of cfgs
    holds an earlier try of this same run, which a rerun rewrites."""
    log = out_dir / "metrics.csv"
    used = [p for p in (log, *_checkpoints(out_dir)) if p.exists()]
    if used and not (used[0] == log and log.read_bytes().split(b"\n")[0] in
                     {f"# config_hash={cfg.hash()}".encode() for cfg in cfgs}):
        raise ConfigError(f"{used[0]}: the output directory holds another run's files; "
                          "write this run to a new one")


def _sources(cfg: RunConfig, pretrain: bool):
    """(mlm, {task: build}, pair head width): a pretrain's masked-LM over
    cfg.fasta plus binary ppi over cfg.ppi, if set, or an inject's ppi over
    cfg.ppi at its file's label width, encoding only the graph's endpoints."""
    if not pretrain:
        graph, encoded = _task_ppi("inject", cfg.ppi, cfg.fasta, cfg.max_len)
        width = graph.label_width
        return None, {"ppi": _ppi_batches(graph, encoded, cfg, width)}, width
    table = D.parse_fasta(cfg.fasta)
    encoded = _encode_table(table, cfg.max_len)
    corpus = list(encoded.values())
    # the graph's endpoints reuse the corpus's encodings
    tasks = {"ppi": _ppi_batches(_load_ppi(cfg.ppi, table), encoded, cfg, 1)} if cfg.ppi else {}
    return (lambda step: _mlm_batch(corpus, cfg, step)), tasks, 1


def _train(model, cfg: RunConfig, out_dir: Path, trained: set, state: dict, *same_run) -> Path:
    """Train trained plus its task's pair head, less the prompts every source
    holds, alone requiring a gradient, Adam resumed from state, into out_dir
    unless another run than cfg's or same_run's used it. A run that trains
    head.mlm is a pretrain, else an inject; it runs steps
    opt.step..cfg.steps-1 on its _sources and returns
    out_dir's final.bin (a pretrain's, after vocab.txt) or injected.bin.
    metrics.csv starts atomically with cfg's header and the rows of state's
    opt.loss; timing.csv keeps an earlier try's rows of those steps and takes
    each new step's ms. Every checkpoint carries its steps' loss cells
    (opt.loss) and input digests; every checkpoint_every steps one is saved
    and all but the newest keep_last are pruned."""
    mlm, tasks, width = _sources(cfg, model.heads["head.mlm.w"] in trained)
    held = frozenset.intersection(*(O.frozen_prompts(tuple(model.prompts), s, cfg.routing)
                                    for s in (O.CONSERVE,)[:bool(mlm)] + tuple(tasks)))
    trained = {*trained, *(model.pair_head(width) if tasks else ())} - \
        {model.prompts[n] for n in held}
    for p in model.parameters().values():
        p.requires_grad = p in trained
    _check_unused(out_dir, cfg, *same_run)
    optimizer = O.Adam({n: p for n, p in model.parameters().items() if p.requires_grad}, cfg.lr)
    optimizer.load_state_entries(state)
    names, start, digests = tuple(tasks), optimizer.t, _input_digests(cfg)
    losses = np.zeros((cfg.steps, 1 + len(names)))
    losses[:start] = state.get("opt.loss", 0.0)
    out_dir.mkdir(parents=True, exist_ok=True)
    if mlm:
        T.write_vocab(out_dir / "vocab.txt")
    log_path = out_dir / "metrics.csv"
    with ckpt.atomic_write(log_path) as fh:
        fh.write(_log_header(cfg, names) + "".join(
            _log_row(step, cells[0], dict(zip(names, cells[1:])), cfg)
            for step, cells in enumerate(losses[:start].tolist())))
    kept = _timing_rows(out_dir / "timing.csv", start)
    with open(log_path, "a") as log, open(out_dir / "timing.csv", "w") as timing:
        timing.write("step,ms\n" + kept)
        for step in range(start, cfg.steps):
            mlm_batch = mlm(step) if mlm else None
            task_batches = [build(step) for build in tasks.values()]
            t0 = time.monotonic()  # ms times the update, not the batch building
            l_conserve, task_losses = O.train_step(
                model, optimizer, mlm_batch, task_batches, cfg.routing, cfg.lambda_weight,
                cfg.alpha(), mlm_reduction=cfg.mlm_reduction)
            timing.write(f"{step},{(time.monotonic() - t0) * 1000.0:.3f}\n")
            losses[step] = (l_conserve, *task_losses.values())
            log.write(_log_row(step, l_conserve, task_losses, cfg))
            if (step + 1) % cfg.checkpoint_every == 0:
                log.flush()  # a checkpoint never runs ahead of its log rows
                ckpt.save_model(out_dir / f"ckpt_step{step + 1}.bin", model, cfg, optimizer,
                                {"opt.loss": losses[:step + 1], **digests})
                for old in _checkpoints(out_dir)[:-cfg.keep_last]:
                    old.unlink()
    final = out_dir / ("final.bin" if mlm else "injected.bin")
    ckpt.save_model(final, model, cfg, optimizer, {"opt.loss": losses, **digests})
    return final


# ---------------------------------------------------------------------------
# subcommands


def cmd_pretrain(args) -> int:
    cfg, _ = _load_config(args, ("fasta", "ppi", "steps", "seed"))
    if not cfg.fasta:
        raise ConfigError("pretrain needs a FASTA corpus (--fasta or config key fasta)")
    model = ProteinEncoder(ModelConfig.from_run_config(cfg), seed=cfg.seed)
    trained = {*model.encoder.values(), *model.head("mlm"), *model.prompts.values()}
    # the output directory stays out of the config, so it leaves no trace in
    # the checkpoints
    final = _train(model, cfg, Path(args.out_dir or "run"), trained, {})
    print(f"pretrain complete: {cfg.steps} steps, checkpoint {final}")
    return 0


def cmd_inject(args) -> int:
    """Register a new prompt and train it (plus the pair head its labels
    pick) on a task.

    The encoder is frozen unless --no-freeze-encoder is given; parameters
    outside the trained set require no gradient and get no opt.* entries,
    so they stay bitwise identical to the base checkpoint.
    """
    cfg, model = _load_config(args, ("fasta", "ppi", "steps", "lr", "seed"), args.checkpoint)
    prompt_name = args.prompt
    # a name the prompts key cannot list back (empty, or holding a comma)
    if not prompt_name.replace("_", "").isalnum():
        raise ConfigError(f"prompt name {prompt_name!r} must be alphanumeric")
    if prompt_name in O.frozen_prompts((prompt_name,), args.task, cfg.routing):
        raise ConfigError(f"prompt {prompt_name!r} learns from the conservation loss only, "
                          "so inject could never train it")
    # the config gate refuses a name the base already holds
    cfg = dataclasses.replace(cfg, prompts=",".join((*cfg.prompt_names(), prompt_name)))
    init_rng = np.random.default_rng((cfg.seed, len(model.prompts)))
    model.prompts[prompt_name] = Tensor(init_rng.normal(0.0, PROMPT_INIT_STD, cfg.d))
    trained = {model.prompts[prompt_name],
               *(model.encoder.values() if args.no_freeze_encoder else ())}
    final = _train(model, cfg, Path(args.out), trained, {})
    print(f"inject complete: prompt {prompt_name!r}, checkpoint {final}")
    return 0


def cmd_resume(args) -> int:
    """Continue a pretrain or inject run from its checkpoint alone: its config
    (--steps aside), its unchanged inputs and its trained set, its moments' names."""
    model, stored, state = ckpt.load_model(args.checkpoint)
    cfg = dataclasses.replace(stored, steps=stored.steps if args.steps is None else args.steps)
    step = int(state.get("opt.step", 0))
    # both commands log one task column, ppi, exactly when cfg.ppi is set
    if state.get("opt.loss", np.zeros(0)).shape != (step, 1 + bool(cfg.ppi)):
        raise ConfigError(f"{args.checkpoint} holds no opt.loss of its {step} steps, so it "
                          "cannot resume (it predates them)")
    if step > cfg.steps:
        raise ConfigError(f"{args.checkpoint} is at step {step}, past steps={cfg.steps}")
    for key, path in (("fasta", cfg.fasta), ("ppi", cfg.ppi)):
        if path and not Path(path).is_file():
            raise DataError(f"{args.checkpoint}: its input {key}={path} is not a file "
                            "(relative paths are read from the current directory)")
    for key, digest in _input_digests(cfg).items():
        if not np.array_equal(state.get(key), digest):
            raise ConfigError(f"{getattr(cfg, key.removeprefix('opt.sha256.'))}: the file is not "
                              f"the one {args.checkpoint} was trained on ({key} differs)")
    trained = {p for name, p in model.parameters().items() if f"opt.m.{name}" in state}
    # its run's log, with the stored steps or the new, marks its run's directory
    out_dir = Path(args.out_dir or Path(args.checkpoint).parent)
    final = _train(model, cfg, out_dir, trained, state, stored)
    print(f"resume complete: {cfg.steps} steps, checkpoint {final}")
    return 0


def cmd_eval(args) -> int:
    model, cfg, _ = ckpt.load_model(args.checkpoint)
    if args.prompts is None:
        prompt_sel = tuple(model.prompts)
    elif args.prompts == "":
        prompt_sel = ()
    else:
        # checked here: --task contact --scores-dir encodes nothing
        prompt_sel = _checked_prompts(model, tuple(p.strip() for p in args.prompts.split(",")))

    records = _EVAL_TASKS[args.task](model, cfg, args, prompt_sel)
    lines = [f"# config_hash={cfg.hash()}", "task,metric,value,prompts"]
    sel = "|".join(prompt_sel)
    for metric, value in records:
        lines.append(f"{args.task},{metric},{value!r},{sel}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with ckpt.atomic_write(args.out) as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _eval_ppi(model, cfg, args, prompt_sel):
    graph, encoded = _task_ppi(args.command, args.data, args.fasta, cfg.max_len)
    pooled = {name: model.pool(model.encode(seq, prompt_sel)) for name, seq in encoded.items()}
    preds, truths = [], []
    for (a, b), bits in sorted(graph.edges.items()):
        logits = model.pair_logits(pooled[a], pooled[b], graph.label_width).data
        preds.append((logits > 0).astype(np.int64))
        truths.append(bits)
    f1 = MX.micro_f1(np.stack(preds), np.stack(truths))
    acc = float(np.mean(np.stack(preds) == np.stack(truths)))
    return [("micro_f1", f1), ("accuracy", acc)]


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
            scores_file = Path(args.scores_dir) / map_file.name
            scores_map = D.read_contact_map(scores_file)
            if scores_map.n != truth.n:
                raise DataError(f"{scores_file}: n={scores_map.n} but {map_file} has n={truth.n}")
            scores = scores_map.bits.astype(np.float64)
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
    records = [(f"p_at_l2_{name}", float(np.mean(vals))) for name, vals in per_class.items()]
    return records + [("truncated_evals", float(truncated))]


def _eval_ss(model, cfg, args, prompt_sel):
    if not args.data:
        raise ConfigError("eval --task ss needs --data (id, sequence, labels TSV)")
    classes = args.classes
    preds, truths = [], []
    for name, residues, truth in D.parse_labeled_tsv(args.data, classes):
        seq = T.encode(residues, cfg.max_len, name)
        logits = model.token_logits(model.encode(seq, prompt_sel), classes)
        preds.append(np.argmax(logits.data, axis=1))
        truths.append(truth)
    acc = MX.q_accuracy(np.concatenate(preds), np.concatenate(truths))
    return [(f"q{classes}", acc)]


def _eval_regress(model, cfg, args, prompt_sel):
    if not args.data:
        raise ConfigError("eval --task regress needs --data (id, sequence, value TSV)")
    rows = D.parse_labeled_tsv(args.data)
    if len(rows) < 2:
        raise DataError(f"{args.data}: eval --task regress needs at least two rows for a "
                        f"rank correlation, got {len(rows)}")
    preds = []
    for name, residues, _ in rows:
        seq = T.encode(residues, cfg.max_len, name)
        pooled = model.pool(model.encode(seq, prompt_sel))
        preds.append(float(model.regress(pooled).data))
    rho = MX.spearman_rho(np.array(preds), np.array([truth for _, _, truth in rows]))
    return [("spearman", rho)]


# each scorer returns (metric, value) records; cmd_eval names the task
_EVAL_TASKS = {"ppi": _eval_ppi, "contact": _eval_contact, "ss": _eval_ss,
               "regress": _eval_regress}


def cmd_build_contacts(args) -> int:
    if not 0 < args.threshold < np.inf:
        raise ConfigError(f"--threshold must be a finite number > 0, got {args.threshold}")
    pdb_dir = Path(args.pdb_dir)
    if not pdb_dir.is_dir():
        raise DataError(f"{pdb_dir}: no such directory")
    report_lines = [f"# threshold={args.threshold!r} tag={args.tag}"]
    hard_errors = 0
    pdb_files = sorted(pdb_dir.glob("*.pdb"))
    # eval --task contact scores every map in a directory, so one run's maps
    # must not mix with another's
    with ckpt.atomic_dir(args.out_dir) as out_dir:
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
                cmap = D.build_contact_map(residues, args.threshold, tag=args.tag)
                # FASTA ids end at whitespace, so a blank chain is spelled _
                out_path = out_dir / f"{pdb_file.stem}_{chain_id.strip() or '_'}.cmap"
                D.write_contact_map(cmap, out_path)
                report_lines.append(f"{out_path.name}: n={cmap.n} from {pdb_file.name}")
        with ckpt.atomic_write(out_dir / "report.txt") as fh:
            fh.write("\n".join(report_lines) + "\n")
    print(f"built contact maps for {len(pdb_files)} files, {hard_errors} hard errors")
    return 1 if hard_errors else 0


def cmd_split(args) -> int:
    graph = _load_ppi(args.ppi)
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
    if not 0 <= args.cutoff < np.inf:
        raise ConfigError(f"--cutoff must be a finite number >= 0, got {args.cutoff}")
    model, cfg, _ = ckpt.load_model(args.checkpoint)
    # the FASTA and the prompt are checked and every record is probed
    # before the first CSV, so a bad input leaves no output
    encoded = _encode_table(D.parse_fasta(args.fasta), cfg.max_len)
    _checked_prompts(model, (args.prompt,))
    for name in encoded:  # each id names its CSV in --out-dir
        if "/" in name or "\0" in name:
            raise DataError(f"{args.fasta}: id {name!r} holds '/' or NUL, "
                            "so it cannot name a CSV in --out-dir")
    probed = [(name, seq, MX.embedding_shift_probe(model, seq, args.prompt))
              for name, seq in encoded.items()]
    with ckpt.atomic_dir(args.out_dir) as out_dir:
        for name, seq, distances in probed:
            flagged = distances > args.cutoff
            lines = [f"# config_hash={cfg.hash()}", "index,residue,distance,flagged"]
            lines += [f"{i},{T.SYMBOLS[tok]},{float(x)!r},{int(f)}" for i, (tok, x, f) in
                      enumerate(zip(seq.ids[seq.residue_positions()], distances, flagged))]
            with ckpt.atomic_write(out_dir / f"{name}.csv") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"{name}: {distances.size} residues, {int(flagged.sum())} above cutoff")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _flag_overrides(args, keys: tuple[str, ...]) -> dict[str, str]:
    """Combine --set pairs with direct flags (flags win)."""
    overrides = parse_kv(("--set", item) for item in args.set or [])
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = str(val)
    return overrides


def _checked_prompts(model, names: tuple[str, ...]) -> tuple[str, ...]:
    """names, once none is unknown to model or repeated: the one gate for
    the prompt names of probe --prompt and eval --prompts."""
    for i, name in enumerate(names):
        if name not in model.prompts:
            raise ConfigError(f"unknown prompt {name!r}; registered: {list(model.prompts)}")
        if name in names[:i]:
            raise ConfigError(f"--prompts names {name!r} twice")
    return names


def _load_config(args, keys: tuple[str, ...], checkpoint=None):
    """(cfg, model): cfg from the checkpoint's stored config, if one is
    given, then --config, --set and the flags named in keys. Without a
    checkpoint, model is None."""
    model, stored, _ = ckpt.load_model(checkpoint) if checkpoint else (None, None, {})
    overrides = _flag_overrides(args, keys)
    # the stored fasta and ppi name the base run's inputs, not this run's
    base_text = stored and dataclasses.replace(stored, fasta="", ppi="").to_text()
    cfg = build_config(args.config, overrides, base_text=base_text)
    if stored is not None:
        check_structural(cfg, stored)
    return cfg, model


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
    p.add_argument("--out-dir", dest="out_dir", default=None,
                   help="output directory (default: run)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("inject", help="train a new prompt on a task")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", required=True, help="name of the new prompt")
    p.add_argument("--task", required=True, choices=("ppi",))
    p.add_argument("--data", dest="ppi", default=None, help="task data file (config key ppi)")
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

    p = sub.add_parser("resume", help="continue a pretrain or inject run from its checkpoint")
    p.add_argument("checkpoint", help="a rolling or final checkpoint of the run")
    p.add_argument("--steps", type=int, default=None, help="step count (default: the run's)")
    p.add_argument("--out-dir", dest="out_dir", default=None,
                   help="output directory (default: the checkpoint's directory)")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", required=True, choices=tuple(_EVAL_TASKS))
    p.add_argument("--data", default=None, help="task data file (ppi/ss/regress)")
    p.add_argument("--fasta", default=None)
    p.add_argument("--maps-dir", dest="maps_dir", default=None, help="truth contact maps")
    p.add_argument(
        "--scores-dir", dest="scores_dir", default=None,
        help="read contact scores from 0/1 .cmap files named like the maps instead "
             "of the model; equal scores rank by (i, j)",
    )
    p.add_argument("--classes", type=int, default=3, choices=(3, 8))
    p.add_argument(
        "--prompts", default=None,
        help="comma list of prompts to attach ('' = none; default: all)",
    )
    p.add_argument("--out", default=None, help="also write records to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("build-contacts", help="PDB directory to contact maps")
    p.add_argument("--pdb-dir", dest="pdb_dir", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--threshold", type=float, default=D.CONTACT_THRESHOLD,
                   help="contact distance in angstroms, finite and > 0 (default: %(default)s)")
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
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--cutoff", type=float, default=1.0,
                   help="flag residues whose representation moved further than this, "
                        "finite and >= 0 (default: %(default)s)")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_probe)

    return parser


def _pin_blas_to_one_thread() -> None:
    """OpenBLAS rounds a product by how it splits it across threads, so a
    run is a pure function of its seed only on one thread. The setter is
    that of the scipy-openblas64 build numpy's wheels bundle in numpy.libs
    (np.show_config names it); a BLAS without it runs unpinned."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        setter = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_blas_to_one_thread()
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
