"""Per-layer metrics, computed from the traced jobs of one run.

Extensive values (`calls`, `self_ms`, `total_ms`, `rows`, `bytes`,
`gather_mb`) are per job: the traced totals divided by the number of traced
jobs, so counts repeat exactly from run to run. `data.parse_pdb` runs only
inside `build-contacts` during set-up, so its values are per set-up.
Metrics that a workload does not exercise read 0.
"""

from __future__ import annotations

from collections import defaultdict

# (metric prefix, span name) reported as .calls and .self_ms per job
SPANS = [
    ("cli.main", "cli.main"),
    ("data.parse_fasta", "data.parse_fasta"),
    ("data.parse_ppi_tsv", "data.parse_ppi_tsv"),
    ("data.read_contact_map", "data.read_contact_map"),
    ("tokenizer.encode", "tokenizer.encode"),
    ("tokenizer.apply_mlm_mask", "tokenizer.apply_mlm_mask"),
    ("model.encode", "model.ProteinEncoder.encode"),
    ("model.masked_attention", "model.masked_attention"),
    ("model.contact_logits", "model.ProteinEncoder.contact_logits"),
    ("model.mlm_logits", "model.ProteinEncoder.mlm_logits"),
    ("model.pair_logits", "model.ProteinEncoder.pair_logits"),
    ("model.pool", "model.ProteinEncoder.pool"),
] + [
    (f"numerics.{op}", f"numerics.{op}")
    for op in (
        "affine", "matmul", "softmax_rows", "slice_cols", "transpose", "scale", "add",
        "layernorm", "gelu", "concat_cols", "concat_rows", "select_rows", "mul", "sub",
        "absval", "embedding_lookup", "reshape", "slice_rows", "log_softmax_rows", "pick",
        "sum_all", "mean_over_rows", "bce_with_logits_mean",
    )
] + [
    ("objectives.train_step", "objectives.train_step"),
    ("objectives.Adam.step", "objectives.Adam.step"),
    ("checkpoint.save_model", "checkpoint.save_model"),
    ("checkpoint.save_checkpoint", "checkpoint.save_checkpoint"),
    ("checkpoint.load_model", "checkpoint.load_model"),
    ("checkpoint.load_checkpoint", "checkpoint.load_checkpoint"),
    ("metrics.precision_at_l_half", "metrics.precision_at_l_half"),
    ("metrics.micro_f1", "metrics.micro_f1"),
]
SETUP_SPANS = [("data.parse_pdb", "data.parse_pdb")]
# spans whose inclusive time (children included) is also reported
TOTALS = [
    "model.encode", "model.masked_attention", "model.contact_logits",
    "objectives.train_step", "checkpoint.save_model", "checkpoint.load_model",
]
DERIVED = [
    ("tokenizer.pad_share", "ratio", "lower"),
    ("model.encode.rows", "count", "lower"),
    ("model.row_useful_share", "ratio", "higher"),
    ("model.contact_logits.gather_mb", "MB", "lower"),
    ("numerics.backward.calls_per_step", "count", "lower"),
    ("numerics.backward.ms_per_step", "ms", "lower"),
    ("numerics.tape_nodes_per_step", "count", "lower"),
    ("objectives.forward_ms", "ms", "lower"),
    ("objectives.discarded_grad_share", "ratio", "lower"),
    ("objectives.pair_encode_share", "ratio", "lower"),
    ("checkpoint.save_model.bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def definitions() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in report order."""
    out = []
    for prefix, _ in SPANS + SETUP_SPANS:
        out.append({"name": f"{prefix}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{prefix}.self_ms", "unit": "ms", "better": "lower"})
    for prefix in TOTALS:
        out.append({"name": f"{prefix}.total_ms", "unit": "ms", "better": "lower"})
    for name, unit, better in DERIVED:
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(job_stats, counters, jobs: int, setup_stats,
            untraced_wall: float, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one run.

    job_stats maps span name -> [calls, self s, total s] summed over `jobs`
    traced jobs, setup_stats the same for one traced set-up; `counters` are
    the tracer's counters over the traced jobs.
    """
    spans = dict(SPANS + SETUP_SPANS)

    def stat(prefix: str, per: int, stats) -> list:
        calls, self_s, total_s = stats.get(spans[prefix], (0, 0.0, 0.0))
        return [calls / per, self_s * 1000.0 / per, total_s * 1000.0 / per]

    values: dict[str, float] = {}
    for group, per, stats in ((SPANS, jobs, job_stats), (SETUP_SPANS, 1, setup_stats)):
        for prefix, _ in group:
            calls, self_ms, _ = stat(prefix, per, stats)
            values[f"{prefix}.calls"] = calls
            values[f"{prefix}.self_ms"] = self_ms
    for prefix in TOTALS:
        values[f"{prefix}.total_ms"] = stat(prefix, jobs, job_stats)[2]

    steps = job_stats.get("objectives.train_step", (0, 0.0, 0.0))[0]
    backward = job_stats.get("numerics.backward", (0, 0.0, 0.0))
    adam = job_stats.get("objectives.Adam.step", (0, 0.0, 0.0))
    train = job_stats.get("objectives.train_step", (0, 0.0, 0.0))
    pools = job_stats.get("model.ProteinEncoder.pool", (0, 0.0, 0.0))[0]
    c = defaultdict(float, counters)
    values.update({
        "tokenizer.pad_share": _ratio(c["pad_ids"], c["ids"]),
        "model.encode.rows": c["rows"] / jobs,
        "model.row_useful_share": _ratio(c["useful_rows"], c["rows"]),
        "model.contact_logits.gather_mb": c["gather_bytes"] / 1e6 / jobs,
        "numerics.backward.calls_per_step": _ratio(backward[0], steps),
        "numerics.backward.ms_per_step": _ratio(backward[2] * 1000.0, steps),
        "numerics.tape_nodes_per_step": _ratio(c["tape_nodes"], backward[0]),
        "objectives.forward_ms": _ratio((train[2] - backward[2] - adam[2]) * 1000.0, steps),
        "objectives.discarded_grad_share": _ratio(c["discarded_grad_elems"], c["grad_elems"]),
        # in training jobs every pool call is a pair-side encode
        "objectives.pair_encode_share": _ratio(pools, 2 * c["pairs"]) if steps else 0.0,
        "checkpoint.save_model.bytes": c["saved_bytes"] / jobs,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": _ratio(traced_wall - untraced_wall, untraced_wall),
    })
    units = {d["name"]: d["unit"] for d in definitions()}
    return {name: (values[name], units[name]) for name in units}
