"""Outside-in instrumentation of protprompt: nothing under src/ changes.

`Patcher` replaces module and class attributes and puts every original
back. `Probe` is the always-on clock of the end-to-end metrics: it
timestamps a handful of public calls and ticks the host clock. `Tracer`
wraps every public function and method of the package and records, per
function, the call count, the self time (span minus child spans) and the
total span time, plus the few counters the per-layer metrics need.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from types import SimpleNamespace

# modules whose public functions and methods the tracer wraps
TRACED_MODULES = (
    "cli", "config", "data", "tokenizer", "model", "numerics",
    "objectives", "checkpoint", "metrics",
)


class Patcher:
    """Attribute replacement with exact, last-in-first-out restore."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        """Replace an attribute held in owner's own namespace."""
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def set_everywhere(self, modules, owner, name: str, value) -> None:
        """Replace owner.name and every other module global bound to the
        same object, so `from x import f` call sites see the wrapper too."""
        original = getattr(owner, name)
        self.set(owner, name, value)
        for mod in modules:
            for key, obj in list(vars(mod).items()):
                if obj is original and (mod, key) != (owner, name):
                    self.set(mod, key, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


def load_package() -> SimpleNamespace:
    """The traced protprompt modules by short name, importing them if needed."""
    return SimpleNamespace(
        **{name: importlib.import_module(f"protprompt.{name}") for name in TRACED_MODULES}
    )


def public_callables(modules):
    """(owner, attribute, function, span name) for every public function of
    the modules and every public method of the classes they define.

    Spans are named `<module>.<function>` and `<module>.<Class>.<method>`;
    exception classes are skipped. Class attributes are yielded raw, so a
    classmethod or staticmethod comes back as its descriptor.
    """
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, name, obj, f"{short}.{name}"
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                        yield obj, attr, raw, f"{short}.{name}.{attr}"


class Probe:
    """Timestamps for the end-to-end metrics, cheap enough for untraced runs.

    All stamps are raw perf_counter values; `clock` (a HostClock) ticks at
    each hook and later maps them to reference seconds.

    - `train_returns`: each objectives.train_step return;
    - `encodes`: ProteinEncoder.encode calls;
    - `contact_cycles`: (start, end) from each data.read_contact_map entry
      to the last metrics.precision_at_l_half return before the next map
      (or the end of the phase), one per protein of an `eval --task contact`;
    - `pair_logits`: every ProteinEncoder.pair_logits output, as an array.
    """

    def __init__(self, modules, clock):
        self.modules = modules
        self.clock = clock
        self._patcher = Patcher()
        self.reset()

    def reset(self) -> None:
        self.train_returns: list[float] = []
        self.encodes = 0
        self.contact_cycles: list[tuple[float, float]] = []
        self.pair_logits: list = []
        self._cycle_start: float | None = None
        self._last_precision: float | None = None

    def close_cycle(self) -> None:
        if self._cycle_start is not None and self._last_precision is not None:
            self.contact_cycles.append((self._cycle_start, self._last_precision))
        self._cycle_start = self._last_precision = None

    def install(self) -> None:
        mods = {m.__name__.rsplit(".", 1)[1]: m for m in self.modules}
        clock, tick = time.perf_counter, self.clock.tick
        train_step = mods["objectives"].train_step
        read_map = mods["data"].read_contact_map
        precision = mods["metrics"].precision_at_l_half
        encoder = mods["model"].ProteinEncoder
        encode, pair_logits = encoder.encode, encoder.pair_logits

        @functools.wraps(train_step)
        def train_step_probe(*args, **kwargs):
            report = train_step(*args, **kwargs)
            self.train_returns.append(clock())
            tick()
            return report

        @functools.wraps(read_map)
        def read_map_probe(*args, **kwargs):
            self.close_cycle()
            tick()
            self._cycle_start = clock()
            return read_map(*args, **kwargs)

        @functools.wraps(precision)
        def precision_probe(*args, **kwargs):
            result = precision(*args, **kwargs)
            self._last_precision = clock()
            return result

        @functools.wraps(encode)
        def encode_probe(*args, **kwargs):
            self.encodes += 1
            result = encode(*args, **kwargs)
            tick()
            return result

        @functools.wraps(pair_logits)
        def pair_logits_probe(*args, **kwargs):
            out = pair_logits(*args, **kwargs)
            self.pair_logits.append(out.data.copy())
            return out

        p = self._patcher
        p.set_everywhere(self.modules, mods["objectives"], "train_step", train_step_probe)
        p.set_everywhere(self.modules, mods["data"], "read_contact_map", read_map_probe)
        p.set_everywhere(self.modules, mods["metrics"], "precision_at_l_half", precision_probe)
        p.set(encoder, "encode", encode_probe)
        p.set(encoder, "pair_logits", pair_logits_probe)

    def uninstall(self) -> None:
        self._patcher.restore()


class Tracer:
    """Spans around every public protprompt call, aggregated per name.

    `stats[name]` is [calls, self seconds, total seconds]; `counters` holds
    the extra per-layer counts. Time spent in the counter hooks is excluded
    from the caller's self time.
    """

    def __init__(self, modules):
        self.modules = modules
        self._patcher = Patcher()
        self._stack: list[list[float]] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()

    def install(self) -> None:
        hooks = self._hooks()
        for owner, attr, raw, name in list(public_callables(self.modules)):
            pre, post = hooks.get(name, (None, None))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, pre, post))
                self._patcher.set(owner, attr, wrapped)
            elif inspect.isclass(owner):
                self._patcher.set(owner, attr, self._wrap(raw, name, pre, post))
            else:
                self._patcher.set_everywhere(
                    self.modules, owner, attr, self._wrap(raw, name, pre, post)
                )

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, fn, name: str, pre, post):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            h0 = clock()
            if pre is not None:
                pre(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                entry = stats[name]
                entry[0] += 1
                entry[1] += (t1 - t0) - frame[0]
                entry[2] += t1 - t0
                # the caller's self time excludes this span and its hooks
                if stack:
                    stack[-1][0] += t1 - h0
            if post is not None:
                h1 = clock()
                post(args, kwargs, result)
                if stack:
                    stack[-1][0] += clock() - h1
            return result

        return span

    def _hooks(self):
        """Counter hooks keyed by span name: (pre(args, kwargs), post(args,
        kwargs, result)); positional layouts follow the CLI's call sites."""
        mods = {m.__name__.rsplit(".", 1)[1]: m for m in self.modules}
        pad_id = mods["tokenizer"].PAD_ID
        c = self.counters

        def encode_pre(args, kwargs):
            seq = args[1] if len(args) > 1 else kwargs["seq"]
            prompts = args[2] if len(args) > 2 else kwargs.get("prompt_names", ())
            c["pad_ids"] += int((seq.ids == pad_id).sum())
            c["ids"] += seq.ids.size
            c["rows"] += len(prompts) + seq.ids.size
            c["useful_rows"] += len(prompts) + seq.length

        def contact_post(args, kwargs, result):
            d = args[0].config.d
            n = result.shape[0]
            c["gather_bytes"] += 2 * n * n * d * 8

        def backward_pre(args, kwargs):
            tape = args[0] if args else kwargs["tape"]
            c["tape_nodes"] += len(tape.nodes)

        def train_step_post(args, kwargs, result):
            model, optimizer = args[0], args[1]
            batches = args[3] if len(args) > 3 else kwargs["task_batches"]
            c["pairs"] += sum(len(b.pairs) for b in batches)
            kept = {id(p) for p in optimizer.params.values()}
            # the unwrapped method, so the hook adds no span of its own
            parameters = inspect.unwrap(type(model).parameters)
            for p in parameters(model).values():
                if p.grad is not None:
                    c["grad_elems"] += p.grad.size
                    if id(p) not in kept:
                        c["discarded_grad_elems"] += p.grad.size

        def save_post(args, kwargs, result):
            c["saved_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])

        return {
            "model.ProteinEncoder.encode": (encode_pre, None),
            "model.ProteinEncoder.contact_logits": (None, contact_post),
            "numerics.backward": (backward_pre, None),
            "objectives.train_step": (None, train_step_post),
            "checkpoint.save_model": (None, save_post),
        }
