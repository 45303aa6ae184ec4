"""Span tracing of the misac layers, installed from outside the library.

A :class:`Tracer` replaces library functions with timing wrappers in every
misac module namespace that binds them (``from .x import f`` copies the
binding, so patching the defining module alone would miss callers), records
one span per call with its parent, and restores the originals on
:meth:`Tracer.uninstall`. A span's self time is its duration minus the time
covered by its child spans. Spans stay in memory; the benchmark reduces them
to per-layer metrics when the timed loop ends.

The tape op histogram reads each node's op from the ``__qualname__`` of its
vector-Jacobian closure (``matmul.<locals>.vjp_a`` -> ``matmul``). That is a
private detail of ``misac.tensor``, so a name that stops resolving to a
tensor primitive raises instead of reporting zeros.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass

from misac import (
    analysis,
    checkpoint,
    cli,
    config,
    downstream,
    encoder,
    pretrain,
    synth,
    tensor,
    tokenizer,
)

MODULES = (tensor, synth, tokenizer, encoder, pretrain, downstream, checkpoint, analysis, config, cli)

# (span name, owner, attribute[, namespaces]): a function is patched in every
# misac module namespace that binds it unless namespaces narrows that; a method
# is patched on its class. Encoder attention is patched where the encoder
# calls it, so the decoder's use of it stays in pretrain.decode; MSTN
# (de)serialization is patched where checkpoints call it, so dataset files
# stay in synth.write_mstn / synth.read_mstn.
SPANS = (
    ("tensor.backward", tensor, "backward"),
    ("synth.sample_scene", synth, "sample_scene"),
    ("synth.scene_to_paths", synth, "scene_to_paths"),
    ("synth.channel_response", synth, "channel_response"),
    ("synth.radar_cube", synth, "radar_cube"),
    ("synth.range_angle_map", synth, "range_angle_map"),
    ("synth.range_velocity_map", synth, "range_velocity_map"),
    ("synth.rasterize_scene", synth, "rasterize_scene"),
    ("synth.derive_labels", synth, "derive_labels"),
    ("synth.write_mstn", tensor, "write_mstn"),
    ("synth.read_mstn", tensor, "read_mstn"),
    ("synth.add_awgn", synth, "add_awgn"),
    ("synth.synth_dataset", synth, "synth_dataset"),
    ("synth.load_dataset", synth, "load_dataset"),
    ("tokenizer.preprocess", tokenizer, "preprocess"),
    ("tokenizer.patchify_embed", tokenizer, "patchify_embed"),
    ("encoder.encode", encoder.MultimodalEncoder, "encode"),
    ("encoder.attention", encoder, "attention", (encoder,)),
    ("encoder.moe", encoder, "ss_dmoe_forward"),
    ("pretrain.pretrain_step", pretrain, "pretrain_step"),
    ("pretrain.prepare_inputs", pretrain, "prepare_step_inputs"),
    ("pretrain.forward", pretrain, "step_objective"),
    ("pretrain.encode_visible", pretrain, "encode_visible"),
    ("pretrain.decode", pretrain, "decode_masked"),
    ("pretrain.mask_loss", pretrain, "mask_loss"),
    ("pretrain.contrastive", pretrain, "contrastive_loss"),
    ("pretrain.load_balance", pretrain, "load_balance_loss"),
    ("pretrain.adam", pretrain.Adam, "step"),
    ("downstream.finetune_step", downstream, "finetune_step"),
    ("downstream.sample_loss", downstream, "sample_loss"),
    ("downstream.evaluate", downstream, "evaluate"),
    ("checkpoint.snapshot", checkpoint, "snapshot"),
    ("checkpoint.save", checkpoint, "save_checkpoint"),
    ("checkpoint.mstn_dumps", tensor, "mstn_dumps", (checkpoint,)),
    ("checkpoint.load", checkpoint, "load_checkpoint"),
    ("checkpoint.mstn_loads", tensor, "mstn_loads", (checkpoint,)),
    ("checkpoint.restore", checkpoint, "restore"),
)


def tape_op(vjp) -> str:
    """The tensor primitive that recorded a tape node, from its vjp closure."""
    qualname = getattr(vjp, "__qualname__", "")
    op = qualname.split(".<locals>.", 1)[0]
    fn = getattr(tensor, op, None)
    if ".<locals>." not in qualname or getattr(fn, "__module__", None) != tensor.__name__:
        raise RuntimeError(
            f"cannot resolve the tape op of vjp {qualname!r}; misac.tensor changed how "
            "nodes record their op, so the op histogram must be read another way"
        )
    return op


def tape_histogram(tape) -> Counter:
    return Counter(tape_op(node.vjps[0][1]) for node in tape.nodes)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the root
    start: float
    end: float
    self_s: float
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around patched misac functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.first_tape: Counter | None = None  # op histogram of the first backward
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        infos = {
            "tensor.backward": self._backward_info,
            "encoder.encode": _encode_info,
            "synth.synth_dataset": lambda args, kwargs: _arg(args, kwargs, 1, "n"),
        }
        for name, owner, attr, *narrow in SPANS:
            original = getattr(owner, attr)  # AttributeError: the library API moved
            traced = self._traced(original, name, infos.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            bound = [m for m in (narrow[0] if narrow else MODULES) if vars(m).get(attr) is original]
            if not bound:
                raise RuntimeError(f"no misac namespace binds {owner.__name__}.{attr} as {name} expects")
            for module in bound:
                self._patch(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _traced(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, info, args, kwargs)

        return traced

    def _call(self, name, fn, info, args, kwargs):
        data = None if info is None else info(args, kwargs)
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, parent, 0.0, 0.0, 0.0))
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[index] = Span(name, parent, start, end, end - start - frame[1], data)

    def _backward_info(self, args, kwargs):
        tape = _arg(args, kwargs, 1, "tape")
        if self.first_tape is None:
            self.first_tape = tape_histogram(tape)
        return len(tape.nodes)

    # -- queries ----------------------------------------------------------

    def nearest(self, names) -> list[int]:
        """For every span, the index of its nearest ancestor-or-self whose
        name is in `names`, or -1."""
        names = set(names)
        out: list[int] = []
        for i, s in enumerate(self.spans):  # parents precede their children
            if s.name in names:
                out.append(i)
            else:
                out.append(out[s.parent] if s.parent >= 0 else -1)
        return out

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _encode_info(args, kwargs):
    parts = _arg(args, kwargs, 1, "parts")
    return tuple((m, int(t.shape[0])) for m, t in parts)

