"""Single-file checkpoints: a canonical JSON header plus concatenated
tensor blobs.

Layout: magic ``MSCK``, u32 format version, u64 header length, the header
JSON (sorted keys, no whitespace), then the payload: one serialized tensor
per entry, parameters first, optimizer moments after, both in sorted name
order. The header stores the config fingerprint, the step counter, the
optimizer timestep, the generator state, the byte span of every blob, and a
sha256 of the whole payload. Loading verifies the checksum before touching
any array, refuses a fingerprint mismatch unless forced, and save -> load ->
save is byte-identical.

Saving feeds the serialized blobs to one incremental sha256 and writes them
one by one, never joining the payload. Loading reads the payload into one
uninitialized numpy buffer of its own (no zero fill), so every float64
tensor in it is 8-byte aligned, and the returned arrays are writable views
of that buffer. The header is not covered by the checksum, so its types and
tensor spans are checked before any array is built.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import mstn_dumps, mstn_loads

_MAGIC = b"MSCK"
_VERSION = 1
_HEADER_TYPES = {
    "fingerprint": str,
    "opt_t": int,
    "payload_sha256": str,
    "rng_state": (dict, type(None)),
    "step": int,
    "tensors": list,
}


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    fingerprint: str
    step: int
    params: dict[str, np.ndarray]
    opt_t: int = 0
    opt_moments: dict[str, np.ndarray] = field(default_factory=dict)  # m.<name> / v.<name>
    rng_state: dict | None = None


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write atomically (temp file + rename) so an interrupted save never
    clobbers the previous good checkpoint."""
    blobs: list[tuple[str, bytes]] = []
    for name in sorted(ckpt.params):
        blobs.append((f"p.{name}", mstn_dumps(ckpt.params[name])))
    for name in sorted(ckpt.opt_moments):
        blobs.append((f"o.{name}", mstn_dumps(ckpt.opt_moments[name])))
    digest = hashlib.sha256()
    spans, offset = [], 0
    for name, blob in blobs:
        spans.append({"name": name, "offset": offset, "length": len(blob)})
        digest.update(blob)
        offset += len(blob)
    header = {
        "format": "misac-checkpoint",
        "version": _VERSION,
        "fingerprint": ckpt.fingerprint,
        "step": ckpt.step,
        "opt_t": ckpt.opt_t,
        "rng_state": ckpt.rng_state,
        "tensors": spans,
        "payload_sha256": digest.hexdigest(),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(struct.pack("<4sIQ", _MAGIC, _VERSION, len(head)))
        fh.write(head)
        for _, blob in blobs:
            fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path, expect_fingerprint: str | None = None) -> Checkpoint:
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(16)
        if len(preamble) < 16 or preamble[:4] != _MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        version, head_len = struct.unpack_from("<IQ", preamble, 4)
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if size < 16 + head_len:
            raise CheckpointError("truncated checkpoint header")
        head = fh.read(head_len)
        buf = np.empty(size - 16 - head_len, np.uint8)  # readinto fills it; no zeroing first
        payload = memoryview(buf)[: fh.readinto(buf)]
    header = _parse_header(head)
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError("checkpoint payload checksum mismatch (truncated or corrupt)")
    if expect_fingerprint is not None and header["fingerprint"] != expect_fingerprint:
        raise CheckpointError(
            "checkpoint was written under a different config "
            f"({header['fingerprint'][:12]}... vs {expect_fingerprint[:12]}...); "
            "pass --force to load anyway"
        )
    params: dict[str, np.ndarray] = {}
    moments: dict[str, np.ndarray] = {}
    for name, start, stop in _tensor_spans(header["tensors"], payload.nbytes):
        if name.startswith("p."):
            dest = params
        elif name.startswith("o."):
            dest = moments
        else:
            raise CheckpointError(f"unknown tensor kind {name!r}")
        try:
            dest[name[2:]] = mstn_loads(payload[start:stop])
        except ValueError as e:
            raise CheckpointError(f"tensor {name}: {e}") from None
    return Checkpoint(
        fingerprint=header["fingerprint"],
        step=header["step"],
        params=params,
        opt_t=header["opt_t"],
        opt_moments=moments,
        rng_state=header["rng_state"],
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_header(head: bytes) -> dict:
    try:
        header = json.loads(head)
    except ValueError:  # bad JSON or bad UTF-8
        raise CheckpointError("corrupt checkpoint header") from None
    if not isinstance(header, dict):
        raise CheckpointError("corrupt checkpoint header")
    missing = [key for key in _HEADER_TYPES if key not in header]
    if missing:
        raise CheckpointError(f"checkpoint header lacks {', '.join(missing)}")
    for key, kind in _HEADER_TYPES.items():
        value = header[key]
        if not isinstance(value, kind) or (kind is int and not _is_int(value)):
            raise CheckpointError(f"checkpoint header {key} has type {type(value).__name__}")
    return header


def _tensor_spans(spans: list, size: int) -> list[tuple[str, int, int]]:
    """(name, start, stop) of each tensor blob. The spans must tile the
    payload in order and end at its last byte, each under a new name."""
    out: list[tuple[str, int, int]] = []
    names: set[str] = set()
    end = 0
    for i, span in enumerate(spans):
        name = span.get("name") if isinstance(span, dict) else None
        if not isinstance(name, str):
            raise CheckpointError(f"checkpoint tensor span {i} is not an object with a name")
        offset, length = span.get("offset"), span.get("length")
        if not (_is_int(offset) and _is_int(length)):
            raise CheckpointError(f"tensor {name}: span offset and length must be integers")
        if offset != end or length < 0:
            raise CheckpointError(
                f"tensor {name}: span at {offset} of length {length} does not follow "
                f"the previous tensor, which ends at {end}"
            )
        if name in names:
            raise CheckpointError(f"tensor {name}: appears twice")
        names.add(name)
        end = offset + length
        out.append((name, offset, end))
    if end != size:
        raise CheckpointError(f"checkpoint tensor spans end at byte {end} of a {size}-byte payload")
    return out


# ---------------------------------------------------------------------------
# model <-> checkpoint


def snapshot(model, fingerprint: str, step: int, opt=None, rng=None) -> Checkpoint:
    """Capture params (and optionally optimizer/rng state) from any object
    with named_params()."""
    params = {k: p.data.copy() for k, p in model.named_params().items()}
    return Checkpoint(
        fingerprint=fingerprint,
        step=step,
        params=params,
        opt_t=0 if opt is None else opt.t,
        opt_moments={} if opt is None else {k: v.copy() for k, v in opt.state_arrays().items()},
        rng_state=None if rng is None else rng.bit_generator.state,
    )


def restore(ckpt: Checkpoint, model, opt=None):
    """Copy checkpoint arrays into the model (and optimizer); returns the
    restored rng (or None). Every model parameter must be in the checkpoint;
    checkpoint tensors the model lacks (a fine-tune head) are ignored. To
    resume (opt given) it must also hold Adam moments and an rng state."""
    if opt is not None:
        held = {"Adam moments": ckpt.opt_moments, "rng state": ckpt.rng_state}
        lacking = " and no ".join(name for name, value in held.items() if not value)
        if lacking:
            raise CheckpointError(
                f"cannot resume: the checkpoint holds no {lacking}, so it is not a pre-training checkpoint"
            )
    params = model.named_params()
    missing = set(params) - set(ckpt.params)
    if missing:
        raise CheckpointError(f"checkpoint lacks parameters: {sorted(missing)[:4]}...")
    for k, p in params.items():
        arr = ckpt.params[k]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {k}: checkpoint {arr.shape} vs model {p.data.shape}"
            )
        p.data = arr.copy()
    if opt is not None:
        opt.load_state_arrays(ckpt.opt_moments, ckpt.opt_t)
    if ckpt.rng_state is None:
        return None
    rng = np.random.default_rng(0)
    rng.bit_generator.state = ckpt.rng_state
    return rng
