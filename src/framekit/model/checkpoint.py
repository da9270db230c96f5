"""Parameter checkpoints: one binary file.  A versioned JSON header holds
the model configuration, the lexicon (word, affix and role tables,
`max_affix_len`, the action inventory) and the name, shape, dtype and
offset of every tensor; the row-major tensor bytes follow.  Loading
checks the tensors against those `Parameters(config, lexicon)` would
allocate.  Save/load round-trips are bit-exact."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from ..transitions import parse_action
from .config import ModelConfig
from .lexicon import Lexicon
from .network import Parameters, parameter_shapes

MAGIC = b"FKCP"
VERSION = 2
_PREAMBLE = struct.Struct("<IQ")  # version, header length


class CheckpointError(Exception):
    pass


def save_checkpoint(params: Parameters, path: str) -> None:
    """Write the header and the tensors of `params` to one file."""
    tensor_meta = []
    blobs = []
    offset = 0
    sections = [("", params.arrays)]
    if params.ema is not None:
        sections.append(("ema/", params.ema))
    for prefix, arrays in sections:
        for name, array in arrays.items():
            data = np.ascontiguousarray(array)
            raw = data.tobytes()
            tensor_meta.append({
                "name": prefix + name,
                "shape": list(data.shape),
                "dtype": str(data.dtype),
                "offset": offset,
                "nbytes": len(raw),
            })
            blobs.append(raw)
            offset += len(raw)

    lexicon = params.lexicon
    header = {
        "config": asdict(params.config),
        "lexicon": {
            "words": lexicon.words, "prefixes": lexicon.prefixes,
            "suffixes": lexicon.suffixes, "roles": lexicon.roles,
            "max_affix_len": lexicon.max_affix_len,
            "actions": [action.to_text() for action in lexicon.actions],
        },
        "tensors": tensor_meta,
        "has_ema": params.ema is not None,
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(_PREAMBLE.pack(VERSION, len(header_bytes)))
        handle.write(header_bytes)
        for raw in blobs:
            handle.write(raw)


def load_checkpoint(path: str) -> Parameters:
    """Read a checkpoint; raises CheckpointError on a file that is not
    one, is truncated, or holds tensors its configuration and lexicon
    do not call for."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a parameter checkpoint")
    start = len(MAGIC) + _PREAMBLE.size
    if len(data) < start:
        raise CheckpointError(f"{path}: truncated header")
    version, header_len = _PREAMBLE.unpack_from(data, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    payload = memoryview(data)[start + header_len:]
    try:
        header = json.loads(data[start:start + header_len].decode("utf-8"))
        config = ModelConfig(**header["config"])
        tables = header["lexicon"]
        lexicon = Lexicon(words=tables["words"], prefixes=tables["prefixes"],
                          suffixes=tables["suffixes"], roles=tables["roles"],
                          actions=[parse_action(text) for text in tables["actions"]],
                          max_affix_len=tables["max_affix_len"])
        tensors = header["tensors"]
        has_ema = header["has_ema"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from None

    expected = parameter_shapes(config, lexicon)
    names = list(expected) + ([f"ema/{n}" for n in expected] if has_ema else [])
    if [meta["name"] for meta in tensors] != names:
        raise CheckpointError(f"{path}: tensor names differ from those the "
                              f"configuration and lexicon call for")
    params = Parameters.__new__(Parameters)
    params.config = config
    params.lexicon = lexicon
    params.arrays = {}
    params.ema = {} if has_ema else None
    dtype = np.dtype(config.dtype)
    for meta in tensors:
        name = meta["name"]
        shape = expected[name.removeprefix("ema/")]
        if tuple(meta["shape"]) != shape or np.dtype(meta["dtype"]) != dtype:
            raise CheckpointError(f"{path}: tensor {name} is {meta['dtype']} "
                                  f"{tuple(meta['shape'])}, expected {dtype} {shape}")
        end = meta["offset"] + int(np.prod(shape)) * dtype.itemsize
        if meta["offset"] < 0 or end > len(payload):
            raise CheckpointError(f"{path}: truncated at tensor {name}")
        array = np.frombuffer(payload[meta["offset"]:end], dtype=dtype).reshape(shape).copy()
        if name.startswith("ema/"):
            params.ema[name.removeprefix("ema/")] = array
        else:
            params.arrays[name] = array
    return params
