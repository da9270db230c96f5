"""Parameter checkpoints: one binary file.  A versioned JSON header holds
the model configuration, the lexicon (word, affix and role tables,
`max_affix_len`, the action inventory), `has_ema` and the tensor table;
the row-major tensor bytes follow.  `tensor_table` derives the table
from `parameter_shapes`: saving writes it, and loading checks the
header's table against it in one comparison.  Loading leaves the
other checks to what it builds: `ModelConfig` checks its fields,
`Lexicon` its tables and actions, and `parameter_shapes` that the two
share an affix length.  A file is written beside its path, then
renamed over it, so a failed write leaves the old file whole.
Save/load round-trips are bit-exact."""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict

import numpy as np

from ..notation import UnprintableValueError
from ..transitions import parse_action
from .config import ModelConfig
from .lexicon import Lexicon
from .network import Parameters, parameter_shapes

MAGIC = b"FKCP"
VERSION = 2
_PREAMBLE = struct.Struct("<IQ")  # version, header length


class CheckpointError(Exception):
    pass


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def tensor_table(config: ModelConfig, lexicon: Lexicon, has_ema: bool) -> list[dict]:
    """The name, shape, dtype, payload offset and byte count of every
    tensor, in file order: `parameter_shapes`, then their `ema/` copies."""
    shapes = parameter_shapes(config, lexicon)
    names = list(shapes) + ([f"ema/{name}" for name in shapes] if has_ema else [])
    dtype = np.dtype(config.dtype)
    table, offset = [], 0
    for name in names:
        shape = shapes[name.removeprefix("ema/")]
        nbytes = int(np.prod(shape)) * dtype.itemsize
        table.append({"name": name, "shape": list(shape), "dtype": str(dtype),
                      "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return table


def save_checkpoint(params: Parameters, path: str) -> None:
    """Write the header and the tensors of `params` to one file; raises
    CheckpointError, and leaves `path` as it was, unless the arrays of
    `params` are those the table calls for, in its shapes and dtype."""
    table = tensor_table(params.config, params.lexicon, params.ema is not None)
    arrays = {**params.arrays, **{f"ema/{n}": a for n, a in (params.ema or {}).items()}}
    for meta in table:
        array = arrays.get(meta["name"])
        if array is None or array.shape != tuple(meta["shape"]) or array.dtype != meta["dtype"]:
            found = "missing" if array is None else f"{array.dtype} {array.shape}"
            raise CheckpointError(f"{path}: tensor {meta['name']} is {found}, expected "
                                  f"{meta['dtype']} {tuple(meta['shape'])}")
    extra = sorted(set(arrays).difference(meta["name"] for meta in table))
    if extra:
        raise CheckpointError(f"{path}: tensor {extra[0]} is not in the table")

    lexicon = params.lexicon
    header = _dumps({
        "config": asdict(params.config),
        "lexicon": {
            "words": lexicon.words, "prefixes": lexicon.prefixes,
            "suffixes": lexicon.suffixes, "roles": lexicon.roles,
            "max_affix_len": lexicon.max_affix_len,
            "actions": [action.to_text() for action in lexicon.actions],
        },
        "tensors": table,
        "has_ema": params.ema is not None,
    }).encode("utf-8")
    temp = f"{path}.{os.getpid()}.tmp"
    handle = open(temp, "xb")
    try:
        with handle:
            handle.write(MAGIC + _PREAMBLE.pack(VERSION, len(header)) + header)
            for meta in table:
                handle.write(arrays[meta["name"]].tobytes())
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise


def load_checkpoint(path: str) -> Parameters:
    """Read a checkpoint; raises CheckpointError on a file that cannot
    be read, is not a checkpoint, is truncated or too long, has a
    malformed lexicon, or has a tensor table other than the one its
    configuration and lexicon call for."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc.strerror or exc}") from None
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
        options = dict(header["config"])
        dropout = options.pop("dropout", 0)  # older headers hold it, always 0
        if dropout != 0:
            raise CheckpointError(f"{path}: dropout {dropout!r} is not supported")
        config = ModelConfig(**options)
        tables = header["lexicon"]
        actions = tables["actions"]
        if not (isinstance(actions, list) and all(isinstance(t, str) for t in actions)):
            raise ValueError("lexicon actions is not a list of strings")
        lexicon = Lexicon(words=tables["words"], prefixes=tables["prefixes"],
                          suffixes=tables["suffixes"], roles=tables["roles"],
                          actions=[parse_action(text) for text in actions],
                          max_affix_len=tables["max_affix_len"])
        tensors = header["tensors"]
        if not isinstance(tensors, list):
            raise ValueError("tensors is not a list")
        has_ema = header["has_ema"]
        if not isinstance(has_ema, bool):
            raise ValueError(f"has_ema {has_ema!r} is not true or false")
        table = tensor_table(config, lexicon, has_ema)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, UnprintableValueError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from None

    found = [_dumps(meta) for meta in tensors] + ["nothing"]
    expected = [_dumps(meta) for meta in table] + ["nothing"]
    if found != expected:
        index = next(i for i, (got, want) in enumerate(zip(found, expected)) if got != want)
        name = table[index]["name"] if index < len(table) else "not in the table"
        raise CheckpointError(f"{path}: malformed header: tensor {index} ({name}): "
                              f"{found[index]} is not {expected[index]}")
    extent = table[-1]["offset"] + table[-1]["nbytes"]
    if len(payload) != extent:
        raise CheckpointError(f"{path}: {len(payload)} payload bytes, "
                              f"the tensor table calls for {extent}")
    params = Parameters.__new__(Parameters)
    params.config = config
    params.lexicon = lexicon
    params.arrays = {}
    params.ema = {} if has_ema else None
    for meta in table:
        name, offset = meta["name"], meta["offset"]
        array = np.frombuffer(payload[offset:offset + meta["nbytes"]], dtype=meta["dtype"])
        array = array.reshape(meta["shape"]).copy()
        if name.startswith("ema/"):
            params.ema[name.removeprefix("ema/")] = array
        else:
            params.arrays[name] = array
    return params
