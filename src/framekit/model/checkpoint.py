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

from ..transitions import SHIFT, STOP, parse_action
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_dtype(value) -> bool:
    if not isinstance(value, str):
        return False
    try:
        np.dtype(value)
    except TypeError:
        return False
    return True


def _tensor_entry_problem(meta) -> str | None:
    """What is wrong with one entry of a header's tensor table, if
    anything: it needs a string name, a list of ints for the shape, a
    known dtype and an int offset >= 0."""
    if not isinstance(meta, dict):
        return "not an object"
    if not isinstance(meta.get("name"), str):
        return "name is not a string"
    shape = meta.get("shape")
    if not (isinstance(shape, list) and all(_is_int(d) and d >= 0 for d in shape)):
        return "shape is not a list of non-negative ints"
    if not _is_dtype(meta.get("dtype")):
        return f"unknown dtype {meta.get('dtype')!r}"
    if not (_is_int(meta.get("offset")) and meta["offset"] >= 0):
        return "offset is not an int >= 0"
    return None


def _table_problem(table) -> str | None:
    """What is wrong with a lexicon table, if anything: as
    `Lexicon.build` makes it, it maps strings to exactly the ids 1..n."""
    if not isinstance(table, dict):  # JSON object keys are strings
        return "is not an object"
    ids = table.values()
    if not all(_is_int(i) for i in ids) or sorted(ids) != list(range(1, len(table) + 1)):
        return f"ids are not exactly 1..{len(table)}"
    return None


def load_checkpoint(path: str) -> Parameters:
    """Read a checkpoint; raises CheckpointError on a file that cannot
    be read, is not a checkpoint, is truncated, has a malformed lexicon
    or tensor table, or holds tensors its configuration and lexicon do
    not call for."""
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
        for name in ("words", "prefixes", "suffixes", "roles"):
            problem = _table_problem(tables[name])
            if problem:
                raise ValueError(f"lexicon {name} {problem}")
        if not (_is_int(tables["max_affix_len"])
                and tables["max_affix_len"] == config.max_affix_len):
            raise ValueError(f"lexicon max_affix_len {tables['max_affix_len']!r} is not "
                             f"the configuration's {config.max_affix_len}")
        actions = tables["actions"]
        if not (isinstance(actions, list) and all(isinstance(t, str) for t in actions)):
            raise ValueError("lexicon actions is not a list of strings")
        lexicon = Lexicon(words=tables["words"], prefixes=tables["prefixes"],
                          suffixes=tables["suffixes"], roles=tables["roles"],
                          actions=[parse_action(text) for text in actions],
                          max_affix_len=tables["max_affix_len"])
        if len(lexicon.action_ids) != len(lexicon.actions):
            raise ValueError("lexicon actions repeat an action")
        for kind in (SHIFT, STOP):  # decoding needs both
            if all(action.kind != kind for action in lexicon.actions):
                raise ValueError(f"lexicon actions lack {kind}")
        tensors = header["tensors"]
        has_ema = header["has_ema"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from None
    if not isinstance(tensors, list):
        raise CheckpointError(f"{path}: malformed header: tensors is not a list")
    for index, meta in enumerate(tensors):
        problem = _tensor_entry_problem(meta)
        if problem:
            raise CheckpointError(f"{path}: malformed header: tensor {index}: {problem}")

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
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated at tensor {name}")
        array = np.frombuffer(payload[meta["offset"]:end], dtype=dtype).reshape(shape).copy()
        if name.startswith("ema/"):
            params.ema[name.removeprefix("ema/")] = array
        else:
            params.arrays[name] = array
    return params
