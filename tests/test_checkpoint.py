import builtins
import dataclasses
import errno
import json
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from framekit.corpus import generate_corpus
from framekit.model import (Lexicon, ModelConfig, Parameters, checkpoint, load_checkpoint,
                            save_checkpoint, train)
from framekit.model.checkpoint import MAGIC, CheckpointError, tensor_table
from framekit.notation import UnprintableValueError
from framekit.transitions import Action
from support import edit_checkpoint_header

V2_EMA_CHECKPOINT = Path(__file__).parent / "data" / "ema_checkpoint_v2.ckpt"


def trained(**kw):
    config = ModelConfig(**{**dict(lstm_dim=6, hidden_dim=5, word_dim=4, affix_dim=2,
                                   shape_dim=2, link_dim=3, k_attention=3, k_history=2,
                                   use_ema=True, ema_decay=0.5), **kw})
    return train(generate_corpus(7, 4), config, seed=1, steps=4, checkpoint_every=4)


def assert_same_arrays(a, b):
    assert list(a) == list(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert a[name].shape == b[name].shape, name
        assert a[name].tobytes() == b[name].tobytes(), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_round_trip_is_bit_exact_in_one_file(tmp_path, dtype):
    params = trained(dtype=dtype)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    loaded = load_checkpoint(str(path))
    assert asdict(loaded.config) == asdict(params.config)
    assert_same_arrays(loaded.arrays, params.arrays)
    assert_same_arrays(loaded.ema, params.ema)
    lex, back = params.lexicon, loaded.lexicon
    assert (back.words, back.prefixes, back.suffixes, back.roles) == \
        (lex.words, lex.prefixes, lex.suffixes, lex.roles)
    assert back.max_affix_len == lex.max_affix_len
    assert [a.to_text() for a in back.actions] == [a.to_text() for a in lex.actions]
    assert back.action_ids == lex.action_ids


@pytest.mark.parametrize("sizes", [dict(max_affix_len=1), dict(max_affix_len=5),
                                   dict(shape_dim=1), dict(shape_dim=3)],
                         ids=["affix-1", "affix-5", "shape-1", "shape-3"])
def test_round_trip_at_other_lexical_sizes(tmp_path, sizes):
    params = trained(**sizes)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.config == params.config and loaded.lexicon == params.lexicon
    assert_same_arrays(loaded.arrays, params.arrays)
    assert_same_arrays(loaded.ema, params.ema)
    m = params.config.max_affix_len
    assert params.arrays["lstm_fw_wx"].shape[1] == (
        params.config.word_dim + 2 * m * params.config.affix_dim + 5 * params.config.shape_dim)


def test_truncation_raises(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained(), str(path))
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC) + 4)
    payload = len(MAGIC) + 12 + header_len
    for size in (0, 3, 10, len(MAGIC) + 12 + header_len // 2, payload,
                 payload + 1, len(data) - 1, len(data) + 1, len(data) + 700):
        path.write_bytes((data + bytes(700))[:size])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
    extent = len(data) - payload
    path.write_bytes(data + bytes(700))
    with pytest.raises(CheckpointError, match="^" + re.escape(
            f"{path}: {extent + 700} payload bytes, the tensor table calls for {extent}")):
        load_checkpoint(str(path))


def test_tensor_mismatch_raises(tmp_path):
    """`save_checkpoint` refuses arrays the table does not call for and
    leaves the file it would have replaced as it was."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained(), str(path))
    before = path.read_bytes()

    def refused(params, name):
        with pytest.raises(CheckpointError, match="^" + re.escape(f"{path}: tensor {name} is ")):
            save_checkpoint(params, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    params = trained()
    w1 = params.arrays["ff_w1"]
    params.arrays["ff_w1"] = w1[:, :-1]
    refused(params, "ff_w1")

    params.arrays["ff_w1"] = w1
    # Not SHIFT or STOP: the output layer no longer fits.
    params.lexicon.actions.pop(0)
    refused(params, "ff_w2")

    params = trained()
    del params.ema["ff_b2"]
    refused(params, "ema/ff_b2")

    params = trained()
    params.arrays["extra_w"] = np.zeros(2, dtype=np.float32)
    refused(params, "extra_w")


class _DiskFullAfterOneWrite:
    """A file whose first write lands and whose next one finds the disk full."""

    def __init__(self, handle):
        self.handle, self.writes = handle, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(data)


def test_a_failed_write_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained(), str(path))
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open", raising=False,
                        value=lambda file, mode: _DiskFullAfterOneWrite(builtins.open(file, mode)))
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(trained(), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_a_file_in_the_version_2_layout_loads_bit_exactly(tmp_path):
    """`ema_checkpoint_v2.ckpt` was written by the saver that preceded
    `tensor_table`, from `trained()`: it loads to the same arrays, and
    writing them again gives the same bytes."""
    loaded = load_checkpoint(str(V2_EMA_CHECKPOINT))
    params = trained()
    assert asdict(loaded.config) == asdict(params.config)
    assert_same_arrays(loaded.arrays, params.arrays)
    assert_same_arrays(loaded.ema, params.ema)
    path = tmp_path / "again.ckpt"
    save_checkpoint(loaded, str(path))
    assert path.read_bytes() == V2_EMA_CHECKPOINT.read_bytes()


def test_other_versions_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained(), str(path))
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, len(MAGIC), 1)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(str(path))


def _set_entry(field, value):
    def edit(header):
        header["tensors"][1][field] = value
    return edit


def _drop_entry_field(field):
    def edit(header):
        del header["tensors"][1][field]
    return edit


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("edit", [
    _set_entry("dtype", "nonsense"),
    _drop_entry_field("offset"),
    _set_entry("shape", 5),
    lambda header: header["tensors"].__setitem__(1, [1, 2]),
    lambda header: header.update(tensors=3),
    _set_entry("offset", 1.5),
], ids=["dtype", "missing-offset", "int-shape", "entry-not-object", "table-not-list",
        "float-offset"])
def test_malformed_tensor_table_raises(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    params = trained()
    save_checkpoint(params, str(path))
    edit_checkpoint_header(path, edit)
    table = tensor_table(params.config, params.lexicon, True)
    edited = {"tensors": [dict(meta) for meta in table]}
    edit(edited)
    if isinstance(edited["tensors"], list):
        problem = (f"tensor 1 (prefix_emb): {_canonical(edited['tensors'][1])} "
                   f"is not {_canonical(table[1])}")
    else:
        problem = "tensors is not a list"
    with pytest.raises(CheckpointError,
                       match="^" + re.escape(f"{path}: malformed header: {problem}") + "$"):
        load_checkpoint(str(path))


def test_has_ema_must_be_a_boolean_that_the_table_follows(tmp_path):
    path = tmp_path / "model.ckpt"
    params = trained()
    save_checkpoint(params, str(path))
    edit_checkpoint_header(path, lambda header: header.update(has_ema=1))
    with pytest.raises(CheckpointError, match="^" + re.escape(
            f"{path}: malformed header: has_ema 1 is not true or false")):
        load_checkpoint(str(path))

    edit_checkpoint_header(path, lambda header: header.update(has_ema=False))
    first_copy = tensor_table(params.config, params.lexicon, True)[len(params.arrays)]
    assert first_copy["name"] == "ema/word_emb"
    with pytest.raises(CheckpointError, match="^" + re.escape(
            f"{path}: malformed header: tensor {len(params.arrays)} (not in the table): "
            f"{_canonical(first_copy)} is not nothing")):
        load_checkpoint(str(path))

    params.ema = None
    save_checkpoint(params, str(path))
    edit_checkpoint_header(path, lambda header: header.update(has_ema=True))
    with pytest.raises(CheckpointError, match="^" + re.escape(
            f"{path}: malformed header: tensor {len(params.arrays)} (ema/word_emb): "
            f"nothing is not {_canonical(first_copy)}")):
        load_checkpoint(str(path))


def _set_first_id(table, value):
    def edit(header):
        ids = header["lexicon"][table]
        ids[next(iter(ids))] = value
    return edit


def _negate_ids(header):
    words = header["lexicon"]["words"]
    for word in words:
        words[word] = -words[word]


@pytest.mark.parametrize("edit, problem", [
    (_set_first_id("words", 10 ** 6), "lexicon words ids are not exactly 1.."),
    (_negate_ids, "lexicon words ids are not exactly 1.."),
    (_set_first_id("roles", "1"), "lexicon roles ids are not exactly 1.."),
    (lambda header: header["lexicon"].update(max_affix_len=1),
     "lexicon max_affix_len 1 is not the configuration's 3"),
    (lambda header: header["lexicon"].update(prefixes=["a"]),
     "lexicon prefixes is not an object"),
    (lambda header: header["lexicon"]["actions"].append(5),
     "lexicon actions is not a list of strings"),
    (lambda header: header["lexicon"]["actions"].append(header["lexicon"]["actions"][0]),
     "lexicon actions repeat an action"),
    (lambda header: header["lexicon"]["actions"].append('CONNECT(0, "\ud800", 0)'),
     "string '\\ud800' has no UTF-8 form"),
    (lambda header: header["lexicon"]["actions"].append('ASSIGN(0, r, "\ud800")'),
     "string '\\ud800' has no UTF-8 form"),
    (lambda header: header["lexicon"]["actions"].append(f"ASSIGN(0, r, 1{'0' * 5000})"),
     f"malformed action: 'ASSIGN(0, r, 1{'0' * 5000})'"),
    (lambda header: header["config"].update(lstm_dim=6.0),
     "lstm_dim must be an integer >= 1"),
    (lambda header: header["config"].update(use_ema="no"),
     "use_ema must be true or false"),
    (lambda header: header["config"].update(word_vectors_path=5),
     "word_vectors_path must be a string"),
], ids=["huge-word-id", "negative-word-ids", "string-role-id", "max-affix-len",
        "table-not-object", "action-not-text", "repeated-action",
        "role-without-utf8-form", "constant-without-utf8-form", "int-past-digit-limit",
        "float-size",
        "string-use-ema", "int-word-vectors-path"])
def test_malformed_lexicon_or_config_raises(tmp_path, edit, problem):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained(), str(path))
    edit_checkpoint_header(path, edit)
    with pytest.raises(CheckpointError,
                       match="^" + re.escape(f"{path}: malformed header: {problem}")):
        load_checkpoint(str(path))


def _lexicon(**fields):
    return Lexicon(**{**dict(words={}, prefixes={}, suffixes={}, roles={}, max_affix_len=3,
                             actions=[Action.shift(), Action.stop()]), **fields})


@pytest.mark.parametrize("fields", [
    {},
    dict(words={"John": 2, "hit": 1}, prefixes={"J": 1, "h": 2}, suffixes={"n": 1},
         roles={"/pb/arg0": 1, "r": 2}, max_affix_len=1,
         actions=[Action.stop(), Action.evoke("/t/x", 2), Action.refer(0, 1),
                  Action.connect(0, "/pb/arg0", 1), Action.assign(0, "r", 1),
                  Action.assign(0, "r", 1.0), Action.assign(0, "r", "one"),
                  Action.embed(0, "r", "/t/y"), Action.elaborate(1, "r", "/t/z"),
                  Action.shift()]),
], ids=["empty-tables", "every-action-kind"])
def test_every_lexicon_that_builds_saves_and_loads(tmp_path, fields):
    lexicon = _lexicon(**fields)
    params = Parameters(ModelConfig(lstm_dim=6, hidden_dim=5,
                                    max_affix_len=lexicon.max_affix_len), lexicon)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.lexicon == lexicon
    assert loaded.lexicon.action_ids == lexicon.action_ids
    assert_same_arrays(loaded.arrays, params.arrays)


@pytest.mark.parametrize("fields, problem", [
    (dict(prefixes=["a"]), "lexicon prefixes is not an object"),
    (dict(words={"a": 5}), "lexicon words ids are not exactly 1..1"),
    (dict(words={"a": 0, "b": 1}), "lexicon words ids are not exactly 1..2"),
    (dict(roles={"r": True}), "lexicon roles ids are not exactly 1..1"),
    (dict(suffixes={"a": "1"}), "lexicon suffixes ids are not exactly 1..1"),
    (dict(max_affix_len=0), "lexicon max_affix_len 0 is not an int >= 1"),
    (dict(max_affix_len=True), "lexicon max_affix_len True is not an int >= 1"),
    (dict(max_affix_len=3.0), "lexicon max_affix_len 3.0 is not an int >= 1"),
    (dict(max_affix_len=1), "lexicon max_affix_len 1 is not the configuration's 3"),
    (dict(actions=[Action.shift(), Action.stop(), Action.shift()]),
     "lexicon actions repeat an action"),
    (dict(actions=[Action.stop()]), "lexicon actions lack SHIFT"),
    (dict(actions=[Action.shift(), Action.evoke("/t/x", 1)]), "lexicon actions lack STOP"),
    (dict(words={1: 1}), "lexicon words keys are not all strings"),
    (dict(actions=["SHIFT", "STOP"]), "lexicon actions is not a list of actions"),
    (dict(actions=(Action.shift(), Action.stop())), "lexicon actions is not a list of actions"),
], ids=["table-not-object", "id-past-n", "id-zero", "bool-id", "string-id", "affix-0",
        "bool-affix", "float-affix", "other-affix", "repeated-action", "no-shift",
        "no-stop", "int-key", "action-texts", "action-tuple"])
def test_a_lexicon_that_cannot_load_does_not_build(tmp_path, fields, problem):
    """Each form that `load_checkpoint` refuses is refused, with its
    message, where it is made: at `Lexicon(...)` or `Parameters(...)`.
    So is each form that a checkpoint cannot hold, which would load back
    as another lexicon: JSON keys are strings, and actions load as a
    list of `Action`s."""
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    with pytest.raises(ValueError, match="^" + re.escape(problem) + "$"):
        Parameters(config, _lexicon(**fields))
    if problem.endswith(("not all strings", "not a list of actions")):
        return  # no header holds this form
    path = tmp_path / "model.ckpt"
    save_checkpoint(Parameters(config, _lexicon()), str(path))
    as_json = {name: [a.to_text() for a in value] if name == "actions" else value
               for name, value in fields.items()}
    edit_checkpoint_header(path, lambda header: header["lexicon"].update(as_json))
    with pytest.raises(CheckpointError, match="^" + re.escape(
            f"{path}: malformed header: {problem}") + "$"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", ["\ud800", 10 ** 5000],
                         ids=["string-without-utf8-form", "int-past-digit-limit"])
def test_a_constant_without_notation_writes_no_checkpoint(tmp_path, value):
    """An action text is written by the printer's rule, so a lexicon
    cannot hold an ASSIGN constant that no checkpoint header could."""
    params = trained()
    path = tmp_path / "model.ckpt"
    with pytest.raises(UnprintableValueError):
        params.lexicon = dataclasses.replace(
            params.lexicon, actions=params.lexicon.actions + [Action.assign(0, "r", value)])
        save_checkpoint(params, str(path))
    assert list(tmp_path.iterdir()) == []


def test_unreadable_file_raises(tmp_path):
    path = tmp_path / "missing.ckpt"
    with pytest.raises(CheckpointError, match="^" + re.escape(f"{path}: ")):
        load_checkpoint(str(path))


def test_older_headers_with_dropout_zero_load(tmp_path):
    path = tmp_path / "model.ckpt"
    params = trained()
    save_checkpoint(params, str(path))
    edit_checkpoint_header(path, lambda header: header["config"].update(dropout=0.0))
    assert asdict(load_checkpoint(str(path)).config) == asdict(params.config)
    edit_checkpoint_header(path, lambda header: header["config"].update(dropout=0.5))
    with pytest.raises(CheckpointError, match="^" + re.escape(f"{path}: dropout 0.5 ")):
        load_checkpoint(str(path))


def test_older_bare_names_load_to_the_same_actions(tmp_path):
    """Names outside the bare rule were once written bare, as in
    `CONNECT(0, a b, 1)`; such a header still loads."""
    path = tmp_path / "model.ckpt"
    params = trained()
    save_checkpoint(params, str(path))

    def bare(header):
        texts = header["lexicon"]["actions"]
        assert any("/pb/arg0" in text for text in texts)
        header["lexicon"]["actions"] = [t.replace("/pb/arg0", "a b") for t in texts]
    edit_checkpoint_header(path, bare)
    loaded = load_checkpoint(str(path)).lexicon.actions
    assert loaded == [dataclasses.replace(a, role="a b") if a.role == "/pb/arg0" else a
                      for a in params.lexicon.actions]
