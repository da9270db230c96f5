"""Golden outputs: the oracle sequences, the written notation file, the
evaluation of gold against its oracle replay and the table `framekit
oracle` prints, for three generated corpora of 200 documents, pinned by
SHA-256.  A change to the store, the oracle, the printer or the
evaluator that is meant to keep every output byte for byte must leave
these digests as they are.  The written file must also read back into
documents that write the same bytes.  The generated corpora hold no
REFER, so the oracle sequences of random documents, which re-evoke
frames, are pinned too.

Training is pinned the same way: every parameter array after 40 steps,
the parse that model gives and the checkpoint file `save_checkpoint`
writes of it, in two configurations.  A change to the network, the
optimiser or the checkpoint writer that is meant to be bit-identical
must leave those digests as they are too."""

import hashlib
import random

import pytest

from framekit import cli, oracle
from framekit.corpus import generate_corpus
from framekit.evaluation import evaluate_corpus
from framekit.model import ModelConfig, parse_tokens, save_checkpoint, train
from framekit.transitions import REFER, sequence_to_text
from support import random_document

GOLDEN = {
    1: ("892df9b0de9435a4f46f112485b2c761b7c03215f662e39a4b5c33ea4f805435",
        "f8ca85e99fb3543692b0d7bed3d93baa04d044e4f5bfae25e46cc8379fed9c22",
        "dc4aa2fdb23cb44090bae50d64077bb252319af0b13a514f190e13cc7572ee85",
        "1160d432ee0d333e91b83268b24760e6f6d3ce1236aa327e489613049034baa2"),
    11: ("795168a35fff629bd2faa6a7de95b962061bd6d8268c2de77ae48fb3dc8f7659",
         "2dfcfac638e1c430d0793762f61bf93e7513fc0e8c1ddc33de2ae6002510d82d",
         "d01a5d05481f54863cccaf29e2dd2afc455f627c2f9c49572901f3f11d125ba9",
         "b90a459220d391d85c3ec9264bba9ebbb4eedda63c0c84196635fc98f917a032"),
    17: ("4e3500a5aef833a663cd53e3b1e56ce5b8ac841968d80e44daa045a4d7c19233",
         "bf0ad8e4cca01c8dbd1835d99d1a99e629a4dbd5ed7fe32f868422ad1fee556d",
         "5f2642a8a7df217608f90eaae7aa6640420760da854f31247cd0b33cda6ea200",
         "553745a4c9a57ac2c491a096ab2a521dbd0152d7b9914323cecb609d24123729"),
}


def sha256(data) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_outputs_match_their_recorded_digests(tmp_path, seed):
    docs = generate_corpus(seed, 200)
    sequences = [oracle.generate(doc) for doc in docs]
    path = tmp_path / "corpus.txt"
    cli.write_corpus(docs, str(path))
    replays = [oracle.replay(doc, sequence) for doc, sequence in zip(docs, sequences)]
    got = (sha256("\n\n".join(sequence_to_text(s) for s in sequences)),
           sha256(path.read_bytes()),
           sha256(evaluate_corpus(docs, replays).format_machine()),
           sha256(oracle.action_table(sequences)))
    assert got == GOLDEN[seed]
    again = tmp_path / "again.txt"
    cli.write_corpus(cli.read_corpus(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()


# 2,000 random documents from one random.Random(2021): 21,394 actions,
# 732 of them REFER.
RANDOM_SEQUENCES = "2ff7967cbb0b0784d7853c57fc8aea97df303984c60f85a655d698e50982e2ca"


def test_random_document_sequences_match_their_recorded_digest():
    rng = random.Random(2021)
    sequences = [oracle.generate(random_document(rng)) for _ in range(2000)]
    assert sum(action.kind == REFER for sequence in sequences for action in sequence) == 732
    assert sha256("\n\n".join(sequence_to_text(s) for s in sequences)) == RANDOM_SEQUENCES


# lstm = hidden = 32, lr 0.005 and batch 8 are the benchmark's pipeline
# configuration; the second one swaps relu for tanh and float32 for
# float64.
PIPELINE = dict(lstm_dim=32, hidden_dim=32, learning_rate=0.005, batch_size=8)
TRAINED = {
    "float32-relu": (dict(PIPELINE),
                     "ee34193f6ff15a823e70fce03a8f94df07d0fc2d403ef9dcf7caaeb73df4f69f",
                     "ab48ebf4aa1eea6c3e39814df4b3966578e9adfc51990a5085da5ed5c6804e85",
                     "3a4c53827c3ae29c3012b34cff99214e8c3a6e08ec1794faec00876fa6ec5990"),
    "float64-tanh": (dict(PIPELINE, hidden_activation="tanh", dtype="float64"),
                     "400fa4618e7527c689bfee51dc205a4e01b90cdd866db0fd9741c22abc79d770",
                     "27c43dd6bf17e4dd558983c284c51b0efcddfa5278e2f6a02646b0cb8822c6ad",
                     "a34441d17b994238d0f70915fe88d5a3be808ed58add2fd433679e5309081a66"),
}


@pytest.mark.parametrize("name", sorted(TRAINED))
def test_training_matches_its_recorded_digests(tmp_path, name):
    options, params_digest, parse_digest, checkpoint_digest = TRAINED[name]
    params = train(generate_corpus(11, 60), ModelConfig(**options), seed=1, steps=40,
                   checkpoint_every=40)
    digest = hashlib.sha256()
    for key, array in params.arrays.items():
        digest.update(key.encode("utf-8") + array.dtype.str.encode("ascii")
                      + array.tobytes())
    preds = [parse_tokens(params, doc.text, list(doc.tokens))
             for doc in generate_corpus(12, 20)]
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    assert (digest.hexdigest(), sha256(cli.format_corpus(preds)), sha256(path.read_bytes())) \
        == (params_digest, parse_digest, checkpoint_digest)
