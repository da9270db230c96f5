"""Golden outputs: the oracle sequences, the written notation file and
the evaluation of gold against its oracle replay, for three generated
corpora of 200 documents, pinned by SHA-256.  A change to the store,
the oracle, the printer or the evaluator that is meant to keep every
output byte for byte must leave these digests as they are.  The written
file must also read back into documents that write the same bytes.

Training is pinned the same way: every parameter array after 40 steps,
and the parse that model gives, in two configurations.  A change to the
network or the optimiser that is meant to be bit-identical must leave
those digests as they are too."""

import hashlib

import pytest

from framekit import cli, oracle
from framekit.corpus import generate_corpus
from framekit.evaluation import evaluate_corpus
from framekit.model import ModelConfig, parse_tokens, train
from framekit.transitions import sequence_to_text

GOLDEN = {
    1: ("892df9b0de9435a4f46f112485b2c761b7c03215f662e39a4b5c33ea4f805435",
        "f8ca85e99fb3543692b0d7bed3d93baa04d044e4f5bfae25e46cc8379fed9c22",
        "dc4aa2fdb23cb44090bae50d64077bb252319af0b13a514f190e13cc7572ee85"),
    11: ("795168a35fff629bd2faa6a7de95b962061bd6d8268c2de77ae48fb3dc8f7659",
         "2dfcfac638e1c430d0793762f61bf93e7513fc0e8c1ddc33de2ae6002510d82d",
         "d01a5d05481f54863cccaf29e2dd2afc455f627c2f9c49572901f3f11d125ba9"),
    17: ("4e3500a5aef833a663cd53e3b1e56ce5b8ac841968d80e44daa045a4d7c19233",
         "bf0ad8e4cca01c8dbd1835d99d1a99e629a4dbd5ed7fe32f868422ad1fee556d",
         "5f2642a8a7df217608f90eaae7aa6640420760da854f31247cd0b33cda6ea200"),
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
           sha256(evaluate_corpus(docs, replays).format_machine()))
    assert got == GOLDEN[seed]
    again = tmp_path / "again.txt"
    cli.write_corpus(cli.read_corpus(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()


# lstm = hidden = 32, lr 0.005 and batch 8 are the benchmark's pipeline
# configuration; the second one swaps relu for tanh and float32 for
# float64.
PIPELINE = dict(lstm_dim=32, hidden_dim=32, learning_rate=0.005, batch_size=8)
TRAINED = {
    "float32-relu": (dict(PIPELINE),
                     "ee34193f6ff15a823e70fce03a8f94df07d0fc2d403ef9dcf7caaeb73df4f69f",
                     "ab48ebf4aa1eea6c3e39814df4b3966578e9adfc51990a5085da5ed5c6804e85"),
    "float64-tanh": (dict(PIPELINE, hidden_activation="tanh", dtype="float64"),
                     "400fa4618e7527c689bfee51dc205a4e01b90cdd866db0fd9741c22abc79d770",
                     "27c43dd6bf17e4dd558983c284c51b0efcddfa5278e2f6a02646b0cb8822c6ad"),
}


@pytest.mark.parametrize("name", sorted(TRAINED))
def test_training_matches_its_recorded_digests(name):
    options, params_digest, parse_digest = TRAINED[name]
    params = train(generate_corpus(11, 60), ModelConfig(**options), seed=1, steps=40,
                   checkpoint_every=40)
    digest = hashlib.sha256()
    for key, array in params.arrays.items():
        digest.update(key.encode("utf-8") + array.dtype.str.encode("ascii")
                      + array.tobytes())
    preds = [parse_tokens(params, doc.text, list(doc.tokens))
             for doc in generate_corpus(12, 20)]
    assert (digest.hexdigest(), sha256(cli.format_corpus(preds))) == (params_digest,
                                                                      parse_digest)
