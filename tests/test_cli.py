"""The command line end to end on a tiny corpus:
gen-corpus -> oracle -> train -> parse -> eval."""

import os

from framekit import cli
from framekit.corpus import generate_corpus
from framekit.model import ModelConfig, Parameters, build_lexicon, save_checkpoint
from framekit.model.lexicon import Lexicon
from framekit.transitions import Action
from support import edit_checkpoint_header

TINY = ["lstm_dim=6", "hidden_dim=5", "word_dim=4", "affix_dim=2", "shape_dim=2",
        "link_dim=3", "k_attention=3", "k_history=2", "learning_rate=0.005"]


def run(capsys, *argv):
    assert cli.main([str(arg) for arg in argv]) == 0, capsys.readouterr().err
    return capsys.readouterr().out


def test_pipeline_end_to_end(tmp_path, capsys, monkeypatch):
    train, dev = tmp_path / "train.txt", tmp_path / "dev.txt"
    model, pred = tmp_path / "model.ckpt", tmp_path / "pred.txt"
    assert "wrote 12 documents" in run(capsys, "gen-corpus", "--out", train,
                                       "--n-docs", 12, "--seed", 3)
    run(capsys, "gen-corpus", "--out", dev, "--n-docs", 5, "--seed", 4)

    sequences = tmp_path / "train.oracle"
    table = run(capsys, "oracle", "--in", train, "--out", sequences)
    assert table.splitlines()[-1].startswith("Total")
    assert sequences.read_text(encoding="utf-8").count("STOP") == 12

    hparams = [arg for h in TINY for arg in ("--hparam", h)]
    log = run(capsys, "train", "--in", train, "--dev", dev, "--out", model,
              "--steps", 6, "--checkpoint-every", 3, *hparams)
    assert log.splitlines()[0].startswith("step=3 ")
    assert "best checkpoint: step=" in log
    assert sorted(p.name for p in tmp_path.glob("model.ckpt*")) == \
        ["model.ckpt", "model.ckpt.best"]

    run(capsys, "parse", "--model", model, "--in", dev, "--out", pred)
    text = pred.read_text(encoding="utf-8")
    assert text.count("/s/document/text") == 5
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    run(capsys, "parse", "--model", model, "--in", dev, "--out", tmp_path / "pred2.txt",
        "--jobs", 2)
    assert (tmp_path / "pred2.txt").read_text(encoding="utf-8") == text
    # The workers' BLAS settings are not left behind.
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert "OPENBLAS_NUM_THREADS" not in os.environ

    scores = run(capsys, "eval", "--gold", dev, "--pred", pred)
    assert "slot.f1=" in scores
    gold_vs_gold = run(capsys, "eval", "--gold", dev, "--pred", dev)
    assert "combined.f1=100.00" in gold_vs_gold


def test_parse_reports_a_bad_checkpoint(tmp_path, capsys):
    dev = tmp_path / "dev.txt"
    run(capsys, "gen-corpus", "--out", dev, "--n-docs", 2, "--seed", 4)
    not_a_checkpoint = tmp_path / "notes.txt"
    not_a_checkpoint.write_text("hello\n", encoding="utf-8")
    malformed = tmp_path / "model.ckpt"
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    corpus = generate_corpus(4, 2)
    save_checkpoint(Parameters(config, build_lexicon(corpus, config)), str(malformed))
    edit_checkpoint_header(malformed, lambda header: header.update(tensors=3))
    for path in (tmp_path / "missing.ckpt", not_a_checkpoint, malformed):
        for jobs in ("1", "2"):
            argv = ["parse", "--model", str(path), "--in", str(dev), "--jobs", jobs]
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_a_role_with_a_comma_trains_parses_and_scores(tmp_path, capsys):
    train, dev = tmp_path / "train.txt", tmp_path / "dev.txt"
    model, pred = tmp_path / "model.ckpt", tmp_path / "pred.txt"
    for path, seed in ((train, 3), (dev, 4)):
        run(capsys, "gen-corpus", "--out", path, "--n-docs", 6, "--seed", seed)
        text = path.read_text(encoding="utf-8")
        assert "/pb/arg0:" in text
        path.write_text(text.replace("/pb/arg0:", '"arg0, agent":'), encoding="utf-8")
    assert 'CONNECT(0, "arg0, agent", 1)' in run(capsys, "oracle", "--in", train)
    hparams = [arg for h in TINY for arg in ("--hparam", h)]
    run(capsys, "train", "--in", train, "--out", model, "--steps", 2, *hparams)
    run(capsys, "parse", "--model", model, "--in", dev, "--out", pred)
    assert "slot.f1=" in run(capsys, "eval", "--gold", dev, "--pred", pred)


def test_parse_reports_a_type_without_notation(tmp_path, capsys):
    """A checkpoint may hold a type that no document file can: the
    parsed document cannot be written, and parse says so."""
    path = tmp_path / "model.ckpt"
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    lexicon = Lexicon(words={}, prefixes={}, suffixes={}, roles={}, max_affix_len=3,
                      actions=[Action.shift(), Action.stop(), Action.evoke("a b", 1)])
    params = Parameters(config, lexicon)
    params.arrays["ff_b2"][...] = [1, 0, 2]
    save_checkpoint(params, str(path))
    assert cli.main(["parse", "--model", str(path), "--text", "word"]) == 1
    err = capsys.readouterr().err
    assert err == "error: document 0: symbol 'a b' has no notation as a value\n"
