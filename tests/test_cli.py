"""The command line end to end on a tiny corpus:
gen-corpus -> oracle -> train -> parse -> eval."""

import numpy as np
import pytest

from framekit import cli
from framekit.corpus import generate_corpus
from framekit.document import tokenize
from framekit.model import (ModelConfig, Parameters, build_lexicon, load_checkpoint,
                            save_checkpoint, train)
from framekit.model.lexicon import Lexicon
from framekit.transitions import Action
from support import edit_checkpoint_header

TINY = ["lstm_dim=6", "hidden_dim=5", "word_dim=4", "affix_dim=2", "shape_dim=2",
        "link_dim=3", "k_attention=3", "k_history=2", "learning_rate=0.005"]
TINY_HPARAMS = [arg for h in TINY for arg in ("--hparam", h)]


def run(capsys, *argv):
    assert cli.main([str(arg) for arg in argv]) == 0, capsys.readouterr().err
    return capsys.readouterr().out


def test_pipeline_end_to_end(tmp_path, capsys):
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
        assert cli.main(["parse", "--model", str(path), "--in", str(dev)]) == 1
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


def test_train_dev_keeps_the_best_checkpoint(tmp_path, capsys):
    """`.best` holds the parameters at the best dev checkpoint: those
    `train` gives with the same seed stopped at that step."""
    train_path, dev, model = tmp_path / "train.txt", tmp_path / "dev.txt", tmp_path / "m.ckpt"
    run(capsys, "gen-corpus", "--out", train_path, "--n-docs", 8, "--seed", 3)
    run(capsys, "gen-corpus", "--out", dev, "--n-docs", 4, "--seed", 4)
    hparams = [arg for h in TINY for arg in ("--hparam", h)]
    log = run(capsys, "train", "--in", train_path, "--dev", dev, "--out", model,
              "--steps", 40, "--checkpoint-every", 5, "--seed", 3, *hparams)
    best_line = log.splitlines()[-1]
    assert best_line.startswith("best checkpoint: step=")
    best_step = int(best_line.split()[2].removeprefix("step="))
    assert 5 < best_step < 40  # .best was overwritten, and is not the final model
    config = ModelConfig()
    for item in TINY:
        config.apply_override(*item.split("="))
    expected = train(cli.read_corpus(str(train_path)), config, seed=3, steps=best_step)
    best = load_checkpoint(str(model) + ".best")
    assert best.arrays.keys() == expected.arrays.keys()
    for name, array in expected.arrays.items():
        assert np.array_equal(best.arrays[name], array), name


def test_parse_text(tmp_path, capsys):
    model, parsed = tmp_path / "model.ckpt", tmp_path / "parsed.txt"
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    corpus = generate_corpus(4, 2)
    save_checkpoint(Parameters(config, build_lexicon(corpus, config)), str(model))
    parsed.write_text(run(capsys, "parse", "--model", model, "--text", "John hit the ball."),
                      encoding="utf-8")
    (doc,) = cli.read_corpus(str(parsed))
    assert doc.text == "John hit the ball."
    assert doc.tokens == tokenize("John hit the ball.")


def test_grad_check(capsys):
    out = run(capsys, "grad-check", "--configs", 1)
    assert "worst over 1 configs" in out
    assert cli.main(["grad-check", "--configs", "1", "--threshold", "1e-300"]) == 1
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen-corpus", "--n-docs", "2", "--out", "{missing}"],
    ["oracle", "--in", "{corpus}", "--out", "{missing}"],
    ["train", "--in", "{corpus}", "--steps", "1", "--out", "{missing}", *TINY_HPARAMS],
    ["parse", "--model", "{model}", "--in", "{corpus}", "--out", "{missing}"],
    ["eval", "--gold", "{corpus}", "--pred", "{corpus}", "--metrics-out", "{missing}"],
], ids=lambda argv: argv[0])
def test_an_unwritable_output_path_is_reported(tmp_path, capsys, argv):
    corpus, model = tmp_path / "train.txt", tmp_path / "model.ckpt"
    run(capsys, "gen-corpus", "--out", corpus, "--n-docs", 2, "--seed", 3)
    run(capsys, "train", "--in", corpus, "--out", model, "--steps", 1, *TINY_HPARAMS)
    missing = tmp_path / "no-such-dir" / "out.txt"
    argv = [arg.format(corpus=corpus, model=model, missing=missing) for arg in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["train", "--steps", "0"],
    ["train", "--steps", "-1"],
    ["train", "--checkpoint-every", "0"],
    ["train", "--hparam", "use_ema=ture"],
    ["train", "--hparam", "word_vectors_path={missing}"],
    ["grad-check", "--configs", "0"],
    ["grad-check", "--threshold", "nan"],
    ["grad-check", "--threshold", "0"],
    ["grad-check", "--threshold=-1e-4"],
])
def test_bad_arguments_are_reported(tmp_path, capsys, argv):
    corpus, model = tmp_path / "train.txt", tmp_path / "model.ckpt"
    run(capsys, "gen-corpus", "--out", corpus, "--n-docs", 2, "--seed", 3)
    argv = [arg.format(missing=tmp_path / "missing.vec") for arg in argv]
    if argv[0] == "train":
        argv += ["--in", str(corpus), "--out", str(model), "--hparam", TINY[0]]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not model.exists()
    if "word_vectors_path" in " ".join(argv):
        assert str(tmp_path / "missing.vec") in err
    if "--threshold" in argv[1]:
        assert err == "error: --threshold must be > 0\n"


@pytest.mark.parametrize("hparam, message", [
    ("lstm_dim=1.5", "lstm_dim expects an integer, got '1.5'"),
    ("learning_rate=fast", "learning_rate expects a number, got 'fast'"),
    ("learning_rate=-1", "learning_rate must be > 0"),
    ("learning_rate=nan", "learning_rate must be > 0"),
    ("adam_epsilon=0", "adam_epsilon must be > 0"),
    ("adam_beta1=2", "adam_beta1 must be in [0, 1)"),
    ("adam_beta2=1", "adam_beta2 must be in [0, 1)"),
    ("ema_decay=5", "ema_decay must be in [0, 1)"),
    ("ema_decay=-0.5", "ema_decay must be in [0, 1)"),
    ("ema_decay=nan", "ema_decay must be in [0, 1)"),
    ("gradient_clip_norm=-3", "gradient_clip_norm must be >= 0"),
    ("gradient_clip_norm=nan", "gradient_clip_norm must be >= 0"),
])
def test_bad_hparam_values_name_the_option(tmp_path, capsys, hparam, message):
    corpus, model = tmp_path / "train.txt", tmp_path / "model.ckpt"
    run(capsys, "gen-corpus", "--out", corpus, "--n-docs", 2, "--seed", 3)
    assert cli.main(["train", "--in", str(corpus), "--out", str(model), "--steps", "2",
                     "--hparam", hparam, "--hparam", "use_ema=1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: --hparam {message}")
    assert not model.exists()


def test_parse_reports_a_lexicon_that_does_not_fit(tmp_path, capsys):
    """Negative word ids once parsed with the wrong embedding rows."""
    dev, model = tmp_path / "dev.txt", tmp_path / "model.ckpt"
    run(capsys, "gen-corpus", "--out", dev, "--n-docs", 2, "--seed", 4)
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    save_checkpoint(Parameters(config, build_lexicon(generate_corpus(4, 2), config)),
                    str(model))

    def negate(header):
        lexicon = header["lexicon"]
        lexicon["words"] = {word: -index for word, index in lexicon["words"].items()}
    edit_checkpoint_header(model, negate)
    assert cli.main(["parse", "--model", str(model), "--in", str(dev)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {model}: malformed header: lexicon words ids are not exactly 1..")


def test_a_symbol_value_that_names_a_frame_is_reported():
    doc = generate_corpus(3, 1)[0]
    store = doc.store
    frame = doc.mentions[0].evoked[0]
    store.add_slot(frame, store.intern("r"), store.new_frame([(store.id, store.intern("x"))]))
    store.add_slot(frame, store.intern("q"), store.intern("x"))
    with pytest.raises(cli.CliError, match="^document 0: symbol 'x' names a frame"):
        cli.format_corpus([doc])
