"""The command line end to end on a tiny corpus:
gen-corpus -> oracle -> train -> parse -> eval."""

import numpy as np
import pytest

from framekit import cli
from framekit.corpus import generate_corpus
from framekit.document import Document, Mention, tokenize
from framekit.model import (ModelConfig, Parameters, build_lexicon, load_checkpoint,
                            parse_tokens, save_checkpoint, train)
from framekit.model.lexicon import Lexicon
from framekit.store import Store
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


def test_train_reports_gradient_norm_and_clip_rate(tmp_path, capsys):
    train_path, model, metrics = (tmp_path / "train.txt", tmp_path / "m.ckpt",
                                  tmp_path / "metrics.txt")
    run(capsys, "gen-corpus", "--out", train_path, "--n-docs", 8, "--seed", 3)
    log = run(capsys, "train", "--in", train_path, "--out", model, "--steps", 6,
              "--checkpoint-every", 3, "--metrics-out", metrics, *TINY_HPARAMS,
              "--hparam", "gradient_clip_norm=0.5")
    lines = log.splitlines()
    assert metrics.read_text(encoding="utf-8").splitlines() == lines
    config = ModelConfig(gradient_clip_norm=0.5)
    for item in TINY:
        config.apply_override(*item.split("="))
    reports = []
    train(cli.read_corpus(str(train_path)), config, seed=1, steps=6, checkpoint_every=3,
          on_checkpoint=lambda params, report: reports.append(report))
    assert len(lines) == len(reports) == 2
    for line, report in zip(lines, reports):
        assert line == (f"step={report.step} loss={report.loss:.6f} "
                        f"accuracy={report.accuracy:.4f} grad_norm={report.grad_norm:.4f} "
                        f"clip_rate={report.clip_rate:.3f}")
    assert all(report.grad_norm > 0 for report in reports)
    assert any(0 < report.clip_rate for report in reports)


def test_parse_text(tmp_path, capsys):
    model, parsed = tmp_path / "model.ckpt", tmp_path / "parsed.txt"
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    corpus = generate_corpus(4, 2)
    save_checkpoint(Parameters(config, build_lexicon(corpus, config)), str(model))
    printed = run(capsys, "parse", "--model", model, "--text", "John hit the ball.")
    run(capsys, "parse", "--model", model, "--text", "John hit the ball.", "--out", parsed)
    assert parsed.read_bytes() == printed.encode("utf-8")
    (doc,) = cli.read_corpus(str(parsed))
    assert doc.text == "John hit the ball."
    assert doc.tokens == tokenize("John hit the ball.")


def test_train_and_parse_with_averaged_parameters(tmp_path, capsys):
    corpus, model = tmp_path / "train.txt", tmp_path / "model.ckpt"
    run(capsys, "gen-corpus", "--out", corpus, "--n-docs", 3, "--seed", 3)
    run(capsys, "train", "--in", corpus, "--out", model, "--steps", 2, "--ema",
        *TINY_HPARAMS)
    params = load_checkpoint(str(model))
    assert params.config.use_ema and list(params.ema) == list(params.arrays)
    # Averages that decode differently from the trained arrays.
    evoke = next(a for a in params.lexicon.actions if a.kind == "EVOKE")
    params.ema["ff_b2"][params.lexicon.action_id(evoke)] = 5.0
    save_checkpoint(params, str(model))

    docs = [(d.text, list(d.tokens)) for d in cli.read_corpus(str(corpus))]
    printed = run(capsys, "parse", "--model", model, "--in", corpus, "--ema")
    assert printed == cli.format_corpus(
        [parse_tokens(params, text, tokens, use_ema=True) for text, tokens in docs]) + "\n"
    assert printed != run(capsys, "parse", "--model", model, "--in", corpus)


def test_parse_ema_needs_averages(tmp_path, capsys):
    model = tmp_path / "model.ckpt"
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    save_checkpoint(Parameters(config, build_lexicon(generate_corpus(4, 2), config)), str(model))
    assert cli.main(["parse", "--model", str(model), "--text", "a b", "--ema"]) == 1
    assert capsys.readouterr() == ("", "error: checkpoint holds no averaged parameters\n")


def test_parse_reports_text_that_is_not_utf8(tmp_path, capsys):
    """A byte that is not UTF-8 reaches argv as a lone surrogate."""
    model = tmp_path / "model.ckpt"
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    save_checkpoint(Parameters(config, build_lexicon(generate_corpus(4, 2), config)), str(model))
    assert cli.main(["parse", "--model", str(model), "--text", "John \udcff"]) == 1
    assert capsys.readouterr() == ("", "error: --text: not valid UTF-8\n")


NO_TOKENS = '{:/s/document /s/document/text: ""}\n{:/s/document /s/document/text: " "}\n'


@pytest.mark.parametrize("dev", [False, True], ids=["train", "train-dev"])
def test_train_refuses_a_corpus_without_tokens(tmp_path, capsys, dev):
    corpus, model = tmp_path / "empty.txt", tmp_path / "model.ckpt"
    corpus.write_text(NO_TOKENS, encoding="utf-8")
    argv = ["train", "--in", corpus, "--out", model, "--steps", 1, *TINY_HPARAMS]
    assert cli.main([str(arg) for arg in argv + (["--dev", corpus] if dev else [])]) == 1
    assert capsys.readouterr() == (
        "", "error: no oracle sequence has a SHIFT: the corpus has no tokens\n")
    assert not model.exists()


@pytest.mark.parametrize("missing", ["SHIFT", "STOP"])
def test_parse_refuses_a_checkpoint_without_shift_or_stop(tmp_path, capsys, missing):
    model = tmp_path / "model.ckpt"
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    if missing == "SHIFT":  # what training on a corpus without tokens once saved
        no_tokens = [Document("", [], [], Store())]
        lexicon = Lexicon.build(no_tokens, [[Action.stop()]], config.max_affix_len)
    else:
        lexicon = build_lexicon(generate_corpus(4, 2), config)
    save_checkpoint(Parameters(config, lexicon), str(model))
    if missing == "STOP":
        edit_checkpoint_header(model, lambda header: header["lexicon"]["actions"].remove("STOP"))
    assert cli.main(["parse", "--model", str(model), "--text", "a b"]) == 1
    assert capsys.readouterr() == (
        "", f"error: {model}: malformed header: lexicon actions lack {missing}\n")


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
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err
    assert "step=" not in out  # train reports it before its first step


@pytest.mark.parametrize("output", ["best", "metrics-out"])
def test_train_checks_its_other_outputs_before_its_first_step(tmp_path, capsys, output):
    # `--out` itself is checked by test_an_unwritable_output_path_is_reported.
    corpus, model = tmp_path / "train.txt", tmp_path / "model.ckpt"
    run(capsys, "gen-corpus", "--out", corpus, "--n-docs", 2, "--seed", 3)
    argv = ["train", "--in", corpus, "--out", model, "--steps", 1, *TINY_HPARAMS]
    if output == "best":
        unwritable = tmp_path / "model.ckpt.best"
        unwritable.mkdir()
    else:
        unwritable = tmp_path / "no-such-dir" / "metrics.txt"
        argv += ["--metrics-out", unwritable]
    assert cli.main([str(arg) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(unwritable) in err and "Traceback" not in err
    assert "step=" not in out and not model.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--steps", "0"],
    ["train", "--steps", "-1"],
    ["train", "--checkpoint-every", "0"],
    ["train", "--hparam", "use_ema=ture"],
    ["train", "--hparam", "use_ema=2"],
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


@pytest.mark.parametrize("argv", [
    ["oracle", "--in", "{bad}"],
    ["train", "--in", "{bad}", "--out", "{out}", *TINY_HPARAMS],
    ["train", "--in", "{corpus}", "--dev", "{bad}", "--out", "{out}", *TINY_HPARAMS],
    ["parse", "--model", "{model}", "--in", "{bad}"],
    ["eval", "--gold", "{corpus}", "--pred", "{bad}"],
], ids=["oracle", "train-in", "train-dev", "parse", "eval"])
def test_a_corpus_that_is_not_utf8_is_reported(tmp_path, capsys, argv):
    corpus, model, bad = tmp_path / "train.txt", tmp_path / "model.ckpt", tmp_path / "bad.txt"
    run(capsys, "gen-corpus", "--out", corpus, "--n-docs", 2, "--seed", 3)
    config = ModelConfig(lstm_dim=6, hidden_dim=5)
    save_checkpoint(Parameters(config, build_lexicon(generate_corpus(3, 2), config)), str(model))
    bad.write_bytes(b"\xff\xfe{}\n")
    argv = [arg.format(corpus=corpus, model=model, bad=bad, out=tmp_path / "out.ckpt")
            for arg in argv]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: byte 0: not valid UTF-8\n"


def test_a_byte_that_is_not_utf8_is_reported_at_its_file_offset(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes("é".encode("utf-8") * 5000 + b"\xc3")  # past a text reader's chunk
    with pytest.raises(cli.CliError) as error:
        cli.read_corpus(str(path))
    assert str(error.value) == f"{path}: byte 10000: not valid UTF-8"


def chain_document(n_frames: int) -> Document:
    """One-token mentions whose evoked frames link `next` in a chain: the
    printer writes the whole chain inside the first mention."""
    text = " ".join(["w"] * n_frames)
    store = Store()
    frames = [store.new_frame([(store.isa, store.intern("/t"))]) for _ in range(n_frames)]
    for frame, successor in zip(frames, frames[1:]):
        store.add_slot(frame, store.intern("next"), successor)
    mentions = [Mention(index, 1, [frame]) for index, frame in enumerate(frames)]
    return Document(text, tokenize(text), mentions, store)


# The document frame is at depth 0 and the first mention at 1, so the
# last frame of a chain of 198 is at depth 199 and its type at 200, the
# deepest the reader accepts.
DEEPEST_CHAIN = 198


def test_the_deepest_chain_that_reads_back_is_written(tmp_path):
    path = tmp_path / "chain.txt"
    cli.write_corpus([chain_document(DEEPEST_CHAIN)], str(path))
    (doc,) = cli.read_corpus(str(path))
    next_role = doc.store.intern("next")
    frame, length = doc.mentions[0].evoked[0], 1
    while (frame := doc.store.get_role(frame, next_role)) is not None:
        length += 1
    assert length == DEEPEST_CHAIN


@pytest.mark.parametrize("n_frames", [DEEPEST_CHAIN + 1, 1200])
def test_a_chain_too_deep_to_read_back_is_refused(tmp_path, n_frames):
    path = tmp_path / "chain.txt"
    with pytest.raises(cli.CliError, match="^document 0: nesting deeper than 200 levels"):
        cli.write_corpus([chain_document(n_frames)], str(path))
    assert not path.exists()
