"""CLI tests: config resolution and snapshots, artifact layout, exit
code mapping, and the train-then-eval reproducibility contract."""

import dataclasses
import json
import re
import struct
from pathlib import Path

import pytest

from dgreader import cli
from dgreader.autodiff import load_checkpoint
from dgreader.corpus import PAD_ID, UNK_ID, load_vocab
from dgreader.embed import EmbedConfig
from dgreader.errors import ParseError
from dgreader.gradcheck import GradCheckReport
from dgreader.reader import ReaderConfig
from dgreader.trainer import HyperParams

DATA = Path(__file__).parent / "data"

TINY_MODEL_SETS = [
    "--set", "reader.hidden=8",
    "--set", "embed.word_dim=8",
    "--set", "embed.char_dim=4",
    "--set", "embed.char_hidden=4",
    "--set", "embed.char_out=4",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = cli.main(["gen-synth", "--out", str(out), "--samples", "20", "--seed", "1",
                     "--vocab-size", "24", "--doc-len", "8", "12", "--qry-len", "4", "6",
                     "--candidates", "3"])
    assert code == 0
    return out / "synth.jsonl"


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("trained")
    code = cli.main([
        "train", "--out", str(out), "--seed", "3",
        "--set", f"data.train={corpus}", "--set", f"data.dev={corpus}",
        "--set", "hp.epochs=4", "--set", "hp.lr=0.01", "--set", "hp.batch_size=8",
        *TINY_MODEL_SETS,
    ])
    assert code == 0
    return out


class TestConfig:
    def test_file_parsing_and_override_order(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nreader.hops = 1\nhp.lr = 0.01\n")
        args = cli.build_parser().parse_args(
            ["train", "--out", "x", "--config", str(cfg_file),
             "--preset", "ga-reader", "--set", "reader.hops=3"]
        )
        cfg = cli.resolve_config(args)
        assert cfg["reader.hops"] == 3  # --set beats the file
        assert cfg["hp.lr"] == 0.01
        assert cfg["reader.query_gating"] is False  # preset applied

    def test_unknown_key_named(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("reader.hopz = 1\n")
        args = cli.build_parser().parse_args(["train", "--out", "x", "--config", str(cfg_file)])
        with pytest.raises(cli.ConfigError, match="reader.hopz"):
            cli.resolve_config(args)

    def test_bad_value_type_named(self):
        args = cli.build_parser().parse_args(["train", "--out", "x", "--set", "reader.hops=two"])
        with pytest.raises(cli.ConfigError, match="reader.hops"):
            cli.resolve_config(args)

    def test_snapshot_round_trips(self, trained):
        snapshot = trained / "config.txt"
        loaded = cli.load_config_file(snapshot)
        assert loaded["hp.epochs"] == 4
        assert loaded["seed"] == 3
        assert set(loaded) == set(cli.CONFIG_DEFAULTS)

    def test_preset_flags_in_snapshot(self, tmp_path, corpus):
        out = tmp_path / "ga"
        code = cli.main([
            "train", "--out", str(out), "--preset", "ga-reader",
            "--set", f"data.train={corpus}", "--set", f"data.dev={corpus}",
            "--set", "hp.epochs=1", *TINY_MODEL_SETS,
        ])
        assert code == 0
        cfg = cli.load_config_file(out / "config.txt")
        assert cfg["reader.query_gating"] is False
        assert cfg["reader.dependent_query"] is False
        assert cfg["reader.carry_query_state"] is False


class TestGenSynth:
    def test_repeat_runs_byte_identical(self, tmp_path):
        argv = ["gen-synth", "--samples", "12", "--seed", "9", "--vocab-size", "24",
                "--candidates", "3", "--doc-len", "8", "12", "--qry-len", "4", "6"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert (a / "synth.jsonl").read_bytes() == (b / "synth.jsonl").read_bytes()

    def test_infeasible_config_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["gen-synth", "--out", str(tmp_path / "x"),
                         "--samples", "5", "--vocab-size", "8", "--candidates", "7"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTrainEval:
    def test_artifacts_written(self, trained):
        for name in ("config.txt", "vocab.txt", "vocab.txt.chars",
                     "train_log.csv", "model.ckpt", "summary.json"):
            assert (trained / name).exists(), name
        log = (trained / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,dev_acc,seconds"

    def test_eval_reproduces_best_dev_acc(self, trained, corpus, capsys):
        summary = json.loads((trained / "summary.json").read_text())
        code = cli.main([
            "eval", "--config", str(trained / "config.txt"),
            "--checkpoint", str(trained / "model.ckpt"),
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(corpus),
        ])
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["accuracy"] == summary["best_dev_acc"]

    def test_missing_checkpoint_names_flag(self, trained, corpus, capsys):
        code = cli.main([
            "eval", "--config", str(trained / "config.txt"),
            "--checkpoint", "/no/such/file.ckpt",
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(corpus),
        ])
        assert code == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_missing_train_data_key(self, tmp_path, capsys):
        code = cli.main(["train", "--out", str(tmp_path / "x"), "--set", "hp.epochs=1"])
        assert code == 1
        assert "data.train" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling, reserved_id", [("<unk>", UNK_ID), ("<pad>", PAD_ID)])
    def test_reserved_spellings_in_corpus_map_to_reserved_ids(self, tmp_path, spelling, reserved_id):
        # a corpus whose rare words were already replaced by a reserved
        # spelling: one JSONL line, the spelling in document and query
        data = tmp_path / "one.jsonl"
        data.write_text(json.dumps({
            "document": ["the", spelling, "saw", "anna", "near", "bob", spelling],
            "query": ["@placeholder", "saw", spelling],
            "candidates": ["anna", "bob"],
            "answer": "anna",
        }) + "\n")
        out = tmp_path / "run"
        code = cli.main([
            "train", "--out", str(out), "--set", f"data.train={data}", "--set", f"data.dev={data}",
            "--set", "hp.epochs=1", *TINY_MODEL_SETS,
        ])
        assert code == 0
        vocab = load_vocab(out / "vocab.txt")
        assert vocab.word_id(spelling) == reserved_id
        assert vocab.id_to_word.count(spelling) == 1
        # "saw" occurs twice, the other words once
        assert vocab.id_to_word[3:] == ["saw", "anna", "bob", "near", "the"]


@pytest.fixture(scope="module")
def predictions(tmp_path_factory, trained, corpus):
    out = tmp_path_factory.mktemp("preds")
    code = cli.main([
        "predict", "--config", str(trained / "config.txt"),
        "--checkpoint", str(trained / "model.ckpt"),
        "--vocab", str(trained / "vocab.txt"),
        "--data", str(corpus), "--out", str(out),
    ])
    assert code == 0
    return out / "predictions.jsonl"


class TestPredictAndAnalyze:

    def test_prediction_records_complete(self, predictions):
        lines = predictions.read_text().splitlines()
        assert len(lines) == 20
        first = json.loads(lines[0])
        assert first["sample_id"] == "0"
        assert first["correct"] in (True, False)

    def test_length_analysis(self, predictions, capsys, tmp_path):
        code = cli.main(["analyze", "length", "--predictions", str(predictions),
                         "--centers", "8,12", "--out", str(tmp_path / "len")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("center,count,accuracy\n")
        assert (tmp_path / "len" / "length_document.csv").read_text() == out

    def test_mcnemar_between_identical_dumps(self, predictions, capsys):
        with pytest.warns(UserWarning):
            code = cli.main(["analyze", "mcnemar", "--a", str(predictions),
                             "--b", str(predictions)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result == {"b": 0, "c": 0, "p_value": 1.0}

    def test_attention_export_files(self, trained, corpus, tmp_path, capsys):
        out = tmp_path / "att"
        code = cli.main([
            "analyze", "attention", "--config", str(trained / "config.txt"),
            "--checkpoint", str(trained / "model.ckpt"),
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(corpus), "--index", "1", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "attention_1.json").read_text())
        assert len(payload["layers"]) == 2
        svg = (out / "attention_1.svg").read_text()
        assert svg.startswith("<svg")

    def test_attention_index_out_of_range(self, trained, corpus, tmp_path, capsys):
        code = cli.main([
            "analyze", "attention", "--config", str(trained / "config.txt"),
            "--checkpoint", str(trained / "model.ckpt"),
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(corpus), "--index", "99", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "--index" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_on_fresh_model(self, capsys):
        # full preset sweep lives in the acceptance suite; one CLI pass
        # here keeps this file quick
        assert cli.main(["gradcheck", "--seed", "7"]) == 0
        assert "max rel error" in capsys.readouterr().out

    def test_finite_differences_hold_no_tape(self, monkeypatch, live_tapes):
        alive = []

        def fake_check(loss_fn, params, grads, **kw):
            loss_fn()
            alive.append(len(live_tapes()))
            return GradCheckReport(max_rel_error=0.0, worst_param="w", tolerance=1e-4)

        monkeypatch.setattr(cli, "check_gradients", fake_check)
        assert cli.main(["gradcheck"]) == 0
        assert alive == [0]

    def test_failure_maps_to_exit_three(self, monkeypatch, capsys):
        def fake_check(loss_fn, params, grads, **kw):
            return GradCheckReport(
                max_rel_error=1.0, worst_param="w", tolerance=1e-4,
                per_param={"w": 1.0},
            )
        monkeypatch.setattr(cli, "check_gradients", fake_check)
        assert cli.main(["gradcheck"]) == 3
        assert "gradient check failed" in capsys.readouterr().err


class TestDisambiguateCommand:
    def test_golden_file_stdout(self, capsys):
        code = cli.main(["disambiguate", "--set", "data.format=cbt",
                         "--data", str(DATA / "rule_example.cbt")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        decision = json.loads(lines[0])
        assert decision["status"] == "disambiguated"
        assert decision["answer"] == "Skunk"
        summary = json.loads(lines[-1])
        assert summary["solved"] == 1 and summary["correct"] == 1

    def test_out_dir_gets_decisions_file(self, tmp_path, capsys):
        out = tmp_path / "rules"
        code = cli.main(["disambiguate", "--set", "data.format=cbt",
                         "--data", str(DATA / "rule_example.cbt"), "--out", str(out)])
        assert code == 0
        assert (out / "decisions.jsonl").read_text().count("\n") == 1


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["bogus"]) == 1

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_contract_violation_maps_to_two(self, tmp_path, trained, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"document": ["a"], "query": ["b"], "candidates": ["a"]}\n')
        code = cli.main([
            "eval", "--config", str(trained / "config.txt"),
            "--checkpoint", str(trained / "model.ckpt"),
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(bad),
        ])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_version_one_checkpoint_maps_to_two(self, tmp_path, trained, corpus, capsys):
        # same archive, format version 1: parameter ids and shapes differ
        # between the versions, so it is refused before any restore
        old = tmp_path / "v1.ckpt"
        blob = bytearray((trained / "model.ckpt").read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        old.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="version 1"):
            load_checkpoint(old)
        code = cli.main([
            "eval", "--config", str(trained / "config.txt"),
            "--checkpoint", str(old),
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(corpus),
        ])
        assert code == 2
        assert "version 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cut, where",
        [
            (8, "the header at byte 4"),
            (17, "entry 0 at byte 16"),
            (100, "entry 0 ('embed.word') at byte 46"),
        ],
        ids=["header", "name", "values"],
    )
    def test_truncated_checkpoint_maps_to_two(self, tmp_path, trained, corpus, capsys, cut, where):
        cut_ckpt = tmp_path / "cut.ckpt"
        cut_ckpt.write_bytes((trained / "model.ckpt").read_bytes()[:cut])
        code = cli.main([
            "eval", "--config", str(trained / "config.txt"),
            "--checkpoint", str(cut_ckpt),
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(corpus),
        ])
        assert code == 2
        assert f"cut.ckpt: truncated in {where}" in capsys.readouterr().err

    def test_checkpoint_name_not_utf8_maps_to_two(self, tmp_path, trained, corpus, capsys):
        bad = tmp_path / "bad.ckpt"
        blob = bytearray((trained / "model.ckpt").read_bytes())
        blob[16] = 0xFF  # the first byte of entry 0's name
        bad.write_bytes(bytes(blob))
        code = cli.main([
            "eval", "--config", str(trained / "config.txt"),
            "--checkpoint", str(bad),
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(corpus),
        ])
        assert code == 2
        assert "bad.ckpt: entry 0 name is not UTF-8 at byte 16" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["train", "--out", str(tmp_path / "x"), "--config", "missing.txt"])
        assert code == 1
        assert "--config: file not found: missing.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("which, code", [("--config", 1), ("--data", 2)])
    def test_file_not_utf8_is_named(self, tmp_path, trained, corpus, capsys, which, code):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe" + "reader.hops = 1\n".encode("utf-16-le"))
        files = {"--config": trained / "config.txt", "--data": corpus, which: bad}
        assert cli.main([
            "eval", "--config", str(files["--config"]),
            "--checkpoint", str(trained / "model.ckpt"),
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(files["--data"]),
        ]) == code
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_unknown_set_key_is_usage_error(self, capsys):
        assert cli.main(["gradcheck", "--set", "nope=1"]) == 1
        assert "nope" in capsys.readouterr().err


# Each config dataclass with the section its fields are keyed under.
FIELD_SECTIONS = [(EmbedConfig, "embed"), (ReaderConfig, "reader"), (HyperParams, "hp")]
CLI_ONLY_KEYS = {"seed", "data.format", "data.lowercase", "data.train", "data.dev",
                 "vocab.min_count", "embed.vectors"}
# a valid value other than the CLI default, for every dataclass-backed key
NON_DEFAULT = {
    "seed": 4,
    "embed.word_dim": 5, "embed.char_dim": 3, "embed.char_hidden": 6, "embed.char_out": 7,
    "reader.hops": 3, "reader.hidden": 10, "reader.query_gating": False,
    "reader.dependent_query": False, "reader.carry_query_state": False,
    "reader.qe_comm": False,
    "hp.lr": 0.01, "hp.dropout": 0.25, "hp.batch_size": 7, "hp.epochs": 3,
    "hp.patience": 2, "hp.beta1": 0.8, "hp.beta2": 0.99, "hp.eps": 1e-6,
    "hp.grad_clip": 5.0, "hp.target_train_acc": 0.9,
}


def field_key(section, name):
    return "seed" if (section, name) == ("hp", "seed") else f"{section}.{name}"


def built(*argv):
    args = cli.build_parser().parse_args(["train", "--out", "x", *argv])
    return cli.config_objects(cli.resolve_config(args))


class TestConfigDerivation:
    def test_every_field_has_exactly_one_key(self):
        field_keys = [field_key(section, f.name)
                      for cls, section in FIELD_SECTIONS for f in dataclasses.fields(cls)]
        assert len(set(field_keys)) == len(field_keys)
        assert set(cli.CONFIG_DEFAULTS) == set(field_keys) | CLI_ONLY_KEYS

    def test_set_reaches_every_field(self):
        argv = []
        for key, value in NON_DEFAULT.items():
            assert value != cli.CONFIG_DEFAULTS[key], key
            argv += ["--set", f"{key}={str(value).lower()}"]
        objects = built(*argv)
        for obj, (cls, section) in zip(objects, FIELD_SECTIONS, strict=True):
            assert type(obj) is cls
            for f in dataclasses.fields(cls):
                assert getattr(obj, f.name) == NON_DEFAULT[field_key(section, f.name)], f.name

    def test_defaults_are_the_dataclass_defaults_but_quickstart_widths(self):
        embed, reader, hp = built()
        assert embed == EmbedConfig(word_dim=16, char_dim=8, char_hidden=8, char_out=8)
        assert reader == ReaderConfig(hidden=32)
        assert hp == HyperParams()

    def test_zero_leaves_optional_fields_unset(self):
        _, _, hp = built("--set", "hp.grad_clip=5", "--set", "hp.grad_clip=0.0",
                         "--set", "hp.target_train_acc=0")
        assert hp.grad_clip is None and hp.target_train_acc is None

    @pytest.mark.parametrize("preset", sorted(cli.ABLATION_PRESETS))
    def test_preset_matches_from_preset(self, preset):
        _, reader, _ = built("--preset", preset)
        assert reader == ReaderConfig.from_preset(preset, hidden=32)

    def test_readme_table_lists_exactly_the_keys(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        keys = set()
        for line in section.splitlines():
            if line.startswith("| `"):
                keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        assert keys == set(cli.CONFIG_DEFAULTS)


class TestRejectedValues:
    @pytest.mark.parametrize("argv,key", [
        (["--seed", "-1"], "seed"),
        (["--set", "embed.char_hidden=-2"], "embed.char_hidden"),
        (["--set", "embed.char_out=0"], "embed.char_out"),
        (["--set", "reader.hidden=7"], "reader.hidden"),
        (["--set", "hp.grad_clip=nan"], "hp.grad_clip"),
        (["--set", "hp.eps=inf"], "hp.eps"),
        (["--set", "hp.lr=nan"], "hp.lr"),
        (["--set", "hp.lr=-1"], "hp.lr"),
        (["--set", "embed.vectors=no-such-vectors.txt"], "embed.vectors"),
    ])
    def test_train_names_key_and_writes_nothing(self, tmp_path, corpus, capsys, argv, key):
        out = tmp_path / "run"
        code = cli.main([
            "train", "--out", str(out),
            "--set", f"data.train={corpus}", "--set", f"data.dev={corpus}",
            "--set", "hp.epochs=1", *TINY_MODEL_SETS, *argv,
        ])
        assert code == 1
        assert f"config key {key}:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_predict_names_key_and_writes_nothing(self, tmp_path, trained, corpus, capsys):
        out = tmp_path / "preds"
        code = cli.main([
            "predict", "--config", str(trained / "config.txt"),
            "--checkpoint", str(trained / "model.ckpt"),
            "--vocab", str(trained / "vocab.txt"),
            "--data", str(corpus), "--out", str(out), "--set", "hp.batch_size=0",
        ])
        assert code == 1
        assert "config key hp.batch_size:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--seed", "-1"], "seed must be non-negative"),
        (["--doc-len", "20", "10"], "doc_len minimum 20 exceeds"),
        (["--qry-len", "9", "5"], "qry_len minimum 9 exceeds"),
    ])
    def test_gen_synth_names_setting_and_writes_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "synth"
        assert cli.main(["gen-synth", "--out", str(out), *argv]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_predict_numbers_samples_across_batches(tmp_path, trained, corpus):
    out = tmp_path / "preds"
    code = cli.main([
        "predict", "--config", str(trained / "config.txt"),
        "--checkpoint", str(trained / "model.ckpt"),
        "--vocab", str(trained / "vocab.txt"),
        "--data", str(corpus), "--out", str(out), "--set", "hp.batch_size=8",
    ])
    assert code == 0
    records = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
    samples = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert [r["sample_id"] for r in records] == [str(i) for i in range(len(samples))]
    assert [r["doc_len"] for r in records] == [len(s["document"]) for s in samples]
