"""Command-line entry point.

One executable with subcommands for the full workflow: corpus
generation, training, evaluation, prediction dumps, finite-difference
gradient checking, post-hoc analysis and the rule-based solver.

Configuration is a flat "key = value" file, overridable per invocation
with --set and the ablation presets. The embed.* keys but embed.vectors,
and the reader.* and hp.* keys, are the fields of EmbedConfig,
ReaderConfig and HyperParams; a command that builds a model validates
all three before it writes anything. Every command that writes files
also writes the fully resolved configuration next to them, so a run can
be reproduced from its artifacts alone.

Exit codes: 0 success, 1 usage or configuration error, 2 data or
contract violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    attention_svg,
    bucket_by_length,
    export_attention,
    mcnemar_one_sided,
)
from .autodiff import backward, load_checkpoint, restore_parameters
from .corpus import (
    DatasetSplit,
    SynthConfig,
    build_vocab,
    dump_jsonl,
    generate_synthetic,
    load_jsonl,
    load_vocab,
    parse_cbt,
    save_vocab,
)
from .embed import EmbedConfig, load_pretrained_vectors
from .errors import ConfigError, ContractViolation, NumericalError, ParseError
from .gradcheck import check_gradients
from .model import Model, assemble_batch
from .ranker import dump_predictions, load_predictions, prediction_record
from .reader import ABLATION_PRESETS, ReaderConfig
from .rulekit import disambiguate, evaluate_rule_coverage
from .trainer import HyperParams, evaluate, make_batches, train

# Config sections whose keys are the fields of a dataclass, named
# `<section>.<field>`; HyperParams.seed is the top-level `seed` key.
SECTIONS = {"embed": EmbedConfig, "reader": ReaderConfig, "hp": HyperParams}

# The CLI defaults to quickstart widths; the dataclasses keep paper-like ones.
QUICKSTART_WIDTHS = {
    "embed.word_dim": 16,
    "embed.char_dim": 8,
    "embed.char_hidden": 8,
    "embed.char_out": 8,
    "reader.hidden": 32,
}


def _field_key(section: str, name: str) -> str:
    return name if name == "seed" else f"{section}.{name}"


CONFIG_DEFAULTS = {
    # an optional field's unset value, None, is written as 0.0
    **{
        _field_key(section, f.name): 0.0 if f.default is None else f.default
        for section, cls in SECTIONS.items()
        for f in dataclasses.fields(cls)
    },
    **QUICKSTART_WIDTHS,
    # keys no dataclass holds; `seed` also seeds initialization and sets HyperParams.seed
    "seed": 0,
    "data.format": "jsonl",
    "data.lowercase": True,
    "data.train": "",
    "data.dev": "",
    "vocab.min_count": 1,
    "embed.vectors": "",
}

SNAPSHOT_NAME = "config.txt"


def _parse_value(key: str, raw: str):
    default = CONFIG_DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: expected an integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: expected a number, got {raw!r}") from None
    return raw


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def load_config_file(path) -> dict:
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for number, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path} line {number}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path} line {number}: unknown config key {key!r}")
        cfg[key] = _parse_value(key, raw)
    return cfg


def resolve_config(args) -> dict:
    """Defaults, then config file, then preset, then --set, last wins."""
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config_file(_require_file(args, "--config")))
    if getattr(args, "preset", None):
        for name, value in ABLATION_PRESETS[args.preset].items():
            cfg[f"reader.{name}"] = value
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"--set: unknown config key {key!r}")
        cfg[key] = _parse_value(key, raw)
    if hasattr(args, "seed") and args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def write_snapshot(cfg: dict, out_dir: Path) -> None:
    lines = [f"{key} = {_format_value(cfg[key])}" for key in sorted(cfg)]
    (out_dir / SNAPSHOT_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def config_objects(cfg: dict) -> tuple[EmbedConfig, ReaderConfig, HyperParams]:
    """Each section's dataclass, built from the resolved config and
    validated; a rejected value is reported under its config key."""
    objects = []
    for section, cls in SECTIONS.items():
        values = {}
        for f in dataclasses.fields(cls):
            value = cfg[_field_key(section, f.name)]
            values[f.name] = None if f.default is None and value == 0.0 else value
        try:
            objects.append(cls(**values).validate())
        except ConfigError as exc:
            raise ConfigError(f"config key {_field_key(section, exc.field)}: {exc}") from None
    return tuple(objects)


def load_split(path, cfg: dict, lowercase: bool | None = None):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"data file not found: {path}")
    try:
        if cfg["data.format"] == "cbt":
            lower = cfg["data.lowercase"] if lowercase is None else lowercase
            return parse_cbt(path.read_text(encoding="utf-8"), lowercase=lower)
        if cfg["data.format"] == "jsonl":
            return load_jsonl(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    raise ConfigError(f"config key data.format: unknown format {cfg['data.format']!r}")


def build_model(cfg: dict, vocab, embed_cfg: EmbedConfig, reader_cfg: ReaderConfig) -> Model:
    rng = np.random.default_rng([cfg["seed"], 5])
    word_table = None
    if cfg["embed.vectors"]:
        if not Path(cfg["embed.vectors"]).exists():
            raise ConfigError(f"config key embed.vectors: file not found: {cfg['embed.vectors']}")
        word_table, coverage = load_pretrained_vectors(
            cfg["embed.vectors"], vocab, embed_cfg.word_dim, rng
        )
        print(f"pretrained vectors cover {coverage:.1%} of the vocabulary", file=sys.stderr)
    return Model(vocab, embed_cfg, reader_cfg, rng, word_table)


def _require(args, flag: str):
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if not value:
        raise ConfigError(f"{flag} is required for this command")
    return value


def _require_file(args, flag: str) -> Path:
    path = Path(_require(args, flag))
    if not path.exists():
        raise ConfigError(f"{flag}: file not found: {path}")
    return path


def _out_dir(args) -> Path:
    out = Path(_require(args, "--out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_synth(args) -> int:
    synth = SynthConfig(
        samples=args.samples,
        vocab_size=args.vocab_size,
        doc_len=tuple(args.doc_len),
        qry_len=tuple(args.qry_len),
        candidates=args.candidates,
        seed=args.seed,
    )
    samples = generate_synthetic(synth)
    out = _out_dir(args)
    dump_jsonl(samples, out / "synth.jsonl")
    settings = json.dumps(dataclasses.asdict(synth))
    (out / "synth_config.json").write_text(settings + "\n", encoding="utf-8")
    print(f"wrote {len(samples)} samples to {out / 'synth.jsonl'}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    embed_cfg, reader_cfg, hp = config_objects(cfg)
    for key in ("data.train", "data.dev"):
        if not cfg[key]:
            raise ConfigError(f"config key {key} is required for train")
    train_samples = load_split(cfg["data.train"], cfg)
    dev_samples = load_split(cfg["data.dev"], cfg)
    vocab = build_vocab(
        [DatasetSplit("train", train_samples), DatasetSplit("dev", dev_samples)],
        min_count=cfg["vocab.min_count"],
    )
    model = build_model(cfg, vocab, embed_cfg, reader_cfg)
    out = _out_dir(args)
    write_snapshot(cfg, out)
    save_vocab(vocab, out / "vocab.txt")
    result = train(
        model,
        train_samples,
        dev_samples,
        hp,
        log_path=out / "train_log.csv",
        checkpoint_path=out / "model.ckpt",
    )
    summary = {
        "best_epoch": result.best_epoch,
        "best_dev_acc": result.best_dev_acc,
        "epochs_run": result.epochs_run,
        "stopped_early": result.stopped_early,
        "reached_target": result.reached_target,
        "train_samples": len(train_samples),
        "dev_samples": len(dev_samples),
    }
    (out / "summary.json").write_text(json.dumps(summary) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


def _restore_model(args, cfg) -> Model:
    embed_cfg, reader_cfg, _ = config_objects(cfg)
    ckpt = _require_file(args, "--checkpoint")
    vocab = load_vocab(_require_file(args, "--vocab"))
    model = Model(vocab, embed_cfg, reader_cfg, np.random.default_rng([cfg["seed"], 5]))
    try:
        restore_parameters(model.parameters(), load_checkpoint(ckpt))
    except ContractViolation as exc:
        raise ContractViolation(
            f"{exc}; the resolved config must match the training run, "
            f"pass --config <run>/{SNAPSHOT_NAME}"
        ) from exc
    return model


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    model = _restore_model(args, cfg)
    samples = load_split(_require_file(args, "--data"), cfg)
    result = evaluate(model, samples, cfg["hp.batch_size"])
    print(json.dumps({"accuracy": result.accuracy, "nll": result.nll, "count": result.count}))
    return 0


def cmd_predict(args) -> int:
    cfg = resolve_config(args)
    model = _restore_model(args, cfg)
    samples = load_split(_require_file(args, "--data"), cfg)
    records = []
    for chunk in make_batches(samples, cfg["hp.batch_size"]):
        batch = assemble_batch(chunk, model.vocab)
        dists = model.predict_batch(model.forward_batch(batch), batch)
        for sample, dist in zip(chunk, dists):
            records.append(
                prediction_record(
                    str(len(records)), dist, sample.answer,
                    len(sample.document), len(sample.query),
                )
            )
    out = _out_dir(args)
    write_snapshot(cfg, out)
    dump_predictions(records, out / "predictions.jsonl")
    correct = [r["correct"] for r in records if r["correct"] is not None]
    line = {"count": len(records)}
    if len(correct) == len(records):
        line["accuracy"] = sum(correct) / len(records)
    print(json.dumps(line))
    return 0


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
    _, reader_cfg, _ = config_objects(cfg)
    samples = generate_synthetic(
        SynthConfig(samples=2, vocab_size=16, doc_len=(7, 10), qry_len=(4, 5),
                    candidates=3, seed=cfg["seed"])
    )
    vocab = build_vocab([DatasetSplit("train", samples)])
    model = Model(
        vocab,
        EmbedConfig(word_dim=3, char_dim=3, char_hidden=4, char_out=6),
        dataclasses.replace(reader_cfg, hidden=8),
        np.random.default_rng([cfg["seed"], 5]),
    )
    batch = assemble_batch(samples, vocab)

    def loss_fn():
        return float(model.forward_batch(batch).loss.data)

    result = model.forward_batch(batch)
    grads = backward(result.tape, result.loss)
    del result  # only the gradients are needed through the finite differences
    report = check_gradients(loss_fn, model.parameters(), grads)
    print(report.summary())
    if not report.passed:
        raise NumericalError(
            f"gradient check failed: max relative error {report.max_rel_error:.3e} "
            f"at {report.worst_param}"
        )
    return 0


def cmd_analyze_length(args) -> int:
    records = load_predictions(_require_file(args, "--predictions"))
    try:
        centers = [int(c) for c in args.centers.split(",") if c.strip()]
    except ValueError:
        raise ConfigError(f"--centers expects comma-separated integers, got {args.centers!r}") from None
    report = bucket_by_length(records, centers, axis=args.axis)
    csv = report.to_csv()
    if args.out:
        out = _out_dir(args)
        (out / f"length_{args.axis}.csv").write_text(csv, encoding="utf-8")
    print(csv, end="")
    return 0


def cmd_analyze_attention(args) -> int:
    cfg = resolve_config(args)
    model = _restore_model(args, cfg)
    samples = load_split(_require_file(args, "--data"), cfg)
    if not 0 <= args.index < len(samples):
        raise ConfigError(f"--index {args.index} outside the split (size {len(samples)})")
    sample = samples[args.index]
    batch = assemble_batch([sample], model.vocab)
    export = export_attention(model.forward_batch(batch).energies, sample, batch.occurrence)
    out = _out_dir(args)
    write_snapshot(cfg, out)
    stem = out / f"attention_{args.index}"
    stem.with_suffix(".json").write_text(export.to_json() + "\n", encoding="utf-8")
    stem.with_suffix(".svg").write_text(attention_svg(export), encoding="utf-8")
    print(f"wrote {stem.with_suffix('.json')} and {stem.with_suffix('.svg')}")
    return 0


def cmd_analyze_mcnemar(args) -> int:
    records_a = load_predictions(_require_file(args, "--a"))
    records_b = load_predictions(_require_file(args, "--b"))
    result = mcnemar_one_sided(records_a, records_b)
    print(result.to_json())
    return 0


def cmd_disambiguate(args) -> int:
    cfg = resolve_config(args)
    # the anchor test needs original casing, so CBT input is never lowercased
    samples = load_split(_require_file(args, "--data"), cfg, lowercase=False)
    decisions = [disambiguate(s) for s in samples]
    if args.out:
        out = _out_dir(args)
        with open(out / "decisions.jsonl", "w", encoding="utf-8") as fh:
            for decision in decisions:
                fh.write(decision.to_json() + "\n")
    else:
        for decision in decisions:
            print(decision.to_json())
    if all(s.answer is not None for s in samples):
        print(evaluate_rule_coverage(samples).to_json())
    else:
        print("coverage skipped: split has unlabeled samples", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgreader",
        description="Cloze-style reading comprehension toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--preset", choices=sorted(ABLATION_PRESETS),
                       help="ablation preset for the reader switches")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")

    p = sub.add_parser("gen-synth", help="write a deterministic synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--vocab-size", type=int, default=40)
    p.add_argument("--doc-len", type=int, nargs=2, default=(15, 25), metavar=("LO", "HI"))
    p.add_argument("--qry-len", type=int, nargs=2, default=(5, 9), metavar=("LO", "HI"))
    p.add_argument("--candidates", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model and keep the best checkpoint")
    common(p, seed=True)
    p.add_argument("--out", required=True, help="run directory for all artifacts")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a split")
    common(p, seed=True)
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--data")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="dump per-sample prediction records")
    common(p, seed=True)
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check on a tiny model")
    common(p, seed=True)
    p.set_defaults(func=cmd_gradcheck)

    analyze = sub.add_parser("analyze", help="post-hoc analysis over artifacts")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("length", help="accuracy bucketed by sequence length")
    p.add_argument("--predictions")
    p.add_argument("--centers", required=True, help="comma-separated bucket centers")
    p.add_argument("--axis", choices=("document", "query"), default="document")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze_length)

    p = asub.add_parser("attention", help="export per-hop attention for one sample")
    common(p, seed=True)
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--data")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_attention)

    p = asub.add_parser("mcnemar", help="one-sided exact test between two prediction dumps")
    p.add_argument("--a")
    p.add_argument("--b")
    p.set_defaults(func=cmd_analyze_mcnemar)

    p = sub.add_parser("disambiguate", help="run the adjacency rule over a split")
    common(p)
    p.add_argument("--data")
    p.add_argument("--out")
    p.set_defaults(func=cmd_disambiguate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        # argparse uses status 2 for usage errors; fold that into the
        # usage/config exit code
        return 0 if exit_request.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ContractViolation as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except NumericalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
