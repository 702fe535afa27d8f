"""Command-line entry points.

Verb tree: `index build|lookup`, `retrieve`, `filter label|train|score`,
`denoise`, `qa run|batch|eval`, `blast run`. Global flags `--config`,
`--offline` (force mock backends), and `--seed` come before the verb.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__
from .annotations import AccessionNotFound, AnnotationIndex, build_index, format_entry
from .atomic import dump_json, dump_json_lines, read_json_object, write_atomic
from .config import load_config
from .denoise import vertical_filter
from .gateway import Gateway
from .homology import (
    EvidencePool,
    check_residues,
    format_hits,
    load_hits,
    rank_and_select,
    read_fasta_first,
    run_blast,
)
from .metrics import EntityLexicon, render_table
from .pipeline import (
    Pipeline,
    label_dataset,
    read_dataset,
    run_eval,
    write_artifact,
)
from .tag_filter import DISTILL_PER_TYPE, FilterModel, read_examples, train_filter, write_examples


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homorag",
        description="Homology-evidence retrieval and filtering for protein-text QA",
    )
    parser.add_argument("--config", help="pipeline config YAML", default=None)
    parser.add_argument("--offline", action="store_true", help="force mock backends")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--version", action="version", version=f"homorag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    index = sub.add_parser("index", help="annotation index operations")
    index_sub = index.add_subparsers(dest="subcommand", required=True)
    build = index_sub.add_parser("build", help="index a flat file (plus GO terms)")
    build.add_argument("--dat", required=True)
    build.add_argument("--go", default=None)
    build.add_argument("--out", required=True)
    lookup = index_sub.add_parser("lookup", help="print one parsed entry")
    lookup.add_argument("--index", default=None,
                        help="index directory (default: config paths.index_dir)")
    lookup.add_argument("--accession", required=True)

    retrieve = sub.add_parser("retrieve", help="rank and filter precomputed hits")
    retrieve.add_argument("--query", required=True, help="query FASTA")
    retrieve.add_argument("--hits", required=True, help="7-column tabular hits")
    retrieve.add_argument("--k", dest="top_k", type=int, default=None,
                          help="default: retrieval.top_k")
    retrieve.add_argument("--identity-ceiling", type=float, default=None,
                          help="default: retrieval.identity_ceiling")
    retrieve.add_argument("--keep-self", dest="exclude_self", action="store_false", default=None,
                          help="keep self hits (default: retrieval.exclude_self)")
    retrieve.add_argument("--out", default=None)

    filt = sub.add_parser("filter", help="tag relevance filter operations")
    filt_sub = filt.add_subparsers(dest="subcommand", required=True)
    label = filt_sub.add_parser("label", help="build a labeled distillation set")
    label.add_argument("--dataset", required=True)
    label.add_argument("--index", required=True)
    label.add_argument("--hits", required=True)
    label.add_argument("--out", required=True, help="output directory")
    label.add_argument("--per-type", type=int, default=DISTILL_PER_TYPE)
    train = filt_sub.add_parser("train", help="train the tag classifier")
    train.add_argument("--examples", required=True, help="train jsonl, or a directory with train/test jsonl")
    train.add_argument("--out", required=True)
    train.add_argument("--epochs", type=int, default=None, help="default: train.epochs")
    train.add_argument("--learning-rate", type=float, default=None,
                       help="default: train.learning_rate")
    train.add_argument("--batch-size", type=int, default=None, help="default: train.batch_size")
    score = filt_sub.add_parser("score", help="score one (instruction, tag) pair")
    score.add_argument("--model", required=True)
    score.add_argument("--instruction", required=True)
    score.add_argument("--tag", required=True)

    denoise_p = sub.add_parser("denoise", help="cluster a pool and keep anchor clusters")
    denoise_p.add_argument("--pool", required=True, help="serialized pool JSON")
    denoise_p.add_argument("--eps", type=float, default=None, help="default: denoise.eps")
    denoise_p.add_argument("--min-pts", type=int, default=None, help="default: denoise.min_pts")
    denoise_p.add_argument("--anchor-top", dest="anchor_top_m", type=int, default=None,
                           help="default: denoise.anchor_top_m")
    denoise_p.add_argument("--metric", default=None, help="default: denoise.metric")
    denoise_p.add_argument("--out", default=None)

    qa = sub.add_parser("qa", help="end-to-end question answering")
    qa_sub = qa.add_subparsers(dest="subcommand", required=True)
    qa_run = qa_sub.add_parser("run", help="run one record")
    qa_run.add_argument("--dataset", required=True)
    qa_run.add_argument("--id", required=True)
    qa_run.add_argument("--out", default=None, help="directory for the artifact")
    qa_batch = qa_sub.add_parser("batch", help="run a dataset (resumable)")
    qa_batch.add_argument("--dataset", required=True)
    qa_batch.add_argument("--out", required=True)
    qa_eval = qa_sub.add_parser("eval", help="score generated answers")
    qa_eval.add_argument("--artifacts", required=True)
    qa_eval.add_argument("--lexicon", required=True)
    qa_eval.add_argument("--index", default=None, help="also add GO term names to the lexicon")
    qa_eval.add_argument("--out", default=None, help="output path prefix")

    blast = sub.add_parser("blast", help="external alignment tool")
    blast_sub = blast.add_subparsers(dest="subcommand", required=True)
    blast_run = blast_sub.add_parser("run", help="invoke the configured binary")
    blast_run.add_argument("--query", required=True)
    blast_run.add_argument("--out", required=True)

    return parser


def _with_flags(section, args):
    """`section` with each field whose flag (same dest name) was given set to
    the flag's value; `replace` reruns the section's checks on those values."""
    given = {f.name: getattr(args, f.name) for f in fields(section)
             if getattr(args, f.name, None) is not None}
    return replace(section, **given)


def _cmd_index(args, config) -> int:
    if args.subcommand == "build":
        index = build_index(args.dat, args.go, args.out)
        print(f"indexed {index.record_count} records "
              f"({len(index.records)} accession keys, {len(index.go_terms)} GO terms) "
              f"-> {args.out}")
        return 0
    index_dir = args.index or config.paths.index_dir
    if not index_dir:
        raise ValueError("no index directory: pass --index or set paths.index_dir")
    index = AnnotationIndex.load(index_dir)
    try:
        entry = index.lookup(args.accession)
    except AccessionNotFound:
        raise LookupError(f"accession {args.accession} is not in the index {index_dir}") from None
    print(format_entry(entry))
    return 0


def _cmd_retrieve(args, config) -> int:
    query_id, sequence = read_fasta_first(args.query)
    check_residues(sequence, f"{args.query}: query {query_id}")
    hits = load_hits(args.hits).get(query_id, [])
    if not hits:
        print(f"warning: no hits for {query_id} in {args.hits}", file=sys.stderr)
    selected = rank_and_select(hits, _with_flags(config.retrieval, args),
                               query_length=len(sequence))
    rows = format_hits(selected)
    if args.out:
        write_atomic(Path(args.out), rows.encode("utf-8"))
    else:
        print(rows.rstrip("\n"))
    return 0


def _cmd_filter(args, config) -> int:
    if args.subcommand == "label":
        records = read_dataset(args.dataset)
        index = AnnotationIndex.load(args.index)
        gateway = Gateway(cache_dir=config.paths.cache_dir)
        train_set, test_set = label_dataset(
            config, records, index, load_hits(args.hits), gateway, per_type=args.per_type
        )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_examples(out / "train.jsonl", train_set)
        write_examples(out / "test.jsonl", test_set)
        positives = sum(ex.label for ex in train_set) + sum(ex.label for ex in test_set)
        print(f"labeled {len(train_set)} train / {len(test_set)} test examples "
              f"({positives} positive) -> {out}")
        return 0
    if args.subcommand == "train":
        examples_path = Path(args.examples)
        heldout = None
        if examples_path.is_dir():
            train_set = read_examples(examples_path / "train.jsonl")
            test_path = examples_path / "test.jsonl"
            heldout = read_examples(test_path) if test_path.exists() else None
        else:
            train_set = read_examples(examples_path)
        model = train_filter(train_set, **asdict(_with_flags(config.train, args)),
                             seed=config.seed, heldout=heldout)
        model.save(args.out)
        loss = model.metadata["train_loss_per_epoch"][-1]
        msg = f"trained on {len(train_set)} examples; final train loss {loss:.4f}"
        if heldout:
            msg += f"; held-out accuracy {model.metadata['heldout_accuracy']:.3f}"
        print(msg + f" -> {args.out}")
        return 0
    model = FilterModel.load(args.model)
    print(f"{model.score(args.instruction, args.tag):.6f}")
    return 0


def _cmd_denoise(args, config) -> int:
    document = read_json_object(args.pool)
    try:
        pool = EvidencePool.from_dict(document)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{args.pool}: not an evidence pool ({type(exc).__name__}: {exc})") from exc
    gateway = Gateway(cache_dir=config.paths.cache_dir)
    vertical, context, warnings = vertical_filter(
        pool, gateway.embedder_handle(config.embedder), _with_flags(config.denoise, args)
    )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.out:
        write_atomic(Path(args.out), dump_json(vertical.to_dict()).encode())
    print(context)
    return 0


def _cmd_qa(args, config) -> int:
    if args.subcommand == "eval":
        lexicon = EntityLexicon.from_file(args.lexicon)
        if args.index:
            index = AnnotationIndex.load(args.index)
            lexicon = lexicon.merged(EntityLexicon.from_go_terms(index.go_terms))
        table = run_eval(args.artifacts, lexicon, out_prefix=args.out)
        print(render_table(table))
        return 0
    pipeline = Pipeline(config)
    if args.subcommand == "batch":
        summary = pipeline.run_batch(args.dataset, args.out)
        print(dump_json_lines([
            {k: summary[k] for k in ("processed", "skipped_existing", "skipped_malformed",
                                     "records_with_errors", "unwritten") if k in summary},
        ]), end="")
        return 1 if "unwritten" in summary else 0
    records = {r.id: r for r in read_dataset(args.dataset)}
    if args.id not in records:
        raise LookupError(f"record id {args.id!r} not found in {args.dataset}")
    artifact = pipeline.run_query(records[args.id])
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_artifact(out, artifact)
    print("=== context ===")
    print(artifact.context or "(empty)")
    print("=== answer ===")
    print(artifact.answer or "(none)")
    return 0


def _cmd_blast(args, config) -> int:
    meta = run_blast(config, args.query, args.out)
    print("command: " + " ".join(meta["command"]))
    print(f"hits written to {meta['out']}")
    return 0


_HANDLERS = {
    "index": _cmd_index,
    "retrieve": _cmd_retrieve,
    "filter": _cmd_filter,
    "denoise": _cmd_denoise,
    "qa": _cmd_qa,
    "blast": _cmd_blast,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, offline=args.offline, seed=args.seed)
        return _HANDLERS[args.command](args, config)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
