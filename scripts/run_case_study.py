#!/usr/bin/env python3
"""Run the bundled case-study query end to end, fully offline, and print
what each phase did: the ranked hits, the raw pool, the tag-gated pool, the
cluster-anchored pool, the final prompt, and the mock generation.

Usage: python3 scripts/run_case_study.py [--record-id case-r1] [--mode full_2d]
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import PIPELINE_TYPES, make_pipeline_config, make_synthetic_examples, split_examples  # noqa: E402
from homorag.annotations import build_index  # noqa: E402
from homorag.config import MODE_STAGES  # noqa: E402
from homorag.pipeline import Pipeline, read_dataset  # noqa: E402
from homorag.tag_filter import train_filter  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def show_pool(title, pool):
    print(f"\n=== {title} ({len(pool.snippets())} snippets) ===")
    for homolog in pool.homologs:
        for snippet in homolog.snippets:
            value = snippet.value if len(snippet.value) <= 100 else snippet.value[:97] + "..."
            print(f"  rank {homolog.rank} ({homolog.hit.subject_accession}) "
                  f"[{snippet.tag}] {value}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--record-id", default="case-r1")
    parser.add_argument("--mode", default="full_2d", choices=tuple(MODE_STAGES))
    args = parser.parse_args()

    work = Path(tempfile.mkdtemp(prefix="case-study-"))
    index_dir = work / "index"
    build_index(FIXTURES / "swissprot_mini.dat", FIXTURES / "go_mini.obo", index_dir)

    examples = make_synthetic_examples(PIPELINE_TYPES, per_type=100, seed=11)
    train_set, test_set = split_examples(examples, seed=11)
    model = train_filter(train_set, seed=11, heldout=test_set)
    model_path = work / "tag_filter.json"
    model.save(model_path)
    print(f"trained tag filter: held-out accuracy "
          f"{model.metadata['heldout_accuracy']:.3f}")

    config = make_pipeline_config(index_dir, model_path, work, mode=args.mode)
    pipeline = Pipeline(config)
    records = {r.id: r for r in read_dataset(FIXTURES / "qa_records.jsonl")}
    record = records[args.record_id]

    print(f"\nrecord {record.id}: {record.instruction}")
    artifact = pipeline.run_query(record)

    print(f"\n=== ranked hits ({len(artifact.selected_hits)} of {len(artifact.hits)}) ===")
    for rank, hit in enumerate(artifact.selected_hits, start=1):
        print(f"  {rank}. {hit.subject_accession}  e={hit.e_value:g}  "
              f"identity={hit.percent_identity}%")

    for stage in ("raw", *MODE_STAGES[args.mode]):
        if stage in artifact.pools:
            show_pool(f"{stage} pool", artifact.pools[stage])

    print("\n=== prompt ===")
    print(artifact.prompt)
    print("\n=== generated answer (mock) ===")
    print(artifact.answer)
    if artifact.warnings:
        print("\nwarnings:", *artifact.warnings, sep="\n  ")
    print(f"\nwork dir: {work}")


if __name__ == "__main__":
    main()
