#!/usr/bin/env python3
"""Run the fixture dataset through all four pipeline modes offline and print
one metric table per mode, mirroring the ablation layout (raw retrieval,
tag alignment only, cluster denoising only, both).

Usage: python3 scripts/ablation_run.py [--out DIR]
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
from homorag.metrics import EntityLexicon, render_table  # noqa: E402
from homorag.pipeline import Pipeline, run_eval  # noqa: E402
from homorag.tag_filter import train_filter  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None, help="work directory (default: temp)")
    args = parser.parse_args()
    work = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="ablation-"))
    work.mkdir(parents=True, exist_ok=True)

    index_dir = work / "index"
    build_index(FIXTURES / "swissprot_mini.dat", FIXTURES / "go_mini.obo", index_dir)
    examples = make_synthetic_examples(PIPELINE_TYPES, per_type=100, seed=11)
    train_set, test_set = split_examples(examples, seed=11)
    model = train_filter(train_set, seed=11, heldout=test_set)
    model_path = work / "tag_filter.json"
    model.save(model_path)

    lexicon = EntityLexicon.from_file(FIXTURES / "lexicon.txt")
    for mode in MODE_STAGES:
        config = make_pipeline_config(index_dir, model_path, work / mode, mode=mode)
        out_dir = work / mode / "run"
        summary = Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", out_dir)
        table = run_eval(out_dir, lexicon, out_prefix=work / mode / "report")
        print(f"\n### mode: {mode} "
              f"(processed {summary['processed']}, errors {summary['records_with_errors']})")
        print(render_table(table))
    print(f"\nartifacts and reports under: {work}")


if __name__ == "__main__":
    main()
