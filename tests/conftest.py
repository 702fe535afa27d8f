"""Shared fixtures: the fixture corpus index, a trained tag filter, and
synthetic rule-based distillation sets."""

import os
import random
from pathlib import Path

import pytest

from homorag.annotations import AnnotationIndex, build_index
from homorag.config import BackendConfig, PipelineConfig, PipelinePaths
from homorag.tag_filter import DistillationExample, train_filter

FIXTURES = Path(__file__).parent / "fixtures"

TAG_UNIVERSE = (
    "CATALYTIC ACTIVITY",
    "FUNCTION",
    "DOMAIN_MOTIF",
    "SUBCELLULAR LOCATION",
    "PATHWAY",
    "SUBUNIT",
    "SIMILARITY",
    "GO:MOLECULAR_FUNCTION",
    "GO:BIOLOGICAL_PROCESS",
    "GO:CELLULAR_COMPONENT",
)

# instruction type -> (keyword phrase, relevant tag); targets are distinct
SYNTH_TYPES = {
    "catalytic": ("catalytic activity", "CATALYTIC ACTIVITY"),
    "function": ("biological function", "FUNCTION"),
    "domain": ("domains and motifs", "DOMAIN_MOTIF"),
    "location": ("subcellular location", "SUBCELLULAR LOCATION"),
    "pathway": ("metabolic pathway", "PATHWAY"),
    "subunit": ("subunit structure", "SUBUNIT"),
    "similarity": ("sequence similarity", "SIMILARITY"),
    "molfunc": ("molecular function terms", "GO:MOLECULAR_FUNCTION"),
}

# the fixture dataset also uses description-style instructions
PIPELINE_TYPES = dict(SYNTH_TYPES, description=("general description", "FUNCTION"))

_PREFIXES = ("Please", "Could you", "Now", "For this sequence,", "Carefully")
_VERBS = ("describe", "identify", "report", "summarize", "state")
_SUFFIXES = (
    "of this protein.",
    "of the given enzyme.",
    "for the sequence below.",
    "encoded by this sequence.",
    "in this protein.",
)


def make_synthetic_examples(types, per_type, seed, universe=TAG_UNIVERSE, target_rate=0.4):
    """Rule-based (instruction, tag, label) examples: the label is 1 exactly
    when the tag is the type's target, which a correct scorer must recover.
    `target_rate` controls how often the sampled tag is the target."""
    rng = random.Random(seed)
    examples = []
    for name in sorted(types):
        keyword, target = types[name]
        negatives = [t for t in universe if t != target]
        for _ in range(per_type):
            instruction = (
                f"{rng.choice(_PREFIXES)} {rng.choice(_VERBS)} the {keyword} "
                f"{rng.choice(_SUFFIXES)}"
            )
            tag = target if rng.random() < target_rate else rng.choice(negatives)
            label = 1 if tag == target else 0
            examples.append(
                DistillationExample(
                    instruction=instruction, tag=tag, label=label,
                    ig_value=0.05 if label else 0.0,
                )
            )
    return examples


def split_examples(examples, seed, train_parts=4, test_parts=1):
    rng = random.Random(seed)
    shuffled = rng.sample(examples, len(examples))
    n_train = len(shuffled) * train_parts // (train_parts + test_parts)
    return shuffled[:n_train], shuffled[n_train:]


@pytest.fixture(scope="session")
def synthetic_example_factory():
    return make_synthetic_examples


@pytest.fixture(scope="session")
def index_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("index")
    build_index(FIXTURES / "swissprot_mini.dat", FIXTURES / "go_mini.obo", out)
    return out


@pytest.fixture(scope="session")
def annotation_index(index_dir):
    return AnnotationIndex.load(index_dir)


@pytest.fixture(scope="session")
def filter_model_path(tmp_path_factory):
    examples = make_synthetic_examples(PIPELINE_TYPES, per_type=100, seed=11)
    train_set, test_set = split_examples(examples, seed=11)
    model = train_filter(train_set, epochs=4, learning_rate=1.0, batch_size=64,
                         seed=11, heldout=test_set)
    assert model.metadata["heldout_accuracy"] >= 0.95
    path = tmp_path_factory.mktemp("model") / "tag_filter.json"
    model.save(path)
    return path


@pytest.fixture(scope="session")
def trained_model(filter_model_path):
    from homorag.tag_filter import FilterModel

    return FilterModel.load(filter_model_path)


def open_descriptors(path) -> int:
    """How many of this process's descriptors are open on path (reads /proc/self/fd)."""
    fds = Path("/proc/self/fd")
    return sum(os.path.realpath(fds / fd) == str(Path(path).resolve()) for fd in os.listdir(fds))


def make_pipeline_config(index_dir, filter_model_path, work_dir, mode="full_2d", seed=0):
    return PipelineConfig(
        mode=mode,
        seed=seed,
        paths=PipelinePaths(
            index_dir=str(index_dir),
            filter_model=str(filter_model_path),
            cache_dir=str(Path(work_dir) / "cache"),
            hits=str(FIXTURES / "hits_fixture.tsv"),
        ),
        scorer=BackendConfig(role="scorer", endpoint="mock:keyword-boost"),
        embedder=BackendConfig(role="embedder", endpoint="mock:hash(dim=32)"),
        generator=BackendConfig(role="generator", endpoint="mock:echo"),
    )


@pytest.fixture
def batch_config(index_dir, filter_model_path, tmp_path):
    return make_pipeline_config(index_dir, filter_model_path, tmp_path)
