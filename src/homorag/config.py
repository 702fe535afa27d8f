"""Configuration tree for the retrieval / filter / generate pipeline.

Every tunable lives in one dataclass tree so a run is reproducible from a
single YAML file. Each default is written once, in its dataclass or in
ENCODER_RECIPE, and other modules refer to it. `default_provenance` tags
each default by origin ("recipe" = follows the reference experimental setup
this package implements, "local" = engineering choice made here) and is
stamped into run metadata.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Optional

import yaml


class ConfigError(ValueError):
    """Invalid configuration value or file."""


# The filter stages each mode runs after retrieval, in order.
MODE_STAGES = {"raw_only": (), "horizontal_only": ("horizontal",),
               "vertical_only": ("vertical",), "full_2d": ("horizontal", "vertical")}
MODES = tuple(MODE_STAGES)

# Deterministic in-process backends used by --offline runs and tests.
MOCK_ENDPOINTS = {
    "scorer": "mock:keyword-boost",
    "embedder": "mock:hash(dim=32)",
    "generator": "mock:echo",
}

ENV_ENDPOINT_VARS = {
    "scorer": "HOMORAG_SCORER_ENDPOINT",
    "embedder": "HOMORAG_EMBEDDER_ENDPOINT",
    "generator": "HOMORAG_GENERATOR_ENDPOINT",
}
ENV_API_KEY_VAR = "HOMORAG_API_KEY"

# Fine-tuning recipe of the transformer encoder that the hashed-feature
# classifier stands in for; recorded in training metadata.
ENCODER_RECIPE = {"learning_rate": 1e-5, "batch_size": 64, "epochs": 4}


@dataclass
class RetrievalConfig:
    top_k: int = 3
    identity_ceiling: Optional[float] = None
    exclude_self: bool = True
    resolve_go: bool = True

    def __post_init__(self):
        if self.top_k < 1:
            raise ConfigError(f"retrieval.top_k must be >= 1, got {self.top_k}")
        if self.identity_ceiling is not None and not (0.0 < self.identity_ceiling <= 1.0):
            raise ConfigError(
                f"retrieval.identity_ceiling must be in (0, 1], got {self.identity_ceiling}"
            )


@dataclass
class IgConfig:
    """Knobs for the token-confidence and information-gain computation."""

    window: int = 3
    head_k: int = 5
    omega: float = 0.8
    alpha: float = 0.5
    tau: float = 0.01

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError(f"ig.window must be an odd integer >= 1, got {self.window}")
        if self.head_k < 0:
            raise ConfigError(f"ig.head_k must be >= 0, got {self.head_k}")
        if not (0.0 < self.omega <= 1.0):
            raise ConfigError(f"ig.omega must be in (0, 1], got {self.omega}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"ig.alpha must be in [0, 1], got {self.alpha}")
        if self.tau <= 0.0:
            raise ConfigError(f"ig.tau must be > 0, got {self.tau}")


@dataclass
class DenoiseConfig:
    eps: float = 0.35
    min_pts: int = 2
    metric: str = "cosine"
    anchor_top_m: int = 1

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ConfigError(f"denoise.eps must be > 0, got {self.eps}")
        if self.min_pts < 1:
            raise ConfigError(f"denoise.min_pts must be >= 1, got {self.min_pts}")
        if self.metric not in ("cosine", "euclidean"):
            raise ConfigError(f"denoise.metric must be 'cosine' or 'euclidean', got {self.metric!r}")
        if self.anchor_top_m < 1:
            raise ConfigError(f"denoise.anchor_top_m must be >= 1, got {self.anchor_top_m}")


@dataclass
class TrainConfig:
    """Training recipe for the tag relevance classifier.

    epochs/batch_size follow the encoder recipe; the step size is larger
    because the desk-scale model is a linear classifier, not a transformer
    (the encoder value is kept in ENCODER_RECIPE and run metadata). The
    training seed is the top-level `seed`.
    """

    epochs: int = ENCODER_RECIPE["epochs"]
    learning_rate: float = 1.0
    batch_size: int = ENCODER_RECIPE["batch_size"]

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"train.epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"train.learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")


@dataclass
class GenerationParams:
    temperature: float = 0.7
    top_p: float = 0.9
    max_tokens: int = 2048
    presence_penalty: float = 0.0
    frequency_penalty: float = 0.0

    def __post_init__(self):
        if self.temperature < 0.0:
            raise ConfigError(f"generation.temperature must be >= 0, got {self.temperature}")
        if not (0.0 < self.top_p <= 1.0):
            raise ConfigError(f"generation.top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens < 1:
            raise ConfigError(f"generation.max_tokens must be >= 1, got {self.max_tokens}")


@dataclass
class BackendConfig:
    """One model backend: an HTTP endpoint or a deterministic 'mock:<name>'."""

    role: str
    endpoint: str
    model: str = "default"
    timeout: float = 30.0
    max_retries: int = 2
    max_in_flight: int = 4
    max_prompt_chars: int = 100_000

    def __post_init__(self):
        if self.role not in ("scorer", "embedder", "generator"):
            raise ConfigError(f"backend role must be scorer|embedder|generator, got {self.role!r}")
        if self.max_in_flight < 1:
            raise ConfigError(f"backend.max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.max_retries < 0:
            raise ConfigError(f"backend.max_retries must be >= 0, got {self.max_retries}")


@dataclass
class BlastConfig:
    """External alignment tool invocation; bypassed entirely when a hits file is given."""

    binary: Optional[str] = None
    db: Optional[str] = None
    evalue: float = 10.0
    max_target_seqs: int = 50


@dataclass
class PipelinePaths:
    index_dir: Optional[str] = None
    filter_model: Optional[str] = None
    cache_dir: Optional[str] = None
    hits: Optional[str] = None


def _default_backend(role: str) -> BackendConfig:
    return BackendConfig(role=role, endpoint=MOCK_ENDPOINTS[role])


@dataclass
class PipelineConfig:
    mode: str = "full_2d"
    seed: int = 0
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    ig: IgConfig = field(default_factory=IgConfig)
    denoise: DenoiseConfig = field(default_factory=DenoiseConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    generation: GenerationParams = field(default_factory=GenerationParams)
    blast: BlastConfig = field(default_factory=BlastConfig)
    paths: PipelinePaths = field(default_factory=PipelinePaths)
    scorer: BackendConfig = field(default_factory=lambda: _default_backend("scorer"))
    embedder: BackendConfig = field(default_factory=lambda: _default_backend("embedder"))
    generator: BackendConfig = field(default_factory=lambda: _default_backend("generator"))

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    def needs_filter_model(self) -> bool:
        return "horizontal" in MODE_STAGES[self.mode]

    def validate_for_mode(self):
        if self.needs_filter_model() and not self.paths.filter_model:
            raise ConfigError(f"mode {self.mode!r} requires paths.filter_model")
        if self.paths.hits and not self.paths.index_dir:
            raise ConfigError("paths.hits requires paths.index_dir to look the hits up in")

    def force_offline(self) -> "PipelineConfig":
        """Return a copy with every backend replaced by its default mock."""
        return replace(self, **{role: replace(getattr(self, role), endpoint=endpoint)
                                for role, endpoint in MOCK_ENDPOINTS.items()})

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# YAML sections: the PipelineConfig fields whose default is a section dataclass.
_SECTION_TYPES = {f.name: f.default_factory for f in fields(PipelineConfig)
                  if isinstance(f.default_factory, type)}
_SCALAR_KEYS = ("mode", "seed")
_BACKEND_ROLES = ("scorer", "embedder", "generator")


def _build_section(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{where}' must be a mapping")
    valid = {f.name for f in fields(cls)}
    for key in data:
        if key not in valid:
            raise ConfigError(f"unknown key '{where}.{key}'")
    return cls(**data)


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a PipelineConfig from a plain nested mapping (the YAML layout)."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    kwargs: dict[str, Any] = {}
    for key, val in data.items():
        if key in _SCALAR_KEYS:
            kwargs[key] = val
        elif key in _SECTION_TYPES:
            kwargs[key] = _build_section(_SECTION_TYPES[key], val, key)
        elif key == "backends":
            if not isinstance(val, dict):
                raise ConfigError("section 'backends' must be a mapping")
            for role, spec in val.items():
                if role not in _BACKEND_ROLES:
                    raise ConfigError(f"unknown backend role 'backends.{role}'")
                spec = dict(spec or {})
                spec.setdefault("role", role)
                if spec["role"] != role:
                    raise ConfigError(f"backends.{role} declares mismatching role {spec['role']!r}")
                kwargs[role] = _build_section(BackendConfig, spec, f"backends.{role}")
        else:
            raise ConfigError(f"unknown top-level config key '{key}'")
    try:
        return PipelineConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(
    path: Optional[str | Path] = None,
    *,
    offline: bool = False,
    seed: Optional[int] = None,
) -> PipelineConfig:
    """Load a pipeline config from YAML (or defaults), applying env overrides.

    `offline=True` forces every backend onto its deterministic mock.
    """
    if path is None:
        cfg = PipelineConfig()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
        cfg = config_from_dict(data)
    for role, var in ENV_ENDPOINT_VARS.items():
        override = os.environ.get(var)
        if override:
            cfg = replace(cfg, **{role: replace(getattr(cfg, role), endpoint=override)})
    if offline:
        cfg = cfg.force_offline()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


# The defaults that `default_provenance` stamps into run metadata, by origin.
_RECIPE_DEFAULTS = ("retrieval.top_k", "ig.omega", "ig.tau", "generation.temperature",
                    "generation.top_p", "generation.max_tokens", "train.epochs",
                    "train.batch_size", "train.encoder_learning_rate")
_LOCAL_DEFAULTS = ("train.learning_rate", "ig.window", "ig.head_k", "ig.alpha",
                   "denoise.eps", "denoise.min_pts", "denoise.anchor_top_m")


def default_provenance() -> dict[str, dict[str, Any]]:
    """Defaults tagged by origin, for run metadata.

    "recipe" entries mirror the reference experimental setup; "local"
    entries are values this implementation had to choose itself. Values are
    read from a fresh `PipelineConfig`, the encoder step size from ENCODER_RECIPE.
    """
    defaults = asdict(PipelineConfig())
    defaults["train"]["encoder_learning_rate"] = ENCODER_RECIPE["learning_rate"]
    provenance = {}
    for origin, keys in (("recipe", _RECIPE_DEFAULTS), ("local", _LOCAL_DEFAULTS)):
        for key in keys:
            section, name = key.split(".")
            provenance[key] = {"value": defaults[section][name], "origin": origin}
    return provenance
