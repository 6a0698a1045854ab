"""JSON (de)serialisation of model configurations.

Lets users define custom architectures in a file and run them through
the CLI (``--model-json``) or the API without touching code.
"""

from __future__ import annotations

import json

from repro.common.errors import ConfigError
from repro.models.config import AttentionKind, AttentionSpec, ModelConfig


def attention_spec_to_dict(spec: AttentionSpec) -> dict:
    """Plain-dict form of an :class:`AttentionSpec`."""
    return {
        "kind": spec.kind.value,
        "block_size": spec.block_size,
        "window": spec.window,
        "window_blocks": spec.window_blocks,
        "random_blocks": spec.random_blocks,
        "global_blocks": spec.global_blocks,
    }


def attention_spec_from_dict(data: dict) -> AttentionSpec:
    """Inverse of :func:`attention_spec_to_dict`."""
    try:
        kind = AttentionKind(data["kind"])
    except (KeyError, ValueError) as error:
        known = ", ".join(k.value for k in AttentionKind)
        raise ConfigError(
            f"attention spec needs a 'kind' among: {known}"
        ) from error
    fields = {k: v for k, v in data.items() if k != "kind"}
    unknown = set(fields) - {"block_size", "window", "window_blocks",
                             "random_blocks", "global_blocks"}
    if unknown:
        raise ConfigError(f"unknown attention-spec fields: {sorted(unknown)}")
    return AttentionSpec(kind=kind, **fields)


def config_to_json(config: ModelConfig, *, indent: int = 2) -> str:
    """Serialise a :class:`ModelConfig` to JSON."""
    return json.dumps(
        {
            "name": config.name,
            "num_layers": config.num_layers,
            "d_model": config.d_model,
            "num_heads": config.num_heads,
            "d_ff": config.d_ff,
            "attention": [attention_spec_to_dict(s) for s in config.attention],
        },
        indent=indent,
    )


def config_from_json(text: str) -> ModelConfig:
    """Parse a :class:`ModelConfig` from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigError(f"invalid model JSON: {error}") from error
    required = {"name", "num_layers", "d_model", "num_heads", "d_ff",
                "attention"}
    missing = required - set(data)
    if missing:
        raise ConfigError(f"model JSON missing fields: {sorted(missing)}")
    attention = tuple(
        attention_spec_from_dict(item) for item in data["attention"]
    )
    return ModelConfig(
        name=data["name"],
        num_layers=data["num_layers"],
        d_model=data["d_model"],
        num_heads=data["num_heads"],
        d_ff=data["d_ff"],
        attention=attention,
    )


def load_config(path: str) -> ModelConfig:
    """Read a model configuration from a JSON file."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigError(
            f"cannot read model config {path}: {error.strerror}") from None
    return config_from_json(text)
