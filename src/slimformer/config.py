"""Transformer architecture configuration."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .errors import ConfigError

TASK_KINDS = ("classification", "language_model", "copy")
_NUMBER_TYPES = {"int": (int,), "float": (int, float)}


def check_number_fields(obj, error=ConfigError) -> None:
    """Raise ``error`` if a dataclass field annotated int or float (or
    either `| None`) holds another type; bools and fractions for ints do
    not pass. Config docs, plans and manifests can carry any JSON value."""
    for f in fields(obj):
        base, _, optional = f.type.partition(" | ")
        kinds, value = _NUMBER_TYPES.get(base), getattr(obj, f.name)
        if kinds is None or (optional and value is None):
            continue
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise error(f"{f.name} must be of type {base}, got {value!r}")


def check_keys(doc, known, what: str, error=ConfigError) -> dict:
    """``doc`` itself, if it is a JSON object whose keys are all in
    ``known``; otherwise ``error`` naming ``what``."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise error(f"unknown key(s) {unknown} in {what}")
    return doc


def read_doc(cls, doc, what: str, error=ConfigError):
    """The dataclass ``cls`` built from a JSON object whose keys name its
    fields; absent keys take the field defaults. An unknown key, a missing
    required field or a value ``cls`` rejects raises ``error`` naming
    ``what``."""
    check_keys(doc, [f.name for f in fields(cls)], what, error)
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:  # a missing field; a rejected value
        raise error(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class TransformerConfig:
    """Shapes and switches of the toy transformer.

    ``weight_group_width`` is the row width of prunable weight groups along
    the hidden dimension; ``kv_group_width`` is the analogous width of
    key/value position groups along the sequence dimension. The last vocab
    id is reserved as the right-padding token.
    """

    num_layers: int
    hidden_dim: int
    num_heads: int
    ffn_dim: int
    context_len: int
    vocab_size: int
    autoregressive: bool = False
    weight_group_width: int = 4
    kv_group_width: int = 4
    task_kind: str = "classification"
    num_classes: int = 0  # 0 means "use vocab_size"

    def __post_init__(self):
        check_number_fields(self)
        if self.num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        if min(self.hidden_dim, self.num_heads, self.ffn_dim, self.context_len,
               self.weight_group_width, self.kv_group_width) < 1:
            raise ConfigError("hidden_dim, num_heads, ffn_dim, context_len and the "
                              "group widths must be >= 1")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}")
        if self.hidden_dim % self.weight_group_width != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by weight_group_width "
                f"{self.weight_group_width}")
        if self.context_len % self.kv_group_width != 0:
            raise ConfigError(
                f"context_len {self.context_len} not divisible by kv_group_width "
                f"{self.kv_group_width}")
        if self.task_kind not in TASK_KINDS:
            raise ConfigError(f"task_kind must be one of {TASK_KINDS}")
        if self.num_classes < 0:
            raise ConfigError("num_classes must be >= 0")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    @property
    def num_weight_groups(self) -> int:
        return self.hidden_dim // self.weight_group_width

    @property
    def num_kv_groups(self) -> int:
        return self.context_len // self.kv_group_width

    @property
    def output_classes(self) -> int:
        if self.task_kind == "classification":
            return self.num_classes or self.vocab_size
        return self.vocab_size

    @property
    def pad_token(self) -> int:
        return self.vocab_size - 1

    def to_dict(self) -> dict:
        return asdict(self)
