"""How every input file and field is read and checked, and the transformer
architecture configuration."""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

TASK_KINDS = ("classification", "language_model", "copy")
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,),
                "tuple[str, ...]": (list, tuple)}


def read_bytes(path, what: str) -> bytes:
    """The bytes of the ``what`` file at ``path``; ConfigError naming it if
    it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"{what} file not found or unreadable: {path} "
                          f"({exc.strerror})") from exc


def parse_json(data, what: str, error=ConfigError):
    """The JSON value of ``data``, text or UTF-8 bytes; ``error`` naming
    ``what`` if it is not one."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{what} is not JSON in UTF-8: {exc}") from exc


def read_json(path, what: str, error=ConfigError):
    """The JSON value of the ``what`` file at ``path``: ConfigError if the
    file cannot be read, ``error`` if its bytes are not UTF-8 JSON."""
    return parse_json(read_bytes(path, what), f"{what} file {path}", error)


def bounded(low=None, choices=None, default=MISSING):
    """A dataclass field that ``check_fields`` holds to at least ``low``
    and to one of ``choices`` (each entry of a tuple field)."""
    return field(default=default, metadata={"low": low, "choices": choices})


def check_fields(obj, error=ConfigError) -> None:
    """Raise ``error`` naming the first field of the dataclass ``obj``
    whose value breaks its field's rule. A field annotated int, float,
    bool or tuple[str, ...] (or either `| None`) holds that type: a bool
    field takes only true or false, and bools and fractions do not pass
    for numbers. A float field's value is finite as a float. A
    ``bounded`` field's value is at least its ``low`` and one of its
    ``choices``. Config docs, plans and manifests can carry any JSON
    value."""
    for f in fields(obj):
        base, _, optional = f.type.partition(" | ")
        kinds, value = _FIELD_TYPES.get(base), getattr(obj, f.name)
        if optional and value is None:
            continue
        if kinds is not None and (isinstance(value, bool) != (base == "bool")
                                  or not isinstance(value, kinds)):
            raise error(f"{f.name} must be of type {base}, got {value!r}")
        if base == "float" and not abs(value) <= sys.float_info.max:  # NaN, inf, 10**400
            raise error(f"{f.name} must be finite, got {value!r}")
        low, choices = f.metadata.get("low"), f.metadata.get("choices")
        if low is not None and value < low:
            raise error(f"{f.name} must be >= {low}, got {value!r}")
        for entry in value if base.startswith("tuple") else [value]:
            if choices is not None and entry not in choices:
                raise error(f"{f.name} must be one of {list(choices)}, got {entry!r}")


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

    num_layers: int = bounded(low=1)
    hidden_dim: int = bounded(low=1)
    num_heads: int = bounded(low=1)
    ffn_dim: int = bounded(low=1)
    context_len: int = bounded(low=1)
    vocab_size: int = bounded(low=2)
    autoregressive: bool = False
    weight_group_width: int = bounded(low=1, default=4)
    kv_group_width: int = bounded(low=1, default=4)
    task_kind: str = bounded(choices=TASK_KINDS, default="classification")
    num_classes: int = bounded(low=0, default=0)  # 0 means "use vocab_size"

    def __post_init__(self):
        check_fields(self)
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
