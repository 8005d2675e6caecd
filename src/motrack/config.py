"""Flat ``key = value`` run configuration covering every tunable in the engine.

Each tunable is declared once, as a dataclass field whose metadata holds its
config-file key, doc string, and choices or valid range: the tracker's own
``TrackerConfig`` and ``KinematicsConfig`` fields, nested under
``RunConfig.tracker``, and RunConfig's run-level fields. The key registry is
derived from those fields. Unknown keys are rejected and every value is parsed
at load time, then checked against its field's declared range by
``geometry.check_fields``, so NaN fails every numeric key with its range's
message; each key has a default, so an empty config file is a complete one.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields, replace
from functools import reduce
from pathlib import Path
from typing import Any, Callable, Iterator

from .association import TrackerConfig
from .geometry import check_fields
from .metrics import DEFAULT_IOU_THRESHOLD
from .simulator import DEFAULT_EMBED_DIM


class ConfigError(ValueError):
    pass


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _parse_gate(text: str) -> float:
    """tau_kf accepts integers within the float range or 'inf' (corrections disabled)."""
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(int(text))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"expected an integer or 'inf', got {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_choice(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ConfigError(f"expected one of {choices}, got {text!r}")
        return text
    return parse


def _format(f: Field, value: Any) -> str:
    """A keyed field's value as ``_parser(f)`` reads it back: a finite gate
    count as an integer, a bool in lower case, anything else as ``str``."""
    if f.metadata.get("int_or_inf") and math.isfinite(value):
        return str(int(value))
    return str(value).lower() if isinstance(value, bool) else str(value)


_PARSERS: dict[type, Callable[[str], Any]] = {float: _parse_float, int: _parse_int, bool: _parse_bool}


def _parser(f: Field) -> Callable[[str], Any]:
    """Value parser of a keyed field: a choice, a gate count, or by default type."""
    if "choices" in f.metadata:
        return _parse_choice(*f.metadata["choices"])
    if f.metadata.get("int_or_inf"):
        return _parse_gate
    return _PARSERS[type(f.default)]


@dataclass(frozen=True)
class RunConfig:
    """The tracker's tunables plus the run-level settings of the CLI and harness."""

    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    embed_dim: int = field(default=DEFAULT_EMBED_DIM, metadata={
        "key": "embed.dim", "range": "integer >= 1", "doc": "embedding dimension used by the simulator"})
    eval_iou_threshold: float = field(default=DEFAULT_IOU_THRESHOLD, metadata={
        "key": "eval.iou_threshold", "range": "(0, 1)", "name": "iou_threshold",
        "doc": "IoU threshold for CLEAR and identity matching"})
    output_include_lost: bool = field(default=False, metadata={
        "key": "output.include_lost",
        "doc": "emit coasting tracks' predicted boxes in hypothesis output"})
    output_include_tentative: bool = field(default=False, metadata={
        "key": "output.include_tentative",
        "doc": "emit not-yet-confirmed tracks in hypothesis output"})

    def __post_init__(self) -> None:
        check_fields(self)

    @classmethod
    def from_file(cls, path: str | Path, only: tuple[str, ...] | None = None, reader: str = "") -> "RunConfig":
        """Parse a line-oriented ``key = value`` file; '#' starts a comment.
        The first bad line is a ConfigError naming its ``file:line``. Given
        ``only``, the keys that ``reader`` reads, a line setting any other
        known key is bad too, as the reader would silently ignore it."""
        cfg, seen = cls(), set()
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            seen.add(key)
            if only is not None and key in KEYS and key not in only:
                raise ConfigError(f"{path}:{lineno}: {reader} does not read config key {key!r}; "
                                  f"it reads only {', '.join(only)}")
            try:
                cfg = cfg.with_overrides({key: value})
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        return cfg

    def with_overrides(self, pairs: dict[str, str]) -> "RunConfig":
        """Apply ``key -> value-string`` overrides, parsing and range-checking
        each one; a bad key or value is a ConfigError naming the key."""
        cfg = self
        for key, value in pairs.items():
            entry = KEYS.get(key)
            if entry is None:
                raise ConfigError(f"unknown config key {key!r}")
            path, f = entry
            try:
                cfg = _replace_at(cfg, path, _parser(f)(value))
            except ValueError as exc:  # a parse error or a __post_init__ range check
                raise ConfigError(f"key {key!r}: {exc}") from exc
        return cfg

    def describe(self) -> str:
        """Documented key table with current values, as a config file that
        ``from_file`` loads back to this config."""
        return "\n".join(
            f"{key} = {_format(f, reduce(getattr, path, self))}  # {f.metadata['doc']}"
            for key, (path, f) in KEYS.items()
        )


def _replace_at(obj: Any, path: tuple[str, ...], value: Any) -> Any:
    """A copy of obj with the field reached by the attribute path set to value."""
    name, rest = path[0], path[1:]
    return replace(obj, **{name: _replace_at(getattr(obj, name), rest, value) if rest else value})


def _walk(cls: type, path: tuple[str, ...] = ()) -> Iterator[tuple[str, tuple[str, ...], Field]]:
    """(key, attribute path, field) of every keyed field under a config
    dataclass; a field without a key is a nested config dataclass."""
    for f in fields(cls):
        if "key" in f.metadata:
            yield f.metadata["key"], path + (f.name,), f
        else:
            yield from _walk(f.default_factory, path + (f.name,))


KEYS: dict[str, tuple[tuple[str, ...], Field]] = {
    key: (path, f) for key, path, f in _walk(RunConfig)
}
