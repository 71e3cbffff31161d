"""Run configuration with flags > config file > defaults precedence.

The config file is plain ``key = value`` text using the RunConfig field
names; the environment variable LOCNASH_CONFIG supplies a default path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import ParseError

CONFIG_ENV = "LOCNASH_CONFIG"
#: format spec of the full-precision floats in reports, CSVs, certificates and
#: descriptors: 17 significant digits, lowercase exponent, so each value
#: round-trips exactly
FLOAT_SPEC = ".17g"


@dataclass(frozen=True)
class RunConfig:
    max_degree: int = 8
    n_samples: int = 64
    seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        for name in ("max_degree", "n_samples"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


#: the config file's keys with the type of their values
_TYPES = {"max_degree": int, "n_samples": int, "seed": int, "output_path": str}


def read_fields(text: str, keys, kind: str) -> dict[str, str]:
    """The ``key = value`` lines of a document as strings (``#`` starts a
    comment); a line without ``=``, a key not in ``keys``, a repeated key and
    an empty value are ParseErrors naming ``kind`` and the line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        where = f"{kind} line {lineno}"
        if not eq:
            raise ParseError(f"{where}: expected 'key = value', got {raw!r}")
        if key not in keys:
            raise ParseError(f"{where}: unknown key {key!r}")
        if key in out:
            raise ParseError(f"{where}: duplicate key {key!r}")
        if not value:
            raise ParseError(f"{where}: empty value for {key!r}")
        out[key] = value
    return out


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid by the config file (explicit path or LOCNASH_CONFIG),
    overlaid by non-None overrides (command-line flags).  Values of the wrong
    type or out of range are ParseErrors."""
    cfg = RunConfig()
    path = path or os.environ.get(CONFIG_ENV)
    try:
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                values = read_fields(fh.read(), _TYPES, "config")
            cfg = replace(cfg, **{k: _TYPES[k](v) for k, v in values.items()})
        if overrides:
            cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"bad run configuration: {exc}") from exc
    return cfg


def fmt(x: float) -> str:
    """x as a decimal string in FLOAT_SPEC."""
    return format(x, FLOAT_SPEC)


def config_block(cfg: RunConfig) -> list[str]:
    """Result-affecting fields only: the output path is environmental and
    would break byte-for-byte report reproducibility."""
    lines = ["[config]"]
    for f in fields(RunConfig):
        if f.name == "output_path":
            continue
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    return lines
