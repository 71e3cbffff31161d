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
    tol: float = 1e-9
    max_degree: int = 8
    n_samples: int = 64
    seed: int = 0
    max_denominator: int = 10**6
    output_path: str | None = None

    def __post_init__(self):
        for name in ("tol", "max_degree", "n_samples", "max_denominator"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


_INT_FIELDS = {"max_degree", "n_samples", "seed", "max_denominator"}
_FLOAT_FIELDS = {"tol"}
_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a RunConfig kwargs dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_NAMES:
            raise ParseError(f"config line {lineno}: unknown key {key!r}")
        try:
            if key in _INT_FIELDS:
                out[key] = int(value)
            elif key in _FLOAT_FIELDS:
                out[key] = float(value)
            else:
                out[key] = value
        except ValueError as exc:
            raise ParseError(f"config line {lineno}: bad value for {key}") from exc
    return out


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid by the config file (explicit path or LOCNASH_CONFIG),
    overlaid by non-None overrides (command-line flags)."""
    cfg = RunConfig()
    path = path or os.environ.get(CONFIG_ENV)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = replace(cfg, **parse_config_text(fh.read()))
        except OSError as exc:
            raise ParseError(f"cannot read config file {path}: {exc}") from exc
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return cfg


def fmt(x: float) -> str:
    """x as a decimal string in FLOAT_SPEC."""
    return format(x, FLOAT_SPEC)


def fmt_complex(z: complex) -> str:
    return f"{fmt(z.real)} {fmt(z.imag)}"


def config_block(cfg: RunConfig) -> list[str]:
    """Result-affecting fields only: the output path is environmental and
    would break byte-for-byte report reproducibility."""
    lines = ["[config]"]
    for f in fields(RunConfig):
        if f.name == "output_path":
            continue
        v = getattr(cfg, f.name)
        lines.append(f"{f.name} = {fmt(v) if isinstance(v, float) else v}")
    return lines
