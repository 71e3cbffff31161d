"""Descriptor file format: one structure per document, ``key = value`` lines.

``dim`` and ``family`` are required; ``alpha`` (row-major complex entries,
comma separated, default the identity) is open to every family.  Of ``a``,
``a_exact``, ``lattice`` and ``lattice2`` a document carries the fields its
family requires or allows (``structures.FAMILIES``).  Unknown, repeated or
empty fields and fields the family does not use are rejected; ``#`` starts a
comment.  Serialization writes each field that differs from its default, so
a descriptor survives serialize -> parse unchanged.
"""

from __future__ import annotations

import re

from .errors import DegenerateGenerators, ParseError
from .lattices import Lattice1
from .scalars import fmt, parse_complex, parse_exact_real
from .structures import FAMILIES, PARAMETERS, StructureDescriptor


def parse_lattice1(text: str) -> Lattice1:
    """A full lattice of C from its literal ``lattice(w1, w2)``: two scalar
    literals (``scalars.parse_complex``), which hold no comma."""
    m = re.fullmatch(r"lattice\s*\((.*)\)", text.strip(), flags=re.DOTALL)
    if not m:
        raise ParseError(f"not a lattice literal: {text!r}")
    gens = m.group(1).split(",")
    if len(gens) != 2:
        raise ParseError("expected a full lattice of C: lattice(w1, w2) with two scalar generators")
    try:
        return Lattice1(*(parse_complex(g.strip()) for g in gens))
    except (DegenerateGenerators, ValueError) as exc:
        raise ParseError(f"literal does not define a lattice: {exc}") from exc


_KEYS = ("dim", "family", "alpha") + PARAMETERS


def _read_fields(text: str) -> dict[str, str]:
    """The ``key = value`` lines of a document as strings (``#`` starts a
    comment); a line without ``=``, an unknown key, a repeated key and an
    empty value are ParseErrors naming the line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        where = f"descriptor line {lineno}"
        if not eq:
            raise ParseError(f"{where}: expected 'key = value', got {raw!r}")
        if key not in _KEYS:
            raise ParseError(f"{where}: unknown key {key!r}")
        if key in out:
            raise ParseError(f"{where}: duplicate key {key!r}")
        if not value:
            raise ParseError(f"{where}: empty value for {key!r}")
        out[key] = value
    return out


_PARSE = {
    "a": parse_complex, "a_exact": parse_exact_real,
    "lattice": parse_lattice1, "lattice2": parse_lattice1,
}


def parse_descriptor(text: str) -> StructureDescriptor:
    """Parse one descriptor document."""
    fields = _read_fields(text)
    for required in ("dim", "family"):
        if required not in fields:
            raise ParseError(f"missing required field {required!r}")
    try:
        dim = int(fields["dim"])
    except ValueError as exc:
        raise ParseError(f"bad dim: {fields['dim']!r}") from exc

    params = {key: _PARSE[key](value) for key, value in fields.items() if key in _PARSE}
    alpha = None
    if "alpha" in fields:
        entries = [parse_complex(p) for p in fields["alpha"].split(",")]
        if len(entries) != dim * dim:
            raise ParseError(f"alpha needs {dim * dim} row-major entries, got {len(entries)}")
        alpha = tuple(
            tuple(entries[i * dim + j] for j in range(dim)) for i in range(dim)
        )
    try:
        return StructureDescriptor(dim=dim, family=fields["family"], alpha=alpha, **params)
    except DegenerateGenerators as exc:  # a default lattice, wp_real's <1, ia>
        raise ParseError(f"the default lattice does not define a lattice: {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_descriptor(path: str) -> StructureDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_descriptor(fh.read())


def _fmt(x: complex) -> str:
    re, im = x.real, x.imag
    if im == 0:
        return fmt(re)
    if re == 0:
        return f"{fmt(im)}i"
    sign = "+" if im >= 0 else "-"
    return f"{fmt(re)}{sign}{fmt(abs(im))}i"


def _lattice(lat: Lattice1) -> str:
    return f"lattice({_fmt(lat.omega1)}, {_fmt(lat.omega2)})"


_FORMAT = {"a": _fmt, "a_exact": str, "lattice": _lattice, "lattice2": _lattice}


def serialize_descriptor(d: StructureDescriptor) -> str:
    lines = [f"dim = {d.dim}", f"family = {d.family}"]
    for name in FAMILIES[d.family].explicit_fields(d):
        lines.append(f"{name} = {_FORMAT[name](getattr(d, name))}")
    if not d.alpha_is_identity:
        flat = ", ".join(_fmt(x) for row in d.alpha for x in row)
        lines.append(f"alpha = {flat}")
    return "\n".join(lines) + "\n"
