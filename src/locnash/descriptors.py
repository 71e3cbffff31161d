"""Descriptor file format: one structure per document, ``key = value`` lines.

Recognized fields: ``dim``, ``family``, ``a``, ``a_exact``, ``lattice``,
``lattice2``, ``alpha`` (row-major complex entries, comma separated).
Unknown fields are rejected.  ``#`` starts a comment.
"""

from __future__ import annotations

from .config import fmt
from .errors import DegenerateGenerators, ParseError
from .lattices import Lattice1
from .scalars import parse_complex, parse_exact_real, parse_lattice_literal
from .structures import FAMILIES_1D, FAMILIES_2D, StructureDescriptor

_FIELDS = {"dim", "family", "a", "a_exact", "lattice", "lattice2", "alpha"}


def parse_lattice1(text: str) -> Lattice1:
    """A full lattice of C from its literal ``lattice(w1, w2)``."""
    dim, gens = parse_lattice_literal(text)
    if dim != 1 or len(gens) != 2:
        raise ParseError("expected a full lattice of C: lattice(w1, w2) with two scalar generators")
    try:
        return Lattice1(gens[0][0], gens[1][0])
    except DegenerateGenerators as exc:
        raise ParseError(f"literal does not define a lattice: {exc}") from exc


def parse_descriptor(text: str) -> StructureDescriptor:
    """Parse one descriptor document."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ParseError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise ParseError(f"line {lineno}: duplicate field {key!r}")
        if not value:
            raise ParseError(f"line {lineno}: empty value for {key!r}")
        fields[key] = value

    for required in ("dim", "family"):
        if required not in fields:
            raise ParseError(f"missing required field {required!r}")
    try:
        dim = int(fields["dim"])
    except ValueError as exc:
        raise ParseError(f"bad dim: {fields['dim']!r}") from exc
    family = fields["family"]
    if family not in FAMILIES_1D + FAMILIES_2D:
        raise ParseError(f"unknown family {family!r}")

    a = parse_complex(fields["a"]) if "a" in fields else None
    a_exact = parse_exact_real(fields["a_exact"]) if "a_exact" in fields else None
    lattice = parse_lattice1(fields["lattice"]) if "lattice" in fields else None
    lattice2 = parse_lattice1(fields["lattice2"]) if "lattice2" in fields else None
    alpha = None
    if "alpha" in fields:
        entries = [parse_complex(p) for p in fields["alpha"].split(",")]
        if len(entries) != dim * dim:
            raise ParseError(f"alpha needs {dim * dim} row-major entries, got {len(entries)}")
        alpha = tuple(
            tuple(entries[i * dim + j] for j in range(dim)) for i in range(dim)
        )
    try:
        return StructureDescriptor(
            dim=dim, family=family, a=a, lattice=lattice, lattice2=lattice2,
            alpha=alpha, a_exact=a_exact,
        )
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


def serialize_descriptor(d: StructureDescriptor) -> str:
    lines = [f"dim = {d.dim}", f"family = {d.family}"]
    if d.a is not None:
        lines.append(f"a = {_fmt(d.a)}")
    if d.a_exact is not None:
        lines.append(f"a_exact = {d.a_exact}")
    if d.lattice is not None and d.family != "wp_real":
        lines.append(f"lattice = lattice({_fmt(d.lattice.omega1)}, {_fmt(d.lattice.omega2)})")
    if d.lattice2 is not None:
        lines.append(f"lattice2 = lattice({_fmt(d.lattice2.omega1)}, {_fmt(d.lattice2.omega2)})")
    if not d.alpha_is_identity:
        flat = ", ".join(_fmt(x) for row in d.alpha for x in row)
        lines.append(f"alpha = {flat}")
    return "\n".join(lines) + "\n"
