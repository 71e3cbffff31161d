"""Task records shared by the three workloads."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Callable

#: Per-value gates against the oracle, |value - ref| / max(1, |ref|), taken from
#: the test suite: wp and zeta 1e-9 (tests/test_weierstrass.py, values against
#: the q-series reference), sigma 1e-7 (acceptance criterion 1), wp' 1e-6 (the
#: differential-equation residual, tests/test_weierstrass.py).
VALUE_TOL = {"wp": 1e-9, "zeta": 1e-9, "sigma": 1e-7, "wp_prime": 1e-6}


def rel_err(value: complex, ref: complex) -> float:
    """|value - ref| / max(1, |ref|): relative for large values, absolute near zeros."""
    return abs(value - ref) / max(1.0, abs(ref))


def oracle_for(cache: dict, w1: complex, w2: complex):
    """The cached mpmath oracle of <w1, w2>.  mpmath is imported here, on
    first use after set-up, so that it stays out of the set-up time."""
    from oracle import LatticeOracle

    key = (complex(w1), complex(w2))
    if key not in cache:
        cache[key] = LatticeOracle(*key)
    return cache[key]


@dataclass
class Check:
    """Verdict on one task output, computed outside the timed region."""

    error: str | None = None
    rel_err: float | None = None


@dataclass
class Task:
    """One closed-loop request.

    run(api) is the timed call; check(output) verifies it afterwards.
    digest(output) is the canonical form compared across executions, so a
    report that is not byte-identical on repeat (or with tracing on) fails.
    A pass runs the task ``repeat`` times back to back; only tasks that
    leave no state behind (no context cache use) repeat.
    """

    id: str
    work: int
    run: Callable[[Any], Any]
    check: Callable[[Any], Check]
    digest: Callable[[Any], str] = repr
    prepare: Callable[[], None] | None = None
    known_failure: str | None = None
    repeat: int = 1


def sha(*parts: bytes | str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else p)
        h.update(b"\0")
    return h.hexdigest()


def write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def remove(*paths: str) -> None:
    for p in paths:
        if os.path.exists(p):
            os.remove(p)


def fmt_complex(z: complex) -> str:
    """Descriptor-file literal for a complex scalar."""
    z = complex(z)
    if z.imag == 0:
        return f"{z.real!r}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def lattice_literal(w1: complex, w2: complex) -> str:
    return f"lattice({fmt_complex(w1)}, {fmt_complex(w2)})"


def cli_task(task_id: str, argv: list[str], outputs: list[str], expect_exit: int,
             check_text: Callable[[list[str]], Check], work: int = 1,
             prepare: Callable[[], None] | None = None, **kw) -> Task:
    """A locnash.cli.main call whose report files are read back and checked."""

    def run(api):
        return api.main(list(argv))

    def prep():
        remove(*outputs)
        if prepare is not None:
            prepare()

    def digest(code):
        return sha(str(code), *[read_bytes(p) if os.path.exists(p) else b"<missing>"
                                for p in outputs])

    def check(code):
        if code != expect_exit:
            return Check(f"exit code {code}, expected {expect_exit}")
        missing = [p for p in outputs if not os.path.exists(p)]
        if missing:
            return Check(f"missing report {os.path.basename(missing[0])}")
        texts = []
        for p in outputs:
            with open(p, encoding="utf-8") as fh:
                texts.append(fh.read())
        return check_text(texts)

    return Task(task_id, work, run, check, digest, prep, **kw)


def report_fields(text: str) -> dict[str, str]:
    """``key = value`` lines of a CLI report (later sections override earlier ones)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out
