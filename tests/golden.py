"""One golden-file mechanism for every bit-identity suite.

A case's record (a mapping or dataclass of numbers, arrays, nested
records and :func:`columns`) is pinned as one string per dotted field
path: a number's ``repr``, else a digest of the ``repr`` (arrays: dtype,
shape, bytes), so a last-bit float change moves its field. A dataclass
field at its default is left out, so adding or deleting a defaulted field
moves nothing. Regenerate every suite's golden file (only for an intended
change) with ``PYTHONPATH=src:. python -m tests.golden --regen``.
"""

import dataclasses
import hashlib
import importlib
import json
import sys
from collections.abc import Mapping
from functools import cached_property
from pathlib import Path

import numpy as np

SUITES = ("tests.trace.test_golden_pricing", "tests.gpusim.test_golden_plans",
          "tests.trace.test_trace_stability", "tests.test_bgv_bfv_bit_identity")


def _at_default(f: dataclasses.Field, value) -> bool:
    if f.default_factory is not dataclasses.MISSING:
        return value == f.default_factory()
    return f.default is not dataclasses.MISSING and value == f.default


def _canonical(value):
    """Dicts as sorted items (key order is not a value); arrays as dtype,
    shape and bytes."""
    if isinstance(value, np.ndarray):
        return str(value.dtype), value.shape, value.tobytes()
    if isinstance(value, Mapping):
        return sorted((k, _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(value) -> str:
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()[:16]


def columns(records, *names) -> dict:
    """One list per field over a list of records. Without ``names``,
    every dataclass field that is not at its default in every record."""
    records = list(records)
    if not names and records:
        names = [f.name for f in dataclasses.fields(records[0])
                 if not all(_at_default(f, getattr(r, f.name))
                            for r in records)]
    return {name: [getattr(r, name) for r in records] for name in names}


def entries(record, prefix: str = "") -> dict:
    """``{dotted field path: pinned string}`` of one case's record."""
    if not isinstance(record, Mapping):
        record = {f.name: getattr(record, f.name)
                  for f in dataclasses.fields(record)
                  if not _at_default(f, getattr(record, f.name))}
    out = {}
    for name, value in record.items():
        path = f"{prefix}{name}"
        if isinstance(value, Mapping) or (dataclasses.is_dataclass(value)
                                          and not isinstance(value, type)):
            out.update(entries(value, path + "."))
        else:
            out[path] = (repr(value) if isinstance(value, (int, float))
                         else digest(value))
    return out


class Golden:
    """A suite's golden file ``{case: entries(record)}``, written from
    ``compute() -> {case: record}``."""

    def __init__(self, path: Path, compute):
        self.path, self.compute = Path(path), compute

    @cached_property
    def stored(self) -> dict:
        return json.loads(self.path.read_text())

    def cases(self, prefix: str = "") -> list:
        return sorted(c for c in self.stored if c.startswith(prefix))

    def check(self, case: str, record) -> None:
        """Fail naming the suite, the case and every field that moved."""
        want, got = self.stored[case], entries(record)
        moved = sorted(k for k in want.keys() | got.keys()
                       if want.get(k) != got.get(k))
        assert not moved, (f"{self.compute.__module__} [{case}] moved: "
                           + ", ".join(moved))

    def regen(self) -> None:
        rows = {case: entries(rec) for case, rec in self.compute().items()}
        text = json.dumps(rows, indent=1, sort_keys=True) + "\n"
        same = self.path.exists() and self.path.read_text() == text
        if not same:
            self.path.write_text(text)
        print("unchanged" if same else "wrote", self.path)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.golden --regen")
    for suite in SUITES:
        importlib.import_module(suite).GOLDEN.regen()
