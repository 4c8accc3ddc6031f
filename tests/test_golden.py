"""The golden harness tells a schema edit from a value change."""

import math
from dataclasses import field, make_dataclass

import numpy as np
import pytest

from tests.golden import Golden, columns, digest, entries

BASE = [("name", str), ("cost", float), ("lanes", int, field(default=1))]
Toy = make_dataclass("Toy", BASE)


def _record(cls=Toy, cost=2.5):
    rows = [cls("ntt", cost), cls("bconv", 0.25)]
    return {"first": rows[0], "rows": columns(rows), "total": cost + 0.25}


def test_field_at_default_is_not_pinned():
    pinned = entries(_record())
    added = make_dataclass("Toy", BASE + [("spare", float, field(default=0.))])
    assert entries(_record(added)) == pinned
    assert entries(_record(make_dataclass("Toy", BASE[:2]))) == pinned
    assert "lanes" in columns([Toy("ntt", 2.5), Toy("bconv", 0.25, 4)])


def test_moved_field_fails_its_case_only(tmp_path):
    golden = Golden(tmp_path / "golden_toy.json",
                    lambda: {"a": _record(), "b": _record(cost=1.0)})
    golden.regen()
    text = golden.path.read_text()
    golden.regen()
    assert golden.path.read_text() == text
    moved = {**_record(), "first": Toy("ntt", 3.0)}
    with pytest.raises(AssertionError, match=r"\[a\] moved: first\.cost$"):
        golden.check("a", moved)
    golden.check("b", _record(cost=1.0))


def test_one_ulp_moves_the_digest():
    x = 0.1 + 0.2
    y = math.nextafter(x, 1.0)
    assert entries({"x": x}) != entries({"x": y})
    assert digest([x]) != digest([y])
    assert digest(np.array([x])) != digest(np.array([y]))
    assert digest(np.array([x])) != digest(np.array([x], dtype=np.float32))
