"""Cold vs warm profile memo: pricing a catalog trace reads the same.

Every golden-pricing case is priced once on an emptied memo and again
with every profile already memoised; both passes must equal
``golden_pricing.json`` field for field, the unsearched run included.
"""

import pytest

from repro.gpusim import reset_cache_stats
from repro.serving.jobs import default_catalog
from tests.trace.test_golden_pricing import COMBOS, GOLDEN, key, price


@pytest.fixture(scope="module")
def classes():
    classes = default_catalog().classes
    for cls in classes.values():
        cls.recorder()  # record outside the cold pass
    return classes


def test_warm_memo_prices_like_cold(classes):
    reset_cache_stats()
    for _ in ("cold", "warm"):
        for combo in COMBOS:
            GOLDEN.check(key(combo), price(classes, combo))
