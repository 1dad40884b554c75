"""Suite-wide checks."""

import pytest

from advparam import metrics

from common import certified_floor


@pytest.fixture(autouse=True, scope="session")
def _certified_floor():
    """Every net the suite scores (base, attacked, controls, surgery outputs)
    goes through ``metrics.scored_rows``, which asserts here that no row
    certified by interval bound propagation comes back flipped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "scored_rows", certified_floor(metrics.scored_rows))
        yield
