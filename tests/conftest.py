import pytest

from sparsedp import mechanisms


@pytest.fixture()
def misweighted_law(monkeypatch):
    """Mis-weight the exponential-weight law for negative controls: calling
    the fixture with ``factor`` divides every exponent divisor by it, so
    ``factor=2`` doubles the weight on the scores and ``factor=nan`` makes
    every probability NaN.  ``mechanisms.exponent_divisor`` is the one place
    the law reads its divisor, so the patch reaches the sampler, the oracle
    and the per-point reference alike."""
    divisor = mechanisms.exponent_divisor

    def misweight(factor: float) -> None:
        monkeypatch.setattr(
            mechanisms, "exponent_divisor", lambda rule, m: divisor(rule, m) / factor
        )

    return misweight
