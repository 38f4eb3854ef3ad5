"""The abstract's claims (arXiv 1809.09162, PAPER.md), one test each.

Each docstring quotes the claim's sentence and states the reading that
the test checks; the README's claims table lists them with their numbers.
"""

import itertools
import math

import pytest

from udcvqkd import (
    ChannelParams,
    NoPositiveRate,
    ProtocolParams,
    ReconciliationDirection,
    max_attenuation,
    max_tolerable_noise,
    physicality_interval,
    symmetric_vpB,
)

DR = ReconciliationDirection.DIRECT


def interval_width(v_s: float, v_m: float, eta: float, eps: float) -> float:
    """Width of the C_p interval at the symmetric channel's observed V_p_B."""
    params = ProtocolParams(V_S=v_s, V_M=v_m)
    v_p_b = symmetric_vpB(params, eta, eps)
    lo, hi = physicality_interval(params, ChannelParams.symmetric(eta, eps), v_p_b)
    return hi - lo


def test_squeezing_expands_the_physicality_bounds_and_antisqueezing_shrinks_them():
    """"It is shown that squeezing of the signal states expands the
    physicality bounds of the effective entangled state ... Modulation of
    the antisqueezed quadrature, on the other hand, effectively shrinks the
    physicality bounds."

    Reading: a comparison at equal squeezing.  At the symmetric
    observation V_p_B = symmetric_vpB, the C_p interval for V_S = e^-s is
    wider than for V_S = e^s, on every one of 320 grid points (8 squeezing
    parameters s, 4 V_M, 5 eta, 2 eps).  The stronger reading, that
    antisqueezing narrows the interval below the coherent source's, does
    not hold: it does on 43 of the 320 points only, and the test pins that
    it fails on some.
    """
    grid = list(itertools.product((0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5),
                                  (1.0, 10.0, 100.0, 1e4), (0.1, 0.3, 0.5, 0.7, 0.9),
                                  (0.0, 0.01)))
    assert len(grid) == 320
    below_coherent = 0
    for s, v_m, eta, eps in grid:
        squeezed = interval_width(math.exp(-s), v_m, eta, eps)
        antisqueezed = interval_width(math.exp(s), v_m, eta, eps)
        assert squeezed > antisqueezed, (s, v_m, eta, eps)
        below_coherent += antisqueezed < interval_width(1.0, v_m, eta, eps)
    assert 0 < below_coherent < len(grid)


def test_antisqueezed_modulation_tolerates_the_most_noise_with_direct_reconciliation():
    """"Modulation of the antisqueezed quadrature ... also provides noise
    on the reference side of the protocol, thus limiting the possibility of
    eavesdropping in noisy channels."

    Reading: at V_M 100 the DR max_tolerable_noise is ordered
    V_S 2 > 1 > 0.5 at 0, 0.2, 0.5, 1 and 1.5 dB, with a point without a
    positive rate (NoPositiveRate) counted as 0.  At 0 dB the values are
    0.2202, 0.1550 and 0.0918; V_S 0.5 has no positive rate at 1 and
    1.5 dB.
    """
    def eps_max(v_s: float, db: float) -> float:
        try:
            return max_tolerable_noise(ProtocolParams(V_S=v_s, V_M=100.0), db, DR)
        except NoPositiveRate:
            return 0.0

    for db in (0.0, 0.2, 0.5, 1.0, 1.5):
        anti, coherent, squeezed = (eps_max(v_s, db) for v_s in (2.0, 1.0, 0.5))
        assert anti > coherent > squeezed >= 0.0, db
        assert (squeezed == 0.0) == (db >= 1.0), db
    assert [eps_max(v_s, 0.0) for v_s in (2.0, 1.0, 0.5)] == pytest.approx(
        [0.2202, 0.1550, 0.0918], abs=1e-4)


def test_antisqueezed_direct_reconciliation_reaches_further_in_low_loss_channels():
    """"This strategy is practical for low-loss (i.e., short-distance)
    channels, especially if direct reconciliation scheme is applied."

    Reading: at V_M 100 the antisqueezed (V_S 2) DR crossing, the
    max_attenuation where the worst-case key rate reaches 0, lies beyond
    the coherent one for excess noise eps >= 0.01: 1.669 against 1.430 dB
    at eps 0.01, 1.498 against 1.108 at 0.03 and 1.333 against 0.879 at
    0.05.  Without excess noise the order flips, 1.757 against 1.874 dB,
    which the abstract does not state; the test pins that too.
    """
    def crossings(eps: float) -> list[float]:
        return [max_attenuation(ProtocolParams(V_S=v_s, V_M=100.0), eps, DR)
                for v_s in (2.0, 1.0)]

    for eps, want in ((0.01, [1.669, 1.430]), (0.03, [1.498, 1.108]), (0.05, [1.333, 0.879])):
        anti, coherent = crossings(eps)
        assert anti > coherent, eps
        assert [anti, coherent] == pytest.approx(want, abs=1e-3), eps
    anti, coherent = crossings(0.0)
    assert anti < coherent
    assert [anti, coherent] == pytest.approx([1.757, 1.874], abs=1e-3)
