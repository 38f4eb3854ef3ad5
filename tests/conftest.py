import numpy as np

from udcvqkd import ChannelParams, ProtocolParams, ReconciliationDirection
from udcvqkd import physicality_parabola, symmetric_vpB
from udcvqkd.gaussian import CovMatrix


def random_symmetric(rng, n_modes: int, scale: float = 1.0) -> np.ndarray:
    d = 2 * n_modes
    a = rng.normal(size=(d, d)) * scale
    return a @ a.T


def random_physical_cm(rng, n_modes: int = 2) -> CovMatrix:
    """gamma >= identity is always physical."""
    return CovMatrix(random_symmetric(rng, n_modes) + np.eye(2 * n_modes))


def random_pd_cm(rng, n_modes: int = 2) -> CovMatrix:
    """Positive definite but only sometimes physical."""
    shift = rng.uniform(0.3, 2.0)
    return CovMatrix(random_symmetric(rng, n_modes, scale=0.5) + shift * np.eye(2 * n_modes))


def broad_draw(rng):
    """(params, chan, V_p_B, direction) from the whole domain: V_M up to
    1e12, and subnormal for 5%; 1 - eta log-uniform down to 1e-12; V_p_B at
    the parabola vertex, at the symmetric value or up to 10 above it.

    rng is a random.Random or a numpy Generator; the values are Python
    floats either way, as the CLI and the curves pass them.
    """
    v_m = (10.0 ** rng.uniform(-323.0, -308.0) if rng.random() < 0.05
           else 10.0 ** rng.uniform(-3.0, 12.0))
    params = ProtocolParams(V_S=10.0 ** rng.uniform(-2.0, 2.0), V_M=v_m)
    eta = 1.0 - 10.0 ** rng.uniform(-12.0, 0.0)
    eps = float(rng.choice([0.0, rng.uniform(0.0, 0.1)]))
    chan = ChannelParams.symmetric(eta, eps)
    v_p_b = float(rng.choice([physicality_parabola(params, chan)[0],
                              symmetric_vpB(params, eta, eps),
                              symmetric_vpB(params, eta, eps) + 10.0 ** rng.uniform(-9, 1)]))
    return params, chan, v_p_b, rng.choice(list(ReconciliationDirection))


# RegionClass codes of the physical cells where each direction's key rate
# is not positive: PHYSICAL_INSECURE plus the other direction's SECURE code
INSECURE_CODES = {"dr": (1, 3), "rr": (1, 2)}


def split_insecure_rows(cells) -> list[tuple[str, int, list[int]]]:
    """(direction, row index, row) for each region-map row in which that
    direction's insecure cells form more than one run.

    S_AB is concave in C_p and the rest of the key rate is constant along
    a row, so the key rate is convex there and the cells where it is not
    positive are one run inside the row's physical run.
    """
    cells = np.asarray(cells)
    split = []
    for direction, codes in INSECURE_CODES.items():
        insecure = np.isin(cells, codes)
        runs = insecure[:, 0] + (insecure[:, 1:] & ~insecure[:, :-1]).sum(axis=1)
        split += [(direction, int(i), cells[i].tolist()) for i in np.flatnonzero(runs > 1)]
    return split
