import numpy as np

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
