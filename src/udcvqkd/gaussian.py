"""Gaussian-state linear algebra on covariance matrices.

All states are zero-mean, so an n-mode Gaussian state is fully described
by its 2n x 2n covariance matrix in shot-noise units (vacuum variance 1)
with quadrature ordering (x1, p1, x2, p2, ...).  Everything here is a pure
function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NonPositiveDefinite,
    NumericalDegeneracy,
    SingularConditioning,
)

SYMMETRY_TOL = 1e-12
NU_CLAMP_TOL = 1e-9
PAIRING_TOL = 1e-8
PHYSICALITY_TOL = 1e-9
CONDITIONING_TOL = 1e-12


class Quadrature(enum.Enum):
    X = "x"
    P = "p"


@dataclass(frozen=True)
class QuadratureSelector:
    """Which quadrature of which mode a homodyne detector measures."""

    quadrature: Quadrature
    mode_index: int = 0


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Real symmetric covariance matrix of an n-mode Gaussian state.

    The constructor copies its input, checks symmetry to 1e-12 and a
    strictly positive diagonal, and freezes the array.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance matrix must be square")
        if m.shape[0] == 0 or m.shape[0] % 2:
            raise ValueError("covariance matrix must be 2n x 2n with n >= 1")
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise ValueError("covariance matrix must be symmetric within 1e-12")
        if np.any(np.diag(m) <= 0.0):
            raise ValueError("diagonal variances must be strictly positive")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2


def symplectic_form(n_modes: int) -> np.ndarray:
    """2n x 2n symplectic form: block-diagonal copies of [[0, 1], [-1, 0]].

    Antisymmetric, and squares to minus the identity.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _abs_spectrum(mats: np.ndarray) -> np.ndarray:
    """|eigenvalues| of i.Omega.gamma for a stack of matrices, sorted descending.

    Shape (..., 2n); the 2n values pair up as (nu, nu) per mode.
    """
    n = mats.shape[-1] // 2
    ev = np.linalg.eigvals((1j * symplectic_form(n)) @ mats)
    return np.sort(np.abs(ev), axis=-1)[..., ::-1]


def symplectic_eigenvalues(gamma: CovMatrix) -> np.ndarray:
    """Symplectic spectrum of a positive-definite covariance matrix.

    Returns one value per mode, sorted descending.  The eigenvalues of
    i.Omega.gamma come in +/-nu pairs; one representative per pair is
    returned.  Values within 1e-9 below 1 are clamped to 1, because pure
    modes land epsilon-below 1 in floating point.

    Raises
    ------
    NonPositiveDefinite
        if gamma has an ordinary eigenvalue <= 0.
    NumericalDegeneracy
        if the +/- pairing is violated beyond a 1e-8 relative tolerance.
    """
    if np.linalg.eigvalsh(gamma.mat).min() <= 0.0:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    spec = _abs_spectrum(gamma.mat[np.newaxis])[0]
    pairs = spec.reshape(-1, 2)
    mismatch = np.abs(pairs[:, 0] - pairs[:, 1])
    if np.any(mismatch > PAIRING_TOL * np.maximum(1.0, pairs[:, 0])):
        raise NumericalDegeneracy(
            f"symplectic eigenvalue pairing off by {mismatch.max():.3e}"
        )
    nus = pairs[:, 0].copy()
    nus[(nus >= 1.0 - NU_CLAMP_TOL) & (nus < 1.0)] = 1.0
    return nus


def entropy_g(nu: float) -> float:
    """Entropy in bits of one bosonic mode with symplectic eigenvalue nu.

    ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2); exactly 0 at
    nu = 1.  Values within 1e-9 below 1 are treated as 1.
    """
    if nu < 1.0 - NU_CLAMP_TOL:
        raise DomainError(f"symplectic eigenvalue {nu!r} is below 1")
    if nu <= 1.0:
        return 0.0
    a = (nu + 1.0) / 2.0
    b = (nu - 1.0) / 2.0
    return float(a * np.log2(a) - b * np.log2(b))


def von_neumann_entropy(gamma: CovMatrix) -> float:
    """Entropy in bits of the Gaussian state with covariance gamma."""
    return float(sum(entropy_g(nu) for nu in symplectic_eigenvalues(gamma)))


def condition_on_homodyne(gamma: CovMatrix, sel: QuadratureSelector) -> CovMatrix:
    """Covariance of the remaining modes after homodyning one quadrature.

    Schur-complement update with the pseudoinverse of the projected 2x2
    block of the measured mode.  Projecting onto a single quadrature leaves
    one diagonal entry, so the pseudoinverse reduces to dividing by the
    measured variance.  The result is independent of the measurement
    outcome.

    Raises SingularConditioning when the selected variance is <= 1e-12.
    """
    n = gamma.n_modes
    if n < 2:
        raise ValueError("need at least two modes to condition on one")
    if not 0 <= sel.mode_index < n:
        raise ValueError(f"mode index {sel.mode_index} out of range for {n} modes")
    offset = 0 if sel.quadrature is Quadrature.X else 1
    idx = 2 * sel.mode_index + offset
    var = gamma.mat[idx, idx]
    if var <= CONDITIONING_TOL:
        raise SingularConditioning(
            f"measured variance {var!r} too small to condition on"
        )
    keep = np.r_[0 : 2 * sel.mode_index, 2 * sel.mode_index + 2 : 2 * n]
    cross = gamma.mat[keep, idx]
    reduced = gamma.mat[np.ix_(keep, keep)] - np.outer(cross, cross) / var
    return CovMatrix(reduced)


def is_physical(gamma: CovMatrix, tol: float = PHYSICALITY_TOL) -> bool:
    """Uncertainty-principle test: gamma + i.Omega positive semidefinite.

    True iff the smallest eigenvalue of the Hermitian matrix
    gamma + i.Omega is >= -tol.
    """
    return bool(_min_uncertainty_eig(gamma.mat[np.newaxis])[0] >= -tol)


def _min_uncertainty_eig(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of gamma + i.Omega for a stack of matrices."""
    n = mats.shape[-1] // 2
    herm = mats + 1j * symplectic_form(n)
    return np.linalg.eigvalsh(herm)[..., 0]
