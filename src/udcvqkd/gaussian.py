"""Covariance-matrix oracle: generic Gaussian-state linear algebra.

All states are zero-mean, so an n-mode Gaussian state is fully described
by its 2n x 2n covariance matrix in shot-noise units (vacuum variance 1)
with quadrature ordering (x1, p1, x2, p2, ...).  The tests compare the
closed forms of protocol against these eigensolver computations, on the
states that build_eb_state and apply_channel assemble from the source and
the channel; neither key_rate nor the region maps call this module.  It
is reached as udcvqkd.gaussian and is not part of the package's exported
names, so importing those never loads numpy.  Everything here is a pure
function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError
from .protocol import NU_CLAMP_TOL, ChannelParams, ProtocolParams, entropy_g

SYMMETRY_TOL = 1e-12
PAIRING_TOL = 1e-8
PHYSICALITY_TOL = 1e-9
CONDITIONING_TOL = 1e-12


class NonPositiveDefinite(ToolkitError):
    """A covariance matrix has a nonpositive ordinary eigenvalue."""


class NumericalDegeneracy(ToolkitError):
    """The +/-nu pairing of a symplectic spectrum failed beyond tolerance."""


class SingularConditioning(ToolkitError):
    """Homodyne conditioning on a quadrature with (near-)zero variance."""


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

    The constructor copies its input, checks that every entry is finite,
    symmetry to 1e-12 and a strictly positive diagonal, and freezes the
    array.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance matrix must be square")
        if m.shape[0] == 0 or m.shape[0] % 2:
            raise ValueError("covariance matrix must be 2n x 2n with n >= 1")
        if not np.isfinite(m).all():
            raise ValueError("covariance matrix entries must be finite")
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise ValueError("covariance matrix must be symmetric within 1e-12")
        if np.any(np.diag(m) <= 0.0):
            raise ValueError("diagonal variances must be strictly positive")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2


def build_eb_state(params: ProtocolParams) -> CovMatrix:
    """Entanglement-based two-mode state equivalent to the modulated source.

    A two-mode squeezed vacuum of variance V = sqrt(1 + V_M/V_S) with one
    mode squeezed so that homodyning x on mode A conditionally prepares
    diag(V_S, 1/V_S) in mode B, while mode B alone carries
    diag(V_S + V_M, 1/V_S), the modulated signal sent into the channel.
    The state is pure by construction.
    """
    v = params.tmsv_variance
    c_x = math.sqrt(v * params.V_M)
    c_p = -math.sqrt(params.V_M / v) / params.V_S
    mat = np.array(
        [
            [v, 0.0, c_x, 0.0],
            [0.0, v, 0.0, c_p],
            [c_x, 0.0, params.V_S + params.V_M, 0.0],
            [0.0, c_p, 0.0, 1.0 / params.V_S],
        ]
    )
    return CovMatrix(mat)


def apply_channel(
    params: ProtocolParams, chan: ChannelParams, C_p: float, V_p_B: float
) -> CovMatrix:
    """State shared between the parties after the phase-sensitive channel.

    The x side is build_eb_state's through the x quadrature's channel map
    (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)): C_x scales by
    sqrt(eta_x), and Bob's variance becomes eta_x (V_S + V_M + eps_x) +
    1 - eta_x.  The p side is what the trusted parties know of it, as
    key_rate and holevo_bound take it: Bob's observed p variance V_p_B, and
    a correlation C_p that they cannot measure (physicality of the result
    is tested separately, not here).
    """
    eta, mat = chan.eta_x, build_eb_state(params).mat.copy()
    mat[0, 2] = mat[2, 0] = math.sqrt(eta) * mat[0, 2]
    mat[2, 2] = eta * (mat[2, 2] + chan.eps_x) + (1.0 - eta)
    mat[1, 3] = mat[3, 1] = C_p
    mat[3, 3] = V_p_B
    return CovMatrix(mat)


def symplectic_form(n_modes: int) -> np.ndarray:
    """2n x 2n symplectic form: block-diagonal copies of [[0, 1], [-1, 0]].

    Antisymmetric, and squares to minus the identity.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


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
    omega = symplectic_form(gamma.n_modes)
    spec = np.sort(np.abs(np.linalg.eigvals(1j * omega @ gamma.mat)))[::-1]
    pairs = spec.reshape(-1, 2)
    mismatch = np.abs(pairs[:, 0] - pairs[:, 1]) / np.maximum(1.0, pairs[:, 0])
    if np.any(mismatch > PAIRING_TOL):
        raise NumericalDegeneracy(
            f"symplectic eigenvalue pairing off by {mismatch.max():.3e} relative"
        )
    nus = pairs[:, 0].copy()
    nus[(nus >= 1.0 - NU_CLAMP_TOL) & (nus < 1.0)] = 1.0
    return nus


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


def is_physical(gamma: CovMatrix) -> bool:
    """Uncertainty-principle test: gamma + i.Omega positive semidefinite.

    True iff the smallest eigenvalue of the Hermitian matrix
    gamma + i.Omega is >= -1e-9.
    """
    herm = gamma.mat + 1j * symplectic_form(gamma.n_modes)
    return bool(np.linalg.eigvalsh(herm)[0] >= -PHYSICALITY_TOL)
