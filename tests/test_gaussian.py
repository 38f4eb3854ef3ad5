import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_pd_cm, random_physical_cm
from udcvqkd import DomainError, entropy_g
from udcvqkd.gaussian import (
    CovMatrix,
    NonPositiveDefinite,
    NumericalDegeneracy,
    Quadrature,
    QuadratureSelector,
    SingularConditioning,
    condition_on_homodyne,
    is_physical,
    symplectic_eigenvalues,
    symplectic_form,
    von_neumann_entropy,
)


def tmsv(v: float) -> CovMatrix:
    c = math.sqrt(v * v - 1.0)
    return CovMatrix(
        np.array(
            [
                [v, 0, c, 0],
                [0, v, 0, -c],
                [c, 0, v, 0],
                [0, -c, 0, v],
            ],
            dtype=float,
        )
    )


class TestSymplecticForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_antisymmetric_and_squares_to_minus_identity(self, n):
        omega = symplectic_form(n)
        assert omega.shape == (2 * n, 2 * n)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))

    def test_rejects_nonpositive_mode_count(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestCovMatrix:
    def test_accepts_symmetric_positive_diagonal(self):
        cm = CovMatrix(np.diag([1.0, 2.0]))
        assert cm.n_modes == 1

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CovMatrix(m)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            CovMatrix(np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="must be square"):
            CovMatrix(np.ones((2, 4)))

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CovMatrix(np.diag([1.0, 0.0]))

    def test_matrix_is_frozen(self):
        cm = CovMatrix(np.eye(2))
        with pytest.raises(ValueError):
            cm.mat[0, 0] = 5.0

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, entry, where):
        # NaN passes both the symmetry and the diagonal comparison
        m = np.eye(2)
        m[where] = m[where[::-1]] = entry
        with pytest.raises(ValueError, match="finite"):
            CovMatrix(m)


class TestSymplecticEigenvalues:
    def test_two_mode_vacuum(self):
        nus = symplectic_eigenvalues(CovMatrix(np.eye(4)))
        assert list(nus) == [1.0, 1.0]

    def test_pure_two_mode_squeezed_vacuum(self):
        nus = symplectic_eigenvalues(tmsv(2.0))
        assert nus == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_single_mode_thermal(self):
        nus = symplectic_eigenvalues(CovMatrix(np.diag([3.0, 3.0])))
        assert nus == pytest.approx([3.0], abs=1e-12)

    def test_sorted_descending(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            nus = symplectic_eigenvalues(random_physical_cm(rng, 3))
            assert len(nus) == 3
            assert all(a >= b for a, b in zip(nus, nus[1:]))

    def test_rejects_indefinite_matrix(self):
        # positive diagonal but an eigenvalue of -1
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NonPositiveDefinite):
            symplectic_eigenvalues(CovMatrix(m))

    def test_matches_two_mode_invariant_formula(self):
        # independent oracle: nu^2 = (Delta +- sqrt(Delta^2 - 4 det)) / 2
        rng = np.random.default_rng(11)
        for _ in range(1000):
            cm = random_physical_cm(rng, 2)
            m = cm.mat
            delta = (
                np.linalg.det(m[:2, :2])
                + np.linalg.det(m[2:, 2:])
                + 2.0 * np.linalg.det(m[:2, 2:])
            )
            disc = math.sqrt(delta * delta - 4.0 * np.linalg.det(m))
            expected = sorted(
                [math.sqrt((delta + disc) / 2.0), math.sqrt((delta - disc) / 2.0)],
                reverse=True,
            )
            assert symplectic_eigenvalues(cm) == pytest.approx(expected, abs=1e-9)

    # A real state can fail the pairing: apply_channel at V_S 0.0370, V_M
    # 7.5e13, eta 0.794, eps 0, V_p_B 38.82, C_p -41050.87, inside its C_p
    # interval, has cond(gamma) about 3e18, and LAPACK pairs its smaller
    # eigenvalues 1.06e-8 apart, relative.  These spectra do not depend on
    # LAPACK's rounding.
    @pytest.mark.parametrize("gap,unpaired", [(0.5e-8, False), (2e-8, True), (0.5, True)])
    def test_pairing_is_checked_to_a_relative_tolerance(self, monkeypatch, gap, unpaired):
        spectrum = np.array([3.0, -3.0, 1.5, -1.5 * (1.0 - gap)])
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: spectrum)
        if unpaired:
            with pytest.raises(NumericalDegeneracy, match=f"off by {gap:.3e} relative"):
                symplectic_eigenvalues(tmsv(2.0))
        else:
            assert list(symplectic_eigenvalues(tmsv(2.0))) == [3.0, 1.5]

    def test_returns_subunity_values_for_unphysical_states(self):
        nus = symplectic_eigenvalues(CovMatrix(np.diag([0.5, 0.5])))
        assert nus == pytest.approx([0.5], abs=1e-12)


class TestEntropyG:
    def test_pure_mode_is_exactly_zero(self):
        assert entropy_g(1.0) == 0.0

    def test_nu_three_is_exactly_two_bits(self):
        assert entropy_g(3.0) == 2.0

    def test_nu_two_matches_mean_photon_form(self):
        # same function written through the mean photon number n = (nu-1)/2
        n = 0.5
        oracle = (n + 1.0) * math.log2(n + 1.0) - n * math.log2(n)
        assert entropy_g(2.0) == pytest.approx(oracle, abs=1e-14)
        assert entropy_g(2.0) == pytest.approx(1.3774437510817343, abs=1e-12)

    def test_clamp_window_returns_zero(self):
        assert entropy_g(1.0 - 0.5e-9) == 0.0

    def test_below_clamp_window_raises(self):
        with pytest.raises(DomainError):
            entropy_g(1.0 - 2e-9)

    @given(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=1.0, max_value=100.0),
    )
    def test_monotone_increasing(self, a, b):
        lo, hi = sorted((a, b))
        assert entropy_g(lo) <= entropy_g(hi)

    def test_increasing_and_concave_by_finite_differences(self):
        # finite differences at 1e-4 step across [1, 100]
        h = 1e-4
        nus = np.linspace(1.0, 100.0, 997)
        vals = np.array([entropy_g(x) for x in nus])
        fwd = np.array([entropy_g(x + h) for x in nus])
        fwd2 = np.array([entropy_g(x + 2 * h) for x in nus])
        first = (fwd - vals) / h
        second = (fwd2 - 2 * fwd + vals) / h**2
        assert (first > 0).all()
        assert (second <= 1e-9).all()


class TestVonNeumannEntropy:
    def test_two_mode_vacuum_is_zero(self):
        assert von_neumann_entropy(CovMatrix(np.eye(4))) == 0.0

    def test_single_thermal_mode(self):
        assert von_neumann_entropy(CovMatrix(np.diag([3.0, 3.0]))) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_pure_two_mode_squeezed_vacuum_is_zero(self):
        for v in (1.0, 1.5, 4.0, 30.0):
            assert von_neumann_entropy(tmsv(v)) == pytest.approx(0.0, abs=1e-9)

    def test_additive_over_direct_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_physical_cm(rng, 1)
            b = random_physical_cm(rng, 2)
            joint = np.zeros((6, 6))
            joint[:2, :2] = a.mat
            joint[2:, 2:] = b.mat
            lhs = von_neumann_entropy(CovMatrix(joint))
            rhs = von_neumann_entropy(a) + von_neumann_entropy(b)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestConditionOnHomodyne:
    def test_product_state_is_unchanged(self):
        rng = np.random.default_rng(13)
        a = random_physical_cm(rng, 1)
        b = random_physical_cm(rng, 1)
        joint = np.zeros((4, 4))
        joint[:2, :2] = a.mat
        joint[2:, 2:] = b.mat
        for quad in Quadrature:
            out = condition_on_homodyne(CovMatrix(joint), QuadratureSelector(quad, 0))
            assert out.mat == pytest.approx(b.mat, abs=1e-14)

    def test_matches_general_pseudoinverse_update(self):
        # oracle: full Moore-Penrose form of the measurement update
        rng = np.random.default_rng(17)
        for _ in range(60):
            cm = random_physical_cm(rng, 3)
            k = int(rng.integers(0, 3))
            quad = Quadrature.X if rng.integers(2) else Quadrature.P
            proj = np.diag([1.0, 0.0] if quad is Quadrature.X else [0.0, 1.0])
            keep = [i for i in range(6) if i // 2 != k]
            meas = slice(2 * k, 2 * k + 2)
            gamma_b = cm.mat[meas, meas]
            sigma = cm.mat[np.ix_(keep, range(2 * k, 2 * k + 2))]
            oracle = cm.mat[np.ix_(keep, keep)] - sigma @ np.linalg.pinv(
                proj @ gamma_b @ proj
            ) @ sigma.T
            out = condition_on_homodyne(cm, QuadratureSelector(quad, k))
            assert out.mat == pytest.approx(oracle, abs=1e-10)

    def test_never_increases_remaining_variances(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            cm = random_physical_cm(rng, 2)
            quad = Quadrature.X if rng.integers(2) else Quadrature.P
            k = int(rng.integers(0, 2))
            out = condition_on_homodyne(cm, QuadratureSelector(quad, k))
            keep = [i for i in range(4) if i // 2 != k]
            before = np.diag(cm.mat)[keep]
            assert (np.diag(out.mat) <= before + 1e-12).all()

    def test_output_shape_and_symmetry(self):
        rng = np.random.default_rng(23)
        cm = random_physical_cm(rng, 3)
        out = condition_on_homodyne(cm, QuadratureSelector(Quadrature.P, 1))
        assert out.mat.shape == (4, 4)
        assert np.array_equal(out.mat, out.mat.T)

    def test_singular_variance_rejected(self):
        m = np.diag([1e-13, 1.0, 1.0, 1.0])
        with pytest.raises(SingularConditioning):
            condition_on_homodyne(CovMatrix(m), QuadratureSelector(Quadrature.X, 0))

    def test_single_mode_rejected(self):
        with pytest.raises(ValueError):
            condition_on_homodyne(
                CovMatrix(np.eye(2)), QuadratureSelector(Quadrature.X, 0)
            )

    def test_mode_index_out_of_range(self):
        with pytest.raises(ValueError):
            condition_on_homodyne(
                CovMatrix(np.eye(4)), QuadratureSelector(Quadrature.X, 2)
            )


class TestIsPhysical:
    def test_vacuum_is_physical(self):
        assert is_physical(CovMatrix(np.eye(4)))

    def test_uncertainty_violation_detected(self):
        assert not is_physical(CovMatrix(np.diag([0.5, 0.5])))

    def test_gamma_of_at_least_identity_is_physical(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            assert is_physical(random_physical_cm(rng, 2))

    def test_equivalent_to_unit_symplectic_floor(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            cm = random_pd_cm(rng, 2)
            nus = symplectic_eigenvalues(cm)
            assert is_physical(cm) == bool(nus.min() >= 1.0 - 1e-9)
