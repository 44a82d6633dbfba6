import numpy as np
import pytest
import scipy.linalg

from qmixing.contraction import eta_ad_closed_form, eta_tr_estimate
from qmixing.errors import NumericalError, StateError
from qmixing.liouville import (
    LindbladModel,
    build_liouvillian,
    channel_at,
    check_channel,
    random_gkls_model,
)
from qmixing.matcore import mat_exp, operator_norm
from qmixing.models import amplitude_damping_model, depolarizing_model
from qmixing.spectral import (
    asymptotic_projector,
    decay_constants,
    is_primitive,
    norm_bracket,
    occupied_decay_rate,
    spectral_report,
    stationary_state,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def ad_liouvillian(gamma=1.0, alpha=0.0, beta=0.0):
    return build_liouvillian(amplitude_damping_model(gamma, alpha, beta))


def two_block_liouvillian():
    """d=4 generator with exactly two stationary states (kernel dimension 2)."""
    E01 = np.zeros((4, 4), dtype=complex)
    E01[0, 1] = 1.0
    E23 = np.zeros((4, 4), dtype=complex)
    E23[2, 3] = 1.0
    dephase = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    return build_liouvillian(LindbladModel(dim=4, lindblad_ops=[E01, E23, dephase]))


class TestSpectralReport:
    def test_amplitude_damping(self):
        rep = spectral_report(ad_liouvillian(1.0))
        assert rep.gap == pytest.approx(0.5, abs=1e-12)
        assert rep.primitive is False
        assert rep.jordan_index == 1
        assert len(rep.peripheral) == 1
        assert rep.subdominant_modulus(2.0) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_dephasing_variant_gap(self):
        rep = spectral_report(ad_liouvillian(1.0, 0.25, 0.25))
        assert rep.gap == pytest.approx(0.75, abs=1e-12)

    def test_depolarizing_is_primitive(self):
        rep = spectral_report(build_liouvillian(depolarizing_model(2, 1.0)))
        assert rep.primitive is True
        assert rep.gap == pytest.approx(1.0, abs=1e-9)

    def test_eigenvalues_have_nonpositive_real_part(self):
        for seed in range(5):
            L = build_liouvillian(random_gkls_model(3, n_ops=2, seed=seed, with_hamiltonian=True))
            rep = spectral_report(L)
            assert rep.eigenvalues.real.max() <= 1e-9 * max(1.0, rep.scale)

    def test_spectrum_conjugation_symmetric(self):
        L = build_liouvillian(random_gkls_model(3, n_ops=2, seed=3, with_hamiltonian=True))
        rep = spectral_report(L)
        w = rep.eigenvalues
        # every eigenvalue has a conjugate partner in the multiset
        dist = np.abs(w[:, None] - w.conj()[None, :]).min(axis=1)
        assert dist.max() <= 1e-8 * max(1.0, rep.scale)


class TestAsymptoticProjector:
    def test_amplitude_damping_projects_onto_ground_state(self):
        L = ad_liouvillian()
        for t in (0.0, 1.0, 7.0):
            P = asymptotic_projector(L, t)
            rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]])
            np.testing.assert_allclose(P.apply(rho), np.diag([1.0, 0.0]), atol=1e-10)

    def test_zero_liouvillian_gives_identity(self):
        L = build_liouvillian(LindbladModel(dim=2))
        for t in (0.0, 2.0):
            np.testing.assert_allclose(asymptotic_projector(L, t).matrix, np.eye(4), atol=1e-12)

    def test_hamiltonian_only_evolution_is_fully_peripheral(self):
        L = build_liouvillian(LindbladModel(dim=2, hamiltonian=SZ))
        for t in (0.0, 0.7, 1.9):
            P = asymptotic_projector(L, t)
            np.testing.assert_allclose(P.matrix, mat_exp(L.matrix, t), atol=1e-9)

    def test_projector_is_a_channel(self):
        assert check_channel(asymptotic_projector(ad_liouvillian(), 1.3), seed=2)["ok"]

    def test_convergence_to_projector_is_monotone(self):
        L = ad_liouvillian()
        gap = spectral_report(L).gap
        dists = []
        for t in np.geomspace(10.0 / gap, 40.0 / gap, 8):
            dists.append(operator_norm(channel_at(L, t).matrix - asymptotic_projector(L, t).matrix))
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]


class TestIsPrimitive:
    def test_depolarizing_witness_is_maximally_mixed(self):
        res = is_primitive(build_liouvillian(depolarizing_model(2, 1.0)))
        assert res.primitive
        np.testing.assert_allclose(res.witness, np.eye(2) / 2, atol=1e-10)

    def test_amplitude_damping_not_primitive(self):
        res = is_primitive(ad_liouvillian())
        assert not res.primitive
        np.testing.assert_allclose(res.witness, np.diag([1.0, 0.0]), atol=1e-10)

    def test_two_block_kernel_dimension_two(self):
        L = two_block_liouvillian()
        ns = scipy.linalg.null_space(L.matrix)
        assert ns.shape[1] == 2
        assert not is_primitive(L).primitive

    def test_stationary_state_unique_kernel(self):
        rho = stationary_state(ad_liouvillian())
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-10)
        with pytest.raises(NumericalError):
            stationary_state(two_block_liouvillian())


class TestNormBracket:
    def test_arithmetic_example(self):
        # unit matrix distance at d=2 gives (1/(8 sqrt 2), sqrt(2)/2)
        lo, up = 1.0 / (8 * np.sqrt(2)), np.sqrt(2) / 2
        from qmixing.liouville import Superoperator

        A = Superoperator(2, np.eye(4))
        B = Superoperator(2, np.zeros((4, 4)))
        assert operator_norm(A.matrix - B.matrix) == 1.0
        got = norm_bracket(A, B, 2)
        assert got == (pytest.approx(lo, abs=1e-15), pytest.approx(up, abs=1e-15))

    def test_zero_distance(self):
        T = channel_at(ad_liouvillian(), 1.0)
        assert norm_bracket(T, T, 2) == (0.0, 0.0)

    def test_contains_closed_form_value(self):
        L = ad_liouvillian()
        t = 1.0
        lo, up = norm_bracket(channel_at(L, t), asymptotic_projector(L, t), 2)
        eta = eta_ad_closed_form(1.0, t)
        assert lo - 1e-12 <= eta <= up + 1e-12


class TestDecayConstants:
    def test_amplitude_damping_brackets_measured_eta(self):
        L = ad_liouvillian()
        lo, up = decay_constants(L, 0.49)
        assert lo > 0 and np.isfinite(up)
        for t in np.linspace(0.0, 10.0, 9):
            eta = eta_ad_closed_form(1.0, t)
            assert lo * np.exp(-0.5 * t) <= eta + 1e-12
            assert eta <= up * np.exp(-0.49 * t) + 1e-12

    def test_normal_generator_gives_unit_condition_number(self):
        L = build_liouvillian(depolarizing_model(2, 1.0))
        rep = spectral_report(L)
        assert rep.kappa == pytest.approx(1.0, abs=1e-6)
        lo, up = decay_constants(L, 0.5)
        d = 2
        assert lo == pytest.approx(1.0 / (8 * np.sqrt(d) * rep.kappa), rel=1e-6)
        assert up == pytest.approx(np.sqrt(d) / 2 * rep.kappa, rel=1e-6)

    def test_trivial_polynomial_factor_when_diagonalizable(self):
        L = ad_liouvillian()
        rep = spectral_report(L)
        assert rep.jordan_index == 1
        _, up = decay_constants(L, 0.3)
        assert up == pytest.approx(np.sqrt(2) / 2 * rep.kappa, rel=1e-9)

    def test_rejects_nu_at_or_above_gap(self):
        L = ad_liouvillian()
        with pytest.raises(ValueError):
            decay_constants(L, 0.5)
        with pytest.raises(ValueError):
            decay_constants(L, 0.7)


class TestOccupiedDecayRate:
    def test_amplitude_damping_rate_is_gamma(self):
        psi = np.diag([1.0, 0.0])
        assert occupied_decay_rate(ad_liouvillian(1.0), psi) == pytest.approx(1.0, abs=1e-9)

    def test_variant_keeps_rate_while_gap_moves(self):
        psi = np.diag([1.0, 0.0])
        L = ad_liouvillian(1.0, 0.25, 0.25)
        assert spectral_report(L).gap == pytest.approx(0.75, abs=1e-12)
        assert occupied_decay_rate(L, psi) == pytest.approx(1.0, abs=1e-9)

    def test_collapses_to_gap_when_population_mode_is_slowest(self):
        # strong dephasing pushes the coherence modes past the population mode
        psi = np.diag([1.0, 0.0])
        L = ad_liouvillian(1.0, 2.0, 2.0)
        gap = spectral_report(L).gap
        assert gap == pytest.approx(1.0, abs=1e-12)
        assert occupied_decay_rate(L, psi) == pytest.approx(gap, abs=1e-9)

    def test_rate_between_gap_and_twice_gap(self):
        for alpha in (0.0, 0.25, 1.0, 2.0):
            L = ad_liouvillian(1.0, alpha, alpha)
            gap = spectral_report(L).gap
            nu = occupied_decay_rate(L, np.diag([1.0, 0.0]))
            assert gap - 1e-9 <= nu <= 2 * gap + 1e-9

    def test_rejects_non_stationary_state(self):
        with pytest.raises(StateError):
            occupied_decay_rate(ad_liouvillian(), np.diag([0.0, 1.0]))


class TestDefectiveRoute:
    """Synthetic generator matrix with a Jordan block at the gap."""

    def _jordan_superop(self):
        from qmixing.liouville import Superoperator

        M = np.diag([0.0, -1.0, -1.0, -2.0]).astype(complex)
        M[1, 2] = 1.0
        return Superoperator(2, M)

    def test_jordan_index_and_flagged_kappa(self):
        rep = spectral_report(self._jordan_superop())
        assert rep.gap == pytest.approx(1.0, abs=1e-12)
        assert rep.jordan_index == 2
        assert rep.kappa_flagged
        assert rep.kappa >= 1.0

    def test_decay_constants_warn_and_bracket_matrix_norm(self):
        S = self._jordan_superop()
        nu = 0.5
        with pytest.warns(UserWarning, match="Jordan index"):
            lo, up = decay_constants(S, nu)
        assert lo > 0 and np.isfinite(up)
        # the values from before the polynomial sum moved to log space
        assert (lo, up) == (pytest.approx(0.08838834764831843, rel=1e-12), pytest.approx(1.3464965655480357, rel=1e-12))
        # translate the contraction-level constants back to matrix-norm level
        # and check them against the explicit exponential
        P0 = np.zeros((4, 4), dtype=complex)
        P0[0, 0] = 1.0
        d = 2
        for t in np.linspace(0.0, 12.0, 25):
            nrm = operator_norm(mat_exp(S.matrix, t) - P0)
            assert 8 * np.sqrt(d) * lo * np.exp(-1.0 * t) <= nrm + 1e-12
            assert nrm <= 2 / np.sqrt(d) * up * np.exp(-nu * t) + 1e-12

    def test_overflowing_upper_constant_raises(self):
        # d = 13: a kernel plus one Jordan chain through all 168 decaying modes
        from qmixing.liouville import Superoperator

        side = 169
        M = np.diag(np.r_[0.0, -np.ones(side - 1)]).astype(complex)
        M[np.arange(1, side - 1), np.arange(2, side)] = 1.0
        S = Superoperator(13, M)
        with pytest.warns(UserWarning, match="Jordan index"):
            lo, up = decay_constants(S, 0.5)
        assert 0.0 < lo and np.isfinite(up)
        # close to the gap the polynomial factor's supremum is about e^766
        with pytest.warns(UserWarning, match="Jordan index"), pytest.raises(NumericalError, match="float range"):
            decay_constants(S, 0.99)

    def test_kernel_ambiguity_detected(self):
        from qmixing.liouville import Superoperator

        M = np.diag([0.0, -5e-9, -1.0, -2.0]).astype(complex)
        with pytest.raises(NumericalError):
            is_primitive(Superoperator(2, M))

    def test_stationary_state_counts_kernel_without_band_check(self):
        # a mode just above the kernel tolerance makes primitivity ambiguous,
        # not the one-dimensional kernel
        from qmixing.liouville import Superoperator

        M = np.diag([0.0, -5e-9, -1.0, -2.0]).astype(complex)
        np.testing.assert_allclose(stationary_state(Superoperator(2, M)), np.diag([1.0, 0.0]), atol=1e-15)


class TestBracketAgainstOptimizer:
    def test_norm_bracket_contains_eta_estimate(self):
        for seed in range(6):
            d = 2 + seed % 2
            L = build_liouvillian(random_gkls_model(d, n_ops=2, seed=seed))
            t = 0.8
            est = eta_tr_estimate(L, t, restarts=6, seed=seed)
            lo, up = norm_bracket(channel_at(L, t), asymptotic_projector(L, t), d)
            assert lo - 1e-6 <= est.eta_lower <= up + 1e-6
