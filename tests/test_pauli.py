"""Basis algebra, density/R-tensor conversion, initial states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from spintrio import pauli
from spintrio.dynamics import CouplingConstants
from spintrio.errors import ValidationError

from conftest import brute_r, brute_rho, kron3, random_density, random_pure


SQRT7 = np.sqrt(7.0)


class TestBasis:
    def test_identity_element(self):
        assert np.array_equal(pauli.BASIS[0, 0, 0], np.eye(8))

    def test_sigma3_on_e(self):
        expected = np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex)
        assert np.array_equal(pauli.BASIS[3, 0, 0], expected)

    def test_sigma1_cubed_is_antidiagonal(self):
        assert np.array_equal(pauli.BASIS[1, 1, 1], np.fliplr(np.eye(8)))

    def test_basis_is_kron3_bit_for_bit(self):
        # bytes, not values: np.array_equal takes -0.0 for 0.0, and an
        # einsum build of BASIS differs from np.kron in 741 signed zeros
        for a, b, c in np.ndindex(4, 4, 4):
            ref = kron3(pauli.SIGMA[a], pauli.SIGMA[b], pauli.SIGMA[c])
            assert pauli.BASIS[a, b, c].tobytes() == ref.tobytes(), (a, b, c)

    def test_orthogonality_all_pairs(self):
        # Tr[B_v B_w] = 8 delta_vw over all 64 x 64 pairs
        flat = pauli.BASIS.reshape(64, 8, 8)
        gram = np.einsum('vij,wji->vw', flat, flat)
        assert np.abs(gram - 8 * np.eye(64)).max() < 1e-12

    def test_pauli_closure(self):
        for i in range(1, 4):
            for j in range(1, 4):
                prod = pauli.SIGMA[i] @ pauli.SIGMA[j]
                expected = (i == j) * pauli.SIGMA[0].astype(complex)
                for k in range(1, 4):
                    expected = expected + 1j * pauli.EPS[i, j, k] * pauli.SIGMA[k]
                assert np.abs(prod - expected).max() < 1e-15

    def test_epsilon_antisymmetry(self):
        assert pauli.EPS[1, 2, 3] == 1.0
        assert np.abs(pauli.EPS + pauli.EPS.transpose(1, 0, 2)).max() == 0.0
        assert np.abs(pauli.EPS + pauli.EPS.transpose(0, 2, 1)).max() == 0.0


class TestHamiltonian:
    def test_all_zero(self):
        H = pauli.build_hamiltonian([0, 0, 0], [0, 0, 0], [0, 0, 0],
                                    CouplingConstants(0, 0, 0))
        assert np.abs(H).max() == 0.0

    def test_single_term(self):
        H = pauli.build_hamiltonian([0, 0, 1], [0, 0, 0], [0, 0, 0],
                                    CouplingConstants(0, 0, 0))
        assert np.abs(H - 0.5 * pauli.BASIS[3, 0, 0]).max() < 1e-15

    def test_hermitian_random(self, rng):
        H = pauli.build_hamiltonian(rng.normal(size=3), rng.normal(size=3),
                                    rng.normal(size=3),
                                    CouplingConstants(*rng.normal(size=3)))
        assert np.abs(H - H.conj().T).max() < 1e-14

    @pytest.mark.parametrize("h_e", [
        [np.nan, 0, 0], (0, 1j, 0), (1e308, 1e308, 0),
        [[0, 0, 1], [0, np.inf, 0]]],
        ids=["nan", "complex", "row_sum_overflows", "inf_in_a_stack"])
    def test_nonfinite_rejected(self, h_e):
        # 1e308 + 1e308 overflows though each component is finite
        with pytest.raises(ValueError,
                           match="field components must be reals, not bool"):
            pauli.build_hamiltonian(h_e, [0, 0, 0], [0, 0, 0],
                                    CouplingConstants())

    def test_commutator_matches_finite_difference_of_oracle(self):
        # reference parameters at tau = 0, resonant field, GHZ start
        from spintrio.dynamics import FieldSpec, propagate_direct
        spec = FieldSpec(kind="R")
        coupling = CouplingConstants()
        rho0, _ = pauli.initial_state("GHZ")
        H = pauli.build_hamiltonian(
            *np.multiply.outer(spec.multipliers, spec.base(0.0)), coupling)
        delta = 1e-7
        rho_d = propagate_direct(rho0, spec, coupling, [0.0, delta],
                                 dt=delta)[1]
        fd = (rho_d - rho0) / delta
        comm = -1j * (H @ rho0 - rho0 @ H)
        assert np.abs(fd - comm).max() < 1e-5


class TestConversion:
    def test_maximally_mixed(self):
        r = pauli.rho_to_r(np.eye(8) / 8)
        assert r[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
        r[0, 0, 0] = 0.0
        assert np.abs(r).max() < 1e-14

    def test_ghz_components(self):
        _, r = pauli.initial_state("GHZ")
        expected = np.zeros((4, 4, 4))
        expected[0, 0, 0] = 1.0
        expected[3, 3, 0] = expected[3, 0, 3] = expected[0, 3, 3] = 1.0
        expected[1, 1, 1] = 1.0
        expected[1, 2, 2] = expected[2, 1, 2] = expected[2, 2, 1] = -1.0
        assert np.abs(r - expected).max() < 1e-13

    def test_w_local_vectors(self):
        _, r = pauli.initial_state("W")
        for v in (r[1:, 0, 0], r[0, 1:, 0], r[0, 0, 1:]):
            assert np.sum(v * v) == pytest.approx(1 / 9, abs=1e-13)

    def test_matches_brute_force(self, rng):
        rho = random_density(rng)
        assert np.abs(pauli.rho_to_r(rho) - brute_r(rho)).max() < 1e-12
        # a stack converts to the stack of per-matrix tensors
        rhos = np.stack([random_density(rng) for _ in range(5)])
        assert np.array_equal(pauli.rho_to_r(rhos),
                              [pauli.rho_to_r(m) for m in rhos])

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)],
                             ids=["one", "stack", "stack_of_stacks"])
    @pytest.mark.parametrize("validate", [True, False])
    def test_matches_einsum_reference(self, rng, shape, validate):
        # the einsum rho_to_r used before its single matrix product; the
        # product sums the same 8 unit-modulus terms per trace in another
        # order, so they agree to a few ulp of the entries (|rho_ij| <= 1)
        def einsum_rho_to_r(rho):
            traces = np.einsum('abcij,...ji->...abc', pauli.BASIS, rho)
            return np.ascontiguousarray(traces.real)

        n = int(np.prod(shape))
        if validate:
            rho = np.stack([random_density(rng) for _ in range(n)])
        else:   # no density matrix: the real parts of the traces
            rho = rng.normal(size=(n, 8, 8)) + 1j * rng.normal(size=(n, 8, 8))
        rho = rho.reshape(shape + (8, 8))
        r = pauli.rho_to_r(rho, validate=validate)
        assert r.shape == shape + (4, 4, 4) and r.flags.c_contiguous
        scale = 8 * np.abs(rho).max()
        assert np.abs(r - einsum_rho_to_r(rho)).max() \
            <= 4 * scale * np.finfo(float).eps

    def test_non_hermitian_rejected(self, rng):
        bad = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        with pytest.raises(ValidationError):
            pauli.rho_to_r(bad)
        with pytest.raises(ValidationError):
            pauli.rho_to_r(np.stack([random_density(rng), bad]))

    def test_rejects_matrix_that_is_not_8x8(self):
        with pytest.raises(ValidationError, match="must be 8x8"):
            pauli.rho_to_r(np.eye(4) / 4)

    def test_rejects_imaginary_trace_component(self):
        # i 1e-11 times the identity passes the Hermiticity and trace checks
        # (deviations 2e-11 and 8e-11) but not the check of the traces
        rho, _ = pauli.initial_state("GHZ")
        with pytest.raises(ValidationError,
                           match="imaginary trace component 8.00e-11"):
            pauli.rho_to_r(rho + 1e-11j * np.eye(8))

    def test_round_trip_ghz(self):
        rho, r = pauli.initial_state("GHZ")
        assert np.abs(brute_rho(r) - rho).max() < 1e-13

    def test_mix_two_thirds_spectrum(self):
        rho, r = pauli.initial_state("Mix", x=2 / 3)
        ev = np.sort(np.linalg.eigvalsh(brute_rho(r)))[::-1]
        expected = np.array([2 / 3, 1 / 6, 1 / 6, 0, 0, 0, 0, 0])
        assert np.abs(ev - expected).max() < 1e-13


class TestBlochLength:
    @pytest.mark.parametrize("name", ["S", "BS", "GHZ", "W", "V"])
    def test_pure_states(self, name):
        _, r = pauli.initial_state(name)
        assert pauli.bloch_length(r) == pytest.approx(SQRT7, abs=1e-12)

    def test_mix_two_thirds(self):
        _, r = pauli.initial_state("Mix", x=2 / 3)
        assert pauli.bloch_length(r) == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_maximally_mixed(self):
        assert pauli.bloch_length(pauli.rho_to_r(np.eye(8) / 8)) < 1e-13

    def test_purity_relation_random(self, rng):
        # b^2 + 1 = 8 Tr rho^2 for physical states, one at a time or stacked
        rhos = [random_density(rng, rank=rng.integers(1, 9))
                for _ in range(25)]
        rs = np.array([pauli.rho_to_r(rho) for rho in rhos])
        for rho, r, b_stacked in zip(rhos, rs, pauli.bloch_length(rs)):
            b = pauli.bloch_length(r)
            assert isinstance(b, float)
            assert b == pytest.approx(b_stacked, abs=1e-14)
            purity = np.trace(rho @ rho).real
            assert b ** 2 + 1 == pytest.approx(8 * purity, abs=1e-10)


class TestInitialState:
    def test_ghz_locals_vanish(self):
        _, r = pauli.initial_state("GHZ")
        assert np.abs(r[1:, 0, 0]).max() < 1e-14
        assert np.abs(r[0, 1:, 0]).max() < 1e-14
        assert np.abs(r[0, 0, 1:]).max() < 1e-14

    def test_mix_x1_equals_ghz(self):
        rho_mix, _ = pauli.initial_state("Mix", x=1.0)
        rho_ghz, _ = pauli.initial_state("GHZ")
        assert np.abs(rho_mix - rho_ghz).max() < 1e-15

    def test_up_state(self):
        rho, r = pauli.initial_state("Up")
        assert rho[0, 0] == pytest.approx(1.0)
        assert r[0, 0, 3] == pytest.approx(1.0)
        assert r[3, 0, 0] == pytest.approx(1.0)

    def test_mix_requires_x(self):
        with pytest.raises(ValueError):
            pauli.initial_state("Mix")

    def test_x_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            pauli.initial_state("GHZ", x=0.5)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            pauli.initial_state("XYZ")

    @pytest.mark.parametrize("x", ["x", 0.5j, True],
                             ids=["str", "complex", "bool"])
    def test_mix_weight_that_is_no_real(self, x):
        with pytest.raises(ValueError, match="Mix weight must satisfy"):
            pauli.initial_state("Mix", x=x)

    @given(hst.floats(min_value=-2, max_value=1 / 3))
    def test_mix_weight_too_small(self, x):
        with pytest.raises(ValueError):
            pauli.initial_state("Mix", x=x)

    @given(hst.floats(min_value=0.34, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_mix_is_physical(self, x):
        rho, r = pauli.initial_state("Mix", x=x)
        assert np.linalg.eigvalsh(rho).min() > -1e-12
        assert r[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name, x", [
        *((n, None) for n in pauli.STATE_NAMES if n != "Mix"),
        *(("Mix", x) for x in (0.34, 2 / 3, 1))])
    def test_cached_state_equals_a_fresh_build(self, name, x):
        # each call returns fresh writable copies of what the cache built
        # once; writing into them changes no later call
        pauli._state.cache_clear()
        rho, r = pauli.initial_state(name, x)
        fresh_rho, fresh_r = pauli._state.__wrapped__(name, x)
        assert np.array_equal(rho, fresh_rho) and np.array_equal(r, fresh_r)
        assert rho.flags.writeable and r.flags.writeable
        rho[0, 0], r[0, 0, 0] = 7.0, np.nan
        again_rho, again_r = pauli.initial_state(name, x)
        assert np.array_equal(again_rho, fresh_rho)
        assert np.array_equal(again_r, fresh_r)
        assert again_rho is not rho and again_r is not r
        info = pauli._state.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_state_cache_keys_on_the_weight_type(self):
        # a bool never reaches the cache: after x = 1, x = True still
        # raises; 1 and 1.0 are built once each
        pauli._state.cache_clear()
        pauli.initial_state("Mix", 1)
        with pytest.raises(ValueError, match="Mix weight must satisfy"):
            pauli.initial_state("Mix", True)
        pauli.initial_state("Mix", 1.0)
        assert pauli._state.cache_info().misses == 2

    def test_pure_state_density_invariants(self, rng):
        for name in ("S", "BS", "GHZ", "W", "V"):
            rho, _ = pauli.initial_state(name)
            pauli.validate_density(rho)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-13)
