"""Entanglement measures: fixtures on the canonical states, independent
reduced-density-matrix oracles, and invariance properties."""

import numpy as np
import pytest

from spintrio import measures, pauli
from spintrio.dynamics import CouplingConstants, FieldSpec, integrate
from spintrio.errors import ValidationError

from conftest import (random_density, random_product_pure, random_pure,
                      random_so3, reduced, rotate_r)


def r_of(name, x=None):
    return pauli.initial_state(name, x)[1]


class TestPairTensors:
    def test_product_state_vanishes(self):
        for m in measures.pair_tensors(r_of("S")):
            assert np.abs(m).max() < 1e-13

    def test_ghz_zz_entry(self):
        m_ep, _, _ = measures.pair_tensors(r_of("GHZ"))
        assert m_ep[2, 2] == pytest.approx(1.0, abs=1e-13)

    def test_bs_structure(self):
        # the (p, n) pair is entangled; e is in a definite sigma_3 state
        m_ep, m_en, m_pn = measures.pair_tensors(r_of("BS"))
        assert np.abs(m_pn).max() > 0.5
        assert np.abs(m_ep).max() < 1e-13
        assert np.abs(m_en).max() < 1e-13

    def test_matches_reduced_matrix_oracle(self, rng):
        # pair cumulant = two-qubit correlation from the reduced matrix
        # minus the product of local Bloch vectors
        rho = random_density(rng)
        r = pauli.rho_to_r(rho)
        pairs = zip(measures.pair_tensors(r), ((0, 1), (0, 2), (1, 2)))
        for m, keep in pairs:
            rho2 = reduced(rho, keep)
            corr = np.array([[np.trace(rho2 @ np.kron(pauli.SIGMA[i],
                                                      pauli.SIGMA[j])).real
                              for j in range(1, 4)] for i in range(1, 4)])
            loc_a = np.array([np.trace(rho2 @ np.kron(pauli.SIGMA[i],
                                                      pauli.SIGMA[0])).real
                              for i in range(1, 4)])
            loc_b = np.array([np.trace(rho2 @ np.kron(pauli.SIGMA[0],
                                                      pauli.SIGMA[j])).real
                              for j in range(1, 4)])
            assert np.abs(m - (corr - np.outer(loc_a, loc_b))).max() < 1e-10


class TestTripleTensor:
    def test_product_state_vanishes(self, rng):
        r = pauli.rho_to_r(random_product_pure(rng))
        assert np.abs(measures.triple_tensor(r)).max() < 1e-12

    def test_ghz_reduces_to_correlations(self):
        r = r_of("GHZ")
        assert np.abs(measures.triple_tensor(r) - r[1:, 1:, 1:]).max() < 1e-13

    def test_bs_vanishes(self):
        assert np.abs(measures.triple_tensor(r_of("BS"))).max() < 1e-13


class TestMeasureValues:
    def test_m_sm(self):
        assert measures.m_sm(r_of("S")) == pytest.approx(0.0, abs=1e-13)
        assert measures.m_sm(r_of("GHZ")) == pytest.approx(4.0, abs=1e-12)

    def test_c3(self):
        assert measures.concurrence_c3(r_of("S")) == pytest.approx(0.0, abs=1e-12)
        assert measures.concurrence_c3(r_of("GHZ")) == pytest.approx(
            np.sqrt(1.5), abs=1e-12)

    def test_c3_purity_guard(self):
        with pytest.raises(ValidationError, match="0.5"):
            measures.concurrence_c3(r_of("Mix", x=2 / 3))
        # override evaluates the formula anyway
        val = measures.concurrence_c3(r_of("Mix", x=2 / 3), purity_check=False)
        assert val >= 0.0
        # NaN fails the guard instead of passing through
        r = r_of("GHZ").copy()
        r[3, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="nan"):
            measures.concurrence_c3(r)

    def test_m_b(self):
        assert measures.m_b(r_of("S")) == pytest.approx(0.0, abs=1e-13)
        assert measures.m_b(r_of("W")) == pytest.approx(8 / 9, abs=1e-12)
        assert measures.m_b(r_of("GHZ")) == pytest.approx(1.0, abs=1e-13)

    def test_m_k(self):
        assert measures.m_k(r_of("GHZ")) == pytest.approx(1.0, abs=1e-12)
        assert measures.m_k(r_of("Up")) == pytest.approx(0.0, abs=1e-13)
        r_mixed = np.zeros((4, 4, 4))
        r_mixed[0, 0, 0] = 1.0
        assert measures.m_k(r_mixed) == pytest.approx(1 / 16, abs=1e-14)

    def test_m_l(self):
        assert measures.m_l(r_of("GHZ")) == pytest.approx(1.0, abs=1e-13)
        assert measures.m_l(r_of("W")) == pytest.approx(8 / 9, abs=1e-12)
        assert measures.m_l(r_of("S")) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("rz,expected", [(1.0, 0.0), (-1.0, 1.0),
                                             (0.0, 0.5)])
    def test_flip_probability(self, rz, expected):
        r = np.zeros((4, 4, 4))
        r[0, 0, 0] = 1.0
        r[0, 0, 3] = rz
        assert measures.flip_probability(r) == expected

    def test_population_physicality_guard(self):
        r = np.zeros((4, 4, 4))
        r[0, 0, 0] = 1.0
        r[3, 0, 0] = r[0, 3, 0] = r[0, 0, 3] = 3.0
        with pytest.raises(ValidationError):
            measures.populations(r)
        r = r_of("GHZ").copy()
        r[3, 0, 0] = np.nan
        for fn in (measures.populations, measures.m_k):
            with pytest.raises(ValidationError, match="nan"):
                fn(r)
        # one bad tensor in a stack trips the guard for the whole stack
        with pytest.raises(ValidationError, match="nan"):
            measures.populations(np.stack([r_of("GHZ"), r]))


class TestReducedMatrixOracles:
    """Every R-component formula recomputed from rho via partial traces."""

    @pytest.mark.parametrize("name,x", [("S", None), ("BS", None),
                                        ("GHZ", None), ("W", None),
                                        ("V", None), ("Mix", 2 / 3)])
    def test_named_states(self, name, x):
        rho, r = pauli.initial_state(name, x)
        self._check(rho, r)

    def test_random_states(self, rng):
        for _ in range(10):
            rho = random_density(rng)
            self._check(rho, pauli.rho_to_r(rho))

    def _check(self, rho, r):
        singles = [reduced(rho, (q,)) for q in range(3)]
        # local Bloch length^2 = 2 Tr rho_q^2 - 1
        lens = [2 * np.trace(m @ m).real - 1 for m in singles]
        assert measures.m_b(r) == pytest.approx(1 - sum(lens) / 3, abs=1e-10)
        # compare cubes: the cube root amplifies roundoff at exact zeros
        prod = np.prod([1 - l for l in lens])
        assert measures.m_l(r) ** 3 == pytest.approx(max(prod, 0), abs=1e-10)
        p11, p88 = measures.populations(r)
        assert p11 == pytest.approx(rho[0, 0].real, abs=1e-10)
        assert p88 == pytest.approx(rho[7, 7].real, abs=1e-10)
        assert measures.m_k(r) == pytest.approx(
            4 * rho[0, 0].real * rho[7, 7].real, abs=1e-10)
        # purity route for the concurrence bracket on pure states
        if abs(np.trace(rho @ rho).real - 1) < 1e-10:
            pair_purities = [np.trace(m @ m).real
                             for m in (reduced(rho, (0, 1)),
                                       reduced(rho, (0, 2)),
                                       reduced(rho, (1, 2)))]
            # sum over R_pair^2 = 4 Tr rho_ab^2 - 1 - |a|^2 - |b|^2
            pair_sq = (4 * sum(pair_purities) - 3
                       - 2 * (lens[0] + lens[1] + lens[2]))
            bracket = 2.25 + sum(lens) + 0.25 * pair_sq
            expected = np.sqrt(max(6 - bracket, 0) / 2)
            assert measures.concurrence_c3(r) == pytest.approx(expected,
                                                               abs=1e-10)


class TestInvariance:
    def test_local_rotations_preserve_measures(self, rng):
        for _ in range(25):
            r = pauli.rho_to_r(random_density(rng, rank=rng.integers(1, 9)))
            rot = rotate_r(r, random_so3(rng), random_so3(rng),
                           random_so3(rng))
            for fn in (measures.m_b, measures.m_l, measures.m_sm):
                assert abs(fn(rot) - fn(r)) < 1e-10
            c_a = measures.concurrence_c3(r, purity_check=False)
            c_b = measures.concurrence_c3(rot, purity_check=False)
            assert abs(c_a - c_b) < 1e-10

    def test_zero_on_product_states(self, rng):
        for _ in range(20):
            r = pauli.rho_to_r(random_product_pure(rng))
            assert measures.m_sm(r) < 1e-12
            assert measures.m_b(r) == pytest.approx(0.0, abs=1e-10)
            assert measures.m_l(r) == pytest.approx(0.0, abs=1e-6)
            assert measures.concurrence_c3(r) == pytest.approx(0.0, abs=1e-5)

    def test_ranges_on_random_states(self, rng):
        for _ in range(25):
            r = pauli.rho_to_r(random_density(rng, rank=rng.integers(1, 9)))
            assert 0.0 <= measures.m_b(r) <= 1.0
            assert 0.0 <= measures.m_l(r) <= 1.0
            assert measures.m_sm(r) >= 0.0
            assert measures.m_k(r) >= 0.0
            assert measures.concurrence_c3(r, purity_check=False) >= 0.0

    @pytest.mark.parametrize("kind", ["R", "NR"])
    def test_common_z_turn_keeps_every_channel(self, rng, kind):
        # the harness reads every channel in the frame that turns with the
        # field: each must be blind to a common z turn of the three slots,
        # here a random angle per sample of a whole trajectory
        starts = [r_of(n) for n in ("S", "BS", "GHZ", "W", "V", "Up")]
        r0 = np.stack(starts + [r_of("Mix", 2 / 3)])
        states = integrate(r0, FieldSpec(kind), CouplingConstants()).states
        phi = rng.uniform(0.0, 2 * np.pi, states.shape[:2])
        turn = np.zeros(phi.shape + (4, 4))
        turn[..., 0, 0] = turn[..., 3, 3] = 1.0
        turn[..., 1, 1] = turn[..., 2, 2] = np.cos(phi)
        turn[..., 2, 1], turn[..., 1, 2] = np.sin(phi), -np.sin(phi)
        turned = np.einsum('...ad,...be,...cf,...def->...abc',
                           turn, turn, turn, states, optimize=True)
        for name, fn in measures.CHANNELS.items():
            k = slice(-1 if name == "c3" else None)   # c3 needs pure states
            a, b = fn(states[:, k]), fn(turned[:, k])
            if name == "c3":
                # sqrt(max(x, 0)) turns a rounding change of x near 0 (S
                # starts as a product state) into its root: compare c3^2
                a, b = a * a, b * b
            assert np.abs(a - b).max() <= 1e-12, name

    def test_m_b_m_l_coincide_on_ghz_and_w(self):
        for name in ("GHZ", "W"):
            r = r_of(name)
            assert measures.m_b(r) == pytest.approx(measures.m_l(r),
                                                    abs=1e-12)


class TestChannels:
    def test_evaluate_channels(self):
        states = np.stack([r_of("GHZ"), r_of("W")])
        out = measures.evaluate_channels(states, ["m_b", "b", "rho11"])
        assert np.allclose(out["m_b"], [1.0, 8 / 9])
        assert np.allclose(out["b"], np.sqrt(7))
        assert out["rho11"][0] == pytest.approx(0.5, abs=1e-13)

    def test_stack_matches_per_tensor_calls(self, rng):
        states = pauli.rho_to_r(np.stack([random_pure(rng)
                                          for _ in range(20)]))
        for name, fn in measures.CHANNELS.items():
            stacked = measures.evaluate_channels(states, [name])[name]
            assert stacked.shape == (len(states),)
            singles = [fn(r) for r in states]
            assert all(type(v) is float for v in singles), name
            assert np.abs(stacked - singles).max() <= 1e-15, name

    def test_unknown_channel(self):
        with pytest.raises(ValueError):
            measures.evaluate_channels(np.zeros((1, 4, 4, 4)), ["nope"])
