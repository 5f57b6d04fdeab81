import math

import numpy as np
import pytest

from cvmb import gaussian
from cvmb.bounds import DisplacementModel, holevo_bound, sld_bound
from cvmb.gaussian import (
    GaussianState,
    SymplecticOp,
    apply,
    beam_splitter,
    displace,
    make_thermal,
    single_mode_squeezer,
    symplectic_form,
    two_mode_squeezer,
    vacuum,
)


def reference_two_mode_squeezer(r):
    """Independent construction from cosh/sinh blocks, for use as an oracle."""
    ch, sh = np.cosh(r), np.sinh(r)
    return np.array(
        [
            [ch, 0, sh, 0],
            [0, ch, 0, -sh],
            [sh, 0, ch, 0],
            [0, -sh, 0, ch],
        ]
    )


def reference_beam_splitter(tau):
    """The documented splitter block, built independently of the package."""
    t, u = np.sqrt(tau), np.sqrt(1.0 - tau)
    return np.array(
        [
            [t, 0, -u, 0],
            [0, t, 0, -u],
            [u, 0, t, 0],
            [0, u, 0, t],
        ]
    )


def reference_op(block, modes, num_modes):
    """The block scattered into the identity, through the public constructor."""
    idx = [k for mode in modes for k in (2 * mode, 2 * mode + 1)]
    matrix = np.eye(2 * num_modes)
    matrix[np.ix_(idx, idx)] = block
    return SymplecticOp(matrix)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_state(a, b):
    """Mean, covariance and factors equal bit for bit, N a float on both."""
    n_a, n_b = a.williamson.mean_photons, b.williamson.mean_photons
    return (same_bits(a.mean, b.mean) and same_bits(a.cov, b.cov)
            and same_bits(a.williamson.symplectic, b.williamson.symplectic)
            and type(n_a) is type(n_b) is float and same_bits(np.float64(n_a), np.float64(n_b)))


class TestThermal:
    def test_vacuum_is_identity(self):
        state = make_thermal(0.0, 1)
        assert np.array_equal(state.cov, np.eye(2))
        assert np.array_equal(state.mean, np.zeros(2))

    def test_single_mode_occupation(self):
        state = make_thermal(0.1, 1)
        assert np.allclose(state.cov, 1.2 * np.eye(2), atol=1e-14)

    def test_two_mode_occupation(self):
        state = make_thermal(0.5, 2)
        assert np.allclose(state.cov, 2.0 * np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("bad", [(-0.1, 1), (0.2, 0)])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            make_thermal(*bad)

    def test_numpy_scalars_build_the_same_state(self):
        for value, equal in [(0.5, np.float32(0.5)), (0, np.int64(0))]:
            gaussian._thermal.cache_clear()
            state = make_thermal(value, 2)
            gaussian._thermal.cache_clear()
            assert same_state(make_thermal(equal, 2), state)
            assert make_thermal(value, 2) is make_thermal(equal, 2)

    def test_negative_zero_is_zero(self):
        gaussian._thermal.cache_clear()
        state = make_thermal(-0.0, 1)
        assert math.copysign(1.0, state.williamson.mean_photons) == 1.0
        assert state is make_thermal(0.0, 1)

    def test_cache_is_bounded(self):
        size = gaussian._CACHE_SIZE
        for k in range(size + 5):
            make_thermal(k / 7.0, 1)
        assert gaussian._thermal.cache_info().currsize == size

    def test_checked_after_a_cached_call(self):
        # True == 1.0 and hashes like it, so a cache keyed before the checks
        # would hand back the state of N = 1 or of one mode
        make_thermal(1.0, 2)
        make_thermal(0.5, 1)
        for bad in [(True, 2), (0.5, True), (np.float64(np.nan), 2), (-1.0, 2), (0.5, 1.0)]:
            with pytest.raises(ValueError):
                make_thermal(*bad)


class TestSingleModeSqueezer:
    def test_identity_squeeze(self):
        state = apply(single_mode_squeezer(0.0), vacuum())
        assert np.allclose(state.cov, np.eye(2), atol=1e-14)

    def test_unit_squeeze(self):
        state = apply(single_mode_squeezer(1.0), vacuum())
        assert np.allclose(np.diag(state.cov), [np.exp(-2), np.exp(2)], atol=1e-12)
        assert abs(state.cov[0, 1]) < 1e-14

    def test_sign_flip_swaps_quadratures(self):
        state = apply(single_mode_squeezer(-1.0), vacuum())
        assert np.allclose(np.diag(state.cov), [np.exp(2), np.exp(-2)], atol=1e-12)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            single_mode_squeezer(0.3, mode=1, num_modes=1)


class TestTwoModeSqueezer:
    def test_zero_is_identity(self):
        state = apply(two_mode_squeezer(0.0), vacuum(2))
        assert np.allclose(state.cov, np.eye(4), atol=1e-14)

    def test_epr_covariance_structure(self):
        r = 0.5
        state = apply(two_mode_squeezer(r), vacuum(2))
        c, s = np.cosh(2 * r), np.sinh(2 * r)
        expected = np.array(
            [
                [c, 0, s, 0],
                [0, c, 0, -s],
                [s, 0, c, 0],
                [0, -s, 0, c],
            ]
        )
        assert np.allclose(state.cov, expected, atol=1e-12)
        assert np.isclose(c, 1.5430806348152437)
        assert np.isclose(s, 1.1752011936438014)

    @pytest.mark.parametrize("r,n", [(0.3, 0.2), (1.1, 0.7)])
    def test_thermal_input_scales_covariance(self, r, n):
        state = apply(two_mode_squeezer(r), make_thermal(n, 2))
        s_ref = reference_two_mode_squeezer(r)
        oracle = s_ref @ ((2 * n + 1) * np.eye(4)) @ s_ref.T
        assert np.allclose(state.cov, oracle, atol=1e-12)
        vac_out = apply(two_mode_squeezer(r), vacuum(2))
        assert np.allclose(state.cov, (2 * n + 1) * vac_out.cov, atol=1e-12)

    def test_equal_modes_rejected(self):
        with pytest.raises(ValueError):
            two_mode_squeezer(0.4, mode_a=0, mode_b=0)


class TestBeamSplitter:
    def test_full_transmission_is_identity(self):
        op = beam_splitter(1.0)
        assert np.allclose(op.matrix, np.eye(4), atol=1e-14)

    def test_balanced_on_vacuum_is_vacuum(self):
        state = apply(beam_splitter(0.5), vacuum(2))
        assert np.allclose(state.cov, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("r", [0.25, 0.7, 1.3])
    def test_balanced_splits_epr_into_squeezed_product(self, r):
        epr = apply(two_mode_squeezer(r), vacuum(2))
        out = apply(beam_splitter(0.5), epr)
        # direct conjugation oracle
        s = beam_splitter(0.5).matrix
        assert np.allclose(out.cov, s @ epr.cov @ s.T, atol=1e-12)
        expected = np.diag([np.exp(-2 * r), np.exp(2 * r), np.exp(2 * r), np.exp(-2 * r)])
        assert np.allclose(out.cov, expected, atol=1e-10)

    def test_orthogonal(self):
        s = beam_splitter(0.3).matrix
        assert np.allclose(s @ s.T, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("tau", [-0.01, 1.01])
    def test_transmissivity_range(self, tau):
        with pytest.raises(ValueError):
            beam_splitter(tau)


class TestDisplacement:
    def test_zero_displacement(self):
        assert np.array_equal(displace(vacuum(), 0, 0).mean, np.zeros(2))

    def test_mean_shift_only(self):
        state = displace(vacuum(), 2.0, -3.0)
        assert np.array_equal(state.mean, [2.0, -3.0])
        assert np.array_equal(state.cov, np.eye(2))

    def test_displace_epr_first_mode(self):
        epr = apply(two_mode_squeezer(0.8), vacuum(2))
        out = displace(epr, 1.0, 1.0, mode=0)
        assert np.array_equal(out.mean, [1.0, 1.0, 0.0, 0.0])
        assert np.array_equal(out.cov, epr.cov)


class TestApply:
    def test_identity(self):
        state = apply(two_mode_squeezer(0.6), vacuum(2))
        op = SymplecticOp(np.eye(4))
        out = apply(op, state)
        assert np.allclose(out.mean, state.mean, atol=1e-15)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_inverse_squeezer_pair(self):
        state = apply(single_mode_squeezer(-0.9), apply(single_mode_squeezer(0.9), vacuum()))
        assert np.allclose(state.cov, np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(beam_splitter(0.5), vacuum(1))


class TestLeanOps:
    """The squeezers and the splitter give the op the public constructor
    builds from the same block."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(17)
        for num_modes in (2, 3, 4):
            for mode_a in range(num_modes):
                r = float(rng.uniform(-3, 3))
                yield (single_mode_squeezer(r, mode_a, num_modes),
                       reference_op(np.diag([np.exp(-r), np.exp(r)]), [mode_a], num_modes))
                for mode_b in range(num_modes):
                    if mode_b == mode_a:
                        continue
                    modes = [mode_a, mode_b]
                    r, tau = float(rng.uniform(-3, 3)), float(rng.uniform(0, 1))
                    yield (two_mode_squeezer(r, mode_a, mode_b, num_modes),
                           reference_op(reference_two_mode_squeezer(r), modes, num_modes))
                    yield (beam_splitter(tau, mode_a, mode_b, num_modes),
                           reference_op(reference_beam_splitter(tau), modes, num_modes))

    def test_equal_to_the_public_constructor(self):
        count = 0
        for op, ref in self._cases():
            assert same_bits(op.matrix, ref.matrix)
            count += 1
        # one squeezer per mode, and both two-mode ops on every ordered pair
        assert count == (2 + 3 + 4) + 2 * (2 + 6 + 12)

    def test_read_only(self):
        for op, _ in self._cases():
            assert not op.matrix.flags.writeable

    def test_every_op_runs_the_symplectic_test(self, monkeypatch):
        seen = []
        check = gaussian._check_symplectic
        monkeypatch.setattr(gaussian, "_check_symplectic",
                            lambda matrix: (seen.append(matrix.shape), check(matrix)))
        single_mode_squeezer(0.3)
        two_mode_squeezer(0.3, 0, 2, 3)
        beam_splitter(0.3)
        SymplecticOp(np.eye(2))
        assert seen == [(2, 2), (6, 6), (4, 4), (2, 2)]


class TestInvariants:
    def test_constructors_are_symplectic(self):
        omega = symplectic_form(2)
        for op in [
            two_mode_squeezer(0.7),
            beam_splitter(0.37),
            single_mode_squeezer(1.2, mode=1, num_modes=2),
        ]:
            assert np.max(np.abs(op.matrix @ omega @ op.matrix.T - omega)) < 1e-12

    def test_random_compositions_preserve_structure(self):
        rng = np.random.default_rng(2024)
        omega = symplectic_form(2)
        for i in range(100):
            # every fourth chain starts from a thermal state, displaced
            n = 0.0 if i % 4 else float(rng.uniform(0, 2))
            state = vacuum(2) if i % 4 else displace(make_thermal(n, 2), 0.3, -0.2, mode=1)
            total = np.eye(4)
            for _ in range(rng.integers(2, 6)):
                choice = rng.integers(3)
                if choice == 0:
                    op = single_mode_squeezer(rng.uniform(-1, 1),
                                              mode=rng.integers(2), num_modes=2)
                elif choice == 1:
                    op = two_mode_squeezer(rng.uniform(-1, 1))
                else:
                    op = beam_splitter(rng.uniform(0, 1))
                # the covariance formula of states without factors: the
                # congruence, then the halving symmetrization
                cov = op.matrix @ state.cov @ op.matrix.T
                cov = 0.5 * cov + 0.5 * cov.T
                mean = op.matrix @ state.mean
                state = apply(op, state)
                total = op.matrix @ total
                assert same_bits(state.mean, mean)
                assert np.array_equal(state.cov, cov)
                assert np.array_equal(state.williamson.symplectic, total)
                assert state.williamson.mean_photons == n
                # the uncertainty test that factored states skip still holds,
                # as the constructor applies it to a bare covariance
                GaussianState(state.mean, state.cov)
            assert np.max(np.abs(total @ omega @ total.T - omega)) < 1e-9
            assert abs(np.linalg.det(state.cov) - (1.0 + 2.0 * n) ** 4) < 1e-9 * (1.0 + 2.0 * n) ** 4
            eigs = np.linalg.eigvalsh(state.cov + 1j * omega)
            assert eigs.min() > -1e-9

    def test_factors(self):
        state = make_thermal(0.25, 2)
        assert np.array_equal(state.williamson.symplectic, np.eye(4))
        assert state.williamson.mean_photons == 0.25
        assert vacuum(2).williamson.mean_photons == 0.0
        moved = displace(state, 1.0, 2.0)
        assert moved.williamson is state.williamson
        assert not moved.williamson.symplectic.flags.writeable
        # a bare covariance carries no factors, and neither does its image
        bare = GaussianState(np.zeros(4), state.cov)
        assert bare.williamson is None
        assert apply(two_mode_squeezer(0.3), bare).williamson is None
        assert displace(bare, 1.0, 0.0).williamson is None
        with pytest.raises(TypeError):
            GaussianState(np.zeros(4), state.cov, state.williamson)

    def test_apply_keeps_a_bare_state_unchecked(self, monkeypatch):
        # a bare covariance is checked where it enters; its image under a
        # checked symplectic op is not tested again, only for finiteness
        bare = GaussianState(np.zeros(4), make_thermal(0.25, 2).cov)
        op = two_mode_squeezer(0.3)

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("apply ran the uncertainty test")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        image = apply(op, bare)
        cov = op.matrix @ bare.cov @ op.matrix.T
        assert same_bits(image.cov, 0.5 * cov + 0.5 * cov.T)
        assert same_bits(image.mean, op.matrix @ bare.mean)
        assert image.williamson is None
        assert not (image.cov.flags.writeable or image.mean.flags.writeable)

    def test_factored_state_rejects_non_finite_moments(self):
        huge = SymplecticOp(np.diag([1e200, 1e-200]))
        # a bare state's image is checked for finiteness as a factored one's is
        for state in (make_thermal(0.0, 1), GaussianState(np.zeros(2), np.eye(2))):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="covariance matrix must be finite"):
                apply(huge, apply(huge, state))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="mean must be finite"):
            apply(SymplecticOp(np.diag([1e150, 1e-150])),
                  displace(vacuum(), 1e200, 0.0))

    def test_symplectic_form_is_read_only(self):
        omega = symplectic_form(3)
        assert omega is symplectic_form(3)
        with pytest.raises(ValueError):
            omega[0, 1] = 2.0
        assert np.array_equal(omega[:2, :2], [[0.0, 1.0], [-1.0, 0.0]])

    def test_invalid_covariance_rejected(self):
        with pytest.raises(ValueError, match="uncertainty relation"):
            GaussianState(np.zeros(2), 0.5 * np.eye(2))
        for asymmetric in ([[1.0, 0.1], [0.0, 1.0]], [[2.0, 1e-9], [0.0, 2.0]]):
            with pytest.raises(ValueError, match="covariance matrix must be symmetric"):
                GaussianState(np.zeros(2), np.array(asymmetric))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="covariance matrix must be finite"):
                GaussianState(np.zeros(2), np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("r", [5.5, 6.0, 6.25, 6.75])
    def test_strongly_squeezed_covariance_accepted(self, r):
        # the rounding of S diag(1.4) S^T leaves an asymmetry of 3.6e-12 to
        # 2.9e-11, above an absolute 1e-12 but below 1e-16 of its largest entry
        s = (beam_splitter(0.3).matrix @ two_mode_squeezer(r).matrix
             @ beam_splitter(0.7).matrix @ single_mode_squeezer(0.4, 0, 2).matrix)
        cov = s @ np.diag([1.4] * 4) @ s.T
        assert np.max(np.abs(cov - cov.T)) > 1e-12
        model = DisplacementModel(GaussianState(np.zeros(4), cov))
        assert math.isfinite(sld_bound(model).value)
        assert math.isfinite(holevo_bound(model).value)

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError):
            SymplecticOp(2.0 * np.eye(2))
        # the rounding scale of a strong squeezer covers neither a large
        # defect nor a unit-scale defect on another mode
        with pytest.raises(ValueError):
            SymplecticOp(np.diag([1e13, 1.0]))
        defect = two_mode_squeezer(10.0, num_modes=3).matrix.copy()
        defect[4, 4] = 1.001
        with pytest.raises(ValueError):
            SymplecticOp(defect)

    def test_values_are_immutable(self):
        state = vacuum(2)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 5.0
        with pytest.raises(ValueError):
            state.mean[0] = 5.0
        op = beam_splitter(0.5)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0
