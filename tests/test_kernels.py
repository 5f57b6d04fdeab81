import math

import numpy as np
import pytest

from cvmb.simulate import accumulate_affine_moments


def reference_sums(z, a, c):
    """Exactly rounded reference via math.fsum."""
    e = z @ a.T + c
    e1, e2 = e[:, 0], e[:, 1]
    sq = e1 * e1 + e2 * e2
    return (
        math.fsum(e1),
        math.fsum(e2),
        math.fsum(e1 * e1),
        math.fsum(e2 * e2),
        math.fsum(e1 * e2),
        math.fsum(sq * sq),
    )


def allocating_kernel(z, a, c):
    """The kernel as first written, one temporary per term: the in-place
    kernel must reproduce its sums bit for bit."""
    e = z @ a.T + c
    e1, e2 = e[:, 0], e[:, 1]
    sq = e1 * e1 + e2 * e2
    return (
        float(e1.sum()),
        float(e2.sum()),
        float((e1 * e1).sum()),
        float((e2 * e2).sum()),
        float((e1 * e2).sum()),
        float((sq * sq).sum()),
    )


def scratch_for(n):
    return np.empty((3, n))


def random_case(seed, n=20_000, k=2):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k))
    a = np.ascontiguousarray(rng.standard_normal((2, k)))
    c = np.ascontiguousarray(rng.standard_normal(2))
    return z, a, c


class TestNumpyKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fsum_reference(self, seed):
        # sampling draws k = 2 normals per shot; the kernel takes any k
        for k in (2, 4):
            z, a, c = random_case(seed, k=k)
            got = accumulate_affine_moments(z, a, c, scratch=scratch_for(z.shape[0]))
            ref = reference_sums(z, a, c)
            for g, r in zip(got, ref):
                assert math.isclose(g, r, rel_tol=1e-12, abs_tol=1e-9), (k, g, r)

    @pytest.mark.parametrize("n", [1, 2, 8_191, 65_536, 65_537])
    def test_bitwise_equal_to_allocating_kernel(self, n):
        # a scratch longer than n, as for the short last batch of a call,
        # filled with nan and shared by all cases, so stale entries would show
        scratch = np.full((3, n + 3), np.nan)
        for k in (2, 4):
            z, a, c = random_case(n, n=n, k=k)
            # the transform as a caller may pass it; both kernels get the same array
            for layout in (a, np.asfortranarray(a), np.repeat(a, 2, axis=1)[:, ::2]):
                before = z.copy()
                expected = allocating_kernel(z, layout, c)
                assert accumulate_affine_moments(z, layout, c, scratch=scratch) == expected, k
                assert np.array_equal(z, before), "the kernel must not write into z"

    def test_shape_validation(self):
        z, a, c = random_case(3)
        n = z.shape[0]
        scratch = scratch_for(n)
        with pytest.raises(ValueError, match="a must have shape"):
            accumulate_affine_moments(z, a[:1], c, scratch=scratch)
        with pytest.raises(ValueError, match="c must have shape"):
            accumulate_affine_moments(z, a, c[:1], scratch=scratch)
        with pytest.raises(ValueError, match="z must be an"):
            accumulate_affine_moments(z[:, 0], a, c, scratch=scratch)
        # the last two have shape (3, n) but are not C-contiguous
        bad_scratch = [None, [[0.0] * n] * 3, (np.empty((2, n)), np.empty(n)),
                       np.empty((3, n), np.float32), np.empty((3, n), complex),
                       np.empty((n, 3)), np.empty((2, n)), np.empty((3, n - 1)),
                       np.empty(3 * n), np.empty((3, n), order="F"),
                       np.empty((3, 2 * n))[:, ::2]]
        for bad in bad_scratch:
            with pytest.raises(ValueError, match=r"scratch must be a float64 \(3, m\) array"):
                accumulate_affine_moments(z, a, c, scratch=bad)
        # complex input is not truncated, and bool, string ('1' would sum as
        # 1.0) and object input is not converted
        inputs = {"z": z, "a": a, "c": c}
        for name, good in inputs.items():
            for arr in (good.astype(complex), good > 0, good.astype(str), good.astype(object)):
                with pytest.raises(ValueError, match=f"^{name} must be real numbers"):
                    accumulate_affine_moments(**{**inputs, name: arr}, scratch=scratch)
