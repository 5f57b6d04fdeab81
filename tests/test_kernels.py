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


def random_case(seed, n=20_000, k=2):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k))
    a = np.ascontiguousarray(rng.standard_normal((2, k)))
    c = np.ascontiguousarray(rng.standard_normal(2))
    return z, a, c


class TestNumpyKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fsum_reference(self, seed):
        # k = 2 is the outcome-marginal path, k = 4 the full phase-space one
        for k in (2, 4):
            z, a, c = random_case(seed, k=k)
            got = accumulate_affine_moments(z, a, c)
            ref = reference_sums(z, a, c)
            for g, r in zip(got, ref):
                assert math.isclose(g, r, rel_tol=1e-12, abs_tol=1e-9), (k, g, r)

    @pytest.mark.parametrize("n", [1, 8_191, 65_537])
    def test_bitwise_equal_to_allocating_kernel(self, n):
        for k in (2, 4):
            z, a, c = random_case(n, n=n, k=k)
            before = z.copy()
            assert accumulate_affine_moments(z, a, c) == allocating_kernel(z, a, c), k
            assert np.array_equal(z, before), "the kernel must not write into z"

    def test_shape_validation(self):
        z, a, c = random_case(3)
        with pytest.raises(ValueError):
            accumulate_affine_moments(z, a[:1], c)
        with pytest.raises(ValueError):
            accumulate_affine_moments(z, a, c[:1])
