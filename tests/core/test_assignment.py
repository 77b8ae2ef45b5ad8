"""Tests for signed permutations (the A_pi algebra)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.stats.switching import BitStatistics


def random_perm_strategy(n_max=8):
    return st.integers(2, n_max).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    ).map(lambda t: SignedPermutation.from_sequence(t[0], t[1]))


class TestConstruction:
    def test_identity(self):
        p = SignedPermutation.identity(3)
        assert p.line_of_bit == (0, 1, 2)
        assert p.inverted == (False, False, False)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            SignedPermutation((0, 0, 1), (False,) * 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SignedPermutation((0, 1), (False,))

    def test_paper_example_matrix(self):
        # Eq. 5: bit 3 negated -> line 1, bit 1 -> line 2, bit 2 -> line 3
        # (1-indexed in the paper).
        a = np.array([
            [0, 0, -1],
            [1, 0, 0],
            [0, 1, 0],
        ])
        p = SignedPermutation.from_matrix(a)
        assert p.line_of_bit == (1, 2, 0)
        assert p.inverted == (False, False, True)
        np.testing.assert_allclose(p.matrix(), a)

    def test_from_matrix_rejects_invalid(self):
        with pytest.raises(ValueError):
            SignedPermutation.from_matrix(np.array([[1, 1], [0, 1]]))
        with pytest.raises(ValueError):
            SignedPermutation.from_matrix(np.array([[2, 0], [0, 1]]))

    def test_random_without_inversions(self):
        rng = np.random.default_rng(0)
        p = SignedPermutation.random(6, rng)
        assert not any(p.inverted)


@settings(max_examples=50, deadline=None)
@given(random_perm_strategy())
def test_matrix_roundtrip(perm):
    again = SignedPermutation.from_matrix(perm.matrix())
    assert again == perm


@settings(max_examples=50, deadline=None)
@given(random_perm_strategy())
def test_matrix_is_signed_orthogonal(perm):
    a = perm.matrix()
    np.testing.assert_allclose(a @ a.T, np.eye(perm.n_bits), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(random_perm_strategy())
def test_inverse_matrix_is_transpose(perm):
    np.testing.assert_allclose(perm.inverse().matrix(), perm.matrix().T)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.data())
def test_compose_matches_matrix_product(n, data):
    outer = data.draw(
        st.permutations(range(n)).map(SignedPermutation.from_sequence)
    )
    inner_lines = data.draw(st.permutations(range(n)))
    inner_inv = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    inner = SignedPermutation.from_sequence(inner_lines, inner_inv)
    composed = outer.compose(inner)
    np.testing.assert_allclose(
        composed.matrix(), outer.matrix() @ inner.matrix()
    )


@settings(max_examples=50, deadline=None)
@given(random_perm_strategy())
def test_bit_of_line_inverts_line_of_bit(perm):
    for bit, line in enumerate(perm.line_of_bit):
        assert perm.bit_of_line[line] == bit


class TestApplyToBits:
    def test_routing_and_inversion(self):
        bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        # bit0 -> line 2 inverted, bit1 -> line 0, bit2 -> line 1
        p = SignedPermutation.from_sequence([2, 0, 1], [True, False, False])
        routed = p.apply_to_bits(bits)
        np.testing.assert_array_equal(routed[:, 0], bits[:, 1])
        np.testing.assert_array_equal(routed[:, 1], bits[:, 2])
        np.testing.assert_array_equal(routed[:, 2], 1 - bits[:, 0])

    def test_rejects_wrong_width(self):
        p = SignedPermutation.identity(3)
        with pytest.raises(ValueError):
            p.apply_to_bits(np.zeros((4, 2), dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    @pytest.mark.parametrize("samples", [0, 1, 17])
    def test_matches_per_column_reference(self, dtype, samples):
        rng = np.random.default_rng(samples)
        for n in (1, 2, 5, 9):
            bits = rng.integers(0, 2, (samples, n)).astype(dtype)
            for _ in range(4):
                p = SignedPermutation.random(n, rng, with_inversions=True)
                want = np.empty_like(bits)
                for bit, (line, inv) in enumerate(
                    zip(p.line_of_bit, p.inverted)
                ):
                    column = bits[:, bit]
                    want[:, line] = (1 - column) if inv else column
                original = bits.copy()
                routed = p.apply_to_bits(bits)
                assert routed.dtype == bits.dtype
                np.testing.assert_array_equal(routed, want)
                np.testing.assert_array_equal(bits, original)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 2**31 - 1),
)
def test_statistics_transform_matches_stream_transform(n, seed):
    """The Eq. 4 algebra must agree with physically rerouting the stream."""
    rng = np.random.default_rng(seed)
    bits = (rng.random((60, n)) < 0.4).astype(np.uint8)
    perm = SignedPermutation.from_sequence(
        rng.permutation(n), rng.integers(0, 2, n).astype(bool)
    )
    via_algebra = perm.apply_to_statistics(BitStatistics.from_stream(bits))
    via_stream = BitStatistics.from_stream(perm.apply_to_bits(bits))
    np.testing.assert_allclose(
        via_algebra.self_switching, via_stream.self_switching, atol=1e-12
    )
    np.testing.assert_allclose(
        via_algebra.coupling, via_stream.coupling, atol=1e-12
    )
    np.testing.assert_allclose(
        via_algebra.probabilities, via_stream.probabilities, atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_statistics_transform_matches_eq4_matrices(n, seed):
    """T'_s and T'_c equal the explicit congruences of Eq. 4."""
    rng = np.random.default_rng(seed)
    bits = (rng.random((50, n)) < 0.5).astype(np.uint8)
    stats = BitStatistics.from_stream(bits)
    perm = SignedPermutation.from_sequence(
        rng.permutation(n), rng.integers(0, 2, n).astype(bool)
    )
    a = perm.matrix()
    transformed = perm.apply_to_statistics(stats)
    np.testing.assert_allclose(
        transformed.t_s, a @ stats.t_s @ a.T, atol=1e-12
    )
    np.testing.assert_allclose(
        transformed.t_c, a @ stats.t_c @ a.T, atol=1e-12
    )


class TestConstraints:
    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AssignmentConstraints(no_invert=frozenset({5})).validate_for(3)
        with pytest.raises(ValueError):
            AssignmentConstraints(pinned={0: 9}).validate_for(3)

    def test_validate_rejects_duplicate_pinned_line(self):
        with pytest.raises(ValueError):
            AssignmentConstraints(pinned={0: 1, 2: 1}).validate_for(3)

    def test_allows(self):
        c = AssignmentConstraints(no_invert=frozenset({0}), pinned={1: 2})
        good = SignedPermutation.from_sequence([0, 2, 1], [False, True, False])
        bad_inv = SignedPermutation.from_sequence([0, 2, 1], [True, False, False])
        bad_pin = SignedPermutation.identity(3)
        assert c.allows(good)
        assert not c.allows(bad_inv)
        assert not c.allows(bad_pin)

    def test_free_and_invertible(self):
        c = AssignmentConstraints(no_invert=frozenset({1}), pinned={0: 0})
        assert c.free_bits(3) == (1, 2)
        assert c.invertible_bits(3) == (0, 2)
