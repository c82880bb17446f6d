"""Tests for the dense kernel: scaled matmul and masked row softmax."""

import math

import numpy as np
import pytest

from sparsemm.errors import InvalidInputError, ShapeError
from sparsemm.tensor import CausalMask, Matrix, matmul_scaled, softmax_row_masked


def oracle_matmul_scaled(q, k, scale):
    """Naive triple-loop reference, independent of numpy's matmul path."""
    n, d = len(q), len(q[0])
    m = len(k)
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for c in range(d):
                acc += q[i][c] * k[j][c]
            out[i][j] = scale * acc
    return out


def oracle_softmax_masked(scores, row_offset):
    """Direct exp/sum evaluation with an explicit causal admissibility test."""
    out = []
    for i, row in enumerate(scores):
        pos = row_offset + i
        allowed = [j <= pos for j in range(len(row))]
        m = max(v for v, a in zip(row, allowed) if a)
        exps = [math.exp(v - m) if a else 0.0 for v, a in zip(row, allowed)]
        z = sum(exps)
        out.append([e / z for e in exps])
    return out


class TestMatrix:
    def test_shape_and_access(self):
        m = Matrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
        assert (m.rows, m.cols) == (2, 2)
        assert m.row(1).tolist() == [3.0, 4.0]

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Matrix.from_rows([[1.0, float("nan")]])
        with pytest.raises(InvalidInputError):
            Matrix.from_rows([[float("inf")]])

    def test_immutable_backing_array(self):
        m = Matrix.zeros(2, 2)
        with pytest.raises(ValueError):
            m.array[0, 0] = 1.0

    def test_construction_copies_input(self):
        src = np.ones((2, 2))
        m = Matrix(src)
        src[0, 0] = 5.0
        assert m.array[0, 0] == 1.0

    def test_equality(self):
        a = Matrix.from_rows([[1.0, 2.0]])
        assert a == Matrix.from_rows([[1.0, 2.0]])
        assert a != Matrix.from_rows([[1.0, 3.0]])


class TestMatmulScaled:
    def test_identity_basis_case(self):
        q = Matrix.from_rows([[1.0, 0.0]])
        k = Matrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
        out = matmul_scaled(q, k, 1.0 / math.sqrt(2))
        assert np.allclose(out.array, [[1.0 / math.sqrt(2), 0.0]], atol=1e-15)

    def test_zero_case(self):
        out = matmul_scaled(Matrix.zeros(1, 1), Matrix.zeros(1, 1), 1.0)
        assert out.array.tolist() == [[0.0]]

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(5, 4))
        scale = 1.0 / math.sqrt(4)
        got = matmul_scaled(Matrix(q), Matrix(k), scale).array
        want = np.array(oracle_matmul_scaled(q.tolist(), k.tolist(), scale))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_oracle_agreement_up_to_32x32(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m, d = rng.integers(1, 33, size=3)
            q = rng.normal(size=(n, d))
            k = rng.normal(size=(m, d))
            scale = 1.0 / math.sqrt(d)
            got = matmul_scaled(Matrix(q), Matrix(k), scale).array
            want = np.array(oracle_matmul_scaled(q.tolist(), k.tolist(), scale))
            denom = np.maximum(np.abs(want), 1.0)
            assert np.max(np.abs(got - want) / denom) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            matmul_scaled(Matrix.zeros(2, 3), Matrix.zeros(2, 4), 1.0)


class TestSoftmaxRowMasked:
    def test_single_element(self):
        out = softmax_row_masked(Matrix.from_rows([[5.0]]), CausalMask(), 0)
        assert out.array.tolist() == [[1.0]]

    def test_symmetric_causal_row(self):
        out = softmax_row_masked(Matrix.from_rows([[0.0, 0.0, 0.0]]), CausalMask(), 1)
        assert np.allclose(out.array, [[0.5, 0.5, 0.0]], atol=1e-15)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(4, 9)) * 3.0
        got = softmax_row_masked(Matrix(scores), CausalMask(), 5).array
        want = np.array(oracle_softmax_masked(scores.tolist(), 5))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_rows_sum_to_one_and_mask_zeros(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(n, 16))
            offset = int(rng.integers(0, m - n + 1))
            scores = rng.normal(size=(n, m)) * 10.0
            out = softmax_row_masked(Matrix(scores), CausalMask(), offset).array
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
            for i in range(n):
                assert (out[i, offset + i + 1:] == 0.0).all()
                assert (out[i, : offset + i + 1] > 0.0).all()

    def test_extreme_logits_are_stabilized(self):
        out = softmax_row_masked(Matrix.from_rows([[1000.0, 999.0]]), CausalMask(), 1).array
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0)

    def test_fully_masked_row_rejected(self):
        # row 0 sits at absolute position -1: no admissible key
        with pytest.raises(InvalidInputError):
            softmax_row_masked(Matrix.from_rows([[1.0, 2.0]]), CausalMask(), -1)


class TestCausalMask:
    def test_allows(self):
        mask = CausalMask()
        assert mask.allows(3, 3)
        assert mask.allows(3, 0)
        assert not mask.allows(3, 4)

    def test_admissible_grid(self):
        grid = CausalMask().admissible(2, 4, 1)
        assert grid.tolist() == [
            [True, True, False, False],
            [True, True, True, False],
        ]
