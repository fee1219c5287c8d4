"""Similarity graphs, the normalized Laplacian, the eigh-based eigensolver
(checked against the Jacobi and characteristic-polynomial oracles), and
spectral codes."""

from unittest import mock

import numpy as np
import pytest

from ecoc import _util, spectral
from ecoc.codes import CodeKind
from ecoc.spectral import (
    ConvergenceError,
    EigenDecomposition,
    SimilarityGraph,
    load_similarity_csv,
    normalized_laplacian,
    save_similarity_csv,
    similarity_from_class_means,
    spectral_code,
    symmetric_eigen,
)
from oracles import brute_force_eigenvalues, class_mean_similarity_masked, jacobi_eigen


def random_similarity(n: int, seed: int) -> SimilarityGraph:
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(w)


def two_block_graph(block: int = 2, across: float = 0.0) -> SimilarityGraph:
    n = 2 * block
    w = np.full((n, n), across)
    w[:block, :block] = 1.0
    w[block:, block:] = 1.0
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(w)


class TestSimilarityFromClassMeans:
    def test_identical_means_full_weight(self):
        feats = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 5.0]])
        g = similarity_from_class_means(feats, np.array([0, 1, 2]), 3)
        assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_opposite_means_zero_weight(self):
        feats = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0]])
        g = similarity_from_class_means(feats, np.array([0, 1, 2]), 3)
        assert g.weights[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_unit_axis_means(self):
        """Means e1, e1, e2: same-direction pair weighs 1, orthogonal pair 0.5."""
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        g = similarity_from_class_means(feats, np.array([0, 1, 2]), 3)
        assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert g.weights[0, 2] == pytest.approx(0.5, abs=1e-12)
        assert g.weights[1, 2] == pytest.approx(0.5, abs=1e-12)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="class 2"):
            similarity_from_class_means(np.eye(2), np.array([0, 1]), 3)

    def test_zero_norm_mean_rejected(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match=r"zero vector \(class means \[0\]\)$"):
            similarity_from_class_means(feats, np.array([0, 0, 1, 1]), 2)

    def test_overflowing_mean_norm_rejected(self):
        """A mean whose squares overflow would divide to a zero row and a
        flat graph; it is refused by class, with no numpy warning."""
        feats = np.array([[1.0, 0.0], [0.0, 3e200], [2e200, 2e200]])
        with pytest.raises(ValueError, match=r"not finite \(class means \[1, 2\]\)$"):
            similarity_from_class_means(feats, np.array([0, 1, 2]), 3)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_classes_rejected(self, n):
        with pytest.raises(ValueError, match=f"^need at least 2 classes, got n={n}$"):
            similarity_from_class_means(np.ones((3, 2)), np.zeros(3, dtype=int), n)

    def test_missing_class_found_before_allocating_means(self):
        """Labels 0, 0, 10**15 would need petabytes of class means; the gap
        at class 1 is reported first."""
        labels = np.array([0, 0, 10**15])
        with pytest.raises(ValueError, match="^class 1 has no samples$"):
            similarity_from_class_means(np.ones((3, 2)), labels, 10**15 + 1)

    @pytest.mark.parametrize("labels, missing", [([1, 2, 1], 0), ([0, 2, 0], 1), ([0, 1, 1], 2),
                                                 ([-1, 0, 5], 1)])
    def test_first_missing_class_reported(self, labels, missing):
        with pytest.raises(ValueError, match=f"^class {missing} has no samples$"):
            similarity_from_class_means(np.ones((3, 2)), np.array(labels), 3)

    def test_mean_noise_averages_out(self):
        rng = np.random.default_rng(0)
        feats = np.vstack([
            [3.0, 0.0] + rng.normal(0, 0.01, size=2) for _ in range(20)
        ] + [
            [0.0, 3.0] + rng.normal(0, 0.01, size=2) for _ in range(20)
        ])
        labels = np.repeat([0, 1], 20)
        g = similarity_from_class_means(feats, labels, 2)
        assert g.weights[0, 1] == pytest.approx(0.5, abs=0.01)


    @pytest.mark.parametrize("n", [64, 150])
    def test_tiles_give_the_whole_matrix_bytes(self, n):
        """With 64-row tiles (the last one short at n = 150) for the
        symmetry check, W has the bytes of the whole-matrix
        ``(cos + cos.T) / 2`` form: the Gram is exactly symmetric already."""
        rng = np.random.default_rng(n)
        feats = rng.standard_normal((3 * n, 5))
        labels = np.arange(3 * n) % n
        with mock.patch.object(_util, "ROW_BLOCK_ELEMS", 0):
            w = similarity_from_class_means(feats, labels, n).weights
        assert w.tobytes() == class_mean_similarity_masked(feats, labels, n).tobytes()


class TestSimilarityGraphValidation:
    def test_rejects_asymmetry(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SimilarityGraph(w)

    @pytest.mark.parametrize("i, j", [(0, 149), (149, 0), (70, 140), (100, 63)])
    def test_rejects_asymmetry_in_any_tile(self, i, j):
        """The tile-by-tile check sees one asymmetric pair anywhere,
        across 64-row tiles."""
        w = random_similarity(150, 0).weights.copy()
        w[i, j] += 0.25
        with mock.patch.object(_util, "ROW_BLOCK_ELEMS", 0):
            with pytest.raises(ValueError, match="symmetric"):
                SimilarityGraph(w)

    def test_rejects_negative_weights(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            SimilarityGraph(w)

    def test_rejects_nonzero_diagonal(self):
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            SimilarityGraph(w)

    def test_rejects_isolated_node(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ValueError, match="zero degree"):
            SimilarityGraph(w)

    def test_callers_writable_array_is_copied(self):
        """The caller's array stays writable, and writing to it leaves the
        graph as it was."""
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = SimilarityGraph(w)
        assert w.flags.writeable and not g.weights.flags.writeable
        w[0, 1] = 5.0
        assert g.weights[0, 1] == 1.0

    def test_read_only_array_is_kept_without_a_copy(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        w.setflags(write=False)
        assert SimilarityGraph(w).weights is w


class TestAsymmetry:
    """One tiled ``max |a - a.T|`` serves all three symmetry checks."""

    @pytest.mark.parametrize("i, j", [(0, 149), (149, 0), (70, 140), (100, 63), (5, 6)])
    def test_tiles_give_the_whole_matrix_value(self, i, j):
        """Across 64-row tiles (the last one short at n = 150), the tiled
        value has the bits of the whole-matrix one."""
        a = np.random.default_rng(i + j).standard_normal((150, 150))
        a = a + a.T
        a[i, j] += 0.375
        a[j, i] -= 1e-3
        with mock.patch.object(_util, "ROW_BLOCK_ELEMS", 0):
            assert spectral._asymmetry(a) == np.abs(a - a.T).max()
        assert spectral._asymmetry(a) == np.abs(a - a.T).max()

    def test_symmetric_matrix_gives_zero(self):
        assert spectral._asymmetry(random_similarity(150, 3).weights) == 0.0
        assert spectral._asymmetry(np.empty((0, 0))) == 0.0

    def test_similarity_graph_needs_exact_symmetry(self):
        w = random_similarity(4, 1).weights.copy()
        w[1, 2] = np.nextafter(w[2, 1], 2.0)
        with pytest.raises(ValueError, match="^similarity weights must be exactly symmetric$"):
            SimilarityGraph(w)

    @pytest.mark.parametrize("gap, ok", [(1e-12, True), (2e-12, False)])
    def test_eigen_tolerance(self, gap, ok):
        a = np.array([[2.0, 0.5], [0.5 + gap, 1.0]])
        if ok:
            symmetric_eigen(a)
        else:
            with pytest.raises(ValueError, match="^matrix is not symmetric within 1e-12$"):
                symmetric_eigen(a)

    @pytest.mark.parametrize("gap, ok", [("0.5000000005", True), ("0.500000002", False)])
    def test_csv_tolerance(self, tmp_path, gap, ok):
        path = str(tmp_path / "sim.csv")
        with open(path, "w") as fh:
            fh.write(f"0.0,0.5\n{gap},0.0\n")
        if ok:
            assert load_similarity_csv(path).weights[0, 1] == (0.5 + float(gap)) / 2
        else:
            with pytest.raises(ValueError, match="asymmetric beyond 1e-9$"):
                load_similarity_csv(path)


class TestNormalizedLaplacian:
    def test_two_node_graph(self):
        g = SimilarityGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lap = normalized_laplacian(g)
        assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        eig = symmetric_eigen(lap)
        assert np.allclose(eig.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_disconnected_components_double_zero(self):
        """Two positive-degree components give eigenvalue 0 multiplicity 2."""
        lap = normalized_laplacian(two_block_graph(2))
        roots = brute_force_eigenvalues(lap)
        assert np.sum(np.abs(roots) < 1e-8) == 2

    def test_smallest_eigenvalue_zero(self):
        for seed in range(8):
            g = random_similarity(3 + seed, seed)
            eig = symmetric_eigen(normalized_laplacian(g))
            assert abs(eig.eigenvalues[0]) < 1e-8

    def test_positive_semidefinite_and_bounded(self):
        for seed in range(8):
            g = random_similarity(4 + seed, 100 + seed)
            eig = symmetric_eigen(normalized_laplacian(g))
            assert eig.eigenvalues[0] >= -1e-8
            assert eig.eigenvalues[-1] <= 2.0 + 1e-8

    def test_output_exactly_symmetric(self):
        lap = normalized_laplacian(random_similarity(9, 42))
        assert np.array_equal(lap, lap.T)


class TestSymmetricEigen:
    def test_textbook_two_by_two(self):
        eig = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)
        v = eig.eigenvectors[:, 0]
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(v, expected, atol=1e-12) or np.allclose(
            v, -expected, atol=1e-12
        )

    def test_diagonal_input_sorted(self):
        eig = symmetric_eigen(np.diag([5.0, 1.0, 3.0]))
        assert np.allclose(eig.eigenvalues, [1.0, 3.0, 5.0], atol=1e-15)
        expected = np.eye(3)[:, [1, 2, 0]]
        assert np.allclose(np.abs(eig.eigenvectors), expected, atol=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2
        eig = symmetric_eigen(a)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        rel = np.linalg.norm(recon - a) / np.linalg.norm(a)
        assert rel < 1e-8

    def test_matches_characteristic_polynomial_roots(self):
        """Independent oracle: cofactor-expansion char poly + companion roots."""
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for _ in range(10):
                a = rng.standard_normal((n, n))
                a = (a + a.T) / 2
                eig = symmetric_eigen(a)
                ref = brute_force_eigenvalues(a)
                assert np.allclose(eig.eigenvalues, ref, atol=1e-8)

    def test_eigen_pairs_and_orthogonality(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2
        eig = symmetric_eigen(a)
        scale = np.linalg.norm(a)
        for i in range(8):
            v = eig.eigenvectors[:, i]
            assert np.linalg.norm(a @ v - eig.eigenvalues[i] * v) < 1e-8 * scale
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(8)).max() < 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_one_by_one(self):
        eig = symmetric_eigen(np.array([[4.0]]))
        assert eig.eigenvalues[0] == 4.0
        assert eig.eigenvectors[0, 0] == 1.0

    def test_zero_matrix_converges(self):
        eig = symmetric_eigen(np.zeros((3, 3)))
        assert np.array_equal(eig.eigenvalues, np.zeros(3))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 7))
        a = (a + a.T) / 2
        e1 = symmetric_eigen(a)
        e2 = symmetric_eigen(a)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_matches_jacobi_on_laplacians(self):
        """Sizes the characteristic-polynomial oracle cannot reach: eigenvalues
        and (up to sign) eigenvectors agree with the cyclic Jacobi reference."""
        for n in (5, 16, 64):
            lap = normalized_laplacian(random_similarity(n, 200 + n))
            eig = symmetric_eigen(lap)
            ref_values, ref_vectors = jacobi_eigen(lap)
            assert np.abs(eig.eigenvalues - ref_values).max() < 1e-10
            # random dense graphs have simple spectra, so each eigenvector is
            # fixed up to sign
            overlap = np.abs(np.sum(eig.eigenvectors * ref_vectors, axis=0))
            assert np.abs(overlap - 1.0).max() < 1e-8

    def test_solver_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            symmetric_eigen(np.eye(3))
        assert issubclass(ConvergenceError, RuntimeError)


class TestJacobiOracle:
    """The Jacobi reference is itself checked against polynomial roots."""

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            for _ in range(10):
                a = rng.standard_normal((n, n))
                a = (a + a.T) / 2
                values, vectors = jacobi_eigen(a)
                assert np.allclose(values, brute_force_eigenvalues(a), atol=1e-8)
                assert np.allclose(a @ vectors, vectors * values, atol=1e-8)
                assert np.allclose(vectors.T @ vectors, np.eye(n), atol=1e-12)


class TestSpectralCode:
    def test_two_blocks_single_bit_separates(self):
        code = spectral_code(two_block_graph(2), 1)
        bit = code.values[:, 0]
        signs = np.where(bit > 0, 1, -1)
        assert signs[0] == signs[1]
        assert signs[2] == signs[3]
        assert signs[0] != signs[2]

    def test_connected_two_blocks_single_bit_separates(self):
        code = spectral_code(two_block_graph(3, across=0.05), 1)
        signs = np.where(code.values[:, 0] > 0, 1, -1)
        assert len(set(signs[:3])) == 1
        assert len(set(signs[3:])) == 1
        assert signs[0] != signs[3]

    def test_full_length_code_rows_distinct(self):
        g = random_similarity(100, 0)
        code = spectral_code(g, 99)
        assert code.values.shape == (100, 99)
        assert np.unique(code.values, axis=0).shape[0] == 100

    def test_too_many_bits_rejected(self):
        """k = n is refused by a key error on ``k`` (a ValueError), before
        the eigensolve."""
        g = random_similarity(5, 1)
        with mock.patch.object(spectral, "symmetric_eigen", side_effect=AssertionError):
            with pytest.raises(_util.BadKeyError) as exc:
                spectral_code(g, g.n)
        assert isinstance(exc.value, ValueError)
        assert (exc.value.key, str(exc.value)) == (
            "k", "k must be at most n-1=4 for a spectral code, got 5")

    def test_kind_and_defaults(self):
        code = spectral_code(random_similarity(6, 2), 3)
        assert code.kind is CodeKind.SPECTRAL
        assert code.normalize_rows is True

    def test_columns_orthonormal(self):
        code = spectral_code(random_similarity(10, 3), 6)
        gram = code.values.T @ code.values
        assert np.abs(gram - np.eye(6)).max() < 1e-8

    def test_columns_order_by_ascending_eigenvalue(self):
        g = random_similarity(8, 4)
        lap = normalized_laplacian(g)
        eig = symmetric_eigen(lap)
        code = spectral_code(g, 5)
        for j in range(5):
            lam = eig.eigenvalues[j + 1]
            v = code.values[:, j]
            assert np.linalg.norm(lap @ v - lam * v) < 1e-8 * np.linalg.norm(lap)

    def test_sign_convention_first_nonzero_positive(self):
        code = spectral_code(random_similarity(7, 5), 4)
        for j in range(4):
            col = code.values[:, j]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0

    @pytest.mark.parametrize("n, seed", [(7, 5), (12, 1), (30, 9)])
    def test_sign_fix_matches_per_column_scan(self, n, seed):
        """Bit for bit, signed zeros included, the code equals the
        eigenvectors flipped one column at a time."""
        g = random_similarity(n, seed)
        columns = symmetric_eigen(normalized_laplacian(g)).eigenvectors[:, 1:n].copy()
        for j in range(n - 1):
            col = columns[:, j]
            nonzero = np.flatnonzero(np.abs(col) > 1e-12)
            if nonzero.size and col[nonzero[0]] < 0:
                columns[:, j] = -col
        assert spectral_code(g, n - 1).values.tobytes() == columns.tobytes()


class TestSimilarityCsv:
    def test_round_trip(self, tmp_path):
        g = random_similarity(5, 8)
        path = str(tmp_path / "sim.csv")
        save_similarity_csv(g, path)
        back = load_similarity_csv(path)
        assert np.array_equal(back.weights, g.weights)

    def test_small_asymmetry_averaged(self, tmp_path):
        path = str(tmp_path / "sim.csv")
        with open(path, "w") as fh:
            fh.write("0.0,0.5\n0.5000000001,0.0\n")
        g = load_similarity_csv(path)
        assert g.weights[0, 1] == g.weights[1, 0]

    def test_large_asymmetry_rejected(self, tmp_path):
        path = str(tmp_path / "sim.csv")
        with open(path, "w") as fh:
            fh.write("0.0,0.5\n0.9,0.0\n")
        with pytest.raises(ValueError, match="asymmetric"):
            load_similarity_csv(path)

    def test_non_numeric_rejected_with_line(self, tmp_path):
        path = str(tmp_path / "sim.csv")
        with open(path, "w") as fh:
            fh.write("0.0,0.5\n0.5,oops\n")
        with pytest.raises(ValueError, match=":2"):
            load_similarity_csv(path)

    def test_ragged_row_rejected_with_line(self, tmp_path):
        path = str(tmp_path / "sim.csv")
        with open(path, "w") as fh:
            fh.write("0.0,0.5\n0.5\n")
        with pytest.raises(ValueError, match=r"sim\.csv:2: expected 2 values, found 1"):
            load_similarity_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_rejected_with_line(self, tmp_path, token):
        path = str(tmp_path / "sim.csv")
        with open(path, "w") as fh:
            fh.write(f"0.0,0.5,0.5\n0.5,0.0,{token}\n0.5,{token},0.0\n")
        with pytest.raises(ValueError, match=r"sim\.csv:2: non-finite similarity value"):
            load_similarity_csv(path)


def test_eigendecomposition_fields():
    eig = symmetric_eigen(np.diag([2.0, 1.0]))
    assert isinstance(eig, EigenDecomposition)
    assert eig.eigenvalues.shape == (2,)
    assert eig.eigenvectors.shape == (2, 2)
