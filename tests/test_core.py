"""Graph container, spectral helpers, and the matrix identities they rely on."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph, random_projection, random_psd
from lapsparse.core import (
    IncompatibleImagesError,
    PreconditionError,
    SingularUpdateError,
    Subspace,
    WeightedGraph,
    check_symmetric,
    eigh,
    eigvalsh,
    incidence_vector,
    laplacian,
    matrix_image,
    pencil_eigenvalues,
    pinv_sqrt,
    pseudoinverse,
    relative_condition_number,
    restrict,
    sm_pinv_update,
    symmetrize,
)


# ---------------------------------------------------------------------------
# symmetry helpers


def test_symmetrize_averages_with_transpose():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    assert s[0, 1] == 1.0


def test_check_symmetric_rejects_asymmetry_and_non_square():
    with pytest.raises(PreconditionError):
        check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(PreconditionError):
        check_symmetric(np.zeros((2, 3)))
    a = np.eye(3)
    assert check_symmetric(a) is not None


def test_check_symmetric_tolerance_scales_with_the_largest_entry():
    base = np.array([[2.0, 1.0], [1.0, 3.0]])
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    # relative asymmetry 3e-14 passes at any scale ...
    for scale in (1e-9, 1.0, 1e10):
        noisy = scale * (base + 1e-13 * skew)
        assert np.array_equal(check_symmetric(noisy), noisy)
    # ... and 3e-7 fails at any scale, including below the old absolute 1e-12
    for scale in (1e-9, 1.0, 1e10):
        with pytest.raises(PreconditionError):
            check_symmetric(scale * (base + 1e-6 * skew))
    assert check_symmetric(np.zeros((2, 2))) is not None
    # NaN compares false against any bound: it must fail, not pass
    for bad in (np.nan, np.inf):
        with pytest.raises(PreconditionError, match="NaN or infinite"):
            check_symmetric(np.array([[1.0, bad], [bad, 1.0]]))


# ---------------------------------------------------------------------------
# WeightedGraph container


def test_graph_canonicalizes_orientation_and_merges_parallels():
    g = WeightedGraph(4, [(2, 0, 1.5), (0, 2, 0.5), (3, 1, 1.0)])
    assert g.edges == ((0, 2, 2.0), (1, 3, 1.0))
    assert g.num_edges == 2
    assert g.edge_pairs() == {(0, 2), (1, 3)}
    assert g.weight_sum() == pytest.approx(3.0)


def test_graph_rejects_bad_edges():
    with pytest.raises(PreconditionError):
        WeightedGraph(3, [(0, 0, 1.0)])
    with pytest.raises(PreconditionError):
        WeightedGraph(3, [(0, 3, 1.0)])
    with pytest.raises(PreconditionError):
        WeightedGraph(3, [(0, 1, 0.0)])
    with pytest.raises(PreconditionError):
        WeightedGraph(3, [(0, 1, -2.0)])
    with pytest.raises(PreconditionError):
        WeightedGraph(-1, [])


def test_graph_scale_union_degrees():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    h = g.scale(2.0)
    assert h.edges == ((0, 1, 2.0), (1, 2, 4.0))
    u = g.union(WeightedGraph(3, [(0, 1, 0.5), (0, 2, 1.0)]))
    assert u.edges == ((0, 1, 1.5), (0, 2, 1.0), (1, 2, 2.0))
    assert np.allclose(g.weighted_degrees(), [1.0, 3.0, 2.0])
    with pytest.raises(PreconditionError):
        g.scale(0.0)
    with pytest.raises(PreconditionError):
        g.union(WeightedGraph(4, []))


def test_graph_components_and_subgraph():
    g = WeightedGraph(5, [(0, 1, 1.0), (3, 4, 1.0)])
    labels = g.component_labels()
    assert labels[0] == labels[1]
    assert labels[3] == labels[4]
    assert len({labels[0], labels[2], labels[3]}) == 3
    assert not g.is_connected()
    sub, old = g.subgraph([3, 4])
    assert sub.n == 2 and sub.edges == ((0, 1, 1.0),)
    assert list(old) == [3, 4]
    assert WeightedGraph(1, []).is_connected()
    assert WeightedGraph(0, []).is_connected()


def test_laplacian_quadratic_form_matches_edge_sum():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 12, extra_edges=10)
    lap = laplacian(g)
    x = rng.standard_normal(12)
    direct = sum(w * (x[u] - x[v]) ** 2 for u, v, w in g.edges)
    assert float(x @ lap @ x) == pytest.approx(direct, rel=1e-12)
    assert np.allclose(lap @ np.ones(12), 0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=30), st.integers())
def test_laplacian_of_connected_graph_has_simple_nullspace(n, extra, seed):
    rng = np.random.default_rng(seed % (2**32))
    g = random_connected_graph(rng, n, extra_edges=extra)
    vals = eigvalsh(laplacian(g))
    assert abs(vals[0]) <= 1e-9
    assert vals[1] > 1e-9


def test_incidence_vector_outer_product_is_edge_laplacian():
    b = incidence_vector(4, 1, 3)
    lap = laplacian(WeightedGraph(4, [(1, 3, 1.0)]))
    assert np.allclose(np.outer(b, b), lap)


# ---------------------------------------------------------------------------
# spectral helpers


def test_eigh_orders_ascending_and_reconstructs():
    rng = np.random.default_rng(0)
    a = random_psd(rng, 6)
    dec = eigh(a)
    assert np.all(np.diff(dec.eigenvalues) >= -1e-12)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
    assert np.allclose(recon, a, atol=1e-10)
    assert np.allclose(eigvalsh(a), dec.eigenvalues)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10), st.integers())
def test_pseudoinverse_is_an_involution_on_psd(d, null_dim, seed):
    rng = np.random.default_rng(seed % (2**32))
    r = max(d - null_dim, 0)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    vals = np.concatenate([rng.uniform(0.5, 2.0, size=r), np.zeros(d - r)])
    a = symmetrize((q * vals) @ q.T)
    adag = pseudoinverse(a)
    assert np.allclose(pseudoinverse(adag), a, atol=1e-8)
    # Penrose identities
    assert np.allclose(a @ adag @ a, a, atol=1e-9)
    assert np.allclose(adag @ a @ adag, adag, atol=1e-9)


def test_pinv_sqrt_squares_to_pseudoinverse():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 9, extra_edges=6)
    lap = laplacian(g)
    f = pinv_sqrt(lap)
    assert np.allclose(f @ f, pseudoinverse(lap), atol=1e-9)


def test_matrix_image_of_laplacian_is_ones_complement():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    img = matrix_image(laplacian(g))
    assert img.dim == 3
    assert np.allclose(img.basis.T @ np.ones(4), 0.0, atol=1e-9)


def test_sm_update_matches_dense_inverse_in_nonsingular_case():
    rng = np.random.default_rng(11)
    a = random_psd(rng, 7)
    v = rng.standard_normal(7)
    got = sm_pinv_update(np.linalg.inv(a), np.eye(7), v)
    want = np.linalg.inv(a + np.outer(v, v))
    assert np.allclose(got, want, atol=1e-9)


def test_sm_update_matches_dense_pseudoinverse_on_image():
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, 8, extra_edges=5)
    lap = laplacian(g)
    v = lap @ rng.standard_normal(8)  # in the image
    p = lap @ pseudoinverse(lap)
    got = sm_pinv_update(pseudoinverse(lap), p, v)
    want = np.linalg.pinv(lap + np.outer(v, v))
    assert np.allclose(got, want, atol=1e-8)


def test_sm_update_rejects_vanishing_denominator():
    a = np.diag([1.0, -1.0])
    v = np.array([0.0, 1.0])  # 1 + v^T A^-1 v = 0
    with pytest.raises(SingularUpdateError):
        sm_pinv_update(np.linalg.inv(a), np.eye(2), v)


def test_restrict_reads_off_diagonal_blocks():
    a = np.diag([1.0, 2.0, 3.0])
    s = Subspace(np.eye(3)[:, :2])
    assert np.allclose(restrict(a, s), np.diag([1.0, 2.0]))


def test_pencil_of_doubled_graph_is_constant_two():
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 10, extra_edges=8)
    vals = pencil_eigenvalues(laplacian(g.scale(2.0)), laplacian(g))
    assert vals.shape == (9,)
    assert np.allclose(vals, 2.0, atol=1e-9)


def test_relative_condition_number_identity_and_mismatch():
    rng = np.random.default_rng(19)
    g = random_connected_graph(rng, 8, extra_edges=4)
    lap = laplacian(g)
    assert relative_condition_number(lap, lap) == pytest.approx(1.0, abs=1e-9)
    disconnected = laplacian(WeightedGraph(8, [(0, 1, 1.0)]))
    with pytest.raises(IncompatibleImagesError):
        relative_condition_number(lap, disconnected)


# ---------------------------------------------------------------------------
# spectral inequalities the selection engine leans on


def test_projection_compression_weakly_majorizes():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = random_psd(rng, d, lo=0.0, hi=2.0)
        p = random_projection(rng, d, int(rng.integers(1, d + 1)))
        va = np.sort(eigvalsh(a))[::-1]
        vp = np.sort(eigvalsh(symmetrize(p @ a @ p)))[::-1]
        for r in range(1, d + 1):
            assert vp[:r].sum() <= va[:r].sum() + 1e-9


def test_trace_inner_product_bounded_by_top_eigenvalue_sum():
    rng = np.random.default_rng(29)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        diag = rng.uniform(0.0, 1.0, size=d)
        r = int(np.ceil(diag.sum()))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = symmetrize((q * diag) @ q.T)
        m = random_psd(rng, d, lo=0.0, hi=3.0)
        top = np.sort(eigvalsh(m))[::-1][:r].sum()
        assert float(np.sum(a * m)) <= top + 1e-8
