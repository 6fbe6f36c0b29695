"""Graph container, spectral helpers, and the matrix identities they rely on."""
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings, strategies as st

from conftest import eigh, random_connected_graph, random_projection, random_psd
from lapsparse import core
from lapsparse.cli import main
from lapsparse.core import (
    IncompatibleImagesError,
    NumericalError,
    PreconditionError,
    WeightedGraph,
    check_symmetric,
    eigvalsh,
    factor_laplacian,
    _block_laplacians,
    _edge_entries,
    _edge_laplacian,
    _numpy_openblas,
    laplacian,
    numpy_blas_threads,
    pencil_eigenvalues,
    pencil_range,
    symmetrize,
)


def random_multicomponent_graph(rng, sizes, decades=0.3, extra=3):
    """Disjoint random connected components of the given sizes on shuffled
    vertex ids, weights 10**U(0, decades)."""
    n = sum(sizes)
    ids = rng.permutation(n)
    edges, off = [], 0
    for size in sizes:
        comp = random_connected_graph(rng, size, extra_edges=extra)
        for u, v, _ in comp.edges:
            edges.append((int(ids[u + off]), int(ids[v + off]), float(10.0 ** rng.uniform(0, decades))))
        off += size
    return WeightedGraph(n, edges)


def indicators(g):
    labels = g.component_labels()
    return np.stack([(labels == c).astype(float) for c in range(int(labels.max()) + 1)], axis=1)


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


def test_graph_stores_read_only_arrays_and_builds_python_triples():
    g = WeightedGraph(4, [(np.int64(3), np.int32(1), np.float32(0.5)), (2, 0, 1)])
    assert g.u.dtype == np.int64 and g.v.dtype == np.int64 and g.w.dtype == np.float64
    assert g.edges == ((0, 2, 1.0), (1, 3, 0.5))
    assert all(type(x) is int for u, v, _ in g.edges for x in (u, v))
    assert all(type(w) is float for _, _, w in g.edges)
    with pytest.raises(ValueError):
        g.w[0] = 2.0
    assert g == WeightedGraph.from_arrays(4, g.u, g.v, g.w) and hash(g) == hash(g.scale(1.0))
    assert g != g.scale(2.0)


def test_parallel_copies_merge_to_the_left_to_right_sum():
    rng = np.random.default_rng(11)
    pairwise_differs = False
    for copies in (8, 9, 16, 33, 128, 1000):
        weights = 10.0 ** rng.uniform(-8, 8, size=copies)
        rows = [(0, 1, float(x)) if rng.random() < 0.5 else (1, 0, float(x)) for x in weights]
        rows += [(1, 2, 1.0), (0, 2, 3.0)]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        want = 0.0
        for u, v, x in rows:
            if {u, v} == {0, 1}:
                want += x
        got = WeightedGraph(3, rows).edges[0]
        assert got[:2] == (0, 1) and got[2].hex() == want.hex()
        in_order = np.array([x for u, v, x in rows if {u, v} == {0, 1}])
        pairwise_differs |= float(np.sum(in_order)) != want
    # the sums above are ones a pairwise summation gets wrong
    assert pairwise_differs


def test_graph_rejects_a_weighted_degree_that_overflows():
    with pytest.raises(PreconditionError, match="weighted degree of vertex 1 overflows"):
        WeightedGraph(3, [(0, 1, 1e308), (1, 2, 1e308)])
    with pytest.raises(PreconditionError, match="weighted degree of vertex 1 overflows"):
        WeightedGraph.from_arrays(3, [0, 1], [1, 2], [1e308, 1e308])
    with pytest.raises(PreconditionError, match="weighted degree of vertex 1 overflows"):
        WeightedGraph(3, [(0, 1, 1e308)]).union(WeightedGraph(3, [(1, 2, 1e308)]))
    # up to the largest float the degrees, the Laplacian's diagonal, pass
    half = float(np.finfo(float).max) / 2
    g = WeightedGraph(3, [(0, 1, half), (1, 2, half)])
    assert np.array_equal(np.diag(laplacian(g)), g.weighted_degrees())
    assert np.isfinite(laplacian(g)).all()


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
    # edges are keyed by u * n + v in int64, so n * n must fit in it
    for n in (2**63, 3_037_000_500):
        with pytest.raises(PreconditionError, match=f"vertex count {n} exceeds 3037000499"):
            WeightedGraph(n, [])
    with pytest.raises(PreconditionError, match="exceeds 3037000499"):
        WeightedGraph.from_arrays(10**23, np.array([0]), np.array([1]), np.array([1.0]))
    empty = np.zeros(0, dtype=np.int64)
    assert all(a.size == 0 for a in core._canonical_edges(3_037_000_499, empty, empty, np.zeros(0)))
    # each weight is finite, their merged sum is not
    with pytest.raises(PreconditionError, match="non-finite"):
        WeightedGraph(2, [(0, 1, 1e308), (1, 0, 1e308)])
    # the first failure in input order wins
    with pytest.raises(PreconditionError, match=r"parallel edges \(0,1\) merge"):
        WeightedGraph(3, [(0, 1, 1e308), (1, 2, 1e308), (1, 0, 1e308), (0, 5, 1.0), (2, 1, 1e308)])
    with pytest.raises(PreconditionError, match=r"edge \(0,5\) out of range"):
        WeightedGraph(3, [(0, 1, 1e308), (0, 5, 1.0), (1, 0, 1e308)])
    with pytest.raises(PreconditionError, match=r"edge \(0,1\) needs a positive finite weight, got nan"):
        WeightedGraph(3, [(1, 2, 1.0), (0, 1, float("nan"))])


def test_graph_rejects_non_integer_ids_and_bools():
    # ids are not truncated, and bools are neither ids nor weights
    for row in ((0.0, 1.9, 1.0), (0, 1.0, 1.0), (True, 2, 1.0), (0, 1, True), (0, 1, np.bool_(True)), (0, 1, "1.5")):
        with pytest.raises(PreconditionError, match=r"edge \(.*\) needs integer vertex ids and a real weight"):
            WeightedGraph(3, [(0, 2, 1.0), row])
    with pytest.raises(PreconditionError, match="integer vertex ids"):
        WeightedGraph.from_arrays(3, np.array([0.0]), np.array([1]), np.array([1.0]))
    with pytest.raises(PreconditionError, match=r"edge \(0,\d+\) out of range for n=3"):
        WeightedGraph(3, [(0, 2**70, 1.0)])
    g = WeightedGraph(3, [(np.int64(0), np.uint8(2), 1), (np.int16(2), 1, 0.5)])
    assert g.edges == ((0, 2, 1.0), (1, 2, 0.5))


def test_graph_vertex_count_must_be_an_integer():
    # n is not truncated either: numpy integers pass, bools and floats raise
    for n in (2.9, 2.0, np.float64(3.0), True, np.bool_(True), "3"):
        with pytest.raises(PreconditionError, match="vertex count must be an integer"):
            WeightedGraph(n, [(0, 1, 1.0)])
        with pytest.raises(PreconditionError, match="vertex count must be an integer"):
            WeightedGraph.from_arrays(n, np.array([0]), np.array([1]), np.array([1.0]))
    for n in (3, np.int64(3), np.uint8(3)):
        g = WeightedGraph.from_arrays(n, np.array([0]), np.array([2]), np.array([1.0]))
        assert g == WeightedGraph(n, [(0, 2, 1.0)]) and type(g.n) is int and g.n == 3


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


def test_graph_components():
    g = WeightedGraph(5, [(0, 1, 1.0), (3, 4, 1.0)])
    labels = g.component_labels()
    assert labels[0] == labels[1]
    assert labels[3] == labels[4]
    assert len({labels[0], labels[2], labels[3]}) == 3
    assert not g.is_connected()
    assert WeightedGraph(1, []).is_connected()
    assert WeightedGraph(0, []).is_connected()


@st.composite
def labelling_inputs(draw):
    """(n, pairs): random pairs plus paths through a shuffled vertex order,
    which take min-label propagation the most rounds; vertices on neither
    stay isolated, and no pairs at all gives an edgeless graph."""
    n = draw(st.integers(0, 60))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=n)) if n else []
    order = draw(st.permutations(range(n)))
    on_paths = draw(st.integers(0, n))
    cuts = draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=3))
    pairs += [(order[i - 1], order[i]) for i in range(1, on_paths) if i not in cuts]
    return n, [(a, b) for a, b in pairs if a != b]


@settings(max_examples=300, deadline=None)
@given(labelling_inputs())
@example((0, []))
@example((60, []))
@example((60, [(i, i + 1) for i in range(59)][::-1]))
@example((60, [(59 - i, 58 - i) for i in range(59)]))
def test_component_labels_match_scipy_connected_components(case):
    # numbered by smallest vertex, exactly as scipy numbers them, so the
    # factor blocks and every report keep their order
    n, pairs = case
    g = WeightedGraph(n, [(a, b, 1.0) for a, b in pairs])
    adjacency = scipy.sparse.coo_matrix((g.w, (g.u, g.v)), shape=(n, n))
    want = scipy.sparse.csgraph.connected_components(adjacency, directed=False)[1] if n else np.zeros(0)
    assert np.array_equal(g.component_labels(), want)


def test_laplacian_quadratic_form_matches_edge_sum():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 12, extra_edges=10)
    lap = laplacian(g)
    x = rng.standard_normal(12)
    direct = sum(w * (x[u] - x[v]) ** 2 for u, v, w in g.edges)
    assert float(x @ lap @ x) == pytest.approx(direct, rel=1e-12)
    assert np.allclose(lap @ np.ones(12), 0.0, atol=1e-12)


def _reference_laplacian(g: WeightedGraph) -> np.ndarray:
    """Reference: four scalar updates per edge, in edge order."""
    lap = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


def test_laplacian_matches_the_edge_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    graphs = [WeightedGraph(0, []), WeightedGraph(3, []), WeightedGraph(2, [(0, 1, 0.1)])]
    for _ in range(200):
        n = int(rng.integers(2, 50))
        graphs.append(
            random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3 * n)), wmin=1e-6, wmax=1e6)
        )
    for g in graphs:
        got, want = laplacian(g), _reference_laplacian(g)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # raw edge arrays, repeated pairs included, as the connectivity solver
    # and the rounding pass their candidate edges
    for g in graphs[3:103]:
        m = int(rng.integers(0, 3 * g.n))
        u = rng.integers(0, g.n, size=m)
        v = (u + rng.integers(1, g.n, size=m)) % g.n
        w = 10.0 ** rng.uniform(-6, 6, size=m)
        got = _edge_laplacian(g.n, _edge_entries(g.n, u, v), w)
        want = np.zeros((g.n, g.n))
        for a, b, x in zip(u, v, w):
            want[a, a] += x
            want[b, b] += x
            want[a, b] -= x
            want[b, a] -= x
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=30), st.integers())
def test_laplacian_of_connected_graph_has_simple_nullspace(n, extra, seed):
    rng = np.random.default_rng(seed % (2**32))
    g = random_connected_graph(rng, n, extra_edges=extra)
    vals = eigvalsh(laplacian(g))
    assert abs(vals[0]) <= 1e-9
    assert vals[1] > 1e-9


def test_incidence_vector_outer_product_is_edge_laplacian():
    b = np.array([0.0, 1.0, 0.0, -1.0])  # e_1 - e_3
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


# ---------------------------------------------------------------------------
# Laplacian factor


def embedded(factor):
    """The n x r matrix F of a whole factor: each block's F_c on its
    component's rows and its own columns, zero elsewhere, so L^+ = F F^T.
    Also checks that the blocks' vertex sets partition the vertices."""
    assert np.array_equal(np.sort(np.concatenate([b.vertices for b in factor.blocks])), np.arange(factor.n))
    f = np.zeros((factor.n, sum(b.f.shape[1] for b in factor.blocks)))
    col = 0
    for b in factor.blocks:
        assert b.f.shape == (b.vertices.size, b.vertices.size - 1)
        f[b.vertices, col:col + b.f.shape[1]] = b.f
        col += b.f.shape[1]
    return f


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4), st.integers())
def test_factor_pseudoinverse_is_an_involution_on_laplacians(sizes, seed):
    rng = np.random.default_rng(seed % (2**32))
    g = random_multicomponent_graph(rng, sizes)
    lap = laplacian(g)
    f = embedded(factor_laplacian(g))
    ldag = f @ f.T
    assert np.allclose(np.linalg.pinv(ldag), lap, atol=1e-8)
    # Penrose identities
    assert np.allclose(lap @ ldag @ lap, lap, atol=1e-9)
    assert np.allclose(ldag @ lap @ ldag, ldag, atol=1e-9)


def test_factor_f_ft_is_the_laplacian_pseudoinverse():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 9, extra_edges=6)
    factor = factor_laplacian(g)
    (block,) = factor.blocks
    assert np.array_equal(block.vertices, np.arange(9))
    lap = laplacian(g)
    assert np.allclose(block.f @ block.f.T, np.linalg.pinv(lap), atol=1e-9)
    assert np.allclose(block.f.T @ lap @ block.f, np.eye(8), atol=1e-9)
    (x,) = factor.pencil_matrices(g)
    assert np.trace(x) == pytest.approx(8.0, rel=1e-12)
    # Tr(L_H L^+) is the trace of the pencil matrix F^T L_H F, which is the
    # sum of the (L_H, L) pencil's eigenvalues
    h = random_connected_graph(rng, 9, extra_edges=2)
    (x,) = factor.pencil_matrices(h)
    assert np.array_equal(x, x.T)
    assert np.trace(x) == pytest.approx(float(np.trace(laplacian(h) @ np.linalg.pinv(lap))), rel=1e-9)
    assert np.trace(x) == pytest.approx(float(np.sum(factor.pencil_spectra(h)[0])), rel=1e-12)
    # split: Tr(L L^+) is the image rank, summed over the blocks
    g = random_multicomponent_graph(rng, [4, 1, 6])
    xs = factor_laplacian(g).pencil_matrices(g)
    assert sorted(x.shape for x in xs) == [(0, 0), (3, 3), (5, 5)]
    assert sum(np.trace(x) for x in xs) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(PreconditionError, match="vertices"):
        factor_laplacian(g).pencil_matrices(h)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4), st.integers())
def test_block_laplacians_are_the_slices_of_the_laplacian(sizes, seed):
    # each block is built from its own edges, to the floats of the slice
    rng = np.random.default_rng(seed % (2**32))
    g = random_multicomponent_graph(rng, sizes, decades=6.0)
    labels = g.component_labels()
    parts = [np.flatnonzero(labels == c) for c in range(len(sizes))]
    lap = laplacian(g)
    for vertices, block in zip(parts, _block_laplacians(g, parts)):
        assert np.array_equal(block, lap[np.ix_(vertices, vertices)])


def test_factor_image_is_orthogonal_to_component_indicators():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    factor = factor_laplacian(g)
    assert factor.blocks[0].f.shape == (4, 3) and len(factor.blocks) == 1
    assert np.allclose(factor.blocks[0].f.T @ np.ones(4), 0.0, atol=1e-9)
    rng = np.random.default_rng(9)
    g = random_multicomponent_graph(rng, [3, 1, 5])
    factor = factor_laplacian(g)
    assert embedded(factor).shape == (9, 6) and len(factor.blocks) == 3
    assert np.allclose(embedded(factor).T @ indicators(g), 0.0, atol=1e-9)
    labels = g.component_labels()
    for c, block in enumerate(factor.blocks):
        assert np.array_equal(block.vertices, np.flatnonzero(labels == c))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=12.0),
    st.integers(),
)
def test_factor_kernel_dimension_is_the_component_count(sizes, decades, seed):
    # Weights spread over up to twelve decades: the kernel comes from the
    # component labels, and each block keeps the factor's contract to the
    # rounding of the products that check it: F^T L F = I, F^T 1 = 0, and
    # F F^T is L^+, so L F F^T L reproduces L.
    rng = np.random.default_rng(seed % (2**32))
    g = random_multicomponent_graph(rng, sizes, decades=decades)
    factor = factor_laplacian(g)
    assert len(factor.blocks) == len(sizes)
    f = embedded(factor)
    assert f.shape == (g.n, g.n - len(sizes))
    lap = laplacian(g)
    tol = 1e-12 * g.n
    assert np.all(np.abs(f.T @ lap @ f - np.eye(f.shape[1])) <= tol * (np.abs(f).T @ np.abs(lap) @ np.abs(f)))
    assert np.all(np.abs(f.T @ indicators(g)) <= tol * (np.abs(f).T @ indicators(g)))
    lf = lap @ f
    assert np.max(np.abs(lf @ lf.T - lap)) <= tol * np.max(np.abs(lap))


def test_factor_rejects_a_kernel_eigenvalue_off_zero(monkeypatch, tmp_path, capsys):
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    # shift the block by I: its smallest eigenvalue is 1, of 4, not a kernel
    # one, and its row sums are 1, not zero
    original = core._block_laplacians
    monkeypatch.setattr(core, "_block_laplacians", lambda *a: [lap + np.eye(len(lap)) for lap in original(*a)])
    with pytest.raises(NumericalError, match="row sum of magnitude 1 exceeds"):
        factor_laplacian(g)
    # zero row sums and a positive diagonal, but a negative edge weight: every
    # grounded block has determinant 0.1 * 0.1 - 0.9 * 0.9 < 0
    indefinite = np.array([[0.1, -1.0, 0.9], [-1.0, 2.0, -1.0], [0.9, -1.0, 0.1]])
    monkeypatch.setattr(core, "_block_laplacians", lambda *a: [indefinite.copy()])
    with pytest.raises(NumericalError, match="component 0 of 1 is not positive definite"):
        factor_laplacian(g)
    path = tmp_path / "G.txt"
    path.write_text("n 3\n0 1 1\n1 2 1\n")
    assert main(["verify", str(path), str(path)]) == 4
    assert "is not positive definite" in capsys.readouterr().err
    # claiming three components for a connected graph: its edges join them
    monkeypatch.setattr(core, "_block_laplacians", original)
    monkeypatch.setattr(WeightedGraph, "component_labels", lambda self: np.arange(self.n))
    with pytest.raises(IncompatibleImagesError, match="between two components"):
        factor_laplacian(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.floats(min_value=0.0, max_value=6.0), st.integers())
def test_pencil_spectra_match_scipy_on_the_grounded_pair(n, decades, seed):
    # Grounding any one vertex of a connected G keeps the (L_H, L_G) pencil's
    # spectrum on the image: scipy's generalized solver on the grounded pair
    # is an independent reference for the Cholesky factor.
    rng = np.random.default_rng(seed % (2**32))
    g, h = (random_multicomponent_graph(rng, [n], decades=decades, extra=n) for _ in range(2))
    ground = int(rng.integers(n))
    keep = np.arange(n) != ground
    a, b = (laplacian(x)[np.ix_(keep, keep)] for x in (h, g))
    expected = scipy.linalg.eigh(a, b, eigvals_only=True)
    (vals,) = factor_laplacian(g).pencil_spectra(h)
    assert np.max(np.abs(vals - expected)) <= 1e-9 * np.max(expected)


def test_numpy_blas_threads_sets_and_restores_the_count():
    blas = _numpy_openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    count = blas[1]
    before = count()
    with numpy_blas_threads(1):
        assert count() == 1
    assert count() == before
    with pytest.raises(RuntimeError), numpy_blas_threads(1):
        raise RuntimeError("restored on the way out")
    assert count() == before


def test_pencil_of_doubled_graph_is_constant_two():
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 10, extra_edges=8)
    vals = pencil_eigenvalues(laplacian(g.scale(2.0)), laplacian(g))
    assert vals.shape == (9,)
    assert np.allclose(vals, 2.0, atol=1e-9)


def relative_condition_number(g, h):
    """kappa / c of the (L_G, L_H) pencil range."""
    c, kappa = pencil_range(g, h)
    return kappa / c


def test_relative_condition_number_identity_and_mismatch():
    rng = np.random.default_rng(19)
    g = random_connected_graph(rng, 8, extra_edges=4)
    assert relative_condition_number(g, g) == pytest.approx(1.0, abs=1e-9)
    assert relative_condition_number(g.scale(3.0), g) == pytest.approx(1.0, abs=1e-9)
    disconnected = WeightedGraph(8, [(0, 1, 1.0)])
    with pytest.raises(IncompatibleImagesError):
        relative_condition_number(g, disconnected)
    with pytest.raises(IncompatibleImagesError):
        relative_condition_number(disconnected, g)
    # same components under different labels share one image
    two = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 2.0)])
    swapped = WeightedGraph(4, [(2, 3, 1.0), (0, 1, 5.0)])
    assert pencil_range(swapped, two) == pytest.approx((0.5, 5.0), rel=1e-12)
    with pytest.raises(IncompatibleImagesError):
        pencil_range(two, WeightedGraph(4, [(0, 2, 1.0), (1, 3, 1.0)]))
    assert relative_condition_number(two, swapped) == pytest.approx(5.0 * 2.0, rel=1e-12)
    # H on 5 vertices against G on 4 is a wrong input pair, not two images
    # that differ, against G or against its factor alike
    five = WeightedGraph(5, [(0, 1, 1.0), (2, 3, 2.0), (3, 4, 1.0)])
    for against in (two, factor_laplacian(two)):
        with pytest.raises(PreconditionError, match=r"^vertex counts differ: 4 vs 5$") as info:
            pencil_range(five, against)
        assert type(info.value) is PreconditionError


def test_pencil_against_a_factor_rejects_a_graph_coupling_two_components():
    two = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 2.0)])
    factor = factor_laplacian(two)
    assert np.allclose(np.concatenate(factor.pencil_spectra(two.scale(3.0))), 3.0, atol=1e-12)
    path = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(IncompatibleImagesError, match="between two components"):
        factor.pencil_spectra(path)
    with pytest.raises(IncompatibleImagesError, match="between two components"):
        factor.pencil_matrices(path)
    with pytest.raises(PreconditionError, match="vertices"):
        factor.pencil_spectra(WeightedGraph(5, [(0, 1, 1.0)]))
    # a raw PSD matrix is one block, so it has no components to keep apart
    assert pencil_eigenvalues(laplacian(path), laplacian(two)).shape == (2,)
    with pytest.raises(PreconditionError, match="wide"):
        pencil_eigenvalues(laplacian(path), np.eye(3))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3), st.integers())
def test_pencil_spectra_are_invariant_under_vertex_relabeling(sizes, seed):
    rng = np.random.default_rng(seed % (2**32))
    b = random_multicomponent_graph(rng, sizes, decades=2.0)
    # A has B's components: against a factor, a pencil splits over them
    labels, edges = b.component_labels(), []
    for c in range(len(sizes)):
        vertices = np.flatnonzero(labels == c)
        comp = random_connected_graph(rng, vertices.size, extra_edges=vertices.size)
        edges += [(int(vertices[u]), int(vertices[v]), w) for u, v, w in comp.edges]
    a = WeightedGraph(b.n, edges)
    perm = rng.permutation(b.n)

    def relabel(g):
        return WeightedGraph(g.n, [(int(perm[u]), int(perm[v]), w) for u, v, w in g.edges])

    vals = np.sort(np.concatenate(factor_laplacian(b).pencil_spectra(a)))
    moved = np.sort(np.concatenate(factor_laplacian(relabel(b)).pencil_spectra(relabel(a))))
    assert vals.shape == (b.n - len(sizes),)
    scale = max(1.0, float(np.max(np.abs(vals)))) if vals.size else 1.0
    assert np.max(np.abs(moved - vals), initial=0.0) <= 1e-9 * scale


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
