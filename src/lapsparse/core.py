"""Weighted graphs and dense symmetric-matrix utilities.

Everything downstream works on dense numpy arrays at desk scale (n up to a
few hundred): Laplacians, eigendecompositions, one factor per Laplacian
(F with F F^T its pseudoinverse, one block per connected component), and
PSD pencils. A factor turns a graph H into one pencil matrix per component
(`LaplacianFactor.pencil_matrices`), whose spectra, extremes and traces
are everything a command measures of H.

Solvers: a Laplacian factor takes one numpy Cholesky factorization per
component and no eigensolve. Pencils, the selection engine and the
connectivity solver use numpy's LAPACK eigensolvers (`_decompose`, `_spectrum`).
`eigvalsh` uses scipy's; no command's solve path calls it, so it gives an
independent check. It is the package's only use of scipy, which it imports
when called: scipy is a test dependency, not a runtime one.

`_edge_laplacian` builds every Laplacian from a WeightedGraph, whose weighted
degrees are finite: finite and exactly symmetric by construction, they need
no symmetry check, which only matrices that callers pass in get.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Rank decisions for raw PSD matrices: eigenvalues below REL_RANK_TOL *
# lambda_max count as zero. Laplacian factors take their rank from the graph.
REL_RANK_TOL = 1e-10
# A Laplacian block's row sums must lie within KERNEL_TOL * its largest
# diagonal entry of zero; rounding leaves them near n * 1e-16 times that.
KERNEL_TOL = 1e-10
# Inputs claiming symmetry must satisfy max |A - A^T| <= SYMMETRY_TOL * max |A|.
SYMMETRY_TOL = 1e-12


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ToolkitError):
    """Malformed input file or value, or a file that cannot be read or written."""


class PreconditionError(ToolkitError):
    """An operation's documented precondition does not hold."""


class NumericalError(ToolkitError):
    """A numerical guarantee failed (barrier crossed, certificate violated, ...)."""


class BudgetTooSmallError(PreconditionError):
    """Update budget N must exceed 8k."""


class DisconnectedError(PreconditionError):
    """Operation requires a connected graph."""


class InvalidKError(PreconditionError):
    """Subspace size k is out of range for the instance."""


class IncompatibleImagesError(PreconditionError):
    """Two PSD matrices do not share the same image, or a matrix couples two
    components of a factored graph."""


class TooLargeError(PreconditionError):
    """Instance exceeds the documented enumeration budget."""


class BarrierViolationError(NumericalError):
    """An eigenvalue crossed a barrier it must stay clear of."""


class DegenerateGradientError(NumericalError):
    """Potential difference too small to normalize a gradient."""


class InfeasibleStepError(NumericalError):
    """No update index satisfies the selection inequality.

    Carries diagnostic state so failed runs can be analyzed.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose. Cheap re-symmetrization after updates."""
    return (a + a.T) / 2.0


def check_symmetric(a: np.ndarray) -> np.ndarray:
    """Raise unless `a` is square and symmetric within SYMMETRY_TOL relative to
    max |A|, so rounding noise of a valid matrix passes at any weight scale.
    NaN or infinite entries fail the check."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        return a
    hi, lo = float(a.max()), float(a.min())  # NaN if any entry is NaN
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise PreconditionError("matrix has NaN or infinite entries")
    dev = float(np.max(np.abs(a - a.T)))
    bound = SYMMETRY_TOL * max(hi, -lo)
    if dev > bound:
        raise PreconditionError(
            f"matrix not symmetric: max |A - A^T| = {dev:g} > {SYMMETRY_TOL:g} * max |A| = {bound:g}"
        )
    return a


def _integral(t: type) -> bool:
    return issubclass(t, numbers.Integral) and not issubclass(t, bool)


def _real(t: type) -> bool:
    return issubclass(t, numbers.Real) and not issubclass(t, bool)


def _check_vertex_count(n: int) -> None:
    """Raise unless 0 <= n and n * n fits in int64: edges are keyed by u * n + v."""
    if n < 0:
        raise PreconditionError(f"vertex count must be nonnegative, got {n}")
    limit = math.isqrt(np.iinfo(np.int64).max)
    if n > limit:
        raise PreconditionError(f"vertex count {n} exceeds {limit}: edge keys u * n + v must fit in 64 bits")


def _canonical_edges(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple:
    """Validate the edges (u[i], v[i], w[i]) and merge parallel ones.

    Returns the canonical (u, v, w) arrays: u < v, sorted lexicographically,
    each pair's weights summed by one bincount in input order, which gives
    the floats of a left-to-right loop (np.sum and np.add.reduceat sum groups
    of 8 or more pairwise, so they would not). Raises PreconditionError for
    the first edge in input order that is out of range, a self-loop or not
    positively and finitely weighted, or earlier, for the first one whose
    pair's running sum leaves the finite floats.
    """
    _check_vertex_count(n)
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v) | ~(w > 0) | ~np.isfinite(w)
    stop = int(np.argmax(bad)) if bad.any() else u.size
    lo, hi = np.minimum(u[:stop], v[:stop]), np.maximum(u[:stop], v[:stop])
    keys, group = np.unique(lo * n + hi, return_inverse=True)
    sums = np.bincount(group, weights=w[:stop], minlength=keys.size).astype(np.float64, copy=False)
    if not np.isfinite(sums).all():
        # positive weights: a pair's running sum, once infinite, stays so
        firsts = []
        for pair in np.flatnonzero(~np.isfinite(sums)):
            members = np.flatnonzero(group == pair)
            with np.errstate(over="ignore"):
                running = np.cumsum(w[members])
            firsts.append(members[np.argmax(~np.isfinite(running))])
        key = int(keys[group[min(firsts)]])
        raise PreconditionError(f"parallel edges ({key // n},{key % n}) merge to a non-finite weight")
    if stop < u.size:
        a, b, x = int(u[stop]), int(v[stop]), float(w[stop])
        if not (0 <= a < n and 0 <= b < n):
            raise PreconditionError(f"edge ({a},{b}) out of range for n={n}")
        if a == b:
            raise PreconditionError(f"self-loop at vertex {a} rejected")
        raise PreconditionError(f"edge ({a},{b}) needs a positive finite weight, got {x}")
    return (*np.divmod(keys, n), sums)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1.

    The edges live in three read-only arrays: `u` and `v` (int64) with
    u < v, sorted lexicographically, and `w` (float64). Parallel input edges
    are merged by weight addition. Self-loops, non-positive weights and n
    past 3,037,000,499 (`_check_vertex_count`) are rejected, and so are
    parallel edges whose weights sum past the largest float and edge sets
    whose weighted degree at some vertex does. Instances are immutable and
    compare by value.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __init__(self, n: int, edges):
        """Graph from an iterable of (u, v, w) triples. Vertex ids must be
        integers (numpy's included) and weights real numbers; bools are
        neither."""
        rows = list(edges)
        u, v, w = zip(*rows, strict=True) if rows else ((), (), ())
        for column, accepts in ((u, _integral), (v, _integral), (w, _real)):
            rejected = {t for t in set(map(type, column)) if not accepts(t)}
            if rejected:
                i = next(i for i, x in enumerate(column) if type(x) in rejected)
                raise PreconditionError(
                    f"edge {tuple(rows[i])!r} needs integer vertex ids and a real weight (bools are neither)"
                )
        try:
            ids = np.array((u, v), dtype=np.int64).reshape(2, -1)
        except OverflowError:  # an id beyond int64 is out of range for any n
            i = next(i for i, pair in enumerate(zip(u, v)) if not all(-(2**63) <= x < 2**63 for x in pair))
            raise PreconditionError(f"edge ({u[i]},{v[i]}) out of range for n={n}") from None
        self._store(n, ids[0], ids[1], np.array(w, dtype=np.float64))

    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> "WeightedGraph":
        """Graph from parallel arrays of endpoints (integer dtype) and
        weights, validated and merged like the triples of the constructor."""
        u, v, w = np.asarray(u), np.asarray(v), np.asarray(w)
        if u.dtype.kind not in "iu" or v.dtype.kind not in "iu" or w.dtype.kind not in "iuf":
            raise PreconditionError(
                f"edge arrays need integer vertex ids and real weights, got {u.dtype}, {v.dtype}, {w.dtype}"
            )
        graph = cls.__new__(cls)
        graph._store(n, u.astype(np.int64, copy=False), v.astype(np.int64, copy=False), w.astype(np.float64, copy=False))
        return graph

    def _store(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        if not _integral(type(n)):
            raise PreconditionError(f"vertex count must be an integer (bools are not), got {n!r}")
        n = int(n)
        arrays = _canonical_edges(n, u, v, w)
        for name, array in zip("uvw", arrays):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "n", n)
        # summed in the edge order of the Laplacian's diagonal
        overflow = np.flatnonzero(~np.isfinite(self.weighted_degrees()))
        if overflow.size:
            raise PreconditionError(f"weighted degree of vertex {overflow[0]} overflows the largest float")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(a, b) for a, b in ((self.u, other.u), (self.v, other.v), (self.w, other.w))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.u.tobytes(), self.v.tobytes(), self.w.tobytes()))

    @property
    def edges(self) -> tuple:
        """The edges as a tuple of Python (u, v, w) triples, in canonical
        order; built from the arrays on every read."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def num_edges(self) -> int:
        return int(self.u.size)

    def edge_pairs(self) -> set:
        return set(zip(self.u.tolist(), self.v.tolist()))

    def weight_sum(self) -> float:
        """Sum of the weights, left to right in canonical order."""
        return float(sum(self.w.tolist()))

    def scale(self, c: float) -> "WeightedGraph":
        """Multiply every edge weight by c > 0."""
        if not (c > 0):
            raise PreconditionError(f"scale factor must be positive, got {c}")
        return WeightedGraph.from_arrays(self.n, self.u, self.v, c * self.w)

    def union(self, other: "WeightedGraph") -> "WeightedGraph":
        """Edge-wise sum of two graphs on the same vertex set."""
        if other.n != self.n:
            raise PreconditionError(f"vertex count mismatch: {self.n} vs {other.n}")
        return WeightedGraph.from_arrays(
            self.n, *(np.concatenate(pair) for pair in ((self.u, other.u), (self.v, other.v), (self.w, other.w)))
        )

    def weighted_degrees(self) -> np.ndarray:
        """Weighted degree per vertex, each summed in edge order."""
        ends = np.stack((self.u, self.v), axis=1).ravel()
        return np.bincount(ends, np.repeat(self.w, 2), minlength=self.n).astype(np.float64, copy=False)

    def component_labels(self) -> np.ndarray:
        """Connected-component label per vertex, the components numbered by
        their smallest vertex, as scipy's connected_components numbers them.

        Min-label propagation: each round hooks every edge's larger end label
        onto its smaller one, then jumps pointers until each label is a root.
        At the fixed point each vertex holds its component's smallest vertex.
        """
        labels = np.arange(self.n)
        while True:
            ends = labels[self.u], labels[self.v]
            hooked = labels.copy()
            np.minimum.at(hooked, np.maximum(*ends), np.minimum(*ends))
            while not np.array_equal(jumped := hooked[hooked], hooked):
                hooked = jumped
            if np.array_equal(hooked, labels):
                return np.unique(labels, return_inverse=True)[1]
            labels = hooked

    def is_connected(self) -> bool:
        return self.n <= 1 or int(self.component_labels().max()) == 0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Dense Laplacian: weighted degrees on the diagonal, -w off-diagonal."""
    return _edge_laplacian(g.n, _edge_entries(g.n, g.u, g.v), g.w)


def _edge_entries(n: int, u: np.ndarray, v: np.ndarray) -> tuple:
    """Flat positions in an n x n matrix of the four Laplacian entries of
    each edge (u[i], v[i]) (uu, vv, uv, vu, edge by edge), and the signs
    they take."""
    flat = np.stack((u * n + u, v * n + v, u * n + v, v * n + u), axis=1).ravel()
    return flat, np.tile([1.0, 1.0, -1.0, -1.0], u.size)


def _edge_laplacian(n: int, entries: tuple, w: np.ndarray) -> np.ndarray:
    """Laplacian of the edges located by `_edge_entries`, edge i weighing w[i].

    One bincount sums each entry's weights in edge order, to the same floats
    as four scalar updates per edge in a loop from zero would, and gives uv
    and vu the same sum, so the result is exactly symmetric.
    """
    flat, signs = entries
    sums = np.bincount(flat, signs * np.repeat(w, 4), minlength=n * n)
    return sums.astype(float, copy=False).reshape(n, n)  # bincount of nothing is integer


def _split_edges(g: WeightedGraph, parts: list) -> list:
    """g's edges grouped by `parts`, vertex-id arrays that partition g's
    vertices: per part, the (u, v, w) arrays of its edges on its own vertex
    indices (a vertex's index is its position in the part), in g's edge
    order, which is canonical where the part's ids ascend. Raises
    IncompatibleImagesError for an edge between two parts.
    """
    if g.n != sum(vertices.size for vertices in parts):
        raise PreconditionError(f"graph has {g.n} vertices, the factor {sum(p.size for p in parts)}")
    part, local = np.empty(g.n, dtype=np.int64), np.empty(g.n, dtype=np.int64)
    for c, vertices in enumerate(parts):
        part[vertices] = c
        local[vertices] = np.arange(vertices.size)
    part_of = part[g.u]
    if not np.array_equal(part_of, part[g.v]):
        raise IncompatibleImagesError("graph has an edge between two components of the factored graph")
    order = np.argsort(part_of, kind="stable")
    bounds = np.searchsorted(part_of[order], np.arange(len(parts) + 1))
    u, v, w = local[g.u[order]], local[g.v[order]], g.w[order]
    return [(u[a:b], v[a:b], w[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _block_laplacians(g: WeightedGraph, parts: list) -> list:
    """The diagonal blocks of L_g on `parts` (as `_split_edges` takes them),
    each built from its own edges: an edge's entries sum in edge order, so
    these are the floats of the blocks sliced out of L_g."""
    return [
        _edge_laplacian(vertices.size, _edge_entries(vertices.size, u, v), w)
        for vertices, (u, v, w) in zip(parts, _split_edges(g, parts))
    ]


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues only by scipy, ascending. A reference solver: it needs
    scipy, which the package does not install."""
    import scipy.linalg

    a = check_symmetric(a)
    if a.shape[0] == 0:
        return np.zeros(0)
    try:
        return scipy.linalg.eigvalsh(a)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"symmetric eigensolver failed to converge: {exc}") from exc


def _decompose(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending, by
    numpy's LAPACK. Pencils and the engine solve through here and
    `_spectrum`, on the LAPACK copy that also factors Laplacians and whose
    BLAS threads run their matrix products. An empty matrix costs no solve.
    """
    if a.shape[0] == 0:
        return SpectralDecomposition(np.zeros(0), np.zeros((0, 0)))
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"symmetric eigensolver failed to converge: {exc}") from exc
    return SpectralDecomposition(vals, vecs)


def _spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues only, ascending, by the same numpy LAPACK as `_decompose`."""
    if a.shape[0] == 0:
        return np.zeros(0)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"symmetric eigensolver failed to converge: {exc}") from exc


# (set, get) thread-count symbols of the OpenBLAS builds numpy links against.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _numpy_openblas():
    """(set, get) thread-count functions of numpy's OpenBLAS, or None where
    numpy's BLAS is another library. They are looked up through numpy's
    linalg extension, so they belong to numpy's BLAS, never to scipy's copy.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (OSError, AttributeError):
        return None
    for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
        setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextlib.contextmanager
def numpy_blas_threads(count: int):
    """Run the block with numpy's OpenBLAS on `count` threads, then restore
    the previous count. A no-op where numpy's BLAS is not OpenBLAS."""
    blas = _numpy_openblas()
    if blas is None:
        yield
        return
    setter, getter = blas
    previous = getter()
    setter(count)
    try:
        yield
    finally:
        setter(previous)


def _rank_split(dec: SpectralDecomposition) -> np.ndarray:
    """Boolean mask of eigenvalues treated as nonzero."""
    vals = dec.eigenvalues
    if vals.size == 0:
        return np.zeros(0, dtype=bool)
    lam_max = float(np.max(np.abs(vals)))
    return np.abs(vals) > REL_RANK_TOL * max(lam_max, 1e-300)


@dataclass(frozen=True)
class FactorBlock:
    """One connected component's share of a LaplacianFactor: its vertex ids,
    ascending, and F_c, n_c x (n_c - 1), with F_c^T L_c F_c = I and
    F_c^T 1 = 0 for its Laplacian block L_c, so L_c^+ = F_c F_c^T."""

    vertices: np.ndarray
    f: np.ndarray


@dataclass(frozen=True)
class LaplacianFactor:
    """One factor per connected component of a graph Laplacian L on n
    vertices, restricted to the image.

    L is block-diagonal over the components, and so is L^+: `blocks` holds
    one FactorBlock per component, in component-label order, and
    L^+ = sum_c F_c F_c^T on each block's vertices. Build one with
    `factor_laplacian`. Its pencils take a graph H: per block, the pencil
    matrix X_c = F_c^T L_c F_c, with L_c the block of L_H on component c,
    built from H's edges in it alone. Tr(L_H L^+) is the sum of their
    traces, so no trace needs a routine of its own.
    """

    n: int
    blocks: tuple

    def pencil_matrices(self, h: WeightedGraph) -> list:
        """F_c^T L_c F_c, symmetrized, one matrix per block: the (L_H, L)
        pencil on the image, restricted to component c. Its trace is
        Tr(L_H L^+) on the block, and its eigenvalues are `pencil_spectra`.

        Raises IncompatibleImagesError when H has an edge between two
        components: the pencil then does not split over the blocks.
        """
        laps = _block_laplacians(h, [b.vertices for b in self.blocks])
        # F^T L F is symmetric up to rounding of size eps * |F|^2 |L|, which can
        # exceed any tolerance relative to its own entries when the factored
        # Laplacian is badly conditioned: symmetrize instead of checking it.
        return [symmetrize(b.f.T @ lap @ b.f) for b, lap in zip(self.blocks, laps)]

    def pencil_spectra(self, h: WeightedGraph) -> list:
        """Ascending eigenvalues of each of `pencil_matrices(h)`; raises as
        that does."""
        return [_spectrum(x) for x in self.pencil_matrices(h)]


def _invert_lower(c: np.ndarray) -> np.ndarray:
    """Invert a nonsingular lower-triangular matrix in place by blocked
    recursion (stable; Du Croz and Higham, IMA J. Numer. Anal. 12, 1992):
    [[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]], two products
    per level, `np.linalg.inv` on blocks of at most 48 rows. numpy has no
    triangular solve, and `inv` of the whole factor costs four times more."""
    n = c.shape[0]
    if n <= 48:
        c[...] = np.linalg.inv(c)
        return c
    h = n // 2
    top, bottom = _invert_lower(c[:h, :h]), _invert_lower(c[h:, h:])
    c[h:, :h] = -(bottom @ c[h:, :h]) @ top
    return c


def factor_laplacian(g: WeightedGraph) -> LaplacianFactor:
    """Factor L_G with one Cholesky factorization per connected component of
    G and no eigensolve; each block's kernel is its component's indicator.

    Each block L_c is built from its component's edges with the vertices in
    descending weighted degree (ties to the lower id), an order that keeps
    the factor accurate over weights spread across many decades. The first
    vertex is grounded, the rest give L~ = C C^T, and F_c = P [0; C^-T],
    with P subtracting each column's mean and rows back in vertex order:
    F_c^T L_c F_c = I, F_c^T 1 = 0 and F_c F_c^T = L_c^+. Raises
    NumericalError when a row sum of L_c exceeds KERNEL_TOL * its largest
    diagonal entry, or when the grounded block is not positive definite.
    """
    labels, degrees = g.component_labels(), g.weighted_degrees()
    count = int(labels.max(initial=-1)) + 1
    parts = [np.flatnonzero(labels == c) for c in range(count)]
    orders = [vertices[np.argsort(-degrees[vertices], kind="stable")] for vertices in parts]
    blocks = []
    for c, (vertices, order, lap) in enumerate(zip(parts, orders, _block_laplacians(g, orders))):
        drift, top = float(np.max(np.abs(lap.sum(axis=1)))), float(np.max(np.diag(lap)))
        if drift > KERNEL_TOL * top:
            raise NumericalError(
                f"Laplacian row sum of magnitude {drift:g} exceeds {KERNEL_TOL:g} * its largest"
                f" diagonal entry = {KERNEL_TOL * top:g} (component {c} of {count})"
            )
        try:
            chol = np.linalg.cholesky(lap[1:, 1:])
        except np.linalg.LinAlgError:
            raise NumericalError(f"grounded Laplacian of component {c} of {count} is not positive definite") from None
        f = np.zeros((vertices.size, vertices.size - 1))
        f[np.searchsorted(vertices, order[1:])] = _invert_lower(chol).T
        blocks.append(FactorBlock(vertices, f - f.mean(axis=0)))
    return LaplacianFactor(n=g.n, blocks=tuple(blocks))


def pencil_eigenvalues(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues, ascending, of the PSD pencil (A, B) of two
    raw matrices on the image of B: the span of B's eigenvalues above
    REL_RANK_TOL * lambda_max. With F a basis of im(B) scaled so that
    F^T B F = I, they are the eigenvalues of F^T A F, the stationary values
    of x^T A x / x^T B x over x in im(B). Pencils of graph Laplacians go
    through `LaplacianFactor.pencil_spectra`, whose image is exact.
    """
    a, b = check_symmetric(a), check_symmetric(b)
    if a.shape != b.shape:
        raise PreconditionError(f"matrix is {a.shape[0]} wide, B {b.shape[0]}")
    dec = _decompose(b)
    keep = _rank_split(dec)
    f = dec.eigenvectors[:, keep] / np.sqrt(np.abs(dec.eigenvalues[keep]))
    return _spectrum(symmetrize(f.T @ a @ f))


def pencil_range(h: WeightedGraph, g: WeightedGraph | LaplacianFactor) -> tuple[float, float]:
    """The tightest (c, kappa) with c L_G <= L_H <= kappa L_G over the common
    image: the extreme generalized eigenvalues of the (L_H, L_G) pencil.

    G is a graph or the factor of its Laplacian. Raises PreconditionError
    when their vertex counts differ, and IncompatibleImagesError unless H
    and G have the same connected components, which is exactly when the two
    Laplacians share their image. An empty image (a graph without edges)
    gives (1, 1).
    """
    if h.n != g.n:
        raise PreconditionError(f"vertex counts differ: {g.n} vs {h.n}")
    factor = g if isinstance(g, LaplacianFactor) else factor_laplacian(g)
    # The pencil rejects an H edge between two of G's components, so H's
    # components lie inside G's; as many of them means the same partition.
    # The labels number H's components 0..c-1.
    if int(h.component_labels().max(initial=-1)) + 1 != len(factor.blocks):
        raise IncompatibleImagesError(
            "connected components differ between the two graphs; the pencil"
            " range is only defined on a common image"
        )
    vals = np.concatenate([np.zeros(0), *factor.pencil_spectra(h)])
    return (float(vals.min()), float(vals.max())) if vals.size else (1.0, 1.0)
