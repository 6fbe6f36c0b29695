"""Shared random builders and the reference eigensolver used across the test modules.

Everything here is deterministic given a seed so failures reproduce exactly.
"""
from __future__ import annotations

import hashlib
import math
import sys

import numpy as np
import scipy.linalg
from hypothesis import settings

from lapsparse import core
from lapsparse.core import SpectralDecomposition, WeightedGraph, check_symmetric, factor_laplacian
from lapsparse.engine import EngineProblem
from lapsparse.patch import PatchParams, _certificate

# A failing draw prints the @reproduce_failure blob that replays it.
settings.register_profile("lapsparse", print_blob=True)
settings.load_profile("lapsparse")


def eigh(a: np.ndarray) -> SpectralDecomposition:
    """Full symmetric eigendecomposition by scipy, eigenvalues ascending: a
    reference solver independent of the package's numpy LAPACK path."""
    a = check_symmetric(a)
    if a.shape[0] == 0:
        return SpectralDecomposition(np.zeros(0), np.zeros((0, 0)))
    return SpectralDecomposition(*scipy.linalg.eigh(a))


def record_laplacian_factors(monkeypatch) -> list:
    """Patch numpy's Cholesky routine to record the width of every matrix
    that `core.factor_laplacian` factors, one grounded block per component,
    in call order; the list it returns fills as the patched code runs. The
    engine's own small factorizations pass unrecorded."""
    widths = []

    def recording(a, *args, _original=np.linalg.cholesky, **kwargs):
        if sys._getframe(1).f_code is core.factor_laplacian.__code__:
            widths.append(a.shape[0])
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return widths


def record_eigensolves(monkeypatch) -> list:
    """Patch numpy's symmetric eigensolvers and core's reduced-block solve
    to record (routine, width, sha1 of the matrix bytes) for every
    np.linalg.eigh and eigvalsh call, and ("reduced", width, sha1 of the
    block's and its factor's bytes) for every `core._reduced_extremes` call,
    in call order; the list it returns fills as the patched code runs. Two
    records with one hash solved the same matrix."""
    solves = []
    for name in ("eigh", "eigvalsh"):
        def recording(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            solves.append((_name, a.shape[0], hashlib.sha1(np.asarray(a).tobytes()).hexdigest()))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)

    def reducing(a, chol, _original=core._reduced_extremes):
        solves.append(("reduced", a.shape[0], hashlib.sha1(a.tobytes() + chol.tobytes()).hexdigest()))
        return _original(a, chol)

    monkeypatch.setattr(core, "_reduced_extremes", reducing)
    return solves


def record_inversions(monkeypatch) -> list:
    """Patch core._invert_lower to record the width of every Cholesky factor
    that a FactorBlock inverts to form its F, in call order (the inversion's
    own recursive calls pass unrecorded)."""
    widths = []

    def recording(c, _original=core._invert_lower):
        if sys._getframe(1).f_code is core.FactorBlock.f.func.__code__:
            widths.append(c.shape[0])
        return _original(c)

    monkeypatch.setattr(core, "_invert_lower", recording)
    return widths


def verify_patch(g: WeightedGraph, w: WeightedGraph, k: int) -> PatchParams:
    """The measured certificate of W against G: lambda_{k+1} of the (L_G,
    L_{G+W}) pencil and Tr(L_W L_{G+W}^+), from the pencil spectra of L_G
    against the factor of L_{G+W}, the ones `sparsify_patch` certifies from.
    For disconnected G+W the spectrum is the union over components."""
    return _certificate(k, factor_laplacian(g.union(w)).pencil_spectra(g))[0]


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    extra_edges: int = 0,
    wmin: float = 0.5,
    wmax: float = 2.0,
) -> WeightedGraph:
    """Random spanning tree plus `extra_edges` distinct chords, uniform weights."""
    order = rng.permutation(n)
    edges = []
    present = set()
    for i in range(1, n):
        u = int(order[i])
        v = int(order[rng.integers(0, i)])
        a, b = min(u, v), max(u, v)
        present.add((a, b))
        edges.append((a, b, float(rng.uniform(wmin, wmax))))
    missing = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]
    if missing and extra_edges > 0:
        take = rng.choice(len(missing), size=min(extra_edges, len(missing)), replace=False)
        for j in take:
            u, v = missing[int(j)]
            edges.append((u, v, float(rng.uniform(wmin, wmax))))
    return WeightedGraph(n, edges)


def spread_graph(decades: int, i: int) -> WeightedGraph:
    """The conditioning sweep's graph i at spread D = `decades`, seeded by
    (D, i): a random spanning tree on n in [12, 40) vertices plus n to 3n
    distinct chords, weights 10^U(0, D)."""
    rng = np.random.default_rng([decades, i])
    n = int(rng.integers(12, 40))
    order = rng.permutation(n)
    edges = {}
    for j in range(1, n):
        a, b = int(order[j]), int(order[rng.integers(0, j)])
        edges[(min(a, b), max(a, b))] = 1
    extra = int(rng.integers(n, 3 * n))
    while len(edges) < n - 1 + extra:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            edges[(min(a, b), max(a, b))] = 1
    w = 10.0 ** rng.uniform(0, decades, size=len(edges))
    return WeightedGraph(n, [(a, b, float(x)) for (a, b), x in zip(edges, w)])


def random_psd(rng: np.random.Generator, d: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Random PSD matrix with eigenvalues uniform in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    vals = rng.uniform(lo, hi, size=d)
    return (q * vals) @ q.T


def random_projection(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    """Orthogonal projection onto a random r-dimensional subspace."""
    q, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    q = q[:, :r]
    return q @ q.T


def make_engine_instance(
    seed: int, n: int = 40, m: int = 300, k: int = 1, n_budget: int | None = None
) -> EngineProblem:
    """Random dense engine instance with lambda_max(M*) = 1.

    X is a Wishart-style PSD matrix rescaled to a random top eigenvalue
    alpha in [0.2, 0.8]; the update directions are scaled rank-one Gaussians
    whose common factor beta is bisected so lambda_max(X + sum_i Y_i) = 1,
    which keeps the certified floor non-vacuous. Costs are a random point on
    the simplex.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    x_raw = a @ a.T / n
    alpha = float(rng.uniform(0.2, 0.8))
    x = x_raw * (alpha / float(np.linalg.eigvalsh(x_raw)[-1]))
    g = rng.standard_normal((n, m)) / math.sqrt(n * m)
    gram = g @ g.T

    def top(beta: float) -> float:
        return float(np.linalg.eigvalsh(x + beta * gram)[-1])

    lo, hi = 0.0, 1.0
    while top(hi) < 1.0:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if top(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    beta = hi
    vectors = math.sqrt(beta) * g
    mstar = x + vectors @ vectors.T
    costs = rng.exponential(size=m)
    costs /= costs.sum()
    costs[-1] = 1.0 - float(costs[:-1].sum())
    if n_budget is None:
        n_budget = 8 * k + 1
    return EngineProblem(X=x, vectors=vectors, costs=costs, Mstar=mstar, k=k, N=n_budget)
