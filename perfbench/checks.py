"""Output checks: every command's result is re-measured after it returns.

A command passes when it exited 0, its report claims coherence within
1e-9, and the result re-measured from the written files agrees with the
report and its certificate:

  ultra           pencil (L_G, L_U) of the written U matches the report,
                  its floor clears the certified constant, U is a
                  connected subgraph of G with at most n-1 + 8k+1 edges
  sparsify-patch  pencil (L_{G+W_k}, L_{G+W}) of the written W_k matches
                  the report and lies inside the certified sandwich, W_k
                  is a subgraph of W within the weight bound
  algconn         lambda_2 of base + written selection matches the report
                  and is at or above the certified floor, the selection
                  has at most 8k+1 candidate edges
  verify          (c, kappa) match an independent generalized eigensolve
                  of the two input files (numpy parse, scipy eigh on the
                  complement of the all-ones vector)

Re-measurement uses the lapsparse library, except for verify. Identical
(input, output, report) triples share one verdict, so each distinct
result is measured once per run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

COHERENCE_TOL = 1e-9
MATCH_TOL = 1e-9  # report vs the same quantity re-measured by the library
INDEPENDENT_TOL = 1e-7  # report vs a different eigensolver


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str
    digest: str  # sha256 of the output file, or of the measured block for verify
    quality: float | None


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _match(label: str, reported, measured: float, tol: float = MATCH_TOL) -> None:
    if not _rel(float(reported), measured) <= tol:
        raise CheckFailed(f"{label}: report says {reported!r}, re-measured {measured!r}")


class Checker:
    """Checks commands of one workload; `lib` is the imported lapsparse package."""

    def __init__(self, lib):
        self.cli = lib.cli
        self.core = lib.core
        self._cache: dict = {}

    def check(self, cmd, rec: dict) -> Verdict:
        if rec["rc"] != 0:
            return Verdict(False, f"exit code {rec['rc']}", "", None)
        try:
            with open(rec["report"], encoding="utf-8") as handle:
                report = json.load(handle)
            digest = (
                sha256_file(rec["out"])
                if rec["out"]
                else hashlib.sha256(json.dumps(report["measured"], sort_keys=True).encode()).hexdigest()
            )
        except (OSError, ValueError, KeyError) as exc:
            return Verdict(False, f"unreadable result: {exc}", "", None)
        stable = {k: v for k, v in report.items() if k not in ("inputs", "output", "timings")}
        key = (rec["input"], digest, hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest())
        if key not in self._cache:
            self._cache[key] = self._measure(cmd, rec, report, digest)
        return self._cache[key]

    def _measure(self, cmd, rec, report, digest) -> Verdict:
        try:
            coherence = float(report["coherence"]["max_relative_deviation"])
            if not coherence <= COHERENCE_TOL:
                raise CheckFailed(f"report coherence {coherence!r} above {COHERENCE_TOL}")
            kind = cmd.argv[0]
            if kind == "ultra":
                quality = self._ultra(cmd, report, rec["out"])
            elif kind == "sparsify-patch":
                quality = self._patch(cmd, report, rec["out"])
            elif kind == "algconn":
                quality = self._algconn(cmd, report, rec["out"])
            else:
                quality = self._verify(cmd, report)
        except CheckFailed as exc:
            return Verdict(False, str(exc), digest, None)
        except (self.core.ToolkitError, KeyError, TypeError, ValueError, np.linalg.LinAlgError) as exc:
            return Verdict(False, f"{type(exc).__name__}: {exc}", digest, None)
        return Verdict(True, "", digest, quality)

    def _pencil(self, a_graph, b_graph) -> tuple:
        vals = self.core.pencil_eigenvalues(self.core.laplacian(a_graph), self.core.laplacian(b_graph))
        return float(vals[0]), float(vals[-1])

    def _ultra(self, cmd, report, out) -> float:
        g = self.cli.read_graph(cmd.inputs["g"])
        u = self.cli.read_graph(out)
        k = cmd.params["k"]
        if not u.edge_pairs() <= g.edge_pairs():
            raise CheckFailed("U has edges that are not in G")
        if u.num_edges > g.n - 1 + 8 * k + 1 or not u.is_connected():
            raise CheckFailed(f"U is not a connected tree plus at most 8k+1 edges ({u.num_edges} edges)")
        lo, hi = self._pencil(g, u)
        measured = report["measured"]
        _match("pencil (G, U) lower", measured["pencil_g_over_u_lower"], lo)
        _match("pencil (G, U) upper", measured["pencil_g_over_u_upper"], hi)
        _match("relative condition number", measured["relative_condition_number"], hi / lo)
        floor = float(report["certified"]["pencil_lower_constant"])
        if lo < floor - 1e-9:
            raise CheckFailed(f"pencil lower {lo!r} below the certified constant {floor!r}")
        return hi / lo

    def _patch(self, cmd, report, out) -> float:
        g = self.cli.read_graph(cmd.inputs["g"])
        w = self.cli.read_graph(cmd.inputs["w"])
        wk = self.cli.read_graph(out)
        if not wk.edge_pairs() <= w.edge_pairs():
            raise CheckFailed("W_k has edges that are not in W")
        lo, hi = self._pencil(g.union(wk) if wk.edges else g, g.union(w))
        measured, certified = report["measured"], report["certified"]
        _match("pencil lower", measured["pencil_lower"], lo)
        _match("pencil upper", measured["pencil_upper"], hi)
        _match("total weight", measured["total_weight"], wk.weight_sum())
        if lo < float(certified["pencil_lower"]) - 1e-9 or hi > float(certified["pencil_upper"]) + 1e-9:
            raise CheckFailed(
                f"sandwich [{lo!r}, {hi!r}] leaves the certified"
                f" [{certified['pencil_lower']!r}, {certified['pencil_upper']!r}]"
            )
        bound = float(certified["weight_bound"])
        if wk.weight_sum() > bound * (1.0 + 1e-9):
            raise CheckFailed(f"selected weight {wk.weight_sum()!r} above the bound {bound!r}")
        return hi / lo

    def _algconn(self, cmd, report, out) -> float:
        base = self.cli.read_graph(cmd.inputs["base"])
        cand = self.cli.read_graph(cmd.inputs["candidates"])
        sel = self.cli.read_graph(out)
        k = cmd.params["k"]
        if not sel.edge_pairs() <= cand.edge_pairs() or sel.num_edges > 8 * k + 1:
            raise CheckFailed(f"selection is not at most 8k+1 candidate edges ({sel.num_edges})")
        lap = self.core.laplacian(base) + self.core.laplacian(sel)
        lam2 = float(self.core.eigvalsh(lap)[1])
        rounded = report["rounded"]
        _match("lambda_2 (weighted)", rounded["lambda2_weighted"], lam2)
        floor = float(rounded["floor"])
        if lam2 < floor - 1e-12 * max(1.0, abs(floor)):
            raise CheckFailed(f"lambda_2 {lam2!r} below the certified floor {floor!r}")
        lam_k2 = float(self.core.eigvalsh(self.core.laplacian(base))[k + 1])
        return lam2 / lam_k2

    def _verify(self, cmd, report) -> None:
        lg = _laplacian_from_file(cmd.inputs["g"])
        lh = _laplacian_from_file(cmd.inputs["h"])
        q = scipy.linalg.null_space(np.ones((1, lg.shape[0])))
        vals = scipy.linalg.eigh(q.T @ lh @ q, q.T @ lg @ q, eigvals_only=True)
        measured = report["measured"]
        _match("c", measured["c"], float(vals[0]), INDEPENDENT_TOL)
        _match("kappa", measured["kappa"], float(vals[-1]), INDEPENDENT_TOL)


def _laplacian_from_file(path: str) -> np.ndarray:
    """Dense Laplacian of a benchmark-generated text graph, parsed with numpy."""
    with open(path, encoding="utf-8") as handle:
        n = int(handle.readline().split()[1])
        rows = np.loadtxt(handle, ndmin=2)
    u, v, w = rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 2]
    lap = np.zeros((n, n))
    np.add.at(lap, (u, v), -w)
    np.add.at(lap, (v, u), -w)
    np.add.at(lap, (u, u), w)
    np.add.at(lap, (v, v), w)
    return lap


def geometric_mean(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
