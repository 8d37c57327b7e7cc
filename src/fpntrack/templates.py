"""Object templates: center read, sample means, and closed-form ridge regression.

The discriminative template is the minimizer of
``||A t - y||^2 + lambda ||t||^2`` where row 0 of A is the object feature
(label 1) and the remaining rows are negatives (label 0). The closed form
``t = (A^T A + lambda I)^{-1} A^T y`` defines the semantics. The solve forms
the smaller Gram matrix G: the primal ``A^T A + lambda I`` when A has at least
as many rows as columns, otherwise the dual ``A A^T + lambda I`` with
``t = A^T (A A^T + lambda I)^{-1} y`` (the Woodbury identity used by
kernelized correlation filters). It then makes one LU solve on G. The
condition gate refuses a G whose primal condition number exceeds
``CONDITION_LIMIT``. It accepts without computing any eigenvalue when
``trace(G) / lambda``, an upper bound on that number, is far below the limit;
otherwise it reads the number off ``eigvalsh(G)``. In the dual case the
primal spectrum holds ``D - rows`` extra copies of lambda, its smallest
eigenvalue. The backward pass through the solve is analytic, makes one solve
with both right-hand sides and is checked against finite differences
(``finite_difference_grad``).

Negatives are the cells of every level outside the box, positives the cells
in it at its ``pyramid.template_level``, both by ``pyramid.in_box``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, SolverError
from .pyramid import (
    BoundingBox,
    FeaturePyramid,
    center_cell,
    extract_template,
    finite_features,
    in_box,
    template_level,
)
from .rng import philox

TEMPLATE_KINDS = ("center", "mean_pos", "mean_diff", "ridge")

# Refuse closed-form solves when the normal matrix is this badly conditioned.
CONDITION_LIMIT = 1e12
# trace(G) / lambda bounds the condition number; at or below this share of the
# limit the gate accepts without eigenvalues (the margin is derived in _gram).
CERTIFIED_CONDITION = CONDITION_LIMIT / 1000


@dataclass(frozen=True)
class TemplateVector:
    values: np.ndarray
    kind: str = "center"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise InvalidInputError("template must be a 1-D vector")
        if not np.isfinite(self.values).all():
            raise InvalidInputError("template contains NaN or Inf")
        if self.kind not in TEMPLATE_KINDS:
            raise InvalidInputError(f"unknown template kind {self.kind!r}")


@dataclass
class RegressionProblem:
    """Data matrix A (positive row first, then negatives), labels e1, and lambda."""

    data_matrix: np.ndarray
    labels: np.ndarray
    lam: float

    def __post_init__(self):
        self.data_matrix = np.asarray(self.data_matrix, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.data_matrix.ndim != 2:
            raise InvalidInputError("data matrix must be 2-D")
        if not np.isfinite(self.data_matrix).all():
            raise InvalidInputError("data matrix contains NaN or Inf")
        rows, cols = self.data_matrix.shape
        if self.labels.shape != (rows,):
            raise InvalidInputError("labels length must match data rows")
        expected = np.zeros(rows)
        expected[0] = 1.0
        if not np.array_equal(self.labels, expected):
            raise InvalidInputError("labels must be (1, 0, ..., 0)")
        if not 0 <= self.lam < np.inf:
            raise InvalidInputError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.lam == 0 and rows < cols:
            raise InvalidInputError("lambda must be > 0 for underdetermined problems")

    @classmethod
    def from_samples(
        cls, positive: np.ndarray, negatives: Sequence[np.ndarray], lam: float
    ) -> "RegressionProblem":
        rows = [np.asarray(positive, dtype=np.float64)]
        rows.extend(np.asarray(n, dtype=np.float64) for n in negatives)
        a = np.stack(rows)
        y = np.zeros(a.shape[0])
        y[0] = 1.0
        return cls(a, y, lam)

    def objective(self, t: np.ndarray) -> float:
        r = self.data_matrix @ t - self.labels
        return float(r @ r + self.lam * (t @ t))


def _gram(problem: RegressionProblem) -> tuple[bool, np.ndarray]:
    """The smaller Gram matrix, refused when the primal condition number exceeds the limit.

    Returns (dual, G), where G is ``A A^T + lambda I`` if dual (D > rows),
    else ``A^T A + lambda I``.
    """
    a, lam = problem.data_matrix, problem.lam
    dual = a.shape[1] > a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        gram = a @ a.T if dual else a.T @ a
        gram[np.diag_indices_from(gram)] += lam
    if not np.isfinite(gram).all():
        raise SolverError("normal matrix overflows float64; scale the features down")
    # Certificate: every eigenvalue of G is at least lambda and, all being
    # positive, the largest is at most their sum, so cond(G) <= trace(G) /
    # lambda (in the dual case too, where the primal spectrum adds copies of
    # lambda). The G formed here is not exact: the product over an inner
    # dimension n (rows in the primal, D in the dual) is off by at most
    # n u ||A||_F^2 <= n u trace(G) in 2-norm (u = 2^-53), and eigvalsh adds
    # about m u ||G|| <= m u trace(G) for the order m. By Weyl's inequality the
    # eigenvalues the gate below would compute then lie within
    # delta = (n + c m) u trace(G) of the exact ones. Under the certificate,
    # trace(G) <= CERTIFIED_CONDITION lambda, so delta <= (n + c m) 1.1e-7
    # lambda < lambda / 2 for n + c m below about 4e6, and the gate's own ratio
    # is at most 1.5e9 lambda / (lambda / 2) = 3e9: it would accept as well.
    with np.errstate(over="ignore"):  # a ratio that overflows certifies nothing
        if lam > 0 and np.trace(gram) / lam <= CERTIFIED_CONDITION:
            return dual, gram
    w = np.linalg.eigvalsh(gram)
    smallest = lam if dual else w[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = w[-1] / smallest
    if not (np.isfinite(cond) and 0 < cond <= CONDITION_LIMIT):
        # a singular matrix's smallest eigenvalue can round below zero, so the
        # ratio is no condition number there
        if smallest <= 0:
            reason = "is singular (condition number inf)"
        else:
            reason = f"condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        raise SolverError(f"normal matrix {reason}; increase lambda")
    return dual, gram


def solve_ridge(problem: RegressionProblem) -> TemplateVector:
    """Minimize ||A t - y||^2 + lambda ||t||^2 in closed form."""
    a, y = problem.data_matrix, problem.labels
    dual, gram = _gram(problem)
    t = a.T @ np.linalg.solve(gram, y) if dual else np.linalg.solve(gram, a.T @ y)
    return TemplateVector(t, kind="ridge")


def ridge_backward(problem: RegressionProblem, upstream: np.ndarray) -> np.ndarray:
    """Gradient of L = g . solve_ridge(A) with respect to the entries of A.

    With M = (A^T A + lambda I)^{-1}, h = M g and t the solved template:
    dL/dA = (y - A t) h^T - (A h) t^T. In the dual case
    h = (g - A^T K^{-1} A g) / lambda with K = A A^T + lambda I.
    """
    g = np.asarray(upstream, dtype=np.float64)
    a, y = problem.data_matrix, problem.labels
    if g.shape != (a.shape[1],):
        raise InvalidInputError("upstream gradient must be a D-vector")
    dual, gram = _gram(problem)
    if dual:
        k_inv_y, k_inv_ag = np.linalg.solve(gram, np.stack([y, a @ g], axis=1)).T
        t = a.T @ k_inv_y
        h = (g - a.T @ k_inv_ag) / problem.lam
    else:
        t, h = np.linalg.solve(gram, np.stack([a.T @ y, g], axis=1)).T
    residual = y - a @ t
    return np.outer(residual, h) - np.outer(a @ h, t)


def finite_difference_grad(problem: RegressionProblem, upstream: np.ndarray,
                           step: float) -> np.ndarray:
    """Central-difference estimate of ridge_backward: two solves per entry of A."""
    g = np.asarray(upstream, dtype=np.float64)
    a = problem.data_matrix
    out = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            plus = a.copy()
            plus[i, j] += step
            minus = a.copy()
            minus[i, j] -= step
            tp = solve_ridge(RegressionProblem(plus, problem.labels, problem.lam)).values
            tm = solve_ridge(RegressionProblem(minus, problem.labels, problem.lam)).values
            out[i, j] = float(g @ (tp - tm)) / (2 * step)
    return out


def template_mean_pos(positives: Sequence[np.ndarray]) -> TemplateVector:
    if len(positives) == 0:
        raise InvalidInputError("need at least one positive sample")
    mean = np.mean(np.stack([np.asarray(p, dtype=np.float64) for p in positives]), axis=0)
    return TemplateVector(mean, kind="mean_pos")


def template_mean_diff(
    positives: Sequence[np.ndarray], negatives: Sequence[np.ndarray]
) -> TemplateVector:
    if len(positives) == 0 or len(negatives) == 0:
        raise InvalidInputError("need at least one positive and one negative sample")
    pos = np.mean(np.stack([np.asarray(p, dtype=np.float64) for p in positives]), axis=0)
    neg = np.mean(np.stack([np.asarray(n, dtype=np.float64) for n in negatives]), axis=0)
    return TemplateVector(pos - neg, kind="mean_diff")


def sample_negatives(
    pyramid: FeaturePyramid,
    gt_box: BoundingBox,
    q: int,
    seed: int,
    balance_levels: bool = False,
) -> tuple[list[np.ndarray], int]:
    """Sample q features across all levels whose cell centers fall outside gt_box.

    Returns (features, shortfall). When fewer than q cells are eligible, all
    of them are returned and the shortfall says how many were missing.
    """
    if q < 1:
        raise InvalidInputError("q must be >= 1")
    rng = philox(0, stream=seed)
    # cells are numbered level by level, row-major within a level
    rows = [fm.data.reshape(-1, fm.depth) for fm in pyramid.levels]
    starts = np.cumsum([0] + [len(r) for r in rows])
    pool = np.flatnonzero(~in_box(*pyramid.cell_centres(), gt_box))
    if balance_levels:
        per_level = np.split(pool, np.searchsorted(pool, starts[1:-1]))
        share = max(1, q // len(per_level))
        chosen = np.concatenate([ids[rng.permutation(len(ids))[:share]] for ids in per_level])
        rng.shuffle(chosen)
        chosen = chosen[:q]
    else:
        chosen = pool[rng.permutation(len(pool))[:q]]
    level_of = np.searchsorted(starts, chosen, side="right") - 1
    out = np.empty((len(chosen), pyramid.levels[0].depth))
    for lvl, level_rows in enumerate(rows):
        sel = level_of == lvl
        out[sel] = finite_features(level_rows[chosen[sel] - starts[lvl]], pyramid.levels[lvl])
    return list(out), max(0, q - len(out))


def sample_positives(
    pyramid: FeaturePyramid, gt_box: BoundingBox, p: int, seed: int
) -> tuple[list[np.ndarray], int]:
    """Sample p in-box features from the assigned level; the center cell always leads."""
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    level = template_level(pyramid, gt_box)
    fm = pyramid.level_map(level)
    start = sum(f.height * f.width for f in pyramid.levels[: pyramid.level_labels.index(level)])
    cy, cx = (c[start : start + fm.height * fm.width] for c in pyramid.cell_centres())
    row0, col0 = center_cell(gt_box, pyramid, level)
    centre = row0 * fm.width + col0
    inside = np.flatnonzero(in_box(cy, cx, gt_box))
    others = inside[inside != centre]
    rng = philox(0, stream=seed)
    picked = np.concatenate(([centre], others[rng.permutation(len(others))[: p - 1]]))
    feats = finite_features(fm.data.reshape(-1, fm.depth)[picked].astype(np.float64), fm)
    return list(feats), max(0, p - len(feats))


def build_template(
    pyramid: FeaturePyramid,
    box: BoundingBox,
    kind: str,
    *,
    lam: float = 0.1,
    num_negatives: int = 256,
    num_positives: int = 16,
    seed: int = 0,
    normalize: bool = False,
    balance_levels: bool = False,
) -> TemplateVector:
    """Build a template of the requested kind from the first frame."""
    if kind not in TEMPLATE_KINDS:
        raise InvalidInputError(f"unknown template kind {kind!r}")
    if kind == "center":
        return TemplateVector(extract_template(pyramid, box), kind="center")
    if kind == "mean_pos":
        pos, _ = sample_positives(pyramid, box, num_positives, seed)
        return template_mean_pos(pos)
    neg, _ = sample_negatives(pyramid, box, num_negatives, seed, balance_levels)
    if not neg:
        raise SolverError("no negative samples available outside the box")
    if kind == "mean_diff":
        pos, _ = sample_positives(pyramid, box, num_positives, seed)
        return template_mean_diff(pos, neg)
    positive = extract_template(pyramid, box)
    if normalize:
        positive = _unit(positive)
        neg = [_unit(n) for n in neg]
    problem = RegressionProblem.from_samples(positive, neg, lam)
    return solve_ridge(problem)


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v if n == 0 else v / n
