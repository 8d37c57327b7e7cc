import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpntrack.errors import ContainerError, InvalidInputError, SolverError
from fpntrack.pyramid import (
    BoundingBox,
    FeatureMap,
    FeaturePyramid,
    assign_level,
    center_cell,
    extract_template,
    template_level,
)
from fpntrack.scenarios import distractor_scene
from fpntrack.synth import philox, render_frame
from fpntrack.templates import (
    CERTIFIED_CONDITION,
    CONDITION_LIMIT,
    RegressionProblem,
    build_template,
    finite_difference_grad,
    ridge_backward,
    sample_negatives,
    sample_positives,
    solve_ridge,
    template_mean_diff,
    template_mean_pos,
)
from tests.test_pyramid import as_mapped, make_pyramid


def random_problem(rng, dim, negatives, lam):
    a = rng.normal(size=(1 + negatives, dim))
    return RegressionProblem.from_samples(a[0], list(a[1:]), lam)


def gradient_descent_minimizer(problem, tol=1e-12, max_iter=200_000):
    """Accelerated gradient descent on ||At - y||^2 + lam ||t||^2.

    Independent of the closed-form path: only evaluates the gradient.
    """
    a, y, lam = problem.data_matrix, problem.labels, problem.lam
    eigs = np.linalg.eigvalsh(a.T @ a)
    lip = 2 * (eigs[-1] + lam)
    mu = 2 * (max(eigs[0], 0.0) + lam)
    if mu <= 0:
        raise ValueError("objective not strongly convex; need lam > 0")
    beta = (np.sqrt(lip) - np.sqrt(mu)) / (np.sqrt(lip) + np.sqrt(mu))
    t = np.zeros(a.shape[1])
    z = t.copy()
    for _ in range(max_iter):
        grad = 2 * (a.T @ (a @ z - y) + lam * z)
        t_next = z - grad / lip
        z = t_next + beta * (t_next - t)
        if np.linalg.norm(t_next - t) < tol * max(1.0, np.linalg.norm(t_next)):
            return t_next
        t = t_next
    return t


def oracle_solve(problem):
    """The reference solve: SVD condition number of the normal matrix, then an LU solve.

    Returns (condition number, template or None when the gate refuses,
    and the normal matrix).
    """
    a = problem.data_matrix
    normal = a.T @ a + problem.lam * np.eye(a.shape[1])
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        return cond, None, normal
    return cond, np.linalg.solve(normal, a.T @ problem.labels), normal


def oracle_backward(problem, g):
    _, t, normal = oracle_solve(problem)
    h = np.linalg.solve(normal, g)
    residual = problem.labels - problem.data_matrix @ t
    return np.outer(residual, h) - np.outer(problem.data_matrix @ h, t)


def oracle_negatives(pyramid, gt_box, q, seed):
    """The reference sampler: copy every out-of-box cell, then pick q of the copies."""
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    per_level = []
    for fm, stride in zip(pyramid.levels, pyramid.strides):
        cys = (np.arange(fm.height) + 0.5) * stride
        cxs = (np.arange(fm.width) + 0.5) * stride
        out_y = (cys < gt_box.y) | (cys >= gt_box.y2)
        out_x = (cxs < gt_box.x) | (cxs >= gt_box.x2)
        outside = np.outer(out_y, np.ones_like(out_x, dtype=bool)) | np.outer(
            np.ones_like(out_y, dtype=bool), out_x
        )
        rr, cc = np.nonzero(outside)
        per_level.append([fm.data[r, c].astype(np.float64) for r, c in zip(rr, cc)])
    pool = [f for feats in per_level for f in feats]
    return [pool[i] for i in rng.permutation(len(pool))[:q]]


def oracle_positives(pyramid, gt_box, p, seed):
    """The reference sampler: the centre cell, then p - 1 other in-box cells of its level."""
    level = assign_level(gt_box, pyramid.num_levels)
    labels = pyramid.level_labels
    level = min(max(level, labels[0]), labels[-1])
    fm = pyramid.level_map(level)
    row0, col0 = center_cell(gt_box, pyramid, level)
    stride = pyramid.stride(level)
    cys = (np.arange(fm.height) + 0.5) * stride
    cxs = (np.arange(fm.width) + 0.5) * stride
    in_y = (cys >= gt_box.y) & (cys < gt_box.y2)
    in_x = (cxs >= gt_box.x) & (cxs < gt_box.x2)
    rr, cc = np.nonzero(np.outer(in_y, in_x))
    cells = [(r, c) for r, c in zip(rr, cc) if (r, c) != (row0, col0)]
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    idx = rng.permutation(len(cells))[: p - 1]
    picked = [(row0, col0)] + [cells[i] for i in idx]
    return [fm.data[r, c].astype(np.float64) for r, c in picked]


class TestSolveRidge:
    def test_orthonormal_rows_unregularized(self):
        prob = RegressionProblem.from_samples([1.0, 0.0], [[0.0, 1.0]], lam=0.0)
        assert solve_ridge(prob).values == pytest.approx([1.0, 0.0])

    def test_unit_lambda_halves_solution(self):
        prob = RegressionProblem.from_samples([1.0, 0.0], [[0.0, 1.0]], lam=1.0)
        assert solve_ridge(prob).values == pytest.approx([0.5, 0.0])

    def test_matches_gradient_descent_oracle(self):
        rng = philox(42)
        prob = random_problem(rng, 16, 32, lam=0.1)
        closed = solve_ridge(prob).values
        iterative = gradient_descent_minimizer(prob)
        rel = np.linalg.norm(closed - iterative) / np.linalg.norm(iterative)
        assert rel < 1e-6

    def test_perturbation_never_improves_objective(self):
        rng = philox(7)
        for _ in range(25):
            prob = random_problem(rng, 8, 12, lam=0.1)
            t = solve_ridge(prob).values
            base = prob.objective(t)
            delta = rng.normal(size=t.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert prob.objective(t + delta) >= base - 1e-12

    def test_no_negatives_gives_colinear_template(self):
        rng = philox(3)
        v = rng.normal(size=6)
        prob = RegressionProblem.from_samples(v, [], lam=0.5)
        t = solve_ridge(prob).values
        expected = v / (v @ v + 0.5)
        assert t == pytest.approx(expected)
        cos = t @ v / (np.linalg.norm(t) * np.linalg.norm(v))
        assert cos == pytest.approx(1.0)

    def test_singular_system_names_lambda(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SolverError, match="lambda"):
            solve_ridge(RegressionProblem(a, np.array([1.0, 0.0]), lam=1e-300))

    def test_underdetermined_requires_lambda(self):
        with pytest.raises(InvalidInputError):
            RegressionProblem.from_samples([1.0, 2.0, 3.0], [], lam=0.0)

    def test_labels_must_be_one_hot(self):
        with pytest.raises(InvalidInputError):
            RegressionProblem(np.eye(2), np.array([1.0, 1.0]), lam=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_refused(self, bad):
        a = np.full((5, 3), bad)
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            RegressionProblem(a, np.eye(5)[0], lam=0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(InvalidInputError, match="lambda must be finite and >= 0"):
            RegressionProblem(np.eye(2), np.eye(2)[0], lam=lam)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5)])  # primal, dual
    def test_gram_overflow_refused_without_warning(self, shape):
        a = np.random.default_rng(0).normal(size=shape) * 1e160
        problem = RegressionProblem(a, np.eye(shape[0])[0], lam=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="overflows float64"):
                solve_ridge(problem)


@st.composite
def ridge_problems(draw):
    """Both regimes (D <= rows and D > rows), low-rank data, lambda across the gate."""
    seed = draw(st.integers(0, 2**32 - 1))
    rows = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 40))
    rank = draw(st.integers(1, min(rows, dim)))
    lam = 10.0 ** draw(st.floats(-16, 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, dim))
    y = np.zeros(rows)
    y[0] = 1.0
    return RegressionProblem(a, y, lam), rng.normal(size=dim)


class TestSolveMatchesOracle:
    # Both solves lose about cond * eps of relative accuracy, so values are
    # compared where that loss stays well under the 1e-9 tolerance.
    WELL_CONDITIONED = 1e5

    @settings(max_examples=300, deadline=None)
    @given(ridge_problems())
    def test_gate_template_and_backward_match(self, case):
        problem, g = case
        cond, expected, _ = oracle_solve(problem)
        try:
            got = solve_ridge(problem).values
        except SolverError:
            got = None
        if 1e11 <= cond <= 1e13:
            return
        assert (got is None) == (expected is None), f"condition number {cond:.3e}"
        if expected is None or cond > self.WELL_CONDITIONED:
            return
        scale = max(np.max(np.abs(expected)), 1e-300)
        assert np.max(np.abs(got - expected)) <= 1e-9 * scale
        want = oracle_backward(problem, g)
        got_grad = ridge_backward(problem, g)
        assert np.max(np.abs(got_grad - want)) <= 1e-9 * max(np.max(np.abs(want)), 1e-300)

    def test_backward_refuses_singular_system(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SolverError, match="lambda"):
            ridge_backward(RegressionProblem(a, np.array([1.0, 0.0]), lam=1e-300), np.ones(2))

    def test_dual_backward_matches_finite_differences(self):
        rng = philox(17)
        prob = random_problem(rng, 40, 8, lam=0.1)  # D=40 > 9 rows: dual regime
        g = rng.normal(size=40)
        analytic = ridge_backward(prob, g)
        numeric = finite_difference_grad(prob, g, step=1e-4)
        rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
        assert rel < 1e-4


@contextlib.contextmanager
def eigvalsh_calls(monkeypatch):
    """Record the shape of each np.linalg.eigvalsh call; any np.linalg.eigh call fails."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return eigvalsh(matrix, *args, **kwargs)

    def no_eigenpairs(*args, **kwargs):
        raise AssertionError("the ridge solve computed eigenvectors")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", spy)
        patch.setattr(np.linalg, "eigh", no_eigenpairs)
        yield calls


def trace_ratio(problem):
    """trace(G) / lambda of the smaller Gram matrix, the certificate's bound on cond(G)."""
    a = problem.data_matrix
    gram = a @ a.T if a.shape[1] > a.shape[0] else a.T @ a
    return (np.trace(gram) + problem.lam * len(gram)) / problem.lam


class TestConditionGate:
    """The gate accepts on trace(G) / lambda without eigenvalues, else reads eigvalsh(G)."""

    @pytest.mark.parametrize("dim", [256, 1024])  # the benchmark's primal and dual sizes
    def test_certified_problem_computes_no_eigenvalues(self, monkeypatch, dim):
        g = philox(dim).normal(size=dim)
        prob = random_problem(philox(5), dim, 256, lam=0.1)
        assert trace_ratio(prob) <= CERTIFIED_CONDITION
        with eigvalsh_calls(monkeypatch) as calls:
            solve_ridge(prob)
            ridge_backward(prob, g)
        assert calls == []

    def test_zero_lambda_reads_eigenvalues(self, monkeypatch):
        prob = random_problem(philox(6), 8, 16, lam=0.0)
        with eigvalsh_calls(monkeypatch) as calls:
            solve_ridge(prob)
        assert calls == [(8, 8)]

    def test_overflowing_trace_ratio_reads_eigenvalues(self, monkeypatch):
        # trace(G) / 1e-310 overflows: no certificate, and no overflow warning
        prob = random_problem(philox(9), 3, 4, lam=1e-310)
        with eigvalsh_calls(monkeypatch) as calls:
            got = solve_ridge(prob).values
        assert calls == [(3, 3)]
        assert np.allclose(got, oracle_solve(prob)[1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rows, dim", [(33, 16), (9, 40)])  # primal, dual
    def test_above_certificate_reads_eigenvalues_and_solves(self, monkeypatch, rows, dim):
        a = philox(rows).normal(size=(rows, dim)) * 1e3
        prob = RegressionProblem.from_samples(a[0], list(a[1:]), lam=0.1)
        cond, expected, _ = oracle_solve(prob)
        assert trace_ratio(prob) > CERTIFIED_CONDITION and cond < CONDITION_LIMIT
        with eigvalsh_calls(monkeypatch) as calls:
            got = solve_ridge(prob).values
        assert calls == [(min(rows, dim),) * 2]
        # the oracle loses about cond * eps, and cond reaches 7e8 on the dual case
        tol = 10 * np.finfo(np.float64).eps * cond
        assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected))

    def test_condition_above_limit_refused_with_message(self):
        # dual, so the primal condition number is largest eigenvalue / lambda
        prob = random_problem(philox(8), 10, 3, lam=1e-12)
        assert oracle_solve(prob)[1] is None
        message = (r"^normal matrix condition number \d\.\d{3}e\+1[34] exceeds 1e\+12; "
                   r"increase lambda$")
        with pytest.raises(SolverError, match=message):
            solve_ridge(prob)
        with pytest.raises(SolverError, match=message):
            ridge_backward(prob, np.ones(10))


class TestMeanTemplates:
    def test_mean_pos_two_vectors(self):
        t = template_mean_pos([[1.0, 0.0], [0.0, 1.0]])
        assert t.values == pytest.approx([0.5, 0.5])
        assert t.kind == "mean_pos"

    def test_mean_pos_single_vector_is_identity(self):
        assert template_mean_pos([[2.0, 3.0]]).values == pytest.approx([2.0, 3.0])

    def test_mean_pos_repeated_vector(self):
        v = [1.5, -2.0, 0.25]
        assert template_mean_pos([v] * 5).values == pytest.approx(v)

    def test_mean_pos_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            template_mean_pos([])

    def test_mean_diff_basic(self):
        t = template_mean_diff([[1.0, 0.0]], [[0.0, 1.0]])
        assert t.values == pytest.approx([1.0, -1.0])

    def test_mean_diff_identical_sets_give_zero(self):
        vs = [[1.0, 2.0], [3.0, 4.0]]
        assert template_mean_diff(vs, vs).values == pytest.approx([0.0, 0.0])

    def test_mean_diff_three_vector_hand_case(self):
        # positives mean: (2, 1); negatives mean: (1/3, 4/3); diff: (5/3, -1/3)
        pos = [[1.0, 0.0], [3.0, 2.0]]
        neg = [[0.0, 1.0], [1.0, 3.0], [0.0, 0.0]]
        assert template_mean_diff(pos, neg).values == pytest.approx([5 / 3, -1 / 3])


class TestRidgeBackward:
    def test_zero_upstream_gives_zero_gradient(self):
        rng = philox(1)
        prob = random_problem(rng, 4, 6, lam=0.2)
        grad = ridge_backward(prob, np.zeros(4))
        assert np.all(grad == 0)

    def test_scalar_case_matches_hand_derivative(self):
        # t(a) = a / (a^2 + lam); dt/da = (lam - a^2) / (a^2 + lam)^2
        a, lam, g = 1.7, 0.3, 2.5
        prob = RegressionProblem(np.array([[a]]), np.array([1.0]), lam)
        grad = ridge_backward(prob, np.array([g]))
        expected = g * (lam - a ** 2) / (a ** 2 + lam) ** 2
        assert grad[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_linear_in_upstream(self):
        rng = philox(2)
        prob = random_problem(rng, 5, 8, lam=0.1)
        g1 = rng.normal(size=5)
        g2 = rng.normal(size=5)
        combined = ridge_backward(prob, 2.0 * g1 - 0.5 * g2)
        split = 2.0 * ridge_backward(prob, g1) - 0.5 * ridge_backward(prob, g2)
        assert combined == pytest.approx(split)

    def test_matches_finite_differences(self):
        rng = philox(13)
        for _ in range(5):
            prob = random_problem(rng, 6, 9, lam=0.1)
            g = rng.normal(size=6)
            analytic = ridge_backward(prob, g)
            numeric = finite_difference_grad(prob, g, step=1e-4)
            rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
            assert rel < 1e-4


@pytest.mark.parametrize("seed", [0, 1, 7, -1, -5, 2 ** 63, 2 ** 64 - 1, 12345678901234])
def test_sampler_stream_is_philox_stream_keyed_on_seed(seed):
    # the samplers draw from philox(0, stream=seed), the same stream as Philox(key=seed)
    direct = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    assert np.array_equal(direct.random(64), philox(0, stream=seed).random(64))


class TestSampling:
    def test_negatives_exclude_box_covering_image(self):
        pyr = make_pyramid()
        box = BoundingBox(-10, -10, 1000, 1000)
        feats, shortfall = sample_negatives(pyr, box, q=5, seed=0)
        assert feats == []
        assert shortfall == 5

    def test_negatives_full_pool(self):
        pyr = make_pyramid()
        box = BoundingBox(0, 0, 64, 64)
        total_outside = sum(
            fm.height * fm.width for fm in pyr.levels
        ) - sum(
            ((64 // s) * (64 // s)) for s in pyr.strides
        )
        feats, shortfall = sample_negatives(pyr, box, q=10_000, seed=1)
        assert len(feats) == total_outside
        assert shortfall == 10_000 - total_outside

    @pytest.mark.parametrize("sampler", [sample_negatives, sample_positives])
    def test_samples_are_checked_where_they_are_read(self, sampler):
        rng = philox(4)
        pyr = as_mapped(make_pyramid())
        for fm in pyr.levels:
            fm.data[:] = rng.normal(size=fm.data.shape)
        box = BoundingBox(20, 20, 40, 40)
        feats = np.array(sampler(pyr, box, 8, 3)[0], dtype=np.float32)
        sampled = [np.isin(fm.data, feats).all(axis=2) for fm in pyr.levels]
        for fm, cells in zip(pyr.levels, sampled):
            fm.data[~cells] = np.nan  # every cell not sampled
        assert np.array_equal(sampler(pyr, box, 8, 3)[0], feats)
        fm, cells = next((fm, cells) for fm, cells in zip(pyr.levels, sampled) if cells.any())
        fm.data[tuple(np.argwhere(cells)[0])] = np.inf
        with pytest.raises(ContainerError, match=f"^f.fpyr: level {fm.level}: "):
            sampler(pyr, box, 8, 3)

    def test_negatives_deterministic(self):
        spec = distractor_scene(0)
        pyr, boxes, _ = render_frame(spec, 0)
        a, _ = sample_negatives(pyr, boxes[0], 16, seed=5)
        b, _ = sample_negatives(pyr, boxes[0], 16, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        base=st.integers(4, 24),
        box=st.tuples(st.floats(-20, 90), st.floats(-20, 90), st.floats(1, 80), st.floats(1, 80)),
        q=st.integers(1, 600),
    )
    def test_negatives_bitwise_equal_to_oracle(self, seed, base, box, q):
        rng = np.random.default_rng(seed % 1000)
        maps = [
            FeatureMap(lvl, rng.normal(size=(base >> i, base >> i, 5)).astype(np.float32))
            for i, lvl in enumerate(range(2, 5))
        ]
        pyr = FeaturePyramid(maps)
        gt_box = BoundingBox(*box)
        feats, shortfall = sample_negatives(pyr, gt_box, q, seed)
        expected = oracle_negatives(pyr, gt_box, q, seed)
        assert len(feats) == len(expected)
        assert shortfall == q - len(expected)
        for got, want in zip(feats, expected):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        base=st.integers(4, 24),
        box=st.tuples(st.floats(-20, 90), st.floats(-20, 90), st.floats(1, 80), st.floats(1, 80)),
        p=st.integers(1, 60),
    )
    def test_positives_bitwise_equal_to_oracle(self, seed, base, box, p):
        rng = np.random.default_rng(seed % 1000)
        maps = [
            FeatureMap(lvl, rng.normal(size=(base >> i, base >> i, 5)).astype(np.float32))
            for i, lvl in enumerate(range(2, 5))
        ]
        pyr = FeaturePyramid(maps)
        gt_box = BoundingBox(*box)
        feats, shortfall = sample_positives(pyr, gt_box, p, seed)
        expected = oracle_positives(pyr, gt_box, p, seed)
        assert len(feats) == len(expected)
        assert shortfall == p - len(expected)
        for got, want in zip(feats, expected):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_positives_p1_is_center_feature(self):
        spec = distractor_scene(0)
        pyr, boxes, _ = render_frame(spec, 0)
        feats, _ = sample_positives(pyr, boxes[0], p=1, seed=0)
        assert len(feats) == 1
        assert np.array_equal(feats[0], extract_template(pyr, boxes[0]).astype(np.float64))

    def test_positives_tiny_box_reports_shortfall(self):
        pyr = make_pyramid(fill=lambda lvl: 1.0)
        feats, shortfall = sample_positives(pyr, BoundingBox(0, 0, 2, 2), p=5, seed=0)
        assert len(feats) == 1
        assert shortfall == 4

    def test_positives_deterministic(self):
        spec = distractor_scene(2)
        pyr, boxes, _ = render_frame(spec, 0)
        a, _ = sample_positives(pyr, boxes[0], 8, seed=3)
        b, _ = sample_positives(pyr, boxes[0], 8, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestDiscriminativeness:
    def test_ridge_margin_beats_normalized_center_margin(self):
        # with a strong distractor, the ridge template separates the positive
        # from the hardest negative at least as well as the center template
        # scaled to the same positive response
        for seed in range(10):
            spec = distractor_scene(seed)
            pyr, boxes, _ = render_frame(spec, 0)
            positive = extract_template(pyr, boxes[0]).astype(np.float64)
            negs, _ = sample_negatives(pyr, boxes[0], 256, seed=seed)
            prob = RegressionProblem.from_samples(positive, negs, lam=0.1)
            ridge = solve_ridge(prob).values
            n = np.stack(negs)
            pos_response = float(positive @ ridge)
            margin_ridge = pos_response - float(np.max(n @ ridge))
            center = positive * (pos_response / float(positive @ positive))
            margin_center = pos_response - float(np.max(n @ center))
            assert margin_ridge >= margin_center


class TestBuildTemplate:
    def test_center_kind_equals_extract(self):
        spec = distractor_scene(1)
        pyr, boxes, _ = render_frame(spec, 0)
        t = build_template(pyr, boxes[0], "center")
        assert np.array_equal(t.values, extract_template(pyr, boxes[0]).astype(np.float64))

    def test_unknown_kind_rejected(self):
        spec = distractor_scene(1)
        pyr, boxes, _ = render_frame(spec, 0)
        with pytest.raises(InvalidInputError):
            build_template(pyr, boxes[0], "fancy")

    def test_normalize_solves_ridge_on_unit_samples(self):
        spec = distractor_scene(2)
        pyr, boxes, _ = render_frame(spec, 0)
        t = build_template(pyr, boxes[0], "ridge", lam=0.3, num_negatives=64, seed=5,
                           normalize=True)
        positive = extract_template(pyr, boxes[0])
        negs, _ = sample_negatives(pyr, boxes[0], 64, seed=5)
        unit = [v / np.linalg.norm(v) for v in [positive, *negs]]
        want = solve_ridge(RegressionProblem.from_samples(unit[0], unit[1:], lam=0.3))
        assert t.kind == "ridge"
        assert np.array_equal(t.values, want.values)
        raw = build_template(pyr, boxes[0], "ridge", lam=0.3, num_negatives=64, seed=5)
        assert not np.allclose(t.values, raw.values)
