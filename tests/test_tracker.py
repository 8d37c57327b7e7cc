from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpntrack import tracker
from fpntrack.errors import InvalidInputError
from fpntrack.pyramid import BoundingBox, box_iou, box_iou_rows
from fpntrack.scenarios import distractor_scene, sequence_ao
from fpntrack.synth import box_rows
from fpntrack.tracker import (
    Candidates,
    TrackerConfig,
    TrackerState,
    rerank,
    run_track,
    step,
)


def candidates_of(boxes, confidences) -> Candidates:
    """Candidates of BoundingBoxes and their confidences."""
    return Candidates(box_rows(boxes), np.array(confidences, dtype=np.float64))


def cands(*rows):
    """Candidates from (x, confidence) rows of 10x10 boxes at y = 0, or from (box, confidence)."""
    boxes = [r[0] if isinstance(r[0], BoundingBox) else BoundingBox(r[0], 0, 10, 10) for r in rows]
    return candidates_of(boxes, [r[1] for r in rows])


def box(x):
    return (float(x), 0.0, 10.0, 10.0)


def rerank_against(candidates, previous, alpha):
    """`rerank` on the IoU row of the candidates against the previous box, as `step` calls it."""
    return rerank(candidates, box_iou_rows(candidates.box, np.array([previous])), alpha)


class TestRerank:
    def test_default_alpha_arithmetic(self):
        # alpha 0.6, c 0.9, overlap 0.5 -> 0.74
        half = rerank_against(cands((5, 0.9)), box(0), 0.6)[0]  # IoU 1/3 with prev
        assert half == pytest.approx(0.6 * 0.9 + 0.4 * (1 / 3))
        full = rerank_against(cands((0, 0.9)), box(0), 0.6)[0]  # IoU 1 with prev
        assert full == pytest.approx(0.6 * 0.9 + 0.4 * 1.0)

    def test_alpha_one_keeps_confidences(self):
        assert rerank_against(cands((0, 0.9), (100, 0.2)), box(0), 1.0).tolist() == [0.9, 0.2]

    def test_alpha_zero_gives_overlaps(self):
        assert rerank_against(cands((0, 0.9), (100, 0.2)), box(0), 0.0).tolist() == [1.0, 0.0]

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidInputError):
            rerank(cands(), np.empty(0), 0.6)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_output_stays_in_unit_range(self, alpha, c, x):
        out = rerank_against(cands((x * 10, c)), box(0), alpha)[0]
        assert 0.0 <= out <= 1.0

    def test_monotone_in_overlap(self):
        scores = rerank_against(cands((1, 0.4), (8, 0.4)), box(0), 0.6)
        assert scores[0] >= scores[1]


class TestStep:
    def test_plain_argmax_when_smoothing_off(self):
        config = TrackerConfig(smoothing_enabled=False)
        state, confidence, _ = step(TrackerState(previous=box(0)), cands((0, 0.6), (20, 0.7)),
                                    config)
        assert confidence == 0.7
        assert state.previous == box(20)

    def test_reranked_selection_prefers_overlap(self):
        # A: c 0.7, IoU 0 -> 0.42; B: c 0.5, IoU ~0.95 -> 0.68
        config = TrackerConfig(alpha=0.6)
        state = TrackerState(previous=(0.0, 0.0, 100.0, 100.0))
        a = (BoundingBox(500, 0, 100, 100), 0.7)
        b = (BoundingBox(0, 0, 100, 105), 0.5)
        state, confidence, _ = step(state, cands(a, b), config)
        assert state.previous == (0.0, 0.0, 100.0, 105.0)
        assert confidence == 0.5

    def test_tie_breaks_to_lowest_index(self):
        config = TrackerConfig(smoothing_enabled=False)
        state, _, _ = step(TrackerState(), cands((0, 0.5), (30, 0.5)), config)
        assert state.previous == box(0)

    def test_presence_threshold(self):
        config = TrackerConfig(presence_threshold=0.3, smoothing_enabled=False)
        _, _, present = step(TrackerState(), cands((0, 0.29)), config)
        assert not present
        _, _, present = step(TrackerState(), cands((0, 0.3)), config)
        assert present

    def test_empty_candidates_carry_previous_with_zero_confidence(self):
        state, confidence, present = step(TrackerState(previous=box(3)), cands(), TrackerConfig())
        assert not present
        assert confidence == 0.0
        assert state.previous == box(3)

    def test_empty_first_frame_selects_placeholder_box(self):
        state, confidence, present = step(TrackerState(), cands(), TrackerConfig())
        assert not present
        assert confidence == 0.0
        assert state == TrackerState(previous=(0.0, 0.0, 1.0, 1.0))

    def test_smoothed_selection_is_the_argmax_of_rerank(self, monkeypatch):
        # step blends through `rerank`, on the IoU row it computes once
        calls = []

        def spy(candidates, iou, alpha):
            calls.append((iou.tolist(), alpha))
            return np.array([0.0, 1.0])

        monkeypatch.setattr(tracker, "rerank", spy)
        state, confidence, _ = step(TrackerState(previous=box(0)), cands((0, 0.9), (20, 0.1)),
                                    TrackerConfig(alpha=0.6))
        assert calls == [([1.0, 0.0], 0.6)]
        assert state.previous == box(20) and confidence == 0.1

    def test_pure_state_transition(self):
        config = TrackerConfig()
        state = TrackerState(previous=box(0), smoothing_active=False, consecutive_smooth=3)
        frame = cands((0, 0.6), (12, 0.4))
        assert step(state, frame, config) == step(state, frame, config)


class TestStateMachine:
    def test_break_and_exact_recovery(self):
        config = TrackerConfig(recover_frames=30)
        state = TrackerState(previous=box(0))
        assert state.smoothing_active

        # jump: the only candidate is far away -> break within one frame
        state, _, _ = step(state, cands((500, 0.9)), config)
        assert not state.smoothing_active
        assert state.consecutive_smooth == 0

        # 29 smooth frames: still recovering
        for i in range(29):
            state, _, _ = step(state, cands((500, 0.9)), config)
            assert not state.smoothing_active, f"re-enabled early at frame {i + 1}"
            assert state.consecutive_smooth == i + 1

        # the 30th consecutive smooth frame re-enables smoothing
        state, _, _ = step(state, cands((500, 0.9)), config)
        assert state.smoothing_active
        assert state.consecutive_smooth == 0

    def test_recovery_counter_resets_on_jump(self):
        config = TrackerConfig(recover_frames=30)
        state = TrackerState(previous=box(0), smoothing_active=False)
        # first step jumps from x=0 to x=500 and resets the counter;
        # the next nine are smooth
        for _ in range(10):
            state, _, _ = step(state, cands((500, 0.9)), config)
        assert state.consecutive_smooth == 9
        state, _, _ = step(state, cands((0, 0.9)), config)  # jump back
        assert state.consecutive_smooth == 0
        assert not state.smoothing_active

    def test_smoothing_disabled_config_never_reranks(self):
        config = TrackerConfig(smoothing_enabled=False)
        a = (BoundingBox(500, 0, 100, 100), 0.7)
        b = (BoundingBox(0, 0, 100, 105), 0.5)
        state = TrackerState(previous=(0.0, 0.0, 100.0, 100.0))
        state, confidence, _ = step(state, cands(a, b), config)
        assert confidence == 0.7  # raw argmax
        assert state.previous == (500.0, 0.0, 100.0, 100.0)


class TestRunTrack:
    def test_single_frame_perfect_candidate(self):
        spec = distractor_scene(0)
        from fpntrack.synth import render_frame

        pyr, boxes, _ = render_frame(spec, 0)
        init = boxes[0]
        track = run_track([lambda template: cands((init, 1.0))], init, pyr, TrackerConfig(),
                          "center")
        assert track.frame.tolist() == [0]
        assert track.present.tolist() == [True]
        assert track.box.tolist() == [init.as_list()]
        assert track.confidence.tolist() == [1.0]
        assert track.mask == (None,)

    def test_smoothing_irrelevant_for_identical_candidates(self):
        # jitter-free candidates: overlaps never change the argmax
        from fpntrack.scenarios import SuiteParams

        params = SuiteParams(jitter=0.0, candidates_per_object=1, noise_sigma=0.0)
        spec = distractor_scene(3, params)
        ao_smooth = sequence_ao(spec, "center", TrackerConfig(smoothing_enabled=True), params)
        ao_plain = sequence_ao(spec, "center", TrackerConfig(smoothing_enabled=False), params)
        assert ao_smooth == ao_plain == pytest.approx(1.0)

    def test_stateless_mode_is_order_free_per_frame(self):
        # without smoothing each frame is an independent argmax
        config = TrackerConfig(smoothing_enabled=False)
        frames = [lambda template: cands((0, 0.3), (10, 0.6)),
                  lambda template: cands((5, 0.9), (0, 0.1))]
        spec = distractor_scene(1)
        from fpntrack.synth import render_frame

        pyr, boxes, _ = render_frame(spec, 0)
        track_fwd = run_track(frames, boxes[0], pyr, config, "center")
        track_rev = run_track(frames[::-1], boxes[0], pyr, config, "center")
        assert track_fwd.frame.tolist() == track_rev.frame.tolist() == [0, 1]
        assert track_fwd.box.tolist() == track_rev.box[::-1].tolist()

    def test_empty_sequence_rejected(self):
        spec = distractor_scene(1)
        from fpntrack.synth import render_frame

        pyr, boxes, _ = render_frame(spec, 0)
        with pytest.raises(InvalidInputError):
            run_track([], boxes[0], pyr, TrackerConfig(), "center")


class TestTrackValidation:
    def test_confidence_bounds_enforced(self):
        with pytest.raises(InvalidInputError, match=r"confidence 1\.5 outside \[0, 1\]"):
            cands((0, 1.5))
        with pytest.raises(InvalidInputError, match=r"confidence nan outside \[0, 1\]"):
            cands((0, 0.5), (0, float("nan")))

    @pytest.mark.parametrize(
        "row, message",
        [([float("nan"), 0, 10, 10], r"candidate 1: non-finite box \(nan, 0\.0, 10\.0, 10\.0\)"),
         ([0, 0, 0, 10], r"candidate 1: degenerate box: w=0\.0, h=10\.0"),
         ([0, 0, 10, -1], r"candidate 1: degenerate box: w=10\.0, h=-1\.0"),
         ([0, 0, 1e200, 1e200], r"candidate 1: box area overflows"),
         ([1e308, 0, 1e308, 1], r"candidate 1: box edge overflows")],
        ids=["nan", "zero-width", "negative-height", "area-overflow", "edge-overflow"],
    )
    def test_bad_box_row_refused_naming_it(self, row, message):
        with pytest.raises(InvalidInputError, match=message):
            Candidates(np.array([[0, 0, 10, 10], row, [float("inf"), 0, 1, 1]]), np.full(3, 0.5))

    def test_nan_box_never_reaches_step(self):
        # step used to select the NaN row (its blend is NaN, and argmax returns
        # the first NaN) and carry it as the previous box
        state = TrackerState(previous=(0.0, 0.0, 10.0, 10.0))
        with pytest.raises(InvalidInputError, match="candidate 0: non-finite box"):
            step(state, Candidates(np.array([[np.nan, 0, 10, 10], [0, 0, 10, 10]]),
                                   np.array([0.2, 0.9])), TrackerConfig())

    def test_shapes_must_agree(self):
        with pytest.raises(InvalidInputError, match=r"are not \(K, 4\), \(K,\)"):
            Candidates(np.zeros((2, 4)), np.zeros(3))
        with pytest.raises(InvalidInputError, match=r"are not \(K, 4\), \(K,\)"):
            Candidates(np.zeros((2, 3)), np.zeros(2))

    def test_with_confidence_checks_only_the_confidences(self, monkeypatch):
        unscored = Candidates(np.array([[0.0, 0, 10, 10], [5, 5, 10, 10]]), np.zeros(2))
        checked = []
        monkeypatch.setattr(tracker, "first_bad_box_row", checked.append)
        scored = unscored.with_confidence([0.25, 0.75])
        assert checked == []  # the rows were checked when `unscored` was made
        assert scored.box is unscored.box and scored.confidence.tolist() == [0.25, 0.75]
        with pytest.raises(InvalidInputError, match=r"confidence 1\.5 outside \[0, 1\]"):
            unscored.with_confidence([0.5, 1.5])
        with pytest.raises(InvalidInputError, match=r"are not \(K, 4\), \(K,\)"):
            unscored.with_confidence([0.5])


# The per-object tracker the columns replaced, kept as an oracle. No candidate
# ever carried a mask, so its overlap is the box IoU.


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    confidence: float


@dataclass(frozen=True)
class OracleState:
    previous: Optional[Detection] = None
    smoothing_active: bool = True
    consecutive_smooth: int = 0


def oracle_rerank(candidates, previous, alpha):
    return [alpha * c.confidence + (1.0 - alpha) * box_iou(c.box, previous.box)
            for c in candidates]


def oracle_step(state, candidates, config):
    if not candidates:
        if state.previous is not None:
            carried = replace(state.previous, confidence=0.0)
        else:
            carried = Detection(BoundingBox(0, 0, 1, 1), 0.0)
        return replace(state, previous=carried), carried, False
    use_smoothing = (
        config.smoothing_enabled and state.smoothing_active and state.previous is not None
    )
    if use_smoothing:
        scores = oracle_rerank(candidates, state.previous, config.alpha)
    else:
        scores = [c.confidence for c in candidates]
    selected = candidates[int(np.argmax(scores))]
    present = selected.confidence >= config.presence_threshold
    smoothing_active = state.smoothing_active
    counter = state.consecutive_smooth
    if config.smoothing_enabled and state.previous is not None:
        iou = box_iou(selected.box, state.previous.box)
        if smoothing_active:
            if iou < config.alpha_low:
                smoothing_active = False
                counter = 0
        else:
            if iou > config.alpha_recover:
                counter += 1
                if counter >= config.recover_frames:
                    smoothing_active = True
                    counter = 0
            else:
                counter = 0
    return OracleState(selected, smoothing_active, counter), selected, present


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# near-by boxes on a coarse grid make ties, touching edges and overlaps common
_coord = st.one_of(st.integers(0, 12).map(float), st.floats(-5, 40, allow_nan=False))
_size = st.one_of(st.integers(1, 12).map(float), st.floats(0.5, 30, allow_nan=False))
_candidate = st.tuples(st.builds(BoundingBox, _coord, _coord, _size, _size),
                       st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.floats(0, 1)))
_frames = st.lists(st.lists(_candidate, max_size=5), min_size=1, max_size=25)
_config = st.builds(
    TrackerConfig,
    alpha=st.floats(0, 1),
    alpha_low=st.floats(0, 0.5),
    alpha_recover=st.floats(0, 0.8),
    recover_frames=st.integers(1, 4),
    presence_threshold=st.floats(0, 1),
    smoothing_enabled=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(_frames, _config)
def test_columns_match_the_per_object_oracle(frames, config):
    state, oracle = TrackerState(), OracleState()
    for rows in frames:
        detections = [Detection(b, c) for b, c in rows]
        candidates = candidates_of([b for b, _ in rows], [c for _, c in rows])
        if rows and oracle.previous is not None:
            assert _bits(rerank_against(candidates, state.previous, config.alpha)) == _bits(
                oracle_rerank(detections, oracle.previous, config.alpha)
            )
        state, confidence, present = step(state, candidates, config)
        oracle, selected, oracle_present = oracle_step(oracle, detections, config)
        assert _bits(state.previous) == _bits(selected.box.as_list())
        assert _bits(confidence) == _bits(selected.confidence)
        assert present == oracle_present
        assert (state.smoothing_active, state.consecutive_smooth) == (
            oracle.smoothing_active, oracle.consecutive_smooth
        )
