import numpy as np
import pytest
from hypothesis import given, strategies as st

from fpntrack.errors import InvalidInputError
from fpntrack.pyramid import BoundingBox, Mask
from fpntrack.scenarios import distractor_scene, sequence_ao
from fpntrack.tracker import (
    Detection,
    TrackerConfig,
    TrackerState,
    overlap,
    rerank,
    run_track,
    step,
)


def det(x, conf, mask=None):
    return Detection(BoundingBox(x, 0, 10, 10), conf, mask)


class TestRerank:
    def test_default_alpha_arithmetic(self):
        # alpha 0.6, c 0.9, overlap 0.5 -> 0.74
        prev = det(0, 0.5)
        cand = Detection(BoundingBox(5, 0, 10, 10), 0.9)  # IoU 1/3 with prev
        full = Detection(BoundingBox(0, 0, 10, 10), 0.9)  # IoU 1 with prev
        half = rerank([cand], prev, 0.6)[0]
        assert half == pytest.approx(0.6 * 0.9 + 0.4 * (1 / 3))
        assert rerank([full], prev, 0.6)[0] == pytest.approx(0.6 * 0.9 + 0.4 * 1.0)

    def test_alpha_one_keeps_confidences(self):
        prev = det(0, 0.5)
        cands = [det(0, 0.9), det(100, 0.2)]
        assert rerank(cands, prev, 1.0) == [0.9, 0.2]

    def test_alpha_zero_gives_overlaps(self):
        prev = det(0, 0.5)
        cands = [det(0, 0.9), det(100, 0.2)]
        assert rerank(cands, prev, 0.0) == [1.0, 0.0]

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidInputError):
            rerank([], det(0, 0.5), 0.6)

    def test_mask_overlap_preferred_when_available(self):
        canvas = np.zeros((4, 4), dtype=bool)
        canvas[0, :2] = True
        m1 = Mask.from_array(canvas)
        canvas2 = np.zeros((4, 4), dtype=bool)
        canvas2[0, 1:3] = True
        m2 = Mask.from_array(canvas2)
        a = det(0, 0.5, m1)
        b = det(50, 0.5, m2)  # boxes disjoint but masks overlap
        assert overlap(a, b) == pytest.approx(1 / 3)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_output_stays_in_unit_range(self, alpha, c, x):
        prev = det(0, 0.5)
        cand = Detection(BoundingBox(x * 10, 0, 10, 10), c)
        out = rerank([cand], prev, alpha)[0]
        assert 0.0 <= out <= 1.0

    def test_monotone_in_overlap(self):
        prev = det(0, 0.5)
        closer = Detection(BoundingBox(1, 0, 10, 10), 0.4)
        farther = Detection(BoundingBox(8, 0, 10, 10), 0.4)
        scores = rerank([closer, farther], prev, 0.6)
        assert scores[0] >= scores[1]


class TestStep:
    def test_plain_argmax_when_smoothing_off(self):
        config = TrackerConfig(smoothing_enabled=False)
        state = TrackerState(previous=det(0, 0.5))
        _, selected, _ = step(state, [det(0, 0.6), det(20, 0.7)], config)
        assert selected.confidence == 0.7

    def test_reranked_selection_prefers_overlap(self):
        # A: c 0.7, IoU 0 -> 0.42; B: c 0.5, IoU 0.9 -> 0.66
        config = TrackerConfig(alpha=0.6)
        prev = Detection(BoundingBox(0, 0, 100, 100), 0.9)
        a = Detection(BoundingBox(500, 0, 100, 100), 0.7)
        b = Detection(BoundingBox(0, 0, 100, 105), 0.5)  # IoU ~0.95
        state = TrackerState(previous=prev)
        _, selected, _ = step(state, [a, b], config)
        assert selected is b

    def test_tie_breaks_to_lowest_index(self):
        config = TrackerConfig(smoothing_enabled=False)
        first = det(0, 0.5)
        _, selected, _ = step(TrackerState(), [first, det(30, 0.5)], config)
        assert selected is first

    def test_presence_threshold(self):
        config = TrackerConfig(presence_threshold=0.3, smoothing_enabled=False)
        _, _, present = step(TrackerState(), [det(0, 0.29)], config)
        assert not present
        _, _, present = step(TrackerState(), [det(0, 0.3)], config)
        assert present

    def test_empty_candidates_carry_previous_with_zero_confidence(self):
        config = TrackerConfig()
        prev = det(3, 0.8)
        state, selected, present = step(TrackerState(previous=prev), [], config)
        assert not present
        assert selected.box == prev.box
        assert selected.confidence == 0.0
        assert state.previous.confidence == 0.0

    def test_empty_first_frame_selects_placeholder_box(self):
        placeholder = Detection(BoundingBox(0, 0, 1, 1), 0.0)
        state, selected, present = step(TrackerState(), [], TrackerConfig())
        assert not present
        assert selected == placeholder
        assert state == TrackerState(previous=placeholder)

    def test_pure_state_transition(self):
        config = TrackerConfig()
        state = TrackerState(previous=det(0, 0.5), smoothing_active=False, consecutive_smooth=3)
        cands = [det(0, 0.6), det(12, 0.4)]
        out1 = step(state, cands, config)
        out2 = step(state, cands, config)
        assert out1 == out2


class TestStateMachine:
    def test_break_and_exact_recovery(self):
        config = TrackerConfig(recover_frames=30)
        state = TrackerState(previous=det(0, 0.9))
        assert state.smoothing_active

        # jump: the only candidate is far away -> break within one frame
        state, _, _ = step(state, [det(500, 0.9)], config)
        assert not state.smoothing_active
        assert state.consecutive_smooth == 0

        # 29 smooth frames: still recovering
        for i in range(29):
            state, _, _ = step(state, [det(500, 0.9)], config)
            assert not state.smoothing_active, f"re-enabled early at frame {i + 1}"
            assert state.consecutive_smooth == i + 1

        # the 30th consecutive smooth frame re-enables smoothing
        state, _, _ = step(state, [det(500, 0.9)], config)
        assert state.smoothing_active
        assert state.consecutive_smooth == 0

    def test_recovery_counter_resets_on_jump(self):
        config = TrackerConfig(recover_frames=30)
        state = TrackerState(previous=det(0, 0.9), smoothing_active=False)
        # first step jumps from det(0) to det(500) and resets the counter;
        # the next nine are smooth
        for _ in range(10):
            state, _, _ = step(state, [det(500, 0.9)], config)
        assert state.consecutive_smooth == 9
        state, _, _ = step(state, [det(0, 0.9)], config)  # jump back
        assert state.consecutive_smooth == 0
        assert not state.smoothing_active

    def test_smoothing_disabled_config_never_reranks(self):
        config = TrackerConfig(smoothing_enabled=False)
        prev = Detection(BoundingBox(0, 0, 100, 100), 0.9)
        a = Detection(BoundingBox(500, 0, 100, 100), 0.7)
        b = Detection(BoundingBox(0, 0, 100, 105), 0.5)
        _, selected, _ = step(TrackerState(previous=prev), [a, b], config)
        assert selected is a  # raw argmax


class TestRunTrack:
    def test_single_frame_perfect_candidate(self):
        spec = distractor_scene(0)
        from fpntrack.synth import render_frame

        pyr, boxes, _ = render_frame(spec, 0)
        init = boxes[0]
        cand = Detection(init, 1.0)
        track = run_track([lambda template: [cand]], init, pyr, TrackerConfig(), "center")
        assert track.frame.tolist() == [0]
        assert track.present.tolist() == [True]
        assert track.box.tolist() == [init.as_list()]
        assert track.confidence.tolist() == [1.0]
        assert track.mask == (None,)

    def test_smoothing_irrelevant_for_identical_candidates(self):
        # jitter-free candidates: overlaps never change the argmax
        spec = distractor_scene(3)
        from fpntrack.scenarios import SuiteParams

        params = SuiteParams(jitter=0.0, candidates_per_object=1, noise_sigma=0.0)
        spec = distractor_scene(3, params)
        ao_smooth = sequence_ao(spec, "center", TrackerConfig(smoothing_enabled=True), params)
        ao_plain = sequence_ao(spec, "center", TrackerConfig(smoothing_enabled=False), params)
        assert ao_smooth == ao_plain == pytest.approx(1.0)

    def test_stateless_mode_is_order_free_per_frame(self):
        # without smoothing each frame is an independent argmax
        config = TrackerConfig(smoothing_enabled=False)
        frames = [lambda template: [det(0, 0.3), det(10, 0.6)],
                  lambda template: [det(5, 0.9), det(0, 0.1)]]
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
        with pytest.raises(InvalidInputError):
            Detection(BoundingBox(0, 0, 1, 1), 1.5)
