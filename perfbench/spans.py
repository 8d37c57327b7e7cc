"""In-memory span tracing of fpntrack's layers, installed from outside the package.

`Tracer.install()` replaces each function in `TRACED` with a wrapper that
records a span (name, start, end, parent). The wrapper is bound under every
name the function is reachable by in any `fpntrack` module, because `cli`,
`scenarios`, `tracker` and the package root import functions by name. Spans
stay in memory until `write` is called at the end of a run.

Functions called per frame-pair or per candidate (`box_iou`,
`extract_template`, `cosine_confidence`, `container.stable_json`) are not
wrapped: a span costs about a microsecond, and `box_iou` alone runs about
two million times per long-term op. Their time counts as their caller's
self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# layer -> public functions traced; "Class.method" names a method on a class.
TRACED = {
    "cli": ["main", "cmd_synth", "cmd_solve_template", "cmd_attend", "cmd_track", "cmd_eval",
            "scene_from_json"],
    "container": ["read_container", "write_container", "load_manifest", "save_manifest",
                  "load_candidates", "save_candidates", "read_tracks", "write_tracks",
                  "read_groundtruth", "write_groundtruth"],
    "pyramid": ["FeatureMap.__post_init__", "FeaturePyramid.__post_init__", "Mask.from_box"],
    "templates": ["build_template", "sample_negatives", "sample_positives", "solve_ridge",
                  "ridge_backward", "template_mean_pos", "template_mean_diff"],
    "attention": ["similarity_pyramid", "similarity", "reweight", "attend_pyramid"],
    "tracker": ["run_track", "step", "rerank"],
    "metrics": ["average_overlap", "oxuva_rates", "roc_curve", "roc_auc", "longterm_prf",
                "davis_j"],
    "synth": ["render_frame", "jittered_boxes", "score_candidates", "synth_candidates"],
    "scenarios": ["distractor_suite_ao", "sequence_ao", "distractor_scene",
                  "correlated_identities", "smoothing_suite_ao", "bootstrap_lower_bound"],
}
LAYERS = tuple(TRACED)

# Span name -> function of the result giving a size to sum with the span.
SIZES = {
    "container.read_container": lambda pyr: sum(fm.data.nbytes for fm in pyr.levels) / 1e6,
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, size]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, size=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(record)
            stack.append(idx)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                record[4] = size(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED wherever an fpntrack module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "fpntrack"]
        for layer, names in TRACED.items():
            module = sys.modules[f"fpntrack.{layer}"]
            for qual in names:
                name = f"{layer}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:  # a method: patch it on its class
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(self.span(name, raw.__func__)))
                    else:
                        setattr(owner, attr, self.span(name, raw))
                    continue
                original = getattr(module, attr)
                wrapped = self.span(name, original, SIZES.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def write(self, path) -> None:
        """Write the spans as gzipped JSONL, one object per span."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, size) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if size:
                    rec["size"] = size
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: list[list], roots: set[int]) -> dict:
    """Totals over the spans below the given root spans (the roots excluded).

    Returns {"names": {name: [total_ms, calls, size]}, "self_ms": {layer: ms}}.
    A span's self time is its duration minus its direct children's durations;
    spans nest, so children never overlap.
    """
    below = [False] * len(spans)
    child_ms = [0.0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
            below[i] = parent in roots or below[parent]
    names: dict[str, list] = {}
    self_ms = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _, size) in enumerate(spans):
        if not below[i]:
            continue
        ms = (end - start) * 1e3
        entry = names.setdefault(name, [0.0, 0, 0.0])
        entry[0] += ms
        entry[1] += 1
        entry[2] += size
        self_ms[name.split(".")[0]] += ms - child_ms[i]
    return {"names": names, "self_ms": self_ms}
