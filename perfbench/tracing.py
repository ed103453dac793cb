"""Runtime spans around the public entry points of each groupact layer.

``Tracer.install`` swaps each entry point for a timing wrapper and ``remove``
puts the original objects back, so the program itself is never edited.  A
span is ``(name, layer, start, end, parent, frame)``; ``parent`` is the index
of the enclosing span (-1 at the top) and ``frame`` is whatever frame the
benchmark was detecting when the span opened.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


def entry_points():
    """(owner, attribute, layer) for every wrapped entry point.

    Names that ``groupact.grad`` imports by value are wrapped in its
    namespace, ``fit_em`` in ``groupact.seqmodel``'s, methods on their class.
    Private names are never wrapped.
    """
    from groupact import features, gmm, grad, seqmodel, trackio

    return [
        (trackio, "parse_tracks", "trackio"),
        (trackio, "parse_annotations", "trackio"),
        (trackio, "load_model", "trackio"),
        (features, "pair_feature_windows", "features"),
        (features, "group_feature_window", "features"),
        (features, "entity_average_speed", "features"),
        (features, "body_size_change", "features"),
        (features, "pair_observation", "features"),
        (seqmodel.CorrelationEngine, "profile", "seqmodel"),
        (seqmodel.CorrelationEngine, "profiles", "seqmodel"),
        (seqmodel.CorrelationEngine, "group_score", "seqmodel"),
        (seqmodel, "train_bank", "seqmodel"),
        (seqmodel, "assemble_training_data", "seqmodel"),
        (seqmodel, "train_activity_model", "seqmodel"),
        (seqmodel, "train_hmm_model", "seqmodel"),
        (seqmodel, "fit_em", "gmm"),
        (gmm.GaussianMixture, "log_density", "gmm"),
        (gmm.GaussianMixture, "component_log_density", "gmm"),
        (grad, "detect_seeds", "clustering"),
        (grad, "merge_seeds", "clustering"),
        (grad, "assign_remaining", "clustering"),
        (grad, "make_representative", "grouprep"),
        (grad, "run_pipeline", "grad"),
        (grad, "recognize_symmetric", "grad"),
        (grad, "recognize_intergroup", "grad"),
    ]


class Tracer:
    """Collects spans and counts while installed; inert once removed."""

    def __init__(self):
        self.points = entry_points()
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.frame: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer in self.points:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, f"{layer}.{attr}", layer))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, fn, name: str, layer: str):
        hook = getattr(self, "_on_" + name.split(".")[1], None)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, layer, None, None, parent, self.frame))
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, layer, start, end, parent, self.frame)
            if hook is not None:
                hook(parent, args, kwargs, result)
            return result

        return wrapper

    # Counters, each taken at the boundary where the work happens.

    def _parent_name(self, parent: int) -> str | None:
        return None if parent < 0 else self.spans[parent][0]

    def _on_pair_feature_windows(self, parent, args, kwargs, result):
        self.counts["features.windows"] += 1
        window = kwargs.get("window", args[4] if len(args) > 4 else None)
        if result is None or result[0].shape[0] < window:
            self.counts["features.short_windows"] += 1
        if self._parent_name(parent) == "seqmodel.profiles":
            self.counts["seqmodel.items_computed"] += 1

    def _on_group_feature_window(self, parent, args, kwargs, result):
        self.counts["features.windows"] += 1

    # A profile lookup is either one ``profile`` call (one item) or one
    # ``profiles`` call that no ``profile`` call made.  A ``profile`` miss
    # reaches ``profiles``, whose ``pair_feature_windows`` call counts as the
    # computed item; a hit never gets there.

    def _on_profile(self, parent, args, kwargs, result):
        self.counts["seqmodel.profile_calls"] += 1
        self.counts["seqmodel.items_requested"] += 1

    def _on_profiles(self, parent, args, kwargs, result):
        if self._parent_name(parent) == "seqmodel.profile":
            return
        items = kwargs.get("items", args[1] if len(args) > 1 else ())
        self.counts["seqmodel.profile_calls"] += 1
        self.counts["seqmodel.items_requested"] += len(items)

    def _on_train_activity_model(self, parent, args, kwargs, result):
        self.counts["seqmodel.segments"] += len(kwargs.get("segments", args[0] if args else ()))

    def _on_detect_seeds(self, parent, args, kwargs, result):
        self.counts["clustering.seeds"] += len(result)

    def _on_merge_seeds(self, parent, args, kwargs, result):
        seeds = kwargs.get("seeds", args[0] if args else ())
        self.counts["clustering.seeds_merged"] += len(seeds) - len(result)

    def _on_make_representative(self, parent, args, kwargs, result):
        self.counts["grouprep.fallbacks"] += int(result.fallback)

    def _on_recognize_symmetric(self, parent, args, kwargs, result):
        self.counts["grad.groups"] += 1

    def _on_recognize_intergroup(self, parent, args, kwargs, result):
        self.counts["grad.group_pairs"] += 1


def self_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Self time per layer and per span name.

    Spans nest strictly (one thread), so the time children cover is the sum
    of their durations.
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, frame in spans:
        if parent >= 0:
            child[parent] += end - start
    by_layer: dict[str, float] = defaultdict(float)
    by_name: dict[str, float] = defaultdict(float)
    for i, (name, layer, start, end, parent, frame) in enumerate(spans):
        own = (end - start) - child[i]
        by_layer[layer] += own
        by_name[name] += own
    return dict(by_layer), dict(by_name)

