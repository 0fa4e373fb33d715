"""Span tracer for the per-layer run.

The benchmark wraps each public function named in ``TRACED`` from the
outside: the wrapper replaces the name in every ``edm_atlas`` module that
holds the function object, so calls through ``from .audio import stft``
style imports are seen as well. Each call records one span
``[name, start, end, parent]`` in memory; the spans are summarised (and may
be written out) after the run. Untraced runs never construct a Tracer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

TRACED = {
    "audio": ["load_wav", "resample", "stft"],
    "tempogram": [
        "novelty_curve",
        "fourier_tempogram",
        "autocorr_tempogram",
        "cyclic_tempogram",
        "tempogram_summary",
    ],
    "features": [
        "spectral_stats",
        "mfcc_features",
        "chroma_features",
        "dfa_exponent",
        "fundamental_feature_vector",
    ],
    "table": ["load_manifest", "load_matrix", "save_matrix"],
    "selection": [
        "ensemble_normalize",
        "power_scale",
        "ensemble_select",
        "mutual_info",
        "anova_f",
        "cluster_separation_score",
    ],
    "trees": ["forest_gini_importance"],
    "cluster": ["kmeans", "divisive_cluster", "heterogeneity", "select_natural_k"],
    "metrics": [
        "cophenetic_bootstrap",
        "silhouette",
        "davies_bouldin",
        "calinski_harabasz",
        "cophenetic_dendrogram",
        "cluster_profiles",
    ],
    "plots": ["pca_project", "scatter_svg", "radar_svg"],
    "pipeline": [
        "extract_track",
        "prepare_selected",
        "cmd_extract",
        "cmd_cluster",
        "cmd_sweep",
        "cmd_profile",
        "cmd_plot",
    ],
}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            names.append((f"{module}.{fn}_s", "s"))
            names.append((f"{module}.{fn}_calls", "count"))
        names.append((f"{module}.self_s", "s"))
    names.append(("trace.overhead_s", "s"))
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Rebind every traced function in every loaded ``edm_atlas`` module."""
        for module, functions in TRACED.items():
            home = importlib.import_module(f"edm_atlas.{module}")
            for fn in functions:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{module}.{fn}", original)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "edm_atlas" and not name.startswith("edm_atlas."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def reset(self) -> None:
        self.spans.clear()

    def summary(self) -> dict[str, float]:
        """Busy time and call count per function, self time per module.

        A function's busy time counts only its outermost spans, so a function
        that reaches itself again is not counted twice. A module's self time
        is its spans' durations minus the durations of their direct children.
        """
        out: dict[str, float] = {}
        for module, functions in TRACED.items():
            for fn in functions:
                out[f"{module}.{fn}_s"] = 0.0
                out[f"{module}.{fn}_calls"] = 0
            out[f"{module}.self_s"] = 0.0
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            out[f"{name}_calls"] += 1
            out[name.split(".")[0] + ".self_s"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}_s"] += end - start
        return out
