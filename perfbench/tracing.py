"""In-memory spans and counts around the package's layer boundaries.

The tracer wraps public functions at the name their caller binds (a module
attribute, or a class attribute for methods), so the package itself is not
changed.  Every wrapped call records its inclusive and self time; layer
boundaries also keep a span record (name, start, end, parent, request).
Hot leaf methods (`ScalarExpr.symbolically_zero`, `ScalarExpr.eval_numeric`)
are timed and counted but keep no span record each, since a pass makes
hundreds of thousands of those calls.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (dotted owner, attribute, span name); an owner ending in a class name is a
# class whose method is wrapped
BOUNDARIES = (
    ("sdybe.cli", "main", "cli.main"),
    ("sdybe.cli", "build_gl", "superalgebra.build"),
    ("sdybe.cli", "build_sl", "superalgebra.build"),
    ("sdybe.cli", "root_decomposition", "superalgebra.root_decomposition"),
    ("sdybe.cli", "spec_from_json", "rmatrix.spec_from_json"),
    ("sdybe.cli", "run_checks", "verifier.run_checks"),
    # run_checks imports casimir and construct at call time; rmatrix binds
    # casimir at import
    ("sdybe.superalgebra", "casimir", "superalgebra.casimir"),
    ("sdybe.rmatrix", "casimir", "superalgebra.casimir"),
    ("sdybe.rmatrix", "construct", "rmatrix.construct"),
    ("sdybe.rmatrix", "validate", "rmatrix.validate"),
    ("sdybe.verifier", "validate", "rmatrix.validate"),
    ("sdybe.verifier", "yb_bracket", "tensor.yb_bracket"),
    ("sdybe.verifier", "cross_bracket", "tensor.cross_bracket"),
    ("sdybe.verifier", "alt_s", "tensor.alt_s"),
    ("sdybe.verifier", "super_twist", "tensor.super_twist"),
    ("sdybe.verifier", "ad_action", "tensor.ad_action"),
    ("sdybe.verifier", "sample_points", "scalars.sample_points"),
    ("sdybe.verifier", "differential_dr", "verifier.differential_dr"),
    ("sdybe.verifier", "decide_tensor_zero", "verifier.decide"),
    ("sdybe.verifier", "cdybe_residual", "verifier.cdybe"),
    ("sdybe.verifier", "mdybe_residual", "verifier.mdybe"),
    ("sdybe.verifier", "lemma_consistency_check", "verifier.lemma"),
    ("sdybe.verifier", "limit_behavior_check", "verifier.limits"),
    ("sdybe.verifier", "dominant_vector", "verifier.dominant_vector"),
)
LEAVES = (
    ("sdybe.scalars.ScalarExpr", "symbolically_zero", "scalars.symbolically_zero"),
    ("sdybe.scalars.ScalarExpr", "eval_numeric", "scalars.eval_numeric"),
)


def _resolve(dotted: str):
    import importlib

    module, _, cls = dotted.rpartition(".")
    if cls[:1].isupper():
        return getattr(importlib.import_module(module), cls)
    return importlib.import_module(dotted)


class Tracer:
    """Spans and counters for one traced pass; `install` patches, `remove` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index, request]
        self.inclusive = defaultdict(float)  # outermost calls only, so recursion is not double counted
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.request = -1
        self._stack: list[list] = []  # [start, child seconds, span index]
        self._depth = defaultdict(int)
        self._wrappers: list[tuple] = []  # (owner, attribute, original, wrapper)
        self.originals: dict = {}

    def _wrap(self, name: str, fn, keep_span: bool, on_exit=None):
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            idx = -1
            if keep_span:
                idx = len(self.spans)
                parent = stack[-1][2] if stack else -1
                self.spans.append([name, 0.0, 0.0, parent, self.request])
            depth[name] += 1
            frame = [clock(), 0.0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[0]
                if keep_span:
                    self.spans[idx][1:3] = [frame[0], end]
                if stack:
                    stack[-1][1] += dur
                if not depth[name]:
                    self.inclusive[name] += dur
                self.self_time[name] += dur - frame[1]
                self.calls[name] += 1
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    def install(self):
        hooks = {
            "rmatrix.construct": self._count_r,
            "verifier.decide": self._count_decision,
        }
        if not self._wrappers:
            for table, keep_span in ((BOUNDARIES, True), (LEAVES, False)):
                for owner_name, attr, name in table:
                    owner = _resolve(owner_name)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                    self.originals[(owner_name, attr)] = original
                    wrapper = self._wrap(name, original, keep_span, hooks.get(name))
                    self._wrappers.append((owner, attr, original, wrapper))
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in reversed(self._wrappers):
            setattr(owner, attr, original)

    def _count_r(self, args, r):
        self.counts["rmatrix.r_cells"] += len(r.coeffs)
        self.counts["rmatrix.r_atoms"] += len(set().union(*(c.atoms() for c in r.coeffs.values())))

    def _count_decision(self, args, report):
        is_zero = self.originals[("sdybe.scalars.ScalarExpr", "symbolically_zero")]
        cells = args[0].coeffs.values()
        self.counts["tensor.residual_cells"] += len(cells)
        self.counts["verifier.sampled_cells"] += sum(1 for c in cells if not is_zero(c))
        self.counts["verifier.points_used"] += report.points_used

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the pass, keyed by BENCHMARK.json per_layer names."""
        out = {}
        for name in (
            "tensor.yb_bracket",
            "tensor.cross_bracket",
            "tensor.alt_s",
            "tensor.super_twist",
            "tensor.ad_action",
            "verifier.lemma",
            "scalars.eval_numeric",
            "scalars.sample_points",
            "scalars.symbolically_zero",
            "verifier.decide",
            "verifier.differential_dr",
            "verifier.limits",
            "verifier.dominant_vector",
            "rmatrix.spec_from_json",
            "rmatrix.validate",
            "rmatrix.construct",
            "superalgebra.build",
            "superalgebra.root_decomposition",
            "superalgebra.casimir",
        ):
            out[f"{name}_s"] = self.inclusive[name]
        for name in ("tensor.yb_bracket", "scalars.eval_numeric", "scalars.symbolically_zero", "verifier.decide"):
            out[f"{name}_calls"] = self.calls[name]
        for name in ("tensor.residual_cells", "verifier.points_used", "rmatrix.r_cells", "rmatrix.r_atoms"):
            out[name] = self.counts[name]
        cells = self.counts["tensor.residual_cells"]
        out["verifier.sampled_share"] = self.counts["verifier.sampled_cells"] / cells if cells else 0.0
        out["cli.self_s"] = self.self_time["cli.main"]
        return out

    def dump(self) -> dict:
        """Spans, self times and counts, for writing out when the run ends."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "request": r} for n, s, e, p, r in self.spans
            ],
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
