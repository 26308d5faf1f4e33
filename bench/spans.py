"""Span recorder for the traced in-process run.

The recorder wraps, for the duration of a ``with`` block, the public
functions that ``cli``, ``rspt`` and ``oracle`` call through their module
namespaces, plus a few methods of the exact layer.  Each wrapped call
leaves a span ``[name, start, end, parent, error]`` in memory; hot
methods whose calls are too many to record one by one are only counted.
A layer's self time is the time of its spans minus the time their child
spans cover, so the self times of all spans add up to the time of the
root spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# module-level function -> (span name, layer metric its self time goes to)
FUNCTIONS = {
    "kac_involution": ("kac.kac_involution", "kac.involution_s"),
    "perturbation_split": ("model.perturbation_split", "model.split_s"),
    "qes_matrix": ("model.qes_matrix", "model.qes_matrix_s"),
    "general_matrix": ("model.general_matrix", "model.general_matrix_s"),
    "perturbation_series": ("rspt.perturbation_series", "rspt.series_s"),
    "energy_series": ("rspt.energy_series", "rspt.energy_series_s"),
    "energy_coefficients": ("rspt.energy_coefficients", "rspt.energy_series_s"),
    "qes_spectrum": ("oracle.qes_spectrum", "oracle.self_s"),
    "truncated_spectrum": ("oracle.truncated_spectrum", "oracle.self_s"),
    "radial_wavefunction": ("oracle.radial_wavefunction", "oracle.self_s"),
    "tridiagonal_spectrum": ("oracle.tridiagonal_spectrum", "oracle.self_s"),
    "bisection_eigenvalues": ("oracle.bisection_eigenvalues", "oracle.bisection_s"),
    "inverse_iteration": ("oracle.inverse_iteration", "oracle.inverse_iteration_s"),
}
ROOT = ("cli.main", "cli.self_s")


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self._metric: dict[str, str] = {ROOT[0]: ROOT[1]}

    def span(self, name: str, metric: str, fn, keep: bool = False):
        """``fn`` wrapped to record a span; ``keep`` also keeps its results."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.results[name]
        self._metric[name] = metric

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if keep:
                kept.append(result)
            return result

        return traced

    def counted(self, name: str, fn):
        """``fn`` wrapped to count its calls without a span."""
        cell = self.counts.setdefault(name, [0])

        def counting(*args):
            cell[0] += 1
            return fn(*args)

        return counting

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def self_times(self) -> dict[str, float]:
        """Self time summed by layer metric."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            totals[self._metric[name]] += end - start - inner
        return totals

    @contextmanager
    def installed(self, cli, rspt, oracle, kac, exact):
        """Wrap the layer entry points while the block runs."""
        patches = []  # (owner, attribute, original, replacement)
        shared = {}  # one wrapper per function, whichever module names it
        for module in (cli, rspt, oracle):
            for attr, (name, metric) in FUNCTIONS.items():
                original = module.__dict__.get(attr)
                if original is None:
                    continue
                if original not in shared:
                    shared[original] = self.span(
                        name, metric, original, keep=attr == "perturbation_series")
                patches.append((module, attr, original, shared[original]))
        for owner, attr, name, metric in (
            (kac.KacDecomposition, "conjugate", "kac.conjugate", "kac.conjugate_s"),
            (exact.ExactMatrix, "__matmul__", "exact.matmul", "exact.matmul_s"),
        ):
            original = owner.__dict__[attr]
            patches.append((owner, attr, original, self.span(name, metric, original)))
        from_exact = oracle.TridiagonalReal.__dict__["from_exact"]
        patches.append((oracle.TridiagonalReal, "from_exact", from_exact, classmethod(
            self.span("oracle.from_exact", "oracle.from_exact_s", from_exact.__func__))))
        for owner, attr, name in (
            (exact.TPoly, "__mul__", "exact.tpoly_mul"),
            (exact.TPoly, "__rmul__", "exact.tpoly_mul"),
            (oracle, "_sturm_count", "oracle.sturm_count"),
        ):
            original = owner.__dict__[attr]
            patches.append((owner, attr, original, self.counted(name, original)))
        try:
            for owner, attr, _, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)
