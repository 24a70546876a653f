"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` swaps the public entry points of each module for thin
wrappers that record a span (name, start, end, parent) per call and, for
``lp_max``, the pivot count and witness denominators of its result.  The
wrapped objects are module attributes and class methods that the package
looks up at call time, so nothing under ``src/`` is edited.  Spans stay in
memory; ``layer_metrics`` turns them into self times and counts.

A layer's self time is its spans' durations minus the time their child spans
cover.  Worker processes of a ``jobs > 1`` sweep inherit the wrappers when
the pool forks, but their spans stay in the worker and are not counted.

Which end-to-end metric each layer metric should move, and where:

  hadamard.sylvester_s, hadamard.validate_s   setup_s on certify-d64 (a small
      share); validate_s also holds the structural check in verify_conditions
  exact.matmul_s/_calls, exact.rank_s, construction.build_s/verify_share
      setup_s and wall_s on certify-d64; no move on faces-d16
  blocks.row_calls/row_us/self_s   ops_per_s on certify-d64, a little on
      containment-d32, none on faces-d16
  sampling.draws   a counter only: it must repeat exactly, so a changed
      sample shows
  certificate.rows_checked/self_s/row_us   ops_per_s on certify-d64 only
  simplex.*   ops_per_s on containment-d32 (mostly) and faces-d16, not on
      certify-d64.  witness_den_bits_max is the largest bit length of a
      witness denominator: a computed lower bound on the tableau denominator
  oracle.self_s/self_share/recheck_s   ops_per_s on faces-d16, little on
      containment-d32.  self_share's base is the sweep span
  pool.*   no end-to-end metric (the timed rounds run jobs=1); the baseline
      for a parallel sweep driver
"""

from __future__ import annotations

import statistics
import time

# (span name, module, attribute or Class.method).  Targets absent from the
# installed package are listed in Tracer.missing instead of failing the run.
TARGETS = (
    ("hadamard.sylvester", "hadamard", "sylvester"),
    ("hadamard.validate", "hadamard", "first_nonorthogonal_columns"),
    ("hadamard.validate", "certificate", "first_nonorthogonal_columns"),
    ("exact.matmul", "exact", "Matrix.__matmul__"),
    ("exact.rank", "construction", "rank"),
    ("construction.build", "construction", "build"),
    ("blocks.row", "blocks", "BlockStream.row"),
    ("sampling.below", "sampling", "SplitMix64.below"),
    ("certificate.verify_conditions", "certificate", "verify_conditions"),
    ("oracle.verify_k_neighborly", "oracle", "verify_k_neighborly"),
    ("oracle.projection_containment", "oracle", "projection_containment"),
    ("oracle.recheck_face", "oracle", "_recheck_face"),
    ("simplex.lp_max", "oracle", "lp_max"),
    ("simplex.recheck", "simplex", "_recheck"),
)


class Tracer:
    """Records spans for the wrapped entry points while installed."""

    def __init__(self, package):
        self.package = package
        self.spans = []            # [name, start, end, parent index]
        self.lp = []               # (pivots, largest witness denominator bits)
        self.missing = []          # targets absent from this version
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, lp = self.spans, self._stack, self.lp
        clock = time.perf_counter
        is_lp = name == "simplex.lp_max"

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if is_lp:
                bits = max(
                    (v.denominator.bit_length() for v in result.x or ()),
                    default=0,
                )
                lp.append((result.pivots, bits))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        for name, module, attr in TARGETS:
            owner = importlib.import_module(f"{self.package}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(leaf) if path else getattr(
                owner, leaf, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - covered, calls + 1)
        return out

    def durations(self, name) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]


def layer_metrics(tracer: Tracer, sweep_s: float, rows_checked: int,
                  build_noverify_s: float) -> dict:
    """Per-layer metrics of one traced round, as {name: (value, unit)}."""
    st = tracer.self_times()

    def self_s(*names):
        return sum(st.get(n, (0.0, 0))[0] for n in names)

    def calls(name):
        return st.get(name, (0.0, 0))[1]

    build_s = sum(tracer.durations("construction.build"))
    row_calls = calls("blocks.row")
    cert_s = self_s("certificate.verify_conditions")
    lp_ms = sorted(1e3 * t for t in tracer.durations("simplex.lp_max"))
    pivots = sorted(p for p, _ in tracer.lp)
    oracle_s = self_s("oracle.verify_k_neighborly",
                      "oracle.projection_containment", "oracle.recheck_face")

    def pct(values, p):
        if not values:
            return 0.0
        if len(values) == 1:
            return float(values[0])
        return statistics.quantiles(values, n=100, method="inclusive")[p - 1]

    return {
        "hadamard.sylvester_s": (sum(tracer.durations("hadamard.sylvester")), "s"),
        "hadamard.validate_s": (sum(tracer.durations("hadamard.validate")), "s"),
        "exact.matmul_s": (sum(tracer.durations("exact.matmul")), "s"),
        "exact.matmul_calls": (calls("exact.matmul"), "count"),
        "exact.rank_s": (sum(tracer.durations("exact.rank")), "s"),
        "construction.build_s": (build_s, "s"),
        "construction.verify_share": (
            (build_s - build_noverify_s) / build_s if build_s else 0.0, "ratio"),
        "blocks.row_calls": (row_calls, "count"),
        "blocks.row_us": (
            1e6 * self_s("blocks.row") / row_calls if row_calls else 0.0, "us"),
        "blocks.self_s": (self_s("blocks.row"), "s"),
        "sampling.draws": (calls("sampling.below"), "count"),
        "certificate.rows_checked": (rows_checked, "count"),
        "certificate.self_s": (cert_s, "s"),
        "certificate.row_us": (
            1e6 * cert_s / rows_checked if rows_checked else 0.0, "us"),
        "simplex.lp_calls": (len(lp_ms), "count"),
        "simplex.pivots_total": (sum(pivots), "count"),
        "simplex.pivots_per_lp.p50": (
            statistics.median(pivots) if pivots else 0, "count"),
        "simplex.pivots_per_lp.max": (max(pivots, default=0), "count"),
        "simplex.lp_ms.p50": (statistics.median(lp_ms) if lp_ms else 0.0, "ms"),
        "simplex.lp_ms.p90": (pct(lp_ms, 90), "ms"),
        "simplex.lp_samples": (len(lp_ms), "count"),
        "simplex.self_s": (sum(tracer.durations("simplex.lp_max")), "s"),
        "simplex.recheck_s": (self_s("simplex.recheck"), "s"),
        "simplex.witness_den_bits_max": (
            max((b for _, b in tracer.lp), default=0), "bits"),
        "oracle.self_s": (oracle_s, "s"),
        "oracle.self_share": (oracle_s / sweep_s if sweep_s else 0.0, "ratio"),
        "oracle.recheck_s": (self_s("oracle.recheck_face"), "s"),
    }
