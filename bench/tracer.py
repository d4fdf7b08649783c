"""Spans around rmtkit's public functions, recorded from outside the package.

Each traced function is replaced, on the module where its callers look it
up, by a wrapper that records a span: call count, inclusive time and the
time covered by traced calls made inside it.  A span's self time is its
inclusive time minus that child time.  Wrapping happens only while a
``Tracer`` is installed; ``remove()`` restores the original functions.

Integrand spans cost 0.2-5 us each, so the wrapper's own cost (a few
hundred ns) is of the same order: treat per-call integrand times as
approximate and the counts as exact.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import rmtkit
import rmtkit.cli


class Span:
    __slots__ = ("calls", "total_ns", "child_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    """Records spans while installed; counters hold quadrature results."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, before=None, after=None):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                span.calls += 1
                span.total_ns += elapsed
                span.child_ns += stack.pop()
                if stack:
                    stack[-1] += elapsed
            return result if after is None else after(result)

        traced.traced = True
        return traced

    def _patch(self, module, attr, name, before=None, after=None) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, before, after))

    # -- hooks ---------------------------------------------------------------

    def _count_tail_panel(self, args):
        # Heads integrate [0, 1]; tail panels start at 1 and grow geometrically.
        if args[1] >= 1.0:
            self.counters["tail_panels"] += 1
        return args

    def _wrap_integrand(self, args):
        # A closure that transforms built around the pair's functions; the
        # pair's own functions arrive already wrapped.
        f = args[0]
        if getattr(f, "traced", False):
            return args
        return (self.wrap("transforms.integrand", f),) + args[1:]

    def _count_result(self, result):
        self.counters["evaluations"] += result.evaluations
        self.counters["unconverged"] += not result.converged
        return result

    def _wrap_pair(self, pair):
        return dataclasses.replace(
            pair,
            closed_form=self.wrap("sequences.integrand", pair.closed_form),
            derivative=self.wrap("sequences.integrand", pair.derivative),
        )

    def _cli_pair(self, series_pair):
        """Stands in for SeriesPair in cli, whose expression pairs are
        closures that build an environment and call evaluate."""

        def build(**fields):
            for key in ("phi", "closed_form", "derivative", "phi_plain"):
                if fields.get(key) is not None:
                    fields[key] = self.wrap("cli.closure", fields[key])
            return series_pair(**fields)

        return build

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap each public function on the module its callers read it from."""
        quadrature = rmtkit.quadrature
        transforms = rmtkit.transforms
        specfun = rmtkit.specfun
        cli = rmtkit.cli
        # _tail_panels and the integrators' heads read the module global.
        self._patch(quadrature, "integrate_finite", "quadrature.integrate_finite",
                    before=self._count_tail_panel)
        # transforms imported the integrators by name.
        for attr in ("integrate_mellin", "integrate_semi_infinite"):
            self._patch(transforms, attr, f"quadrature.{attr}",
                        before=self._wrap_integrand, after=self._count_result)
        for attr in ("frullani", "lemma2", "rmt", "hardy", "residue_check"):
            self._patch(transforms, attr, f"transforms.{attr}")
        # cli imported nth_derivative_fd, parse and evaluate by name.
        self._patch(cli, "nth_derivative_fd", "transforms.nth_derivative_fd")
        self._patch(cli, "parse", "expr.parse")
        self._patch(cli, "evaluate", "expr.evaluate")
        self._patch(cli, "main", "cli.main")
        self._saved.append((cli, "SeriesPair", cli.SeriesPair))
        cli.SeriesPair = self._cli_pair(cli.SeriesPair)
        for module in (rmtkit.sequences, rmtkit.corpus, cli):
            self._patch(module, "catalog_get", "sequences.catalog_get",
                        after=self._wrap_pair)
        for attr in ("gamma", "erf", "hermite"):
            self._patch(specfun, attr, f"specfun.{attr}")
        self._patch(rmtkit.corpus, "run_corpus", "corpus.run_corpus")

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def snapshot(self) -> dict:
        """Counts that must repeat exactly for identical inputs."""
        counts = {name: span.calls for name, span in self.spans.items()}
        counts.update(self.counters)
        return counts
