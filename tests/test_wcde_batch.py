"""Batch WCDE ≡ scalar WCDE, element by element (ISSUE 6 satellite).

``solve_wcde_batch`` pads every narrow bracket to the batch's widest row
and runs the wide rows' bisections in masked lockstep; neither transform
may change any answer.  These properties pin the equivalence across
random PMF batches, thetas and deltas — including the degenerate
single-bin reference and deliberately mixed-length batches where the
padding actually kicks in — plus batch-composition invariance: how a
batch is split never changes any row.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wcde import (WcdeCache, solve_wcde, solve_wcde_batch,
                             worst_case_demand)
from repro.errors import ConfigurationError
from repro.estimation.pmf import Pmf

raw_weights = st.lists(st.floats(min_value=0.01, max_value=10.0,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40)

pmf_batches = st.lists(raw_weights, min_size=1, max_size=8)

thetas = st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
                   st.floats(min_value=0.0, max_value=1.0,
                             allow_nan=False))

deltas = st.one_of(st.sampled_from([0.0, 0.05, 0.7, 5.0]),
                   st.floats(min_value=0.0, max_value=10.0,
                             allow_nan=False))


def _assert_matches_scalar(references, theta, delta):
    batch = solve_wcde_batch(references, theta, delta)
    assert len(batch) == len(references)
    for reference, got in zip(references, batch):
        want = solve_wcde(reference, theta, delta, need_worst_pmf=False)
        assert got.eta_bin == want.eta_bin
        assert got.reference_quantile == want.reference_quantile
        assert math.isclose(got.worst_kl, want.worst_kl,
                            rel_tol=0.0, abs_tol=0.0)


class TestBatchEqualsScalar:
    @settings(max_examples=150, deadline=None)
    @given(pmf_batches, thetas, deltas)
    def test_random_batches(self, raws, theta, delta):
        references = [Pmf(raw, normalize=True) for raw in raws]
        _assert_matches_scalar(references, theta, delta)

    @settings(max_examples=50, deadline=None)
    @given(raw_weights, thetas, deltas)
    def test_singleton_batch(self, raw, theta, delta):
        _assert_matches_scalar([Pmf(raw, normalize=True)], theta, delta)

    def test_single_bin_reference(self):
        """Impulse support: anchor == ceiling, the shortcut path."""
        impulse = Pmf.impulse(0, tau_max=0)
        _assert_matches_scalar([impulse, impulse], 0.9, 0.7)

    def test_mixed_length_padding(self):
        """Wildly different supports force real padding of narrow rows."""
        references = [
            Pmf([1.0], normalize=True),
            Pmf([0.5, 0.5], normalize=True),
            Pmf([0.1] * 40, normalize=True),
            Pmf([2.0, 0.01, 0.01, 3.0], normalize=True),
        ]
        for theta in (0.0, 0.5, 0.9, 1.0):
            for delta in (0.0, 0.05, 0.7, 5.0):
                _assert_matches_scalar(references, theta, delta)

    @settings(max_examples=40, deadline=None)
    @given(pmf_batches, st.integers(min_value=1, max_value=4),
           thetas, deltas)
    def test_batch_composition_invariance(self, raws, chunks, theta, delta):
        """Sharding a batch never changes any row."""
        references = [Pmf(raw, normalize=True) for raw in raws]
        whole = solve_wcde_batch(references, theta, delta)
        size = -(-len(references) // chunks)
        split = []
        for i in range(0, len(references), size):
            split.extend(solve_wcde_batch(references[i:i + size],
                                          theta, delta))
        assert [(r.eta_bin, r.reference_quantile, r.iterations)
                for r in whole] == \
               [(r.eta_bin, r.reference_quantile, r.iterations)
                for r in split]


class TestBatchValidationAndEdges:
    def test_empty_batch(self):
        assert solve_wcde_batch([], 0.9, 0.7) == []

    def test_bad_theta(self, gaussian_pmf):
        with pytest.raises(ConfigurationError):
            solve_wcde_batch([gaussian_pmf], 1.2, 0.5)

    def test_bad_delta(self, gaussian_pmf):
        with pytest.raises(ConfigurationError):
            solve_wcde_batch([gaussian_pmf], 0.9, -0.5)

    def test_iterations_match_scalar(self, gaussian_pmf, skewed_pmf):
        """The per-row bisection count is preserved (plan exports it)."""
        for theta, delta in ((0.9, 0.7), (0.5, 0.05), (0.99, 5.0)):
            batch = solve_wcde_batch([gaussian_pmf, skewed_pmf],
                                     theta, delta)
            for reference, got in zip((gaussian_pmf, skewed_pmf), batch):
                want = solve_wcde(reference, theta, delta,
                                  need_worst_pmf=False)
                assert got.iterations == want.iterations


class TestCacheBatchAccounting:
    def test_matches_sequential_scalar_loop(self, gaussian_pmf, skewed_pmf):
        """solve_batch counters replay a per-item solve() loop exactly."""
        refs = [gaussian_pmf, skewed_pmf, gaussian_pmf, gaussian_pmf]
        batched = WcdeCache(maxsize=16)
        results = batched.solve_batch(refs, 0.9, 0.7)
        sequential = WcdeCache(maxsize=16)
        expected = [sequential.solve(r, 0.9, 0.7) for r in refs]
        assert (batched.hits, batched.misses) == \
               (sequential.hits, sequential.misses) == (2, 2)
        assert [r.eta_bin for r in results] == \
               [r.eta_bin for r in expected]

    def test_misses_beyond_maxsize_keep_the_latest_solves(self):
        """More distinct misses than ``maxsize``: the LRU bound holds."""
        refs = [Pmf.from_gaussian(mean=40.0 + 10 * k, std=6.0, tau_max=200)
                for k in range(5)]
        cache = WcdeCache(maxsize=3)
        cache.solve(refs[0], 0.9, 0.7)
        # refs[0] hits, then four misses push it and refs[1] out.
        results = cache.solve_batch(refs, 0.9, 0.7)
        assert len(cache) == 3
        assert [r.eta_bin for r in results] == \
               [solve_wcde(r, 0.9, 0.7).eta_bin for r in refs]
        hits, misses = cache.hits, cache.misses
        for ref in refs[2:]:
            cache.solve(ref, 0.9, 0.7)
        assert (cache.hits - hits, cache.misses - misses) == (3, 0)
        for ref in refs[:2]:
            cache.solve(ref, 0.9, 0.7)
        assert cache.misses - misses == 2

    def test_worst_case_demand_unchanged(self, gaussian_pmf):
        """The convenience wrapper still routes through the scalar path."""
        assert worst_case_demand(gaussian_pmf, 0.9, 0.7) == \
            solve_wcde_batch([gaussian_pmf], 0.9, 0.7)[0].eta_bin
