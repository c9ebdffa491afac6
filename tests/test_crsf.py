"""Cycle-rooted spanning forests: partition identity, sampler, no-loop rate.

The level-1 gasket is small enough (successor-map space 2^6 * ... ~ 1e5)
for exact enumeration, which is the oracle everywhere here: partition sums
against determinants, edge marginals and cycle-count distributions against
the sampler's empirical frequencies with fixed seeds (deterministic, so the
3-sigma bounds are regression pins rather than flaky stochastics).
"""

import itertools
import logging
import math
import random

import numpy as np
import pytest

from _helpers import (
    augmented_logdet,
    brute_force_edge_marginals,
    gauge_transform,
    reference_flux_window_check,
    reference_sample_crsf,
)

from sglap import crsf
from sglap.determinants import loop_entropy
from sglap.gasket import build_gasket, dim_n
from sglap.gauge import Connection, FluxPair, build_connection, restrict_connection
from sglap.operator import assemble


@pytest.fixture(scope="module")
def g1():
    return build_gasket(1)


def test_zero_flux_partition_vanishes(g1):
    conn0 = build_connection(g1, FluxPair(0.0, 0.0))
    assert abs(crsf.brute_force_partition(g1, conn0)) < 1e-12


def test_partition_equals_determinant(g1):
    rng = random.Random(7)
    pairs = [(0.5, 0.5), (0.05, 0.05)] + [
        (rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(8)
    ]
    for a, b in pairs:
        conn = build_connection(g1, FluxPair(a, b))
        z = crsf.brute_force_partition(g1, conn)
        det = np.linalg.det(assemble(g1, conn).entries)
        assert abs(z.imag) <= 1e-10, (a, b, z)
        assert abs(z - det) <= 1e-10, (a, b, z, det)
        # conjugate flux gives the conjugate (= equal, real) partition sum
        zc = crsf.brute_force_partition(g1, build_connection(g1, FluxPair(-a, -b)))
        assert abs(z - zc) <= 1e-10, (a, b, z, zc)
    hh = crsf.brute_force_partition(g1, build_connection(g1, FluxPair(0.5, 0.5)))
    assert abs(hh - 25 / 64) < 1e-12


def test_partition_level0_identity():
    g0 = build_gasket(0)
    c0 = build_connection(g0, FluxPair(0.2, 0.0))
    assert abs(
        crsf.brute_force_partition(g0, c0) - np.linalg.det(assemble(g0, c0).entries)
    ) < 1e-12


def test_enumeration_size_cap():
    g2 = build_gasket(2)
    with pytest.raises(crsf.EnumerationSizeError):
        crsf.brute_force_partition(g2, build_connection(g2, FluxPair(0.1, 0.1)))


def test_sampler_refusals(g1):
    with pytest.raises(crsf.UnsupportedFluxError, match="spanning tree"):
        crsf.sample_crsf(g1, build_connection(g1, FluxPair(0.0, 0.0)), 1)
    with pytest.raises(crsf.UnsupportedFluxError, match=r"outside \[-1/4, 1/4\]"):
        crsf.sample_crsf(g1, build_connection(g1, FluxPair(0.3, 0.0)), 1)


def test_level3_sample_structure_and_reproducibility(caplog):
    g3 = build_gasket(3)
    conn3 = build_connection(g3, FluxPair(0.1, 0.1))
    with caplog.at_level(logging.WARNING, logger="sglap.crsf"):
        s3 = crsf.sample_crsf(g3, conn3, 42)
    # total face flux at this level exceeds the provably-exact window
    assert any("only approximate" in r.message for r in caplog.records)
    s3.validate(g3)
    assert len(s3.cycles) >= 1
    assert len(s3.successor) == dim_n(3)
    assert crsf.sample_crsf(g3, conn3, 42).successor == s3.successor
    assert crsf.sample_crsf(g3, conn3, 43).successor != s3.successor


QUARTER_FLUXES = [(0.25, 0.25), (-0.25, -0.25), (0.25, -0.25), (-0.25, 0.25)]


def _crsf_records(caplog):
    records = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "sglap.crsf"]
    caplog.clear()
    return records


@pytest.mark.parametrize("level", range(1, 6))
def test_samples_match_the_reference_sampler(level, caplog):
    # the cached neighbours, the vectorised window check and the loop flux
    # read from the loop's own phases leave every sample and every clamp and
    # window record of the face-by-face sampler unchanged
    g = build_gasket(level)
    clamps = 0
    for flux in QUARTER_FLUXES + [(0.05, 0.05), (0.13, -0.21)]:
        conn = build_connection(g, FluxPair(*flux))
        for seed in range(10):
            with caplog.at_level(logging.DEBUG, logger="sglap.crsf"):
                want = reference_sample_crsf(g, conn, seed)
                want_records = _crsf_records(caplog)
                got = crsf.sample_crsf(g, conn, seed)
                got_records = _crsf_records(caplog)
            assert got.successor == want.successor, (level, flux, seed)
            assert got.cycles == want.cycles, (level, flux, seed)
            assert got.cycle_fluxes == want.cycle_fluxes, (level, flux, seed)
            assert got_records == want_records, (level, flux, seed)
            clamps += sum(msg.startswith("clamping") for _, msg in got_records)
    if level >= 2:
        assert clamps, "no clamped acceptance was compared"


def _window_outcome(check, conn, caplog):
    with caplog.at_level(logging.DEBUG, logger="sglap.crsf"):
        try:
            check(conn)
        except crsf.UnsupportedFluxError as exc:
            caplog.clear()
            return "raise", str(exc)
    records = _crsf_records(caplog)
    return ("warn" if records else "pass"), records


def _window_connections():
    for level in (1, 2, 3):
        g = build_gasket(level)
        # at level 1 the total face flux 3|alpha| + |beta| of (0.05, 0.1) is
        # exactly the window, and 5e-7 past it in the next pair
        thresholds = [(1e-10, 0.0), (0.05, 0.1), (0.05, 0.1 + 5e-7), (0.25 + 1e-9, 0.0), (0.05, 0.3)]
        for flux in [(0.0, 0.0), (0.3, 0.0), (0.5, 0.5), (0.05, 0.05)] + thresholds + QUARTER_FLUXES:
            yield f"{flux} at level {level}", build_connection(g, FluxPair(*flux))
    g3 = build_gasket(3)
    for theta in (0.0, 0.02, 0.3):
        yield f"restricted at theta {theta}", restrict_connection(
            build_connection(g3, FluxPair(0.02, 0.01)), theta
        )
    yield "gauge-transformed", gauge_transform(build_connection(g3, FluxPair(0.1, 0.2)), random.Random(2))
    rng = random.Random(4)
    g2 = build_gasket(2)
    for scale in (0.01, 1.0):
        phase = np.array([rng.uniform(-scale, scale) for _ in g2.edges])
        yield f"hand-written at scale {scale}", Connection(g2, phase)


def test_window_check_matches_the_face_by_face_oracle(caplog):
    outcomes = set()
    for name, conn in _window_connections():
        want = _window_outcome(reference_flux_window_check, conn, caplog)
        got = _window_outcome(crsf._flux_window_check, conn, caplog)
        assert got == want, name
        outcomes.add(want[0])
    assert outcomes == {"raise", "warn", "pass"}


def test_sampler_marginals_match_enumeration(g1, caplog):
    # flux (0.05, 0.05): total face flux 0.2 <= 1/4, the provably exact
    # regime (no clamp warning).  Seeds are fixed, so the observed worst
    # deviation (2.25 sigma at M = 20000) is a deterministic pin.
    conn = build_connection(g1, FluxPair(0.05, 0.05))
    marg = brute_force_edge_marginals(g1, conn)
    M = 20_000
    counts = {e: 0 for e in marg}
    cyc_counts = {}
    with caplog.at_level(logging.WARNING, logger="sglap.crsf"):
        for i in range(M):
            s = crsf.sample_crsf(g1, conn, i)
            for x, y in enumerate(s.successor):
                counts[(min(x, y), max(x, y))] += 1
            cyc_counts[len(s.cycles)] = cyc_counts.get(len(s.cycles), 0) + 1
    assert not caplog.records
    worst = 0.0
    for e, p in marg.items():
        sigma = math.sqrt(p * (1 - p) / M)
        worst = max(worst, abs(counts[e] / M - p) / sigma)
    assert worst <= 3.0, worst

    # cycle-count distribution against the enumerated weights
    nbrs = g1.neighbors
    model = crsf.CRSFWeightModel(g1)
    tot = 0.0
    dist = {}
    for choice in itertools.product(*nbrs):
        o = crsf.OrientedCRSF.from_successor(choice, conn)
        w = model.weight(o).real
        tot += w
        dist[len(o.cycles)] = dist.get(len(o.cycles), 0.0) + w
    for k, wsum in dist.items():
        p = wsum / tot
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / M)
        assert abs(cyc_counts.get(k, 0) / M - p) / sigma <= 3.0, k


def test_noloop_log_probability(g1):
    conn0 = build_connection(g1, FluxPair(0.0, 0.0))
    assert crsf.noloop_log_probability(g1, conn0, 1.0) == 0.0
    g2, g3 = build_gasket(2), build_gasket(3)
    v2 = crsf.noloop_log_probability(g2, build_connection(g2, FluxPair(0.5, 0.5)), 1.0)
    v3 = crsf.noloop_log_probability(g3, build_connection(g3, FluxPair(0.5, 0.5)), 1.0)
    assert v2 < 0 and v3 < v2


@pytest.mark.parametrize("level", range(1, 6))
def test_noloop_log_probability_matches_dense_oracle(level):
    g = build_gasket(level)
    origin = g.coord_to_id[(0, 0)]
    trivial = assemble(g, build_connection(g, FluxPair(0.0, 0.0)))
    fluxes = np.random.default_rng(3).random((4, 2)).tolist() + [(0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]
    for c in (0.5, 1.0):
        for a, b in fluxes:
            conn = build_connection(g, FluxPair(a, b))
            want = augmented_logdet(trivial, origin, c) - augmented_logdet(assemble(g, conn), origin, c)
            got = crsf.noloop_log_probability(g, conn, c)
            assert abs(got - want) <= 1e-11, (level, c, a, b, got, want)


def test_noloop_log_probability_exact_at_small_conductance():
    # log of the ratio of exact Fraction determinants of Deg - W + 2c E_00 at
    # (0, 0) and (1/2, 1/2), where W is an integer matrix, with c = 10^-6; the
    # dense oracle misses them by 1.4e-9 and 7.7e-9
    for level, exact in ((1, -14.431697997387), (2, -16.628922567316)):
        g = build_gasket(level)
        got = crsf.noloop_log_probability(g, build_connection(g, FluxPair(0.5, 0.5)), 1e-6)
        assert abs(got - exact) <= 1e-11, (level, got)


def test_noloop_needs_a_uniform_flux_pair(g1):
    conn = build_connection(g1, FluxPair(0.2, 0.1))
    with pytest.raises(ValueError, match="uniform flux pair"):
        crsf.noloop_log_probability(g1, Connection(g1, conn.forward), 1.0)


def test_noloop_rate_approaches_loop_entropy():
    # -log P / dim at c -> 0 should converge to the loop-entropy constant;
    # require the gap to shrink strictly with the level
    target = loop_entropy("half-half")
    seq = []
    for N in (2, 3, 4):
        g = build_gasket(N)
        c = build_connection(g, FluxPair(0.5, 0.5))
        seq.append(-crsf.noloop_log_probability(g, c, 1e-6) / dim_n(N))
    for a, b in zip(seq, seq[1:]):
        assert abs(b - target) < abs(a - target), (seq, target)
