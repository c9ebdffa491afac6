"""The gluing count and the eigenvalues bisected from it: its closed-form step
against dense Schur complements, its counts and eigenvalues against the dense
oracle and the dyadic closed forms, and the dispatch in `operator.eigenvalues`."""

import random
import warnings

import numpy as np
import pytest
from _helpers import GLUING_FLUXES, dense_schur_complement, random_nonexceptional_lambda

from sglap import decimation
from sglap.decimation import decimation_eigenvalues, gluing_count
from sglap.enumerator import spectrum_closed_form
from sglap.gasket import build_gasket, dim_n
from sglap.gauge import Connection, FluxPair, build_connection
from sglap.operator import (
    ENGINE_MIN_LEVEL,
    assemble,
    cluster,
    dense_eigenvalues,
    eigenvalues,
    schur_complement,
)

DYADIC = [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]
_rng = random.Random(2024)
RANDOM = [(_rng.random(), _rng.random()) for _ in range(3)]


def _op(flux, level):
    g = build_gasket(level)
    return assemble(g, build_connection(g, FluxPair(*flux)))


def _multiplicities(evs):
    return [m for _, m in cluster(evs).pairs]


# the pairs `operator.eigenvalues` sends to the engine: the Case IV and dyadic
# gluing fluxes, (0, 1/2) and the random Case IV pairs
ENGINE_FLUXES = [(0.37, 0.71)] + DYADIC + RANDOM


def _closed_form(flux, level):
    cf = spectrum_closed_form(FluxPair(*flux), level)
    return np.repeat([v for v, _ in cf.pairs], [m for _, m in cf.pairs])


def _reference(flux, level):
    """Dense eigenvalues, or the closed form at a dyadic pair from level 7 on,
    where a dense solve takes seconds."""
    if flux in DYADIC and level >= 7:
        return _closed_form(flux, level)
    return dense_eigenvalues(_op(flux, level))


def _assert_matches_dense(flux, level):
    got = decimation_eigenvalues(FluxPair(*flux), level)
    want = dense_eigenvalues(_op(flux, level))
    err = float(np.max(np.abs(got - want)))
    assert err <= 1e-12, (flux, level, err)
    assert _multiplicities(got) == _multiplicities(want), (flux, level)


@pytest.mark.parametrize("level", range(0, 7))
def test_engine_matches_dense_oracle(level):
    for flux in DYADIC + RANDOM:
        _assert_matches_dense(flux, level)


# The count resolves an eigenvalue to about 3e-14: against dense, the engine
# is at most 3.4e-14 off over ENGINE_FLUXES at levels 0-6, half this bound
ENGINE_DENSE_TOL = 6.8e-14


@pytest.mark.parametrize("level", range(0, 7))
def test_engine_is_within_the_count_resolution_of_dense(level):
    for flux in ENGINE_FLUXES:
        got = decimation_eigenvalues(FluxPair(*flux), level)
        err = float(np.max(np.abs(got - dense_eigenvalues(_op(flux, level)))))
        assert err <= ENGINE_DENSE_TOL, (flux, level, err)


@pytest.mark.parametrize("level", range(1, 8))
def test_a_leaf_holds_one_dense_cluster(level):
    # indices whose brackets never split share one leaf's midpoint; the
    # eigenvalues at those indices lie within BISECT_WIDTH of one another
    # (dense puts them at most 1.7e-14 apart over these pairs)
    for flux in ENGINE_FLUXES:
        got = decimation_eigenvalues(FluxPair(*flux), level)
        starts = np.flatnonzero(np.diff(got, prepend=-np.inf) > 0)
        ends = np.append(starts[1:], got.size) - 1
        shared = ends > starts  # leaves of more than one index: none at the random pairs
        if shared.any():
            want = _reference(flux, level)
            span = float(np.max(want[ends[shared]] - want[starts[shared]]))
            assert span <= decimation.BISECT_WIDTH, (flux, level, span)


@pytest.mark.parametrize("flux", DYADIC)
def test_dyadic_leaves_are_the_closed_form_eigenvalues(flux):
    # one leaf per distinct closed-form eigenvalue, levels 1-10: leaves 4 eps
    # wide gave up to five more distinct values than the closed form
    for level in range(1, 11):
        got = decimation_eigenvalues(FluxPair(*flux), level)
        assert np.unique(got).size == np.unique(_closed_form(flux, level)).size, (flux, level)


@pytest.mark.parametrize("flux", [(0.37, 0.71), (1 / 6, 0.0), (1 / 8, 1 / 8), (0.5, 0.0)])
def test_gluing_step_matches_dense_corner_blocks(flux):
    # the Schur complement of H = Deg (1 - lam) - W onto the three corners of
    # the level-m gasket, against the state (d, z) after m closed-form steps:
    # its diagonal is c d, its off-diagonal moduli c |z| and its loop product
    # c^3 z^3, where c is the product of the steps' scales (the state starts
    # unscaled, with z = x + i y a cube root of M_0's loop product -e(alpha),
    # and is rescaled to max(|d|, |z|) = 1)
    fp = FluxPair(*flux)
    for lam in (0.13, 0.61, 1.37, 1.93):
        z = np.exp(2j * np.pi * (fp.alpha + 0.5) / 3)
        d, x, y = np.array([2 * (1 - lam)]), np.array([z.real]), np.array([z.imag])
        scale = 1.0
        for m in range(1, 5):
            a, b = decimation._step_phases(fp.alpha, fp.beta, m - 1)
            _, d, x, y, step = decimation._gluing_step(a.real, a.imag, b.real, b.imag, d, x, y)
            z = x + 1j * y
            scale *= step[0]
            op = _op(flux, m)
            h = np.diag(op.weights) @ (op.entries - lam * np.eye(op.dimension))
            ids = [op.graph.coord_to_id[x] for x in ((0, 0), (2**m, 0), (0, 2**m))]
            rest = np.setdiff1d(np.arange(op.dimension), ids)
            s = h[np.ix_(ids, ids)] - h[np.ix_(ids, rest)] @ np.linalg.solve(h[np.ix_(rest, rest)], h[np.ix_(rest, ids)])
            c = max(abs(s[0, 0]), abs(s[0, 1]))
            assert abs(c - scale) <= 1e-12 * c, (flux, lam, m)
            off = np.array([s[0, 1], s[1, 2], s[2, 0]]) / c
            assert np.allclose(np.diag(s) / c, d[0], rtol=0, atol=1e-12), (flux, lam, m)
            assert np.allclose(np.abs(off), abs(z[0]), rtol=0, atol=1e-12), (flux, lam, m)
            assert abs(np.prod(off) - z[0] ** 3) <= 1e-12, (flux, lam, m)


def test_counts_match_dense_counts():
    rng = random.Random(17)
    for level in (1, 2, 3, 4):
        for flux in DYADIC + RANDOM:
            dense = dense_eigenvalues(_op(flux, level))
            lams = [rng.uniform(-0.1, 2.1) for _ in range(40)]
            lams = [x for x in lams if np.min(np.abs(dense - x)) > 1e-9]
            fp = FluxPair(*flux)
            got, _ = gluing_count(fp.alpha, fp.beta, level, lams)
            want = [int(np.sum(dense < x)) for x in lams]
            assert got.tolist() == want, (flux, level)


@pytest.mark.parametrize("level", range(1, 6))
@pytest.mark.parametrize("flux", GLUING_FLUXES)
def test_gluing_count_matches_dense_counts(flux, level):
    dense = dense_eigenvalues(_op(flux, level))
    gaps = np.flatnonzero(np.diff(dense) >= 1e-6)
    probes = np.concatenate([(dense[gaps] + dense[gaps + 1]) / 2,
                             np.random.default_rng(0).uniform(-0.1, 2.1, 200)])
    fp = FluxPair(*flux)
    got, fired = gluing_count(fp.alpha, fp.beta, level, probes)
    assert not fired.any()
    assert np.array_equal(got, np.searchsorted(dense, probes)), (flux, level)


@pytest.mark.parametrize("level", range(1, 6))
def test_schur_complement_matches_the_dense_oracle(level):
    # the midpoints eliminated one side-2 triangle at a time against one dense
    # solve of the whole midpoint block
    rng = random.Random(level)
    for flux in GLUING_FLUXES:
        op = _op(flux, level)
        for _ in range(3):
            lam = random_nonexceptional_lambda(rng, FluxPair(*flux))
            got, want = schur_complement(op, lam), dense_schur_complement(op, lam)
            err = float(np.max(np.abs(got - want)))
            assert err <= 1e-12 * float(np.max(np.abs(want))), (flux, level, lam, err)


def test_gluing_count_takes_a_flux_pair_per_probe():
    rng = np.random.default_rng(1)
    fluxes = [FluxPair(*f) for f in GLUING_FLUXES]
    pick = rng.integers(len(fluxes), size=300)
    alpha = np.array([fluxes[i].alpha for i in pick])
    beta = np.array([fluxes[i].beta for i in pick])
    lam = rng.uniform(-0.1, 2.1, pick.size)
    mixed, _ = gluing_count(alpha, beta, 4, lam)
    for i, fp in enumerate(fluxes):
        on = pick == i
        alone, _ = gluing_count(fp.alpha, fp.beta, 4, lam[on])
        assert np.array_equal(mixed[on], alone), fp


@pytest.mark.parametrize("level", range(1, 7))
def test_scalar_and_per_probe_flux_agree(level):
    # `decimation_eigenvalues` and `gluing_log_det` pass one flux pair as
    # scalars, `gluing_count` one pair per probe: the recursion's junction
    # eigenvalues, scales and last corner eigenvalues, and so the counts,
    # singular flags and log-dets read off them, are the same to the bit
    rng = np.random.default_rng(level)
    lam = np.concatenate([[0.0, 0.5, 0.75, 1.25, 1.5], rng.uniform(-0.1, 2.1, 400)])
    for flux in GLUING_FLUXES:
        fp = FluxPair(*flux)
        alpha, beta = np.full(lam.size, fp.alpha), np.full(lam.size, fp.beta)
        for got, want in zip(decimation._gluing(fp.alpha, fp.beta, level, lam),
                             decimation._gluing(alpha, beta, level, lam)):
            assert np.array_equal(got, want), (flux, level)
        for got, want in zip(decimation._glue(fp.alpha, fp.beta, level, lam),
                             decimation._glue(alpha, beta, level, lam)):
            assert np.array_equal(got, want), (flux, level)


@pytest.mark.parametrize("level", range(1, 5))
@pytest.mark.parametrize(
    "flux, lam", [((0.0, 0.0), 0.5), ((0.0, 0.0), 1.25), ((0.5, 0.5), 0.75), ((0.5, 0.5), 1.5),
                  ((0.3, 0.0), 0.5)],
)
def test_gluing_count_singular_junction_rule(flux, lam, level):
    # at an exact D root the first junction block is singular: without the rule
    # the solve raises LinAlgError, or (at (0.3, 0), where e(0.3) e(-0.3) is
    # not exactly 1) the count is wrong (9 for 12 at level 3)
    dense = dense_eigenvalues(_op(flux, level))
    got, fired = gluing_count(flux[0], flux[1], level, lam)
    assert fired.tolist() == [True]
    if np.min(np.abs(dense - lam)) > 1e-9:
        assert got.tolist() == [np.searchsorted(dense, lam)]
    else:  # lam is an eigenvalue: the two shifted counts differ
        assert got.tolist() == [-1]


def test_bracket_stays_off_the_dyadic_grid(monkeypatch):
    # from [0, 2] the bisection midpoints land exactly on the dyadic D roots
    # and Psi zeros (0.5, 0.75, 1.25, 1.5), where a junction eigenvalue is an
    # exact zero and the raw count is left to rounding; bisection recounts
    # such probes by the singular-J rule while its brackets are wider than
    # the rule's shift.  BRACKET's ends, off the grid, keep the midpoints off
    # those zeros, and [0, 2] and (-1/3, 2 + 1/7) meet them: all three are
    # held to the same bound
    for flux, level in (((0.5, 0.0), 2), ((0.0, 0.0), 2), ((0.5, 0.5), 1), ((0.0, 0.5), 2)):
        want = dense_eigenvalues(_op(flux, level))
        for bracket in (decimation.BRACKET, (-1 / 3, 2 + 1 / 7), (0.0, 2.0)):
            monkeypatch.setattr(decimation, "BRACKET", bracket)
            err = np.max(np.abs(decimation_eigenvalues(FluxPair(*flux), level) - want))
            assert err <= 1e-12, (flux, bracket, err)
        monkeypatch.undo()


def test_bisection_recounts_only_flagged_probes(monkeypatch):
    # from BRACKET no probe meets a singular junction block at these pairs,
    # so the recount never runs; from [0, 2] the midpoints land on the dyadic
    # zeros and it does
    sizes = []

    def counted(alpha, beta, level, lam):
        assert np.size(lam), "gluing_count called on an empty probe set"
        sizes.append(np.size(lam))
        return gluing_count(alpha, beta, level, lam)

    monkeypatch.setattr(decimation, "gluing_count", counted)
    for flux in ((0.37, 0.71), (0.3, 0.3), (0.5, 0.0), (0.0, 0.0)):
        decimation_eigenvalues(FluxPair(*flux), 4)
    assert not sizes
    monkeypatch.setattr(decimation, "BRACKET", (0.0, 2.0))
    decimation_eigenvalues(FluxPair(0.5, 0.0), 2)
    assert sizes


# (flux, level): gluing passes and probes of one spectrum, which time follows
BISECTION_WORK = {
    ((0.37, 0.71), 7): (36, 96_420),
    ((0.5, 0.5), 7): (18, 10_678),
    ((0.0, 0.0), 5): (10, 6_946),
    ((0.5, 0.5), 5): (10, 6_946),
    ((0.5, 0.0), 5): (10, 6_961),
    ((0.0, 0.5), 5): (10, 6_991),
}


def test_bisection_glues_few_brackets_several_levels_deep(monkeypatch):
    # a round glues as many levels of each bracket's midpoint tree as its
    # probe budget allows in one `_glue` call; the lockstep bisection that
    # preceded it made 52 passes at every flux, with 115,918 probes at
    # (0.37, 0.71), level 7.  Leaves 4 eps wide, 52 halvings below BRACKET,
    # took 43 passes and 116,198 probes there, 22 passes at (1/2, 1/2),
    # level 7, and 12 at the dyadic pairs at level 5
    sizes = []
    glue = decimation._glue

    def counted(alpha, beta, level, lam):
        sizes.append(np.size(lam))
        return glue(alpha, beta, level, lam)

    monkeypatch.setattr(decimation, "_glue", counted)
    for (flux, level), (passes, probes) in BISECTION_WORK.items():
        sizes.clear()
        decimation_eigenvalues(FluxPair(*flux), level)
        assert len(sizes) <= passes and sum(sizes) <= probes, (flux, level, len(sizes), sum(sizes))


@pytest.mark.xfail(strict=True, reason="cluster merges closed-form eigenvalues 4.6e-7 apart at level 10")
def test_cluster_keeps_the_closed_form_pairs_at_level_10():
    # `operator.cluster` splits only at gaps >= CLUSTER_TOL: 1,534 pairs
    # against the closed form's 1,536, though the raw values agree
    fp = FluxPair(0.0, 0.0)
    assert len(cluster(decimation_eigenvalues(fp, 10)).pairs) == len(spectrum_closed_form(fp, 10).pairs)


@pytest.mark.parametrize("flux", DYADIC)
def test_engine_matches_closed_form_to_level_10(flux):
    # raw values, not clusters: at level 10 closed-form values sit 4.6e-7
    # apart, below the 1e-6 cluster tolerance
    fp = FluxPair(*flux)
    for level in range(1, 11):
        cf = spectrum_closed_form(fp, level)
        want = np.repeat([v for v, _ in cf.pairs], [m for _, m in cf.pairs])
        got = decimation_eigenvalues(fp, level)
        assert got.size == want.size == dim_n(level)
        assert np.max(np.abs(got - want)) <= 1e-12, (flux, level)


@pytest.mark.parametrize("flux", [(0.5, 0.0), RANDOM[0]])
def test_engine_saturates_before_overflow(flux):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evs = decimation_eigenvalues(FluxPair(*flux), 8)
    assert evs.size == dim_n(8)
    assert 0.0 <= evs[0] and evs[-1] <= 2.0
    # the diagonal is all ones
    assert abs(float(np.sum(evs)) - dim_n(8)) <= 1e-8 * dim_n(8)


@pytest.mark.parametrize("flux", [(0.5, 0.0), RANDOM[0]])
def test_count_saturates_outside_the_spectrum(flux):
    # the rule-free count that bisection reads: probes outside (0, 2] are not
    # glued, and inside no step overflows (0.5 is an eigenvalue at (1/2, 0),
    # where `gluing_count` says -1)
    lams = np.linspace(-1.0, 3.0, 41)
    fp = FluxPair(*flux)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, _ = decimation._glue(np.full(lams.size, fp.alpha), np.full(lams.size, fp.beta), 12, lams)
    assert np.all(counts[lams <= 0] == 0)
    assert np.all(counts[lams > 2] == dim_n(12))
    assert np.all(np.diff(counts) >= 0)


@pytest.mark.parametrize(
    "flux, level, engine",
    [
        ((1 / 6, 0.0), 6, False),  # Case II: one dyadic flux
        ((1 / 8, 1 / 8), 6, False),  # Case III: 3 alpha + beta = 1/2
        ((0.5, 0.0), 6, True),  # Case I
        (RANDOM[1], 6, True),  # Case IV
        (RANDOM[1], ENGINE_MIN_LEVEL - 1, False),
        ((0.5, 0.0), ENGINE_MIN_LEVEL, True),
        (RANDOM[1], ENGINE_MIN_LEVEL, True),
    ],
)
def test_eigenvalues_dispatch(flux, level, engine):
    op = _op(flux, level)
    if engine:
        want = decimation_eigenvalues(FluxPair(*flux), level)
    else:
        want = dense_eigenvalues(op)
    assert np.array_equal(eigenvalues(op), want)


def test_landau_operator_at_level_7_goes_to_the_engine():
    # the connection carries the pair it was built from, so the dispatch reads
    # no holonomy of a side-64 hole
    flux = (0.37, 0.71)
    op = _op(flux, 7)
    assert np.array_equal(eigenvalues(op), decimation_eigenvalues(FluxPair(*flux), 7))


def test_uniform_flux_rejects_a_nonuniform_connection():
    # a connection with hand-written phases carries no flux pair
    op = _op(RANDOM[0], 2)
    phase = op.conn.forward.copy()
    phase[0] += 0.1
    bent = assemble(op.graph, Connection(op.graph, phase))
    with pytest.raises(ValueError, match="uniform flux"):
        schur_complement(bent, 0.3)
