import dataclasses
import json
import math
import random

import numpy as np
import pytest

from _helpers import cell_holonomies, gauge_transform, kirchhoff_tree_count

from sglap import operator
from sglap.decimation import decimation_kit, exceptional_set
from sglap.enumerator import spectrum_closed_form
from sglap.gasket import build_gasket, dim_n
from sglap.gauge import (
    Connection,
    FluxPair,
    build_connection,
    circ_dist,
    restrict_connection,
)
from sglap.operator import (
    assemble,
    dense_eigenvalues,
    eigenvalues,
    log_determinant,
    matrix_csv,
    schur_complement,
    spectrum,
)


def _op(level, alpha, beta):
    g = build_gasket(level)
    return assemble(g, build_connection(g, FluxPair(alpha, beta)))


def test_entries_structure():
    g = build_gasket(1)
    op = assemble(g, build_connection(g, FluxPair(0.2, 0.3)))
    L = op.entries
    assert op.dimension == 6
    assert np.allclose(np.diag(L), 1.0)
    deg = g.degrees
    for x, y in g.edges:
        assert math.isclose(abs(L[x, y]), 1 / deg[x])
        assert math.isclose(abs(L[y, x]), 1 / deg[y])
        # the two directions carry conjugate phases scaled by the two degrees
        assert abs(L[x, y] * deg[x] - np.conj(L[y, x] * deg[y])) < 1e-14
    with pytest.raises(ValueError):  # readonly oracle matrix
        L[0, 0] = 2.0


def test_assemble_rejects_foreign_connection():
    # build_gasket(1) is one shared graph, so the foreign one is a distinct
    # graph over the same arrays
    g1 = build_gasket(1)
    g2 = dataclasses.replace(g1)
    conn = build_connection(g2, FluxPair(0.1, 0.1))
    with pytest.raises(ValueError):
        assemble(g1, conn)


@pytest.mark.parametrize("flux", [(0.0, 0.0), (0.5, 0.5), (0.37, 0.81)])
def test_symmetrized_hermitian_and_psd(flux):
    op = _op(2, *flux)
    T = op.symmetrized()
    assert np.max(np.abs(T - T.conj().T)) <= 1e-14
    evs = eigenvalues(op)
    assert evs[0] >= -1e-9
    assert evs[-1] <= 2.0 + 1e-9


def test_spectrum_clustering_and_exports(monkeypatch):
    op = _op(2, 0.5, 0.5)
    sp = spectrum(op)
    assert sp.total_multiplicity == dim_n(2) == 15
    assert [m for _, m in sp.pairs] == sorted(
        [m for _, m in sp.pairs], key=lambda _: 0
    )  # shape only: all ints
    assert all(isinstance(ev, float) and isinstance(m, int) for ev, m in sp.pairs)
    doc = json.loads(sp.to_json())
    assert [(d["eigenvalue"], d["multiplicity"]) for d in doc] == sp.pairs
    monkeypatch.setattr(operator, "SPECTRUM_DIM_CAP", 10)
    with pytest.raises(ValueError, match="exceeds the cap 10"):
        spectrum(op)


def test_cluster_is_the_per_eigenvalue_loop_bitwise():
    # singletons keep their value, and a cluster of several is np.mean of its slice
    def loop(evs):
        pairs, start = [], 0
        for i in range(1, len(evs) + 1):
            if i == len(evs) or evs[i] - evs[i - 1] >= operator.CLUSTER_TOL:
                pairs.append((float(np.mean(evs[start:i])), i - start))
                start = i
        return pairs

    rng = np.random.default_rng(3)
    close = np.sort(np.concatenate([rng.uniform(0, 2, 300), rng.uniform(0.5, 0.5 + 1e-4, 300)]))
    samples = [close, close[:1], close[:0]]
    samples += [eigenvalues(_op(level, *f)) for level in (3, 5) for f in ((0.37, 0.71), (0.5, 0.0), (0.0, 0.0))]
    for evs in samples:
        sp = operator.cluster(evs)
        assert [(ev.hex(), m) for ev, m in sp.pairs] == [(ev.hex(), m) for ev, m in loop(evs)]
        assert all(type(ev) is float and type(m) is int for ev, m in sp.pairs)


def test_zero_flux_kernel_and_pseudo_determinant():
    op = _op(1, 0.0, 0.0)
    with pytest.raises(ValueError, match="drop_zero"):
        log_determinant(op)
    ld, zc = log_determinant(op, drop_zero=True)
    assert zc == 1  # constants are the only kernel on a connected graph
    # matrix-tree check: tau = psi * det'; at level 1 tau = 54, psi = 256/9
    tau = kirchhoff_tree_count(build_gasket(1))
    assert tau == 54
    assert math.isclose(math.log(tau), math.log(256 / 9) + ld, rel_tol=1e-11)


# four default_rng(3) flux pairs and the four dyadic pairs
LOGDET_FLUXES = [tuple(f) for f in np.random.default_rng(3).random((4, 2)).tolist()] + [
    (0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5),
]


@pytest.mark.parametrize("level", range(0, 7))
def test_log_determinant_matches_dense_oracle(level):
    # the gluing log-det against the sum of log dense eigenvalues; the flux
    # pairs with a zero mode ((0, 0), and (0, 1/2) at level 0, which has no
    # hole) under drop_zero
    for flux in LOGDET_FLUXES:
        op = _op(level, *flux)
        evs = dense_eigenvalues(_op(level, *flux))
        zeros = int(np.sum(np.abs(evs) < operator.ZERO_EIG_TOL))
        want = math.fsum(np.log(evs[zeros:]))
        got, zc = log_determinant(op, drop_zero=bool(zeros))
        assert zc == zeros, (level, flux)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (level, flux, got, want)
        assert "entries" not in op.__dict__


def test_log_determinant_at_uniform_flux_never_solves(monkeypatch):
    calls = {"eigenvalues": 0, "dense_eigenvalues": 0}
    for name in calls:
        def counted(op, _name=name, _fn=getattr(operator, name)):
            calls[_name] += 1
            return _fn(op)
        monkeypatch.setattr(operator, name, counted)
    for flux in LOGDET_FLUXES:
        log_determinant(_op(3, *flux), drop_zero=True)
    assert calls == {"eigenvalues": 0, "dense_eigenvalues": 0}
    # a connection without a uniform flux pair goes to the dense oracle
    op = _op(3, 0.3, 0.1)
    log_determinant(assemble(op.graph, Connection(op.graph, op.conn.forward)))
    assert calls == {"eigenvalues": 0, "dense_eigenvalues": 1}


def test_spectrum_cap_binds_only_the_dense_path():
    op = _op(8, 0.5, 0.0)
    assert op.dimension > operator.SPECTRUM_DIM_CAP
    got = spectrum(op).pairs
    want = spectrum_closed_form(FluxPair(0.5, 0.0), 8).pairs
    assert [m for _, m in got] == [m for _, m in want]
    assert max(abs(a - b) for (a, _), (b, _) in zip(got, want)) <= 1e-12
    assert "entries" not in op.__dict__
    with pytest.raises(ValueError, match=f"exceeds the cap {operator.SPECTRUM_DIM_CAP}"):
        dense_eigenvalues(op)


def test_kirchhoff_level_cap():
    with pytest.raises(ValueError):
        kirchhoff_tree_count(build_gasket(4))


def test_gauge_invariance_of_spectrum():
    rng = random.Random(3)
    for flux in [(0.11, 0.47), (0.5, 0.0)]:
        op = _op(2, *flux)
        moved = assemble(op.graph, gauge_transform(op.conn, rng))
        assert np.max(np.abs(eigenvalues(op) - eigenvalues(moved))) <= 1e-9


def test_matrix_csv_round_trip():
    g = build_gasket(1)
    op = assemble(g, build_connection(g, FluxPair(0.25, 0.1)))
    text = matrix_csv(op)
    lines = text.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) - 1 == op.dimension + 2 * len(g.edges)
    M = np.zeros_like(np.asarray(op.entries))
    for ln in lines[1:]:
        r, c, re, im = ln.split(",")
        M[int(r), int(c)] = float(re) + 1j * float(im)
    assert np.array_equal(M, op.entries)


from _helpers import reduced_connection_from_schur as _reduced_connection_from_schur


@pytest.mark.parametrize("seed", [3, 11])
def test_schur_complement_is_scaled_coarse_laplacian(seed):
    rng = random.Random(seed)
    g = build_gasket(2)
    coarse = build_gasket(1)
    for _ in range(4):
        a, b, lam = rng.random(), rng.random(), rng.uniform(0.05, 1.95)
        flux = FluxPair(a, b)
        if min(abs(lam - e) for e in exceptional_set(flux)) < 1e-3:
            continue
        conn = build_connection(g, flux)
        S = schur_complement(assemble(g, conn), lam)
        step = decimation_kit(flux, lam)
        red = _reduced_connection_from_schur(S, step.phi, coarse)
        L1 = assemble(coarse, red).entries
        resid = np.max(np.abs(S - step.phi * (L1 - step.R * np.eye(dim_n(1)))))
        assert resid <= 1e-9
        # evolved flux shows up as the holonomy of the reduced connection
        for cell, h in cell_holonomies(red):
            if cell.orientation == "upright":
                assert circ_dist(h, step.alpha_down) <= 1e-10
            elif cell.side == 1:
                assert circ_dist(h, step.beta_down) <= 1e-10


@pytest.mark.parametrize("flux", [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)])
def test_schur_identity_at_dyadic_flux(flux):
    # S = phi (L' - R I) with phi = |Psi|/4D holds at the dyadic pairs too,
    # where Psi is real and negative on part of the lambda range
    fp = FluxPair(*flux)
    excl = exceptional_set(fp)
    lams = [float(l) for l in np.linspace(0.05, 1.95, 20) if min(abs(l - e) for e in excl) >= 1e-3]
    negative = 0
    for n in (1, 2, 3):
        g = build_gasket(n)
        conn = build_connection(g, fp)
        op = assemble(g, conn)
        for lam in lams:
            S = schur_complement(op, lam)
            step = decimation_kit(fp, lam)
            red = restrict_connection(conn, step.theta)
            L1 = assemble(red.graph, red).entries
            resid = np.max(np.abs(S - step.phi * (L1 - step.R * np.eye(dim_n(n - 1)))))
            assert resid <= 1e-9 * max(1.0, np.max(np.abs(S))), (n, flux, lam, resid)
            negative += step.Psi.real < 0
    assert negative > 0


def test_schur_refuses_midpoint_roots():
    g = build_gasket(1)
    flux = FluxPair(0.0, 0.0)
    op = assemble(g, build_connection(g, flux))
    from sglap.decimation import zeros_of_D

    root = zeros_of_D(0.0)[0][0]
    with pytest.raises(ValueError, match="midpoint-block root"):
        schur_complement(op, root)
    with pytest.raises(ValueError):
        schur_complement(assemble(build_gasket(0), build_connection(build_gasket(0), flux)), 0.3)
