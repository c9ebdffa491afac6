"""Shared test utilities (not collected by pytest)."""

import itertools
import logging
import math
import random

import numpy as np

from sglap import enumerator
from sglap.crsf import (
    FLUX_WINDOW,
    WATCHDOG_STEPS,
    OrientedCRSF,
    UnsupportedFluxError,
    _check_enumeration_size,
    crsf_weight,
)
from sglap.decimation import (
    BRACKET,
    JUNCTION_SHIFT,
    OrbitTerminated,
    _roots_below,
    apply_U,
    cell_cubic_d,
    classify,
    exceptional_set,
    gluing_count,
    numerator_psi_dlam,
    one_step_count,
    psi_real_zeros,
    u_step,
    zeros_of_D,
)
from sglap.enumerator import LABEL_TOL, VerificationEntry, VerificationReport
from sglap.gasket import build_gasket
from sglap.gauge import Connection, build_connection, mod1
from sglap.operator import assemble

# Case I to Case IV: generic, Case III (3 alpha + beta = 1/2), Case II (one
# dyadic flux) and the four dyadic pairs
GLUING_FLUXES = [
    (0.37, 0.71), (0.1, 0.2), (1 / 6, 0.0), (5 / 6, 0.0), (1 / 3, 0.5), (1 / 12, 0.25),
    (5 / 12, 0.25), (0.3, 0.0), (1 / 8, 1 / 8), (0.5, 0.5), (0.0, 0.0), (0.5, 0.0),
]


def reduced_connection_from_schur(S, phi, coarse):
    """Recover the edge phases of the coarse connection hidden in a Schur
    complement S = phi * (L' - R I): off-diagonal entries are
    -phi * omega'_xy / deg'(x), so dividing them back out of the entries
    above the diagonal yields omega' on every edge (x, y), x < y; the
    entries below it are what the check against S then predicts."""
    x, y = coarse.edge_array.T
    w = -S[x, y] * coarse.degree_array[x] / phi
    return Connection(coarse, np.angle(w) / (2 * np.pi))


def gauge_transform(conn, rng):
    """conn under a random gauge transformation, phase(x, y) + chi(y) - chi(x)
    with chi(x) uniform in [0, 1): edge phases change, face holonomies (and so
    the flux pair and the spectrum) do not."""
    chi = np.array([rng.random() for _ in conn.graph.vertices])
    x, y = conn.graph.edge_array.T
    return Connection(conn.graph, conn.forward + chi[y] - chi[x], conn.flux)


def case_iii_limit(flux, lam, side=1):
    """(R*, theta*, alpha*', beta*'): the one-sided limit of decimation_kit's
    (R, theta, alpha', beta') as x -> lam from above (side=1) or below
    (side=-1), through a simple zero lam of Psi at which D vanishes too (the
    Case III line 3 alpha + beta = 1/2).

    Near lam, Psi(x) ~ Psi'(lam)(x - lam) and the numerator N = A - 64 D (1-x)
    of R - 1 = N / (16 |Psi|) vanishes as well, so from above
    R* = 1 + N'(lam) / (16 |Psi'(lam)|) and theta* = arg Psi'(lam) / 2 pi;
    from below both |Psi| and Psi change sign, giving (2 - R*, theta* + 1/2).
    The derivatives are the analytic ones of `numerator_psi_dlam`, not finite
    differences.
    """
    a, b = flux.alpha, flux.beta
    st = u_step(a, b, lam)
    if abs(complex(st.re, st.im)) > 1e-12 or abs(st.D) > 1e-12:
        raise ValueError(f"Psi and D do not both vanish at lambda = {lam}")
    d_n, dpsi = numerator_psi_dlam(a, b, lam)
    r = 1 + d_n / (16 * abs(dpsi))
    theta = mod1(np.angle(dpsi) / (2 * np.pi))
    if side < 0:
        r, theta = 2 - r, mod1(theta + 0.5)
    return r, theta, mod1(3 * a + b + 3 * theta), mod1(3 * b + a - 3 * theta)


def random_nonexceptional_lambda(rng, flux, lo=0.05, hi=1.95, margin=1e-3):
    """Uniform lambda in [lo, hi] at distance >= margin from the exceptional
    set of the flux pair (where the decimation identity degenerates)."""
    excl = exceptional_set(flux)
    while True:
        lam = rng.uniform(lo, hi)
        if min(abs(lam - e) for e in excl) >= margin:
            return lam


def kirchhoff_tree_count(graph):
    """Exact number of spanning trees via an integer Laplacian cofactor."""
    if graph.level > 3:
        raise ValueError("exact tree count supported for level <= 3")
    n = len(graph.vertices)
    deg = graph.degrees
    lap = [[0] * n for _ in range(n)]
    for i in range(n):
        lap[i][i] = deg[i]
    for a, b in graph.edges:
        lap[a][b] -= 1
        lap[b][a] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _bareiss_det(minor)


def _bareiss_det(m):
    """Fraction-free Gaussian elimination; exact over Python integers."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def augmented_logdet(op, origin, c):
    """log det of the symmetrized operator with c added at (origin, origin),
    by a dense eigensolve: the oracle of the no-loop probability."""
    m = np.array(op.symmetrized())
    m[origin, origin] += c
    evs = np.linalg.eigvalsh(m)
    if evs[0] <= 0.0:
        raise ArithmeticError(f"augmented Dirichlet Laplacian not positive definite ({evs[0]})")
    return float(np.sum(np.log(evs)))


def dense_schur_complement(op, lam):
    """M_cc - M_cm M_mm^{-1} M_mc with M = L - lam I by one dense solve of the
    whole midpoint block: the oracle of `operator.schur_complement`."""
    L, c = op.entries, sorted(op.graph.prev_level_ids)
    m = np.setdiff1d(np.arange(op.dimension), c)
    M_cc, M_mm = L[np.ix_(c, c)], L[np.ix_(m, m)]
    M_cc[np.diag_indices_from(M_cc)] -= lam
    M_mm[np.diag_indices_from(M_mm)] -= lam
    return M_cc - L[np.ix_(c, m)] @ np.linalg.solve(M_mm, L[np.ix_(m, c)])


def per_cut_verify(flux, level):
    """`enumerator.decimation_verify` one cut at a time: a scalar `apply_U` and a
    scalar count per cut, with the spectrum from `enumerator.spectrum` (so a
    patched spectrum reaches both).  The oracle of the batched verifier."""
    graph = build_gasket(level)
    sp = enumerator.spectrum(assemble(graph, build_connection(graph, flux)))
    ends = np.cumsum([m for _, m in sp.pairs])[:-1]
    cuts = [BRACKET[0], *((sp.raw[ends - 1] + sp.raw[ends]) / 2).tolist(), BRACKET[1]]
    verdicts = []
    for x in cuts:
        try:
            a, b, r = apply_U(flux.alpha, flux.beta, x)
        except OrbitTerminated as exc:
            verdicts.append((None, f"below {x:.10g}: {exc}"))
            continue
        c, fired = (int(v[0]) for v in gluing_count(a, b, level - 1, r))
        k = int(_roots_below(x, cell_cubic_d(flux.beta, x)))
        want = int(one_step_count(level, k, c))
        got = int(np.searchsorted(sp.raw, x))
        note = f"below {x:.10g}: predicted {want} (k={k}, c={c}), observed {got}"
        if fired:
            undetermined = ", where the two differ" if c < 0 else ""
            note += f" (singular junction block: c counted at R -+ {JUNCTION_SHIFT:g}{undetermined})"
        verdicts.append((c >= 0 and want == got, note))
    special = [(r, "d-root") for r, _ in zeros_of_D(flux.beta)]
    special += [(z, "psi-zero") for z in psi_real_zeros(flux)]
    entries = []
    for (lam, mult), (ok_lo, lo), (ok_hi, hi) in zip(sp.pairs, verdicts, verdicts[1:]):
        note = f"{lo}; {hi}"
        if ok_lo is None or ok_hi is None:
            entries.append(VerificationEntry(lam, mult, "informational", None, note))
            continue
        kind = "regular"
        for value, label in special:
            if abs(lam - value) <= LABEL_TOL:
                kind, note = label, f"tag={classify(flux, value).case}; {note}"
                break
        entries.append(VerificationEntry(lam, mult, kind, ok_lo and ok_hi, note))
    return VerificationReport(flux, level, LABEL_TOL, entries)


def cell_holonomies(conn):
    """(face, holonomy) for every face of the graph, each an exact `fsum` of
    the directed phases around its CCW boundary by `Connection.holonomy`:
    the per-face oracle of the vectorised face sums."""
    return [(c, conn.holonomy(list(c.vertices))) for c in conn.graph.cells]


_crsf_log = logging.getLogger("sglap.crsf")


def reference_neighbors(graph):
    """Sorted neighbour lists rebuilt from the edge list on every call."""
    nbrs = [[] for _ in range(len(graph.vertices))]
    for a, b in graph.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return [sorted(ns) for ns in nbrs]


def reference_flux_window_check(conn):
    """The sampler's face-window check one face at a time, through
    `cell_holonomies`: the oracle of `crsf._flux_window_check`, logging to the
    same logger."""
    faces = cell_holonomies(conn)
    reps = [math.remainder(h, 1.0) for _, h in faces]
    if all(abs(r) <= 1e-12 for r in reps):
        raise UnsupportedFluxError(
            "zero flux: every cycle has acceptance probability 0, so the "
            "cycle-popping sampler never roots a component; use a uniform "
            "spanning tree sampler instead"
        )
    base = [
        r
        for (cell, _), r in zip(faces, reps)
        if cell.side == 1  # uprights carry alpha, side-1 holes carry beta
    ]
    bad = max(base, key=abs)
    if abs(bad) > FLUX_WINDOW + 1e-12:
        raise UnsupportedFluxError(
            f"base flux angle {bad:+.6f} lies outside [-1/4, 1/4]; the "
            "cycle acceptance probability would exceed 1"
        )
    if math.fsum(abs(r) for r in reps) > FLUX_WINDOW + 1e-12:
        _crsf_log.warning(
            "total face flux exceeds 1/4: some composite cycles fall outside "
            "the acceptance window and are clamped, so the sampled law is "
            "only approximate at this flux/level"
        )


def reference_sample_crsf(graph, conn, seed):
    """The cycle-popping sampler with the neighbour lists rebuilt, the window
    checked face by face and each loop's flux read by `Connection.holonomy`:
    the oracle that `crsf.sample_crsf` must match sample for sample."""
    reference_flux_window_check(conn)
    nbrs = reference_neighbors(graph)
    n = len(graph.vertices)
    rng = random.Random(seed)
    successor = [None] * n
    in_forest = [False] * n
    steps = 0
    for start in range(n):
        if in_forest[start]:
            continue
        path = [start]
        pos = {start: 0}
        while True:
            steps += 1
            if steps > WATCHDOG_STEPS:
                raise RuntimeError(
                    f"cycle popping exceeded {WATCHDOG_STEPS:.0e} steps"
                )
            u = path[-1]
            w = rng.choice(nbrs[u])
            if in_forest[w]:
                for a, b in zip(path, path[1:] + [w]):
                    successor[a] = b
                    in_forest[a] = True
                break
            if w in pos:  # closed a loop
                i = pos[w]
                theta = conn.holonomy(path[i:] + [w])
                p = 1.0 - math.cos(2.0 * math.pi * theta)
                if p > 1.0:
                    _crsf_log.debug(
                        "clamping acceptance %.6f for cycle flux %.6f", p, theta
                    )
                    p = 1.0
                if rng.random() < p:
                    for a, b in zip(path, path[1:] + [w]):
                        successor[a] = b
                        in_forest[a] = True
                    break
                for x in path[i + 1:]:
                    del pos[x]
                del path[i + 1:]
            else:
                pos[w] = len(path)
                path.append(w)
    return OrientedCRSF.from_successor(tuple(successor), conn)


def reference_partition(graph, conn):
    """The partition sum one successor map at a time: each map decomposed
    afresh and weighed by `crsf_weight`, summed in `itertools.product` order.
    The oracle that `crsf.brute_force_partition` must match to the bit."""
    _check_enumeration_size(graph)
    total = 0.0 + 0.0j
    for choice in itertools.product(*graph.neighbors):
        total += crsf_weight(graph, OrientedCRSF.from_successor(choice, conn))
    return total


def brute_force_edge_marginals(graph, conn):
    """P[edge in the unoriented CRSF] for each edge, by full enumeration.

    An undirected edge {x,y} is used exactly when the successor map contains
    x->y or y->x.  Orientation-reversal conjugates the weight, so each
    restricted sum is real; marginals are ratios against the partition sum.
    """
    _check_enumeration_size(graph)
    total = 0.0 + 0.0j
    hits = {(min(a, b), max(a, b)): 0.0 + 0.0j for a, b in graph.edges}
    for choice in itertools.product(*graph.neighbors):
        w = crsf_weight(graph, OrientedCRSF.from_successor(choice, conn))
        if w == 0:
            continue
        total += w
        for x, y in enumerate(choice):
            key = (min(x, y), max(x, y))
            if x < y or choice[y] != x:  # count doubled (2-cycle) edges once
                hits[key] += w
    if abs(total.imag) > 1e-10 or total.real <= 0:
        raise ArithmeticError(f"partition sum not a positive real: {total}")
    return {e: (h / total).real for e, h in hits.items()}
