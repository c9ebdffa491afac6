"""Shared test utilities (not collected by pytest)."""

import numpy as np

from sglap.decimation import exceptional_set, numerator_psi_dlam, u_step
from sglap.gauge import Connection, mod1


def reduced_connection_from_schur(S, phi, coarse):
    """Recover the edge phases of the coarse connection hidden in a Schur
    complement S = phi * (L' - R I): off-diagonal entries are
    -phi * omega'_xy / deg'(x), so dividing them back out yields omega'."""
    deg = coarse.degrees
    phase = {}
    for x, y in coarse.edges:
        for u, v in ((x, y), (y, x)):
            w = -S[u, v] * deg[u] / phi
            phase[(u, v)] = float(np.angle(w) / (2 * np.pi))
    return Connection(coarse, phase)


def gauge_transform(conn, rng):
    """conn under a random gauge transformation, phase(x, y) + chi(y) - chi(x)
    with chi(x) uniform in [0, 1): edge phases change, face holonomies (and so
    the flux pair and the spectrum) do not."""
    chi = [rng.random() for _ in conn.graph.vertices]
    phase = {(x, y): p + chi[y] - chi[x] for (x, y), p in conn.phase.items()}
    return Connection(conn.graph, phase, conn.flux)


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
