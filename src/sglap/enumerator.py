"""Closed-form spectra at half-integer flux and the one-step verifier.

The four flux pairs with alpha, beta in {0, 1/2} have completely explicit
spectra: a handful of fixed eigenvalues plus backward-iterate series built
from the four real quadratics of `decimation.QUADRATICS`

    R00 = lam(5-4 lam)        Rhh = -(lam-2)(4 lam-3)
    Rh0 = -4 lam^2+9 lam-3    R0h = -4 lam^2+7 lam-1

Each series is "anchor -> k-fold R00 preimages -> one inversion per prefix
map"; k = 0 means the anchor itself.  For general fluxes no such enumeration
exists, so `decimation_verify` checks the level-N spectrum (from
`operator.eigenvalues`) against one step of the decimation theorem instead:
below each cut between clusters it compares the observed eigenvalue count with
the count Haynsworth inertia additivity predicts from the level-(N-1) operator
at the evolved fluxes.  That reduced count comes from gluing corner blocks
(`decimation.gluing_count`, one batched call over every cut), not from U and
not from a level-(N-1) graph.  Exceptional values need no case of their own;
the counts on either side of them fix their multiplicities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .decimation import (
    BRACKET,
    JUNCTION_SHIFT,
    QUADRATICS,
    OrbitTerminated,
    _roots_below,
    _step,
    # apply_U is not called here; perfbench/selftest.py checks that its
    # tracer wraps this from-import site
    apply_U,  # noqa: F401
    classify,
    gluing_count,
    one_step_count,
    psi_real_zeros,
    zeros_of_D,
)
from .gasket import build_gasket, dim_n
from .gauge import FluxPair, build_connection, dyadic
from .operator import Spectrum, assemble, spectrum

MAX_SERIES_DEPTH = 20  # 2^k values per series; desk levels use k <= 6
LABEL_TOL = 1e-7  # picks the d-root and psi-zero labels of the verifier; no verdict


def quadratic_preimages(map_id: str, value: float) -> tuple[float, float]:
    """The two real solutions of R(x) = value for one of the named quadratics."""
    _, _, (b, c) = QUADRATICS[map_id]
    disc = b * b + 16 * c - 16 * value
    if disc < -1e-12:
        raise ValueError(f"no real preimages: {map_id}^(-1)({value}), discriminant {disc}")
    s = math.sqrt(max(disc, 0.0))
    return ((b - s) / 8, (b + s) / 8)


@dataclass(frozen=True)
class SeriesSpec:
    anchor: float
    prefix_chain: tuple[str, ...]
    depth: int
    multiplicity: int

    def realize(self) -> list[float]:
        if self.depth + len(self.prefix_chain) > MAX_SERIES_DEPTH:
            raise ValueError("series depth exceeds the 2^20 realization cap")
        values = [self.anchor]
        for _ in range(self.depth):
            values = [x for v in values for x in quadratic_preimages("R00", v)]
        for map_id in self.prefix_chain:
            values = [x for v in values for x in quadratic_preimages(map_id, v)]
        return values


def _series_table(alpha_half: bool, beta_half: bool, n: int) -> tuple[list, list]:
    """Fixed rows and series rows of the level-n closed form for one flux pair."""
    fixed: list[tuple[float, int]] = []
    series: list[SeriesSpec] = []

    def mult(num_exp: int, off: int) -> int:
        # (3^num_exp + off)/2, valid only when the exponent is nonnegative
        return (3**num_exp + off) // 2 if num_exp >= 0 else 0

    if not alpha_half and not beta_half:  # (0,0)
        fixed = [(0.0, 1), (1.5, mult(n, 3))]
        for k in range(0, n):
            series.append(SeriesSpec(0.75, (), k, mult(n - k - 1, 3)))
        for k in range(0, n - 1):
            series.append(SeriesSpec(1.25, (), k, mult(n - k - 1, -1)))
    elif alpha_half and beta_half:  # (1/2,1/2)
        fixed = [(0.5, mult(n, 3)), (0.75, mult(n - 1, -1)), (1.25, mult(n - 1, 3)), (2.0, 1)]
        for k in range(0, n - 1):
            series.append(SeriesSpec(0.75, ("Rhh",), k, mult(n - k - 2, 3)))
        for k in range(0, n - 2):
            series.append(SeriesSpec(1.25, ("Rhh",), k, mult(n - k - 2, -1)))
    elif alpha_half:  # (1/2,0)
        fixed = [(0.5, mult(n, 3)), (1.0, 1), (1.25, mult(n - 1, -1)), (1.75, mult(n - 1, 3))]
        if n >= 2:
            series.append(SeriesSpec(0.75, ("Rh0",), 0, mult(n - 2, -1)))
            series.append(SeriesSpec(1.25, ("Rh0",), 0, mult(n - 2, 3)))
        for k in range(0, n - 2):
            series.append(SeriesSpec(0.75, ("Rhh", "Rh0"), k, mult(n - k - 3, 3)))
        for k in range(0, n - 3):
            series.append(SeriesSpec(1.25, ("Rhh", "Rh0"), k, mult(n - k - 3, -1)))
    else:  # (0,1/2)
        fixed = [(0.25, mult(n - 1, 3)), (0.75, mult(n - 1, -1)), (1.0, 1), (1.5, mult(n, 3))]
        if n >= 2:
            series.append(SeriesSpec(0.75, ("R0h",), 0, mult(n - 2, -1)))
            series.append(SeriesSpec(1.25, ("R0h",), 0, mult(n - 2, 3)))
        for k in range(0, n - 2):
            series.append(SeriesSpec(0.75, ("Rhh", "R0h"), k, mult(n - k - 3, 3)))
        for k in range(0, n - 3):
            series.append(SeriesSpec(1.25, ("Rhh", "R0h"), k, mult(n - k - 3, -1)))

    fixed = [(v, m) for v, m in fixed if m > 0]
    series = [s for s in series if s.multiplicity > 0]
    return fixed, series


def spectrum_closed_form(flux: FluxPair, level: int) -> Spectrum:
    if not flux.is_dyadic():
        raise ValueError(
            "closed-form spectra exist only for fluxes in {0, 1/2}; "
            "use decimation_verify for general fluxes"
        )
    a_half, b_half = dyadic(flux.alpha) == 0.5, dyadic(flux.beta) == 0.5
    if level == 0:
        # single triangle: separate table (0 and 3/2 at flux 0; the twisted
        # triangle has eigenvalues 1 -+ cos/2 shifts handled by the dense path)
        if not a_half and not b_half:
            return Spectrum([(0.0, 1), (1.5, 2)])
        raise ValueError("level 0 closed form tabulated only at flux (0,0)")

    fixed, series = _series_table(a_half, b_half, level)
    bag: list[tuple[float, int]] = list(fixed)
    for s in series:
        vals = s.realize()
        if len(vals) != 2 ** (s.depth + len(s.prefix_chain)):
            raise RuntimeError("series realization lost values")
        bag += [(v, s.multiplicity) for v in vals]

    bag.sort()
    pairs: list[tuple[float, int]] = []
    for v, m in bag:
        if pairs and abs(v - pairs[-1][0]) <= 1e-10:
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + m)
        else:
            pairs.append((v, m))
    total = sum(m for _, m in pairs)
    if total != dim_n(level):
        raise RuntimeError(f"closed form mass {total} != dim {dim_n(level)}")
    return Spectrum(pairs)


@dataclass(frozen=True)
class VerificationEntry:
    lam: float
    mult: int
    kind: str  # regular | d-root | psi-zero | informational
    ok: bool | None  # None = informational only
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    flux: FluxPair
    level: int
    tol: float
    entries: list[VerificationEntry] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(e.ok for e in self.entries if e.ok is not None)

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.flux.alpha,
                "beta": self.flux.beta,
                "level": self.level,
                "tol": self.tol,
                "all_pass": self.all_pass,
                "entries": [
                    {
                        "lambda": e.lam,
                        "multiplicity": e.mult,
                        "kind": e.kind,
                        "ok": e.ok,
                        "note": e.note,
                    }
                    for e in self.entries
                ],
            },
            indent=1,
        )


def decimation_verify(flux: FluxPair, level: int) -> VerificationReport:
    """Check the level-N spectrum against one step of the decimation theorem.

    Below a cut x, #{eig L_N < x} must equal `one_step_count`(N, k, c), with k
    from `_roots_below` and c = #{eig L_(N-1)(alpha', beta') < R} at
    (alpha', beta', R) = U(alpha, beta, x).  The cuts are BRACKET's ends and
    the midpoint of every gap between adjacent clusters of `spectrum`.  The
    level-N graph is built by `build_connection` and solved once through
    `operator.eigenvalues`.  The step of U is `decimation._step` at the flux
    pair over the array of cuts, the exact step that `apply_U` and the kit
    take one lambda at a time: its D gives k, its alpha', beta' and R the
    reduced problem, and k, the predicted and the observed counts are worked
    out as arrays.  No level-(N-1) graph is built: one
    `decimation.gluing_count` call at level N-1 counts c at every cut with a
    finite R, each at its own (alpha', beta', R).  It never follows U, so the
    check is not an identity at any level.  Where its singular-J rule fired
    the note says so; where that rule leaves c undetermined (-1), the cut is
    red.

    Each cluster gets one entry, judged by the two cuts around it; its note
    gives the predicted and observed count at both.  Clusters within LABEL_TOL
    of a D root or a real Psi zero are labelled d-root or psi-zero and carry
    their `classify` tag.  A cut where Psi vanishes exactly off the dyadic grid
    has no R, and the clusters beside it are informational; the note gives the
    text of `apply_U`'s OrbitTerminated there.
    """
    if level < 1:
        raise ValueError("verification needs a previous level")
    graph = build_gasket(level)
    sp = spectrum(assemble(graph, build_connection(graph, flux)))
    d_roots = zeros_of_D(flux.beta)

    ends = np.cumsum([m for _, m in sp.pairs])[:-1]
    cuts = np.array([BRACKET[0], *((sp.raw[ends - 1] + sp.raw[ends]) / 2), BRACKET[1]])
    _, d, _, ad, bd, rs = _step(flux, cuts)
    finite = np.isfinite(rs)
    c = np.full(cuts.size, -1)
    fired = np.zeros(cuts.size, dtype=bool)
    c[finite], fired[finite] = gluing_count(ad[finite], bd[finite], level - 1, rs[finite])
    k = _roots_below(cuts, d)
    want = one_step_count(level, k, c)
    got = np.searchsorted(sp.raw, cuts)

    def judge(x, k, c, fired, want, got, finite) -> tuple[bool | None, str]:
        if not finite:
            return None, f"below {x:.10g}: {OrbitTerminated(flux.alpha, flux.beta, x)}"
        note = f"below {x:.10g}: predicted {want} (k={k}, c={c}), observed {got}"
        if fired:
            undetermined = ", where the two differ" if c < 0 else ""
            note += f" (singular junction block: c counted at R -+ {JUNCTION_SHIFT:g}{undetermined})"
        return c >= 0 and want == got, note

    columns = (cuts, k, c, fired, want, got, finite)
    verdicts = [judge(*row) for row in zip(*(col.tolist() for col in columns))]
    special = [(r, "d-root") for r, _ in d_roots] + [(z, "psi-zero") for z in psi_real_zeros(flux)]

    entries: list[VerificationEntry] = []
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
