"""Closed-form spectra at half-integer flux and the forward verifier.

The four flux pairs with alpha, beta in {0, 1/2} have completely explicit
spectra: a handful of fixed eigenvalues plus backward-iterate series built
from the four real quadratics of `decimation.QUADRATICS`

    R00 = lam(5-4 lam)        Rhh = -(lam-2)(4 lam-3)
    Rh0 = -4 lam^2+9 lam-3    R0h = -4 lam^2+7 lam-1

Each series is "anchor -> k-fold R00 preimages -> one inversion per prefix
map"; k = 0 means the anchor itself.  For general fluxes no such enumeration
exists, so `decimation_verify` instead walks the level-N spectrum (from
`operator.eigenvalues`) and checks each eigenvalue forward.  Regular ones are
judged one raw eigenvalue at a time: each is mapped by U to its own evolved
fluxes and R value, and each run of agreeing images must be matched by as many
raw eigenvalues of the reduced operator at its fluxes.  Special ones must obey
the multiplicity-transfer bookkeeping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .decimation import (
    QUADRATICS,
    ClassificationTag,
    OrbitTerminated,
    apply_U,
    classify,
    exceptional_set,
    psi_real_zeros,
    zeros_of_D,
)
from .gasket import build_gasket, dim_n
from .gauge import FluxPair, build_connection, circ_dist, dyadic
from .operator import Spectrum, assemble, eigenvalues, spectrum

MAX_SERIES_DEPTH = 20  # 2^k values per series; desk levels use k <= 6


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


def multiplicity_transfer(
    tag: ClassificationTag, mult_L_at_R: int, level: int, root_mult: int
) -> int:
    if tag.case == "Indeterminate":
        raise ValueError("cannot transfer multiplicity through an unresolved classification")
    prev = dim_n(level - 1)
    block = 3 ** (level - 1) * root_mult
    out = {
        "Regular": mult_L_at_R,
        "PhiZero": prev,
        "DZeroVanishing": block - prev + mult_L_at_R,
        "DNotSingular": block + mult_L_at_R,
        "DZeroMixed": block - prev + 2 * mult_L_at_R,
        "PsiZeroEscape": 0,
        "DDoubleZero": block - prev + 2 * mult_L_at_R,
    }[tag.case]
    if out < 0:
        raise ValueError(f"negative transferred multiplicity {out} for {tag.case}")
    return out


@dataclass(frozen=True)
class VerificationEntry:
    lam: float
    mult: int
    kind: str  # regular | s3 | d-root | psi-zero | absent-check | informational
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


def _count_near(evs: np.ndarray, value: float, tol: float) -> int:
    return int(np.count_nonzero(np.abs(evs - value) <= tol))


def _image_runs(images: list[tuple[float, float, float]], tol: float) -> list[list]:
    """Split images (alpha', beta', R) of sorted eigenvalues into runs of
    consecutive ones that agree with their predecessor within tol."""
    runs = [[images[0]]]
    for (a0, b0, r0), img in zip(images, images[1:]):
        a, b, r = img
        if circ_dist(a0, a) <= tol and circ_dist(b0, b) <= tol and abs(r0 - r) <= tol:
            runs[-1].append(img)
        else:
            runs.append([img])
    return runs


def decimation_verify(flux: FluxPair, level: int, tol: float = 1e-7) -> VerificationReport:
    """Check every level-N eigenvalue against the one-step reduction.

    The level-N and reduced spectra come from `operator.eigenvalues`: the
    dense oracle below level 6, decimation counting from there on for Case I
    and Case IV fluxes.

    A regular (non-exceptional) cluster of the level-N spectrum is judged one
    raw eigenvalue at a time, on the reduced operator at each one's own
    evolved fluxes: next to a D root R and theta are steep, so eigenvalues
    that `spectrum` merges can map to different level-(N-1) operators.  The
    images of a cluster's sorted members split into runs, each image agreeing
    in (alpha', beta', R) within tol with the one before; a run must be
    matched by exactly as many raw eigenvalues of the reduced operator at its
    middle image's fluxes, within tol of that image's R.
    """
    if level < 1:
        raise ValueError("verification needs a previous level")
    graph = build_gasket(level)
    sp = spectrum(assemble(graph, build_connection(graph, flux)))
    exceptional = exceptional_set(flux)
    d_roots = zeros_of_D(flux.beta)

    s3_value = {0.0: 1.5, 0.5: 0.5}.get(dyadic(flux.alpha))

    reduced_graph = build_gasket(level - 1)

    def reduced_eigenvalues(a: float, b: float) -> np.ndarray:
        g = reduced_graph
        return eigenvalues(assemble(g, build_connection(g, FluxPair(a, b))))

    entries: list[VerificationEntry] = []
    end = 0
    for lam, mult in sp.pairs:
        members, end = sp.raw[end : end + mult], end + mult
        dist_ex = min(abs(lam - e) for e in exceptional)
        if dist_ex > tol:
            try:
                images = [apply_U(flux.alpha, flux.beta, float(x)) for x in members]
            except OrbitTerminated:
                entries.append(
                    VerificationEntry(lam, mult, "informational", None, "Psi vanished off-grid")
                )
                continue
            ok, notes = True, []
            for run in _image_runs(images, tol):
                ad, bd, rv = run[len(run) // 2]
                got = _count_near(reduced_eigenvalues(ad, bd), rv, tol)
                ok = ok and got == len(run)
                notes.append(
                    f"R={rv:.12g} at ({ad:.12g}, {bd:.12g}) has reduced multiplicity "
                    f"{got}, images {len(run)}"
                )
            entries.append(VerificationEntry(lam, mult, "regular", ok, "; ".join(notes)))
            continue

        if s3_value is not None and abs(lam - s3_value) <= tol:
            want = (3**level + 3) // 2
            entries.append(
                VerificationEntry(lam, mult, "s3", mult == want, f"expected {want}")
            )

        near_root = [(r, m) for r, m in d_roots if abs(lam - r) <= tol]
        if near_root:
            root, rm = near_root[0]
            tag = classify(flux, root)
            if tag.case == "Indeterminate" or (tag.case == "DDoubleZero" and tag.exceptional):
                entries.append(
                    VerificationEntry(lam, mult, "informational", None, f"tag={tag.case}")
                )
            else:
                try:
                    ad, bd, rv = apply_U(flux.alpha, flux.beta, root)
                    mult_l = _count_near(reduced_eigenvalues(ad, bd), rv, tol)
                    want = multiplicity_transfer(tag, mult_l, level, tag.root_mult or rm)
                    entries.append(
                        VerificationEntry(
                            lam, mult, "d-root", mult == want, f"tag={tag.case} expected {want}"
                        )
                    )
                except (OrbitTerminated, ValueError) as exc:
                    entries.append(
                        VerificationEntry(lam, mult, "informational", None, str(exc))
                    )
        elif s3_value is None or abs(lam - s3_value) > tol:
            # exceptional but neither S3 nor a D root: a Psi zero in the spectrum
            tag = classify(flux, lam)
            if tag.case == "PhiZero":
                want = dim_n(level - 1)
                entries.append(
                    VerificationEntry(lam, mult, "psi-zero", mult == want, f"expected {want}")
                )
            elif tag.case == "PsiZeroEscape":
                entries.append(
                    VerificationEntry(lam, mult, "psi-zero", False, "should be absent")
                )
            else:
                entries.append(
                    VerificationEntry(lam, mult, "informational", None, f"tag={tag.case}")
                )

    # values that must be present (S3) or absent (escape-type Psi zeros)
    if s3_value is not None:
        present = any(abs(lam - s3_value) <= tol for lam, _ in sp.pairs)
        if not present:
            entries.append(
                VerificationEntry(s3_value, 0, "s3", False, "S3 eigenvalue missing")
            )
    for z in psi_real_zeros(flux):
        tag = classify(flux, z)
        got = sum(m for lam, m in sp.pairs if abs(lam - z) <= tol)
        if tag.case == "PsiZeroEscape":
            note = f"escape-type Psi zero at {z:.12g}: observed multiplicity {got}"
            entries.append(VerificationEntry(z, got, "absent-check", got == 0, note))
        elif tag.case == "Indeterminate":
            # simple D zero coinciding with the Psi zero (the half-flux
            # side-2-triangle line): outside the resolved case table, so the
            # observed multiplicity is recorded without a verdict
            note = f"unresolved Psi/D double vanishing at {z:.12g}: multiplicity {got}"
            entries.append(VerificationEntry(z, got, "informational", None, note))

    return VerificationReport(flux, level, tol, entries)
