"""Determinant closed forms, the H-chain recurrence, and complexity pins.

Oracles: exact rational arithmetic (Fraction) for the recurrence and the
small-level determinant values, Kirchhoff counts for trees, dense spectra /
closed-form spectra for the log-determinant products, and nested quadratic
preimage enumeration (complex sqrt, no clever branch handling) for the
finite products behind the complexity constants.
"""

import cmath
import math
import time
from fractions import Fraction

import pytest

from sglap import determinants as D
from sglap.enumerator import spectrum_closed_form
from sglap.gasket import build_gasket
from sglap.gauge import FluxPair, build_connection
from sglap.operator import assemble, kirchhoff_tree_count, log_determinant

FLUX = {"half-half": (0.5, 0.5), "half-zero": (0.5, 0.0), "zero-half": (0.0, 0.5)}


def logfrac(fr):
    return math.log(fr.numerator) - math.log(fr.denominator)


def spectral_log_det(flux, n):
    sp = spectrum_closed_form(FluxPair(*flux), n)
    return math.fsum(m * math.log(lam) for lam, m in sp.pairs)


def test_psi_weight_pins():
    for n, want in [(0, Fraction(4, 3)), (1, Fraction(256, 9)), (2, Fraction(2**26, 27))]:
        lv = D.psi_weight(n)
        assert abs(lv.log_magnitude - logfrac(want)) < 1e-12, (n, lv.log_magnitude)
        assert lv.consistency_error() <= 1e-12


def test_tree_count_closed_form_matches_kirchhoff():
    for n in range(4):
        lv = D.tree_count_closed_form(n)
        exact = kirchhoff_tree_count(build_gasket(n))
        assert abs(lv.log_magnitude - math.log(exact)) < 1e-11 * max(
            1, abs(math.log(exact))
        ), (n, exact)
    assert kirchhoff_tree_count(build_gasket(1)) == 54
    assert kirchhoff_tree_count(build_gasket(2)) == 524880
    lv1 = D.tree_count_closed_form(1)
    assert dict(lv1.exact_factors) == {2: 1, 3: 3}


def test_recurrence_seeds_and_linear_values():
    st = D.recurrence("H", 12)
    assert st[0].linear_H == Fraction(53, 2)
    assert st[1].linear_H == Fraction(1397, 2)
    assert st[1].linear_H == Fraction(53, 2) ** 2 - Fraction(15, 4)
    assert float(D.recurrence("Htilde", 0)[0].linear_H) == 302.5
    assert float(D.recurrence("Hhat", 0)[0].linear_H) == 86.5
    # exact rationals carried through k = 8, logs only beyond
    assert st[8].linear_H is not None and st[9].linear_H is None
    for k in range(9):
        want = logfrac(st[k].linear_H)
        assert abs(st[k].log_H - want) <= 1e-12 * max(1, abs(want)), k
        assert abs(
            st[k].log_H_plus_half - logfrac(st[k].linear_H + Fraction(1, 2))
        ) < 1e-12 * max(1, abs(want))
        assert abs(
            st[k].log_H_plus_fivehalves - logfrac(st[k].linear_H + Fraction(5, 2))
        ) < 1e-12 * max(1, abs(want))


def test_recurrence_log_tracks_exact_rational():
    st = D.recurrence("H", 12)
    exact = Fraction(53, 2)
    for _ in range(9):
        exact = exact * exact - Fraction(15, 4)
    want = logfrac(exact)
    assert abs(st[9].log_H - want) / abs(want) < 1e-12


def test_recurrence_growth_ratios_decreasing():
    # |l_k / 2^k - l_{k-1} / 2^{k-1}| is non-increasing once the doubling
    # regime kicks in (k >= 3); that is what makes the complexity series
    # converge geometrically.
    st = D.recurrence("H", 12)
    r = [abs(st[k].log_H / 2**k - st[k - 1].log_H / 2 ** (k - 1)) for k in range(1, 13)]
    assert all(r[i] >= r[i + 1] for i in range(2, len(r) - 1)), r


def test_det_small_level_pins():
    pins = [
        ("half-half", 1, Fraction(25, 64)),
        ("half-zero", 1, Fraction(49, 128)),
        ("zero-half", 1, Fraction(27, 128)),
        ("half-half", 2, Fraction(546750, 2**22)),
        ("half-zero", 2, Fraction(5 * 7**3 * 17**2, 2**22)),
        ("zero-half", 2, Fraction(3**11, 2**22)),
    ]
    for case, n, want in pins:
        lv = D.det_closed_form(case, n)
        got, w = lv.log_magnitude, logfrac(want)
        assert abs(got - w) < 1e-12 * max(1, abs(w)), (case, n, got, w)
        assert lv.consistency_error() <= 1e-12


def test_det_small_level_guard():
    for case in D.DET_CASES:
        with pytest.raises(ValueError, match="level 0 is refused"):
            D.det_closed_form(case, 0)


def test_det_validity_floor_is_sharp():
    # from level 1 on every case reproduces the product of its spectrum
    for case, flux in FLUX.items():
        for n in (1, 2):
            lv = D.det_closed_form(case, n)
            ref = spectral_log_det(flux, n)
            assert abs(lv.log_magnitude - ref) / max(1, abs(ref)) < 1e-12, (case, n)


# --- the paper's explicit exponents, kept as the oracle of the derivation ---


def _paper_prime_exponents(case, n):
    """Prime-power part of det(L_N) before the 1/psi(G_N) factor."""
    if case == "half-half":
        return {
            2: Fraction(3**n + 1, 2),
            3: Fraction(3 ** (n - 1) - 2 * n - 3, 2),
            5: Fraction(3 ** (n - 1) + 3, 2),
        }
    if case == "half-zero":
        return {
            2: Fraction(3**n - 1, 2),
            3: Fraction(3 ** (n - 2) - 2 * n - 3, 2),
            5: Fraction(2 * 3 ** (n - 2) - 1),
            7: Fraction(3 ** (n - 1) + 3, 2),
            17: Fraction(3 ** (n - 2) + 3, 2),
        }
    return {
        2: Fraction(3**n - 1, 2),
        3: Fraction(7 * 3 ** (n - 2) - n + 3),
        7: Fraction(3 ** (n - 2) - 1, 2),
    }


def _paper_chain_multiplicities(case, n):
    """(k, mult of H(k)+1/2, mult of H(k)+5/2): flux (1/2,1/2) inverts one
    prefix map, so its chains run to k = N-2 and N-3; the mixed fluxes invert
    two and run to k = N-3 and N-4."""
    depth = 2 if case == "half-half" else 3
    return [
        (k, (3 ** (n - k - depth) + 3) // 2, (3 ** (n - k - depth) - 1) // 2)
        for k in range(n - depth + 1)
    ]


def _paper_det(case, n):
    exps = dict(_paper_prime_exponents(case, n))
    for p, e in D.psi_weight(n).exact_factors:
        exps[p] -= e
    factors = [(p, e, math.log(p)) for p, e in sorted(exps.items())]
    kind = D._CASE_KIND[case]
    rows = _paper_chain_multiplicities(case, n)
    states = D.recurrence(kind, rows[-1][0]) if rows else []
    for k, half, five in rows:
        factors.append((f"{kind}({k})+1/2", Fraction(half), states[k].log_H_plus_half))
        factors.append((f"{kind}({k})+5/2", Fraction(five), states[k].log_H_plus_fivehalves))
    return D._assemble(factors)


def _paper_tree_count(n):
    return D._assemble([
        (2, Fraction(3**n - 1, 2), math.log(2)),
        (3, Fraction(3 ** (n + 1) + 2 * n + 1, 4), math.log(3)),
        (5, Fraction(3**n - 2 * n - 1, 4), math.log(5)),
    ])


@pytest.mark.parametrize("case", D.DET_CASES)
def test_det_derivation_matches_the_paper_exponents(case):
    # the paper's formulas hold from level 2 (level 1 for half-half); there the
    # factors derived from the spectrum table agree with them exactly and the
    # log magnitudes bitwise
    for n in range(1 if case == "half-half" else 2, 21):
        assert D.det_closed_form(case, n) == _paper_det(case, n), (case, n)


def test_tree_count_derivation_matches_the_paper_exponents():
    for n in range(16):
        assert D.tree_count_closed_form(n) == _paper_tree_count(n), n


def test_det_closed_form_matches_spectral_product():
    for case, flux in FLUX.items():
        for n in (3, 4, 5):
            lv = D.det_closed_form(case, n)
            ref = spectral_log_det(flux, n)
            rel = abs(lv.log_magnitude - ref) / max(1, abs(ref))
            assert rel < 1e-9, (case, n, rel)
            assert lv.consistency_error() <= 1e-12


def test_det_closed_form_matches_dense_level3():
    for case, flux in FLUX.items():
        g = build_gasket(3)
        op = assemble(g, build_connection(g, FluxPair(*flux)))
        ld, zc = log_determinant(op)
        assert zc == 0
        lv = D.det_closed_form(case, 3)
        assert abs(lv.log_magnitude - ld) / max(1, abs(ld)) < 1e-6, case


# --- finite products behind the complexity constants --------------------


def _quad_pre(a2, a1, a0, value):
    disc = cmath.sqrt(a1 * a1 - 4 * a2 * (a0 - value))
    return [(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)]


def _brute_F(P, R, n, alpha):
    a2, a1, a0 = P
    b2, b1 = R
    layer = [alpha]
    for _ in range(n):
        layer = [z for w in layer for z in _quad_pre(b2, b1, 0.0, w)]
    zs = [z for w in layer for z in _quad_pre(a2, a1, a0, w)]
    prod = 1.0 + 0j
    for z in zs:
        prod *= z
    return prod


def _brute_Ft(Q, P, R, n, alpha):
    q2, q1, q0 = Q
    layer = [alpha]
    for _ in range(n):
        layer = [z for w in layer for z in _quad_pre(R[0], R[1], 0.0, w)]
    layer = [z for w in layer for z in _quad_pre(P[0], P[1], P[2], w)]
    zs = [z for w in layer for z in _quad_pre(q2, q1, q0, w)]
    prod = 1.0 + 0j
    for z in zs:
        prod *= z
    return prod


def test_lemma_product_trivial_pins():
    assert D.lemma_product((1, 0, 0), (1, 0), 0, 0.7) == -0.7
    for P in [(2.0, -3.0, 1.0), (-4.0, 11.0, -6.0)]:
        for alpha in (0.3, 3 / 4, -1.2):
            assert abs(D.lemma_product(P, (-4.0, 5.0), 0, alpha) - (P[2] - alpha) / P[0]) < 1e-14


def test_lemma_product_vs_nested_preimages():
    cases = [
        ((-4.0, 11.0, -6.0), (-4.0, 5.0)),
        ((2.0, 1.0, 3.0), (1.0, -2.0)),
        ((1.5, 0.0, -0.5), (-2.0, 1.0)),
    ]
    for P, R in cases:
        for n in range(5):
            for alpha in (0.25, 0.75, 1.25, -0.6):
                got = D.lemma_product(P, R, n, alpha)
                ref = _brute_F(P, R, n, alpha)
                assert abs(ref.imag) < 1e-7 * max(1, abs(ref)), (P, R, n, alpha, ref)
                assert abs(got - ref.real) <= 1e-7 * max(1.0, abs(ref.real)), (
                    P, R, n, alpha, got, ref,
                )


def test_lemma_product_tilde_vs_nested_preimages():
    Q, P, R = (-4.0, 9.0, -3.0), (-4.0, 11.0, -6.0), (-4.0, 5.0)
    for n in range(4):
        for alpha in (0.75, 1.25, 0.3):
            got = D.lemma_product_tilde(Q, P, R, n, alpha)
            ref = _brute_Ft(Q, P, R, n, alpha)
            assert abs(ref.imag) < 1e-7 * max(1, abs(ref)), (n, alpha, ref)
            assert abs(got - ref.real) <= 1e-7 * max(1.0, abs(ref.real)), (n, alpha, got, ref)


def test_lemma_product_reproduces_chain_seeds():
    Q, P, R = (-4.0, 9.0, -3.0), (-4.0, 11.0, -6.0), (-4.0, 5.0)
    # (Htilde(0) + 1/2) and (Hhat(0) + 1/2) recovered from the n = 0 products
    assert abs(D.lemma_product_tilde(Q, P, R, 0, 0.75) * 256 - 303.0) < 1e-9
    assert abs(D.lemma_product_tilde((-4.0, 7.0, -1.0), P, R, 0, 0.75) * 256 - 87.0) < 1e-9
    assert abs(D.lemma_product(P, R, 0, 0.75) * 16 - 27.0) < 1e-9


def test_complexity_pins_and_budget():
    t0 = time.perf_counter()
    zz = D.complexity("zero-zero", 40)
    assert zz == math.log(2) / 3 + math.log(3) / 2 + math.log(5) / 6
    assert abs(zz - 1.0485907) < 1e-5
    pins = {"half-half": 1.2638853, "half-zero": 1.4168552, "zero-half": 1.3062523}
    for case, pin in pins.items():
        v = D.complexity(case, 40)
        assert abs(v - pin) < 1e-5, (case, v)
        # partial sums are certified lower bounds: nondecreasing in K
        seq = [D.complexity(case, k) for k in range(0, 41, 5)]
        assert all(a <= b + 1e-15 for a, b in zip(seq, seq[1:]))
        assert v <= D.complexity(case, 64) + 1e-15
    assert time.perf_counter() - t0 < 1.0


def test_loop_entropy_pins():
    assert abs(D.loop_entropy("half-half") - 0.21529) < 2e-5
    assert abs(D.loop_entropy("half-zero") - 0.36826) < 2e-5
    assert abs(D.loop_entropy("zero-half") - 0.25766) < 2e-5
    with pytest.raises(ValueError):
        D.loop_entropy("zero-zero")


def test_case_constant_tuples():
    assert D.COMPLEXITY_CASES == ("zero-zero",) + D.DET_CASES
    assert set(D.DET_CASES) == set(FLUX)
