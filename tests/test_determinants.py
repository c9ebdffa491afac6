"""Determinant closed forms, the H-chain recurrence, and complexity pins.

Oracles: the paper's recurrence H(k) = H(k-1)^2 - 15/4 in exact rational
arithmetic (Fraction), seeded by the product lemma's `_chain_seed`, for the
recurrence logs and the small-level determinant values; Kirchhoff counts for
trees; dense spectra / closed-form spectra for the log-determinant products;
the paper's exponents for the derivation from the spectrum table; nested
quadratic preimage enumeration (complex sqrt, no clever branch handling) for
the product lemma over every prefix chain of the spectrum table; and second
differences of the determinant exponents over levels for the per-vertex
complexity weights.
"""

import cmath
import math
import time
from fractions import Fraction

import pytest

from _helpers import kirchhoff_tree_count

import numpy as np

from sglap import determinants as D
from sglap.decimation import QUADRATICS, gluing_log_det
from sglap.enumerator import _series_table, spectrum_closed_form
from sglap.gasket import build_gasket, dim_n
from sglap.gauge import FluxPair, build_connection
from sglap.operator import ZERO_EIG_TOL, assemble, dense_eigenvalues

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


def exact_H(chain, k):
    """H(k) of the paper's recurrence, seeded by the product lemma of a prefix chain."""
    h = D._chain_seed(chain)[0]
    for _ in range(k):
        h = h * h - Fraction(15, 4)
    return h


def test_recurrence_seeds_and_linear_values():
    st = D.recurrence("H", 12)
    assert exact_H(("Rhh",), 0) == Fraction(53, 2)
    assert exact_H(("Rhh",), 1) == Fraction(1397, 2)
    assert exact_H(("Rhh", "Rh0"), 0) == Fraction(605, 2)
    assert exact_H(("Rhh", "R0h"), 0) == Fraction(173, 2)
    assert D.recurrence("Htilde", 0)[0].log_H == math.log(302.5)
    assert D.recurrence("Hhat", 0)[0].log_H == math.log(86.5)
    for k in range(9):
        h = exact_H(("Rhh",), k)
        want = logfrac(h)
        assert abs(st[k].log_H - want) <= 1e-12 * max(1, abs(want)), k
        assert abs(st[k].log_H_plus_half - logfrac(h + Fraction(1, 2))) < 1e-12 * max(1, abs(want))
        assert abs(st[k].log_H_plus_fivehalves - logfrac(h + Fraction(5, 2))) < 1e-12 * max(1, abs(want))


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


def test_det_closed_form_matches_dense_level3():
    for case, flux in FLUX.items():
        g = build_gasket(3)
        evs = dense_eigenvalues(assemble(g, build_connection(g, FluxPair(*flux))))
        assert evs[0] >= ZERO_EIG_TOL
        ld = float(np.sum(np.log(evs)))
        lv = D.det_closed_form(case, 3)
        assert abs(lv.log_magnitude - ld) / max(1, abs(ld)) < 1e-6, case


def test_gluing_limits_against_the_complexity_table():
    # (log|det' H| - log sum deg)/dim at level 25, from the gluing recursion:
    # the table's zero-zero and half-half constants, and exactly log(80)/27
    # (half-zero) and 4 log(2)/27 (zero-half) below its mixed ones
    gaps = {"zero-zero": 0.0, "half-half": 0.0,
            "half-zero": math.log(80) / 27, "zero-half": 4 * math.log(2) / 27}
    flux = dict(FLUX, **{"zero-zero": (0.0, 0.0)})
    for case, gap in gaps.items():
        rate = (gluing_log_det(FluxPair(*flux[case]), 25) - math.log(2 * 3**26)) / dim_n(25)
        assert abs(D.complexity(case, 40) - gap - rate) <= 1e-6, (case, rate)


# --- the product lemma over the prefix chains of the spectrum table ------

CHAINS = sorted({s.prefix_chain for a in (False, True) for b in (False, True)
                 for s in _series_table(a, b, 7)[1]})
ANCHORS = (Fraction(3, 4), Fraction(5, 4))


def _quad_pre(a2, a1, a0, value):
    disc = cmath.sqrt(a1 * a1 - 4 * a2 * (a0 - value))
    return [(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)]


def _brute_product(chain, k, anchor):
    """prod of z over the preimages of `anchor` under R00 k times, then under
    each map of the chain in turn: 2^(k + len(chain)) points."""
    layer = [float(anchor)]
    for name in ("R00",) * k + chain:
        _, _, (b, c) = QUADRATICS[name]
        layer = [z for w in layer for z in _quad_pre(-4.0, b, c, w)]
    prod = 1.0 + 0j
    for z in layer:
        prod *= z
    return prod


def _lemma_value(chain, k, anchor):
    """(-b2 a + H(k) - b1/2) / scale^(2^k) with R00 = -4 lam^2 + 5 lam: the
    chain factor H(k) + (4a - 5/2) times the scale power, as `det_closed_form`
    takes it."""
    scale = D._chain_seed(chain)[1]
    return (exact_H(chain, k) + 4 * anchor - Fraction(5, 2)) / scale ** (2**k)


def _assert_close(got, ref, *where):
    assert abs(ref.imag) < 1e-9 * max(1.0, abs(ref)), (*where, ref)
    assert abs(float(got) - ref.real) <= 1e-9 * max(1.0, abs(ref.real)), (*where, got, ref)


def test_lemma_product_trivial_pins():
    # the rows the lemma is not used for: with no prefix map the k-fold R00
    # preimages multiply to a / 4^(2^k - 1), and one map alone at k = 0 gives
    # the rational (a0 - a)/a2
    assert CHAINS == [(), ("R0h",), ("Rh0",), ("Rhh",), ("Rhh", "R0h"), ("Rhh", "Rh0")]
    for anchor in ANCHORS:
        for k in range(5):
            _assert_close(anchor / 4 ** (2**k - 1), _brute_product((), k, anchor), k, anchor)
        for name, (_, _, (b, c)) in QUADRATICS.items():
            want = (Fraction(c) - anchor) / -4
            _assert_close(want, _brute_product((name,), 0, anchor), name, anchor)
            assert _lemma_value((name,), 0, anchor) == want, (name, anchor)


def test_lemma_product_vs_nested_preimages():
    for chain in (c for c in CHAINS if len(c) == 1):
        for k in range(5):
            for anchor in ANCHORS:
                _assert_close(_lemma_value(chain, k, anchor), _brute_product(chain, k, anchor),
                              chain, k, anchor)


def test_lemma_product_tilde_vs_nested_preimages():
    for chain in (c for c in CHAINS if len(c) == 2):
        for k in range(5):
            for anchor in ANCHORS:
                _assert_close(_lemma_value(chain, k, anchor), _brute_product(chain, k, anchor),
                              chain, k, anchor)


def test_lemma_product_reproduces_chain_seeds():
    # every chain with a kind is the chain of that kind's recurrence, whose
    # logs are the exact H(k) + 1/2 and H(k) + 5/2
    assert {D._CHAIN_KIND.get(c) for c in CHAINS} == {None, "H", "Htilde", "Hhat"}
    assert D._chain_seed(("Rhh",)) == (Fraction(53, 2), 16)
    assert D._chain_seed(("Rhh", "Rh0")) == (Fraction(605, 2), 256)
    assert D._chain_seed(("Rhh", "R0h")) == (Fraction(173, 2), 256)
    for chain, kind in D._CHAIN_KIND.items():
        states = D.recurrence(kind, 8)
        for k, st in enumerate(states):
            h = exact_H(chain, k)
            for offset, got in ((Fraction(1, 2), st.log_H_plus_half),
                                (Fraction(5, 2), st.log_H_plus_fivehalves)):
                want = logfrac(h + offset)
                assert abs(got - want) <= 1e-12 * want, (kind, k, offset)


# --- complexity weights as limits of the determinants --------------------


def _level_exponents(case, n):
    """Exponents of psi(G_N) det(L_N) by base (the tree count at zero-zero)."""
    if case == "zero-zero":
        return dict(D.tree_count_closed_form(n).exact_factors)
    exps = dict(D.det_closed_form(case, n).exact_factors)
    for p, e in D.psi_weight(n).exact_factors:
        exps[p] = exps.get(p, 0) + e
    return exps


def _derived_weights(case, n):
    """Per-vertex weight of each base: an exponent a 3^N + b N + c has second
    difference 4a 3^N over levels N, N+1, N+2, and dim_N ~ 3^(N+1)/2, so the
    weight is 2a/3.  Chain factors are taken where level n has them."""
    e0, e1, e2 = (_level_exponents(case, m) for m in (n, n + 1, n + 2))
    bases = set(e0) | {b for b in (*e1, *e2) if isinstance(b, int)}
    return {b: (e2.get(b, 0) - 2 * e1.get(b, 0) + e0.get(b, 0)) / (6 * 3**n) for b in bases}


@pytest.mark.parametrize("case", D.COMPLEXITY_CASES)
def test_complexity_weights_are_the_limits_of_the_determinants(case):
    prime_w, series_w = D._COMPLEXITY_WEIGHTS[case]
    for n in (3, 6):
        derived = _derived_weights(case, n)
        primes = {b: w for b, w in derived.items() if isinstance(b, int) and w}
        chains = {b: w for b, w in derived.items() if not isinstance(b, int)}
        if case in ("zero-zero", "half-half"):
            assert primes == prime_w, (case, n, primes)
        else:
            # the weights of 2 and 5 disagree with the table (ROADMAP item 2);
            # every other prime agrees
            assert {p: w for p, w in primes.items() if p not in (2, 5)} == {
                p: w for p, w in prime_w.items() if p not in (2, 5)
            }, (case, n, primes)
        assert bool(chains) == bool(series_w)
        for name, w in chains.items():
            k = int(name[name.index("(") + 1:name.index(")")])
            assert w == series_w / 3**k, (case, n, name, w)


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
