"""Exact determinants at half-integer flux, the product lemma, and complexity.

At the three nontrivial half-integer flux pairs the full spectrum is known in
closed form (see enumerator), so the determinant of the probabilistic magnetic
Laplacian collapses to a finite product: a handful of prime powers times a
chain of factors H(k) + 1/2 and H(k) + 5/2, where H obeys the quadratic
recurrence H(k) = H(k-1)^2 + b1(2 - b1)/4 of the product lemma, b1 = 5 the
linear coefficient of R00.  Each kind of H (H, Htilde, Hhat) is named by its
prefix chain of `decimation.QUADRATICS`, which gives its seed; seeds and step
are read off those quadratics, and no exact value is tabulated beside them.
H(k) ~ H(0)^(2^k) overflows a double around k = 8, so H is carried in the
natural-log domain only, via

    l_k = 2*l_{k-1} + log1p(b1(2 - b1)/4 * exp(-2*l_{k-1})).

The same machinery gives the spanning-tree count (trivial flux), the
asymptotic complexity per vertex of the three loop measures (a geometric
series in the chain logs, truncated at K terms; every term is positive, so
truncations are certified lower bounds), and the loop entropy (complexity
minus tree entropy).

Derivation of the products from the one spectrum table: `det_closed_form`
and `tree_count_closed_form` walk the rows of `enumerator._series_table`.  A
fixed eigenvalue v of multiplicity m contributes m times the prime factors of
v.  A series row is multiplied out by the product lemma over its nested
quadratic preimages, with seed and scale read off `decimation.QUADRATICS`
(`_chain_seed`): one prefix map (Rhh) gives the seed H(0) = 53/2 and scale
16^(2^k), two (Rhh, then Rh0 or R0h) give 605/2 or 173/2 and scale
256^(2^k), and the anchors 3/4 and 5/4 turn into the chain factors
H(k) + 1/2 and H(k) + 5/2.  A single Rh0 or R0h inversion of an anchor is a
rational, and the k-fold R00 preimages of flux (0,0) multiply to
anchor / 4^(2^k - 1).  The table is wrong at level 0 for the mixed fluxes,
so level 0 is refused for all three det cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from .decimation import QUADRATICS
from .enumerator import _series_table

__all__ = [
    "LogValue",
    "RecurrenceState",
    "recurrence",
    "psi_weight",
    "tree_count_closed_form",
    "det_closed_form",
    "complexity",
    "loop_entropy",
    "DET_CASES",
    "COMPLEXITY_CASES",
]

DET_CASES = ("half-half", "half-zero", "zero-half")
COMPLEXITY_CASES = ("zero-zero",) + DET_CASES

# The prefix chain of QUADRATICS whose product-lemma seed is H(0) of each kind.
_KIND_CHAIN = {"H": ("Rhh",), "Htilde": ("Rhh", "Rh0"), "Hhat": ("Rhh", "R0h")}
_CHAIN_KIND = {chain: kind for kind, chain in _KIND_CHAIN.items()}
_CASE_KIND = {"half-half": "H", "half-zero": "Htilde", "zero-half": "Hhat"}

_MAX_K = 64


def _check_case(case: str, allowed: tuple[str, ...]) -> None:
    if case not in allowed:
        raise ValueError(f"unknown case {case!r}; expected one of {allowed}")


@dataclass(frozen=True)
class LogValue:
    """A positive real carried as log_magnitude, with its exact factors.

    exact_factors pairs (base, exponent): base is a prime (int) or a named
    chain factor such as "H(3)+1/2"; exponents are exact Fractions.
    """

    log_magnitude: float
    exact_factors: tuple[tuple[object, Fraction], ...] = ()

    def decimal(self) -> str:
        """Decimal rendering, scientific once past the double range."""
        if abs(self.log_magnitude) < 700.0:
            return repr(math.exp(self.log_magnitude))
        d = self.log_magnitude / math.log(10.0)
        e = math.floor(d)
        return f"{10.0 ** (d - e):.12f}e{e:+d}"

    def to_json(self) -> dict:
        return {
            "log_magnitude": self.log_magnitude,
            "decimal": self.decimal(),
            "exact_factors": [
                [str(base), str(exp)] for base, exp in self.exact_factors
            ],
        }


def _assemble(factors: list[tuple[object, Fraction, float]]) -> LogValue:
    """The LogValue of prod base^exp over (base, exp, log base), zero exponents dropped."""
    kept = [(b, e, lb) for b, e, lb in factors if e != 0]
    return LogValue(
        log_magnitude=math.fsum(float(e) * lb for _, e, lb in kept),
        exact_factors=tuple((b, e) for b, e, _ in kept),
    )


@dataclass(frozen=True)
class RecurrenceState:
    """Log-domain snapshot of H(k) for one seed kind."""

    kind: str
    k: int
    log_H: float
    log_H_plus_half: float
    log_H_plus_fivehalves: float


def recurrence(kind: str, up_to_k: int) -> list[RecurrenceState]:
    """States k = 0..up_to_k of l_k = 2 l_{k-1} + log1p(b1(2-b1)/4 e^{-2 l_{k-1}}).

    l_0 is the log of the product-lemma seed of the kind's prefix chain and
    b1 the linear coefficient of R00, both read off QUADRATICS.
    """
    if kind not in _KIND_CHAIN:
        raise ValueError(f"unknown recurrence kind {kind!r}; expected one of {tuple(_KIND_CHAIN)}")
    if not 0 <= up_to_k <= _MAX_K:
        raise ValueError(f"up_to_k must lie in [0, {_MAX_K}], got {up_to_k}")
    _, b1, _ = _quadratic("R00")
    step = float(b1 * (2 - b1) / 4)
    log_h = math.log(float(_chain_seed(_KIND_CHAIN[kind])[0]))
    states: list[RecurrenceState] = []
    for k in range(up_to_k + 1):
        inv = math.exp(-log_h)
        states.append(
            RecurrenceState(
                kind=kind,
                k=k,
                log_H=log_h,
                log_H_plus_half=log_h + math.log1p(0.5 * inv),
                log_H_plus_fivehalves=log_h + math.log1p(2.5 * inv),
            )
        )
        log_h = 2.0 * log_h + math.log1p(step * math.exp(-2.0 * log_h))
    return states


_PRIMES = (2, 3, 5, 7, 17)
_LOG_PRIME = {p: math.log(p) for p in _PRIMES}


def psi_weight(level: int) -> LogValue:
    """psi(G_N) = prod(deg) / sum(deg) = 2^(3^{N+1} - 1) / 3^{N+1}."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return _assemble(
        [
            (2, Fraction(3 ** (level + 1) - 1), _LOG_PRIME[2]),
            (3, Fraction(-(level + 1)), _LOG_PRIME[3]),
        ]
    )


def tree_count_closed_form(level: int) -> LogValue:
    """Spanning-tree count of G_N: psi(G_N) det'(L_N) at flux (0,0).

    det' multiplies the nonzero rows of the flux-(0,0) spectrum table; the
    result is 2^((3^N-1)/2) 3^((3^{N+1}+2N+1)/4) 5^((3^N-2N-1)/4).
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    psi = psi_weight(level)
    return _spectral_product(False, False, level, dict(psi.exact_factors))


def det_closed_form(case: str, level: int) -> LogValue:
    """det of the probabilistic magnetic Laplacian at one half-integer flux.

    The product of the closed-form spectrum of `enumerator._series_table`,
    each series multiplied out by the product lemma, all in the log domain.
    Level 0 is refused: the mixed rows of the table do not describe the
    single triangle.
    """
    _check_case(case, DET_CASES)
    if level < 1:
        raise ValueError(f"level {level} is refused: the closed form of {case} holds from level 1")
    alpha_half, beta_half = (part == "half" for part in case.split("-"))
    return _spectral_product(alpha_half, beta_half, level, {})


@cache
def _prime_factors(x: Fraction) -> dict[int, int]:
    """Exponents of x over _PRIMES; raises if another factor is left."""
    exps = {}
    num, den = x.numerator, x.denominator
    for p in _PRIMES:
        e = 0
        while num % p == 0:
            num, e = num // p, e + 1
        while den % p == 0:
            den, e = den // p, e - 1
        if e:
            exps[p] = e
    if abs(num) != 1 or den != 1:
        raise ValueError(f"{x} has a prime factor outside {_PRIMES}")
    return exps


def _quadratic(name: str) -> tuple[Fraction, Fraction, Fraction]:
    """(a2, a1, a0) of one of the real quadratics -4 lam^2 + b lam + c, exactly."""
    _, _, (b, c) = QUADRATICS[name]
    return Fraction(-4), Fraction(b), Fraction(c)


@cache
def _chain_seed(chain: tuple[str, ...]) -> tuple[Fraction, Fraction]:
    """(H(0), scale base) of the product lemma over a prefix chain of QUADRATICS.

    For R00 = b2 lam^2 + b1 lam and the chain (P), the product over the
    2^(k+1) points P^{-1}(R00^{-k}(a)) is (-b2 a + H(k) - b1/2) / scale^(2^k),
    with H(0) = a0 b2 + b1/2, H(m) = H(m-1)^2 + b1(2 - b1)/4 and scale a2 b2.
    One more inversion, of Q in the chain (P, Q), makes H(0) = a2 b2 (q0^2 +
    q0 a1/a2 + a0/a2) + b1/2 and scale q2^2 a2 b2: the linear coefficients
    drop out, since the product over both roots of a quadratic does not see
    them.  Exact in Fractions.
    """
    b2, b1, _ = _quadratic("R00")
    (a2, a1, a0), *rest = (_quadratic(name) for name in chain)
    if not rest:
        return a0 * b2 + b1 / 2, a2 * b2
    ((q2, _, q0),) = rest
    return a2 * b2 * (q0 * q0 + q0 * a1 / a2 + a0 / a2) + b1 / 2, q2 * q2 * a2 * b2


def _spectral_product(
    alpha_half: bool, beta_half: bool, level: int, primes: dict[int, Fraction]
) -> LogValue:
    """primes times the product of the nonzero eigenvalues of one closed-form table.

    A fixed row (v, m) adds m times the prime factors of v.  A series row over
    the k-fold R00 preimages of its anchor a, then one inversion per prefix
    map, takes its product from the product lemma (`_chain_seed`): (-b2 a +
    H(k) - b1/2) / scale^(2^k), with -b2 a - b1/2 = 4a - 5/2 the offset 1/2 or
    5/2 of a chain factor H(k) + 1/2 or H(k) + 5/2, H the kind whose chain
    (`_KIND_CHAIN`) is the row's prefix chain.  A single Rh0 or R0h, the
    chains of no kind, occurs at k = 0 only, where the product is the rational
    (a0 - a)/a2; with no prefix map the product is a / 4^(2^k - 1).
    """
    b2, b1, _ = _quadratic("R00")
    primes = dict(primes)
    chains: dict[tuple[str, int, Fraction], int] = {}

    def add(x: Fraction, times: int) -> None:
        for p, e in _prime_factors(x).items():
            primes[p] = primes.get(p, 0) + e * times

    fixed, series = _series_table(alpha_half, beta_half, level)
    for v, m in fixed:
        if v:  # the zero mode of flux (0,0) is left out: det'
            add(Fraction(v), m)
    for s in series:
        anchor, k, m = Fraction(s.anchor), s.depth, s.multiplicity
        if not s.prefix_chain:
            add(anchor, m)
            add(-1 / b2, m * (2**k - 1))
            continue
        kind = _CHAIN_KIND.get(s.prefix_chain)
        if kind is None:
            if len(s.prefix_chain) > 1 or k:
                raise ValueError(f"no product lemma seed for the series {s}")
            a2, _, a0 = _quadratic(s.prefix_chain[0])
            add((a0 - anchor) / a2, m)
            continue
        key = (kind, k, -b2 * anchor - b1 / 2)
        chains[key] = chains.get(key, 0) + m
        add(_chain_seed(s.prefix_chain)[1], -m * 2**k)

    factors: list[tuple[object, Fraction, float]] = [
        (p, Fraction(e), _LOG_PRIME[p]) for p, e in sorted(primes.items())
    ]
    states = {
        kind: recurrence(kind, max(k for kd, k, _ in chains if kd == kind))
        for kind in {kd for kd, _, _ in chains}
    }
    for (kind, k, offset), m in sorted(chains.items()):
        st = states[kind][k]
        log = {Fraction(1, 2): st.log_H_plus_half, Fraction(5, 2): st.log_H_plus_fivehalves}
        if offset not in log:
            raise ValueError(f"no chain factor {kind}({k})+{offset}")
        factors.append((f"{kind}({k})+{offset}", Fraction(m), log[offset]))
    return _assemble(factors)


# Rational weights of the log terms in the per-vertex complexity of each loop
# measure; the chain series carries weight series_w * 3^{-k} per k.
_COMPLEXITY_WEIGHTS = {
    "zero-zero": ({2: Fraction(1, 3), 3: Fraction(1, 2), 5: Fraction(1, 6)}, Fraction(0)),
    "half-half": (
        {2: Fraction(1, 3), 3: Fraction(1, 9), 5: Fraction(1, 9)},
        Fraction(1, 27),
    ),
    "half-zero": (
        {
            2: Fraction(13, 27),
            3: Fraction(1, 27),
            5: Fraction(5, 27),
            7: Fraction(1, 9),
            17: Fraction(1, 27),
        },
        Fraction(1, 81),
    ),
    "zero-half": (
        {2: Fraction(13, 27), 3: Fraction(14, 27), 7: Fraction(1, 27)},
        Fraction(1, 81),
    ),
}


def complexity(case: str, terms: int) -> float:
    """Per-vertex asymptotic complexity of the loop measure, truncated at K.

    The trivial-flux value is the tree entropy log2/3 + log3/2 + log5/6 and
    needs no truncation.  The other three add a geometrically weighted series
    over the chain logs; every term is positive, so the truncated value is a
    certified lower bound, nondecreasing in K.
    """
    _check_case(case, COMPLEXITY_CASES)
    if not 0 <= terms <= _MAX_K:
        raise ValueError(f"terms must lie in [0, {_MAX_K}], got {terms}")
    weights, series_w = _COMPLEXITY_WEIGHTS[case]
    total = [float(w) * _LOG_PRIME[p] for p, w in weights.items()]
    if series_w:
        states = recurrence(_CASE_KIND[case], terms)
        w = float(series_w)
        for st in states:
            total.append(w * (st.log_H_plus_half + st.log_H_plus_fivehalves))
            w /= 3.0
    return math.fsum(total)


def loop_entropy(case: str) -> float:
    """Exponential decay rate of the no-loop probability: complexity gap."""
    _check_case(case, DET_CASES)
    return complexity(case, 40) - complexity("zero-zero", 40)
