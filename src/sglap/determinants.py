"""Exact determinants at half-integer flux, product lemmas, and complexity.

At the three nontrivial half-integer flux pairs the full spectrum is known in
closed form (see enumerator), so the determinant of the probabilistic magnetic
Laplacian collapses to a finite product: a handful of prime powers times a
chain of factors H(k) + 1/2 and H(k) + 5/2, where H obeys the quadratic
recurrence H(k) = H(k-1)^2 - 15/4 with seed 26.5 (flux (1/2,1/2)), 302.5
(flux (1/2,0)) or 86.5 (flux (0,1/2)).  H(k) ~ seed^(2^k) overflows a double
around k = 8, so everything here is carried in the natural-log domain via

    l_k = 2*l_{k-1} + log1p(-3.75 * exp(-2*l_{k-1})),

with exact Fraction values kept alongside for small k as a cross-check.

The same machinery gives the spanning-tree count (trivial flux), the
asymptotic complexity per vertex of the three loop measures (a geometric
series in the chain logs, truncated at K terms; every term is positive, so
truncations are certified lower bounds), and the loop entropy (complexity
minus tree entropy).

Validity floor of the closed forms, determined against spectral products:
flux (1/2,1/2) matches from level 1 upward; (1/2,0) and (0,1/2) match from
level 2 upward (their chain bookkeeping degenerates below that, and at level
1 the exponents are not even integers).  `det_closed_form` refuses each case
below its floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "LogValue",
    "RecurrenceState",
    "recurrence",
    "psi_weight",
    "tree_count_closed_form",
    "det_closed_form",
    "lemma_product",
    "lemma_product_tilde",
    "complexity",
    "loop_entropy",
    "DET_CASES",
    "COMPLEXITY_CASES",
]

DET_CASES = ("half-half", "half-zero", "zero-half")
COMPLEXITY_CASES = ("zero-zero",) + DET_CASES

# Seeds of the quadratic recurrence, one per nontrivial half-integer flux.
_SEEDS = {
    "H": Fraction(53, 2),        # flux (1/2, 1/2)
    "Htilde": Fraction(605, 2),  # flux (1/2, 0)
    "Hhat": Fraction(173, 2),    # flux (0, 1/2)
}
_CASE_KIND = {"half-half": "H", "half-zero": "Htilde", "zero-half": "Hhat"}
_DET_FLOOR = {"half-half": 1, "half-zero": 2, "zero-half": 2}  # lowest level where it holds

_MAX_K = 64
_EXACT_K = 8  # keep exact rational H(k) only while it is cheap


def _canon_case(case: str, allowed: tuple[str, ...]) -> str:
    key = str(case).strip().lower().replace("_", "-")
    if key not in allowed:
        raise ValueError(f"unknown case {case!r}; expected one of {allowed}")
    return key


@dataclass(frozen=True)
class LogValue:
    """A positive real carried as log_magnitude, with an exact factor audit.

    exact_factors pairs (base, exponent): base is a prime (int) or a named
    chain factor such as "H(3)+1/2"; exponents are exact Fractions.  The
    aligned base_logs tuple holds log(base) for each entry so the audit can be
    replayed: sum(exp * log_base) must reproduce log_magnitude.
    """

    log_magnitude: float
    exact_factors: tuple[tuple[object, Fraction], ...] = ()
    base_logs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.exact_factors) != len(self.base_logs):
            raise ValueError("exact_factors and base_logs must align")

    def consistency_error(self) -> float:
        """Relative gap between log_magnitude and the factor log-sum."""
        if not self.exact_factors:
            return 0.0
        total = math.fsum(
            float(exp) * lb for (_, exp), lb in zip(self.exact_factors, self.base_logs)
        )
        scale = max(1.0, abs(self.log_magnitude))
        return abs(total - self.log_magnitude) / scale

    def value(self) -> float:
        """exp(log_magnitude); inf if it overflows a double."""
        try:
            return math.exp(self.log_magnitude)
        except OverflowError:
            return math.inf

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
    kept = [(b, e, lb) for b, e, lb in factors if e != 0]
    log_mag = math.fsum(float(e) * lb for _, e, lb in kept)
    return LogValue(
        log_magnitude=log_mag,
        exact_factors=tuple((b, e) for b, e, _ in kept),
        base_logs=tuple(lb for _, _, lb in kept),
    )


@dataclass(frozen=True)
class RecurrenceState:
    """Log-domain snapshot of H(k) for one seed kind.

    linear_H is the exact rational H(k), kept for k <= 8 only (the numerator
    roughly doubles in digits each step).
    """

    kind: str
    k: int
    log_H: float
    log_H_plus_half: float
    log_H_plus_fivehalves: float
    linear_H: Fraction | None = None


def recurrence(kind: str, up_to_k: int) -> list[RecurrenceState]:
    """States k = 0..up_to_k of l_k = 2 l_{k-1} + log1p(-3.75 e^{-2 l_{k-1}})."""
    if kind not in _SEEDS:
        raise ValueError(f"unknown recurrence kind {kind!r}; expected one of {tuple(_SEEDS)}")
    if not 0 <= up_to_k <= _MAX_K:
        raise ValueError(f"up_to_k must lie in [0, {_MAX_K}], got {up_to_k}")
    states: list[RecurrenceState] = []
    log_h = math.log(float(_SEEDS[kind]))
    exact: Fraction | None = _SEEDS[kind]
    for k in range(up_to_k + 1):
        inv = math.exp(-log_h)
        states.append(
            RecurrenceState(
                kind=kind,
                k=k,
                log_H=log_h,
                log_H_plus_half=log_h + math.log1p(0.5 * inv),
                log_H_plus_fivehalves=log_h + math.log1p(2.5 * inv),
                linear_H=exact,
            )
        )
        log_h = 2.0 * log_h + math.log1p(-3.75 * math.exp(-2.0 * log_h))
        exact = exact * exact - Fraction(15, 4) if exact is not None and k + 1 <= _EXACT_K else None
    return states


_LOG_PRIME = {p: math.log(p) for p in (2, 3, 5, 7, 17)}


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
    """Spanning-tree count of G_N: 2^((3^N-1)/2) 3^((3^{N+1}+2N+1)/4) 5^((3^N-2N-1)/4)."""
    if level < 0:
        raise ValueError("level must be >= 0")
    n = level
    return _assemble(
        [
            (2, Fraction(3**n - 1, 2), _LOG_PRIME[2]),
            (3, Fraction(3 ** (n + 1) + 2 * n + 1, 4), _LOG_PRIME[3]),
            (5, Fraction(3**n - 2 * n - 1, 4), _LOG_PRIME[5]),
        ]
    )


def _prime_exponents(case: str, n: int) -> dict[int, Fraction]:
    """Prime-power part of det(L_N) for one half-integer flux case.

    Exponents are exact Fractions.  From the validity floor of `det_closed_form`
    on, every power of 3 here is an integer.
    """
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
    if case == "zero-half":
        return {
            2: Fraction(3**n - 1, 2),
            3: Fraction(7 * 3 ** (n - 2) - n + 3),
            7: Fraction(3 ** (n - 2) - 1, 2),
        }
    raise ValueError(f"unknown determinant case {case!r}")


def _chain_multiplicities(case: str, n: int) -> list[tuple[int, int, int]]:
    """(k, mult of H(k)+1/2, mult of H(k)+5/2) rows for the chain product.

    Flux (1/2,1/2) inverts one prefix map, so its chains run to k = N-2 and
    N-3; the mixed fluxes invert two and run to k = N-3 and N-4.
    """
    depth = 2 if case == "half-half" else 3
    rows = []
    for k in range(n - depth + 1):
        e = n - k - depth
        # the +5/2 chain stops one k earlier; its multiplicity hits 0 at e = 0
        rows.append((k, (3**e + 3) // 2, (3**e - 1) // 2))
    return rows


def det_closed_form(case: str, level: int) -> LogValue:
    """det of the probabilistic magnetic Laplacian at one half-integer flux.

    Assembled as (1/psi) * prime powers * chain of (H(k)+1/2), (H(k)+5/2)
    factors, all in the log domain.  The form holds from level 1 for the
    (1/2,1/2) case and from level 2 for the mixed cases; lower levels are
    refused (at level 1 the mixed cases come out wrong).
    """
    case = _canon_case(case, DET_CASES)
    if level < _DET_FLOOR[case]:
        raise ValueError(f"level {level} is below the validity floor {_DET_FLOOR[case]} of {case}")
    psi = psi_weight(level)
    exps = {b: -e for (b, e), _ in zip(psi.exact_factors, psi.base_logs)}
    for p, e in _prime_exponents(case, level).items():
        exps[p] = exps.get(p, Fraction(0)) + e
    factors: list[tuple[object, Fraction, float]] = [
        (p, e, _LOG_PRIME[p]) for p, e in sorted(exps.items())
    ]
    kind = _CASE_KIND[case]
    rows = _chain_multiplicities(case, level)
    if rows:
        states = recurrence(kind, rows[-1][0])
        for k, half, five in rows:
            if half:
                factors.append(
                    (f"{kind}({k})+1/2", Fraction(half), states[k].log_H_plus_half)
                )
            if five:
                factors.append(
                    (f"{kind}({k})+5/2", Fraction(five), states[k].log_H_plus_fivehalves)
                )
    return _assemble(factors)


def lemma_product(
    P: tuple[float, float, float],
    R: tuple[float, float],
    n: int,
    alpha: float,
) -> float:
    """prod of z over z in P^{-1}(R^{-n}(alpha)), by the closed recurrence.

    P = (a2, a1, a0) is any quadratic, R = (b2, b1) a quadratic with zero
    constant term.  The product over all 2^{n+1} nested preimages is linear
    in alpha: c_{n,1} alpha + c_{n,0} with c_{n,1} = -b2/(a2 b2)^{2^n} and
    c_{n,0} = (H(n) - b1/2)/(a2 b2)^{2^n}, H(0) = a0 b2 + b1/2,
    H(m) = H(m-1)^2 + b1(2-b1)/4.
    """
    a2, a1, a0 = (float(v) for v in P)
    b2, b1 = (float(v) for v in R)
    del a1  # the product over both roots of a quadratic does not see it
    _check_lemma_args(a2, b2, n)
    h = a0 * b2 + b1 / 2.0
    for _ in range(n):
        h = h * h + b1 * (2.0 - b1) / 4.0
    scale = (a2 * b2) ** (2**n)
    return (-b2 * alpha + (h - b1 / 2.0)) / scale


def lemma_product_tilde(
    Q: tuple[float, float, float],
    P: tuple[float, float, float],
    R: tuple[float, float],
    n: int,
    alpha: float,
) -> float:
    """prod of z over z in Q^{-1}(P^{-1}(R^{-n}(alpha))).

    Same shape as lemma_product but with one more inversion layer: the seed
    becomes Htilde(0) = a2 b2 (q0^2 + q0 a1/a2 + a0/a2) + b1/2 and the scale
    (q2^2 a2 b2)^{2^n}.
    """
    q2, q1, q0 = (float(v) for v in Q)
    a2, a1, a0 = (float(v) for v in P)
    b2, b1 = (float(v) for v in R)
    del q1  # absent for the same reason a1 drops out of lemma_product
    _check_lemma_args(a2, b2, n)
    if q2 == 0:
        raise ValueError("Q must be a genuine quadratic (q2 != 0)")
    h = a2 * b2 * (q0 * q0 + q0 * a1 / a2 + a0 / a2) + b1 / 2.0
    for _ in range(n):
        h = h * h + b1 * (2.0 - b1) / 4.0
    scale = (q2 * q2 * a2 * b2) ** (2**n)
    return (-b2 * alpha + (h - b1 / 2.0)) / scale


def _check_lemma_args(a2: float, b2: float, n: int) -> None:
    if a2 == 0 or b2 == 0:
        raise ValueError("leading coefficients must be nonzero")
    if not 0 <= n <= 6:
        raise ValueError("n must lie in [0, 6] (kept within brute-force reach)")


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
    case = _canon_case(case, COMPLEXITY_CASES)
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
    case = _canon_case(case, DET_CASES)
    return complexity(case, 40) - complexity("zero-zero", 40)
