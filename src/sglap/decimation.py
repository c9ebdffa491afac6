"""The decimation step at arbitrary flux.

`u_factors` and `u_lambda` are the one place the map U(alpha, beta, lambda) =
(3a+b+3theta, 3b+a-3theta, R) is written out, for floats or for arrays of one
shape: the first takes the trig of the fluxes and the products of it that do
not involve lambda, the second finishes the quartic A, the cubic D
(determinant of one 3x3 cell of the midpoint block), the complex coupling Psi
and the renormalized eigenvalue R at lambda.  `u_step` is their composition,
and `UStep.evolved` takes the argument of Psi and the evolved fluxes.  The
butterfly takes the factors once per column of cells that share their fluxes.
Their operation order is the butterfly's multiply chain (explicit products,
16*sqrt(re*re+im*im), libm atan2 as the argument of the complex log), so
butterfly rasters stay bitwise equal to the published loop; subexpressions
shared between products keep that order, and `frac` is % 1.0 to the bit.
Arrays go through numpy ufuncs; three scalars go through Python floats with
`math`'s cos, sin, sqrt and atan2, which give the same bits, and R's division
by a zero |Psi| gives numpy's +-inf or NaN there too.  Either way escaped
orbits give inf/NaN rather than errors.

`_step(flux, lam)` is the one exact step of U, at one flux pair and at a
lambda that is a float (stepped in Python floats, to the bits of the array
path) or a 1-d array.  It returns `u_step` at lambda, whose A and Psi every
caller shares, and D, theta, alpha', beta' and R in the |Psi| convention,
sign(phi) = sign(D).  At the four dyadic pairs (as `gauge.dyadic` decides,
found through one pair -> name map of QUADRATICS) those are `_pair_step`'s,
the exact quadratics; elsewhere they are `u_step`'s, with D over its exact
roots (`cell_cubic_d`) where beta alone is dyadic.  Every caller goes through
it: `enumerator.decimation_verify` steps all its cuts in one array call,
`apply_U` is `_step` at a float lambda that raises OrbitTerminated where R is
not finite, and `decimation_kit` is `_step` at a float lambda with the
spectral-similarity prefactor phi = |Psi|/4D, and no theta, R or evolved
fluxes where Psi = 0 leaves R without a value.  The similarity S_N = phi
(L_{N-1}' - R I) gives one count per step, `one_step_count`, with k =
`_roots_below`; the verifier checks the spectrum against it.

Counting never follows U.  The gasket is finitely ramified, so at fixed
lambda each sub-gasket reduces to a 3x3 Hermitian block on its corners, and
that block is gauge-equivalent to d I plus a circulant off-diagonal part: two
numbers, the real d and a complex z, a cube root of the block's loop product.
Gluing three blocks and eliminating the three junctions is one closed-form
step on (d, z), `_gluing_step`, in real arithmetic with two unit phases a_k,
b_k per mode k (`_step_phases`):

    j_k = 2 (d + Re(z a_k)),   F_k = 4 Re(z b_k)^2 / (3 j_k),
    d' = d - sum_k F_k,        z' = e^(i pi/3) sum_k omega^k F_k,

the j_k being the junction eigenvalues, whose negative inertias Haynsworth
adds up (Domany, Alexander, Bensimon and Kadanoff, PRB 28, 3110, 1983;
Fukushima and Shima, Potential Anal. 1, 1992).  It never divides by |Psi| and
never takes a cube root or an angle.  One loop over the steps, `_gluing`,
carries the state as three float arrays d, x = Re z and y = Im z, reads the
phases from real tables (`_phase_parts`, computed once per flux pair and level
at scalar fluxes), and keeps each step's junction eigenvalues (mode-major) and
scale; the count, the singular flag and the determinant are all read off them.
`gluing_count` counts with a flux pair per probe and a singular-J rule: a
probe that meets a junction block singular to working precision
(JUNCTION_TOL) is counted at lambda -+ JUNCTION_SHIFT instead, and its count
is kept only where both sides agree; otherwise it is -1, undetermined.
`decimation_eigenvalues` slices the spectrum by the rule-free count at a
uniform flux pair (Barth, Martin and Wilkinson, Numer. Math. 9, 1967): it
halves brackets that each hold the eigenvalues between two counts, all at one
depth below BRACKET, glues several levels of their midpoint trees in one pass
while they are few, recounts by the rule the probes it flags shallower than
the depth where brackets get narrower than twice the shift, and emits the
brackets at the leaf depth in order, each with its multiplicity.
The same steps give the determinant: `_gluing_step` returns the scale it
divides the state by, and `gluing_log_det` adds up Haynsworth's determinant
over the junction blocks at lambda = 0, where every junction block is
positive definite, in O(N) work; a corner term gives the no-loop probability
of the CRSF measure.

`classify` sorts a triple (alpha, beta, lambda) into the paper's cases of
exceptional values: which of Psi and D vanish, the root multiplicity of D,
and — for simple D roots with Psi != 0 — whether the decimation limit
(1/|Psi(x)|) * D(x) (lambda-x)/(R(lambda)-R(x)) vanishes.  It is nonzero
exactly when R'(lambda) = 0, which `r_dlam` decides from the exact
derivatives N' and Psi' of `numerator_psi_dlam` (N = A - 64 D (1-lambda),
R - 1 = N / 16|Psi|): DZeroMixed when the two terms in the numerator of R'
cancel to within tol relative, DZeroVanishing otherwise.  The tag is a label
for `sg kit` and for the verifier's report; no multiplicity is read off it,
since `enumerator.decimation_verify` judges exceptional values by the
one-step counts on either side of them.

Conventions: fluxes in turns, reduced mod 1; dyadic means within 1e-12 of
{0, 1/2}.  R and phi are carried as None (never NaN) when undefined.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gasket import dim_n
from .gauge import DYADIC_TOL, FluxPair, circ_dist, dyadic, mod1

DEDUP_TOL = 1e-10
TWO_PI = 2 * math.pi
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


class OrbitTerminated(Exception):
    """Psi = 0: theta and hence the renormalization map are undefined here."""

    def __init__(self, alpha, beta, lam):
        super().__init__(f"Psi = 0 at (alpha={alpha}, beta={beta}, lambda={lam})")


def _cubic_d(lam, cos_beta_32):
    # D from its lambda-free term cos(2 pi beta)/32
    return -(lam * lam * lam) + 3 * lam * lam - 45 / 16 * lam + 13 / 16 - cos_beta_32


_DYADIC_D_ROOTS = {0.0: (0.5, 1.25), 0.5: (1.5, 0.75)}  # beta: (simple, double) root of D


def cell_cubic_d(beta: float, lam):
    """det of one midpoint 3x3 block: (1-lam)^3 - (3/16)(1-lam) - cos(2 pi beta)/32.

    At beta in {0, 1/2} it is written over its exact roots, so that its sign is
    exact; the expanded cubic has the wrong sign up to 2e-8 from the double root.
    """
    b0 = dyadic(beta)
    if b0 is None:
        return _cubic_d(lam, np.cos(TWO_PI * beta) / 32)
    simple, double = _DYADIC_D_ROOTS[b0]
    return -(lam - simple) * ((lam - double) * (lam - double))


def _atan2(im, re):
    # atan2 per element as arg(re + i im): glibc's clog takes its imaginary part
    # from atan2, so it is libm's atan2 to the bit, and the complex log runs
    # without the GIL; numpy's arctan2 is not bit-identical to libm.  log(0j)
    # divides by zero in the real part, which is not read.
    if np.ndim(im) == 0:
        return math.atan2(im, re)
    z = np.empty(im.shape, dtype=complex)
    z.real = re
    z.imag = im
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(z, out=z).imag


def frac(x):
    """x % 1.0 to the bit, elementwise, without numpy's divmod: for x >= 0,
    x - floor(x) is the exact fraction (+0 at integers), and for x < 0 it is
    the one rounding of fmod(x, 1) + 1, which is what % rounds; inf and NaN
    give NaN either way.  A float is reduced by % itself."""
    if isinstance(x, float):
        return x % 1.0
    return x - np.floor(x)


@dataclass(frozen=True)
class UStep:
    """One step of U from the fluxes (alpha, beta): A, D, Psi = re + i im and R,
    which is inf or NaN where re = im = 0.  `evolved` takes arg(Psi) and the
    evolved fluxes; the U2 map never needs them."""

    alpha: np.ndarray
    beta: np.ndarray
    A: np.ndarray
    D: np.ndarray
    re: np.ndarray
    im: np.ndarray
    R: np.ndarray

    def evolved(self):
        """(alpha', beta', arg Psi in radians), from one atan2."""
        arg = _atan2(self.im, self.re)
        turn = 3 * arg / 2 / math.pi  # the theta term of both fluxes, in their order
        alpha_down = frac(3 * self.alpha + self.beta + turn)
        return alpha_down, frac(3 * self.beta + self.alpha - turn), arg


def _float_divide(num, den):
    """num / den for floats as numpy divides them, den >= 0: +-inf or NaN at 0."""
    if den:
        return num / den
    return math.copysign(math.inf, num) if num != 0 and num == num else math.nan


def _array_divide(num, den):
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def u_factors(alpha, beta) -> tuple:
    """The lambda-free factors of U at (alpha, beta), for two floats (with
    `math`) or arrays of one shape: 4x, 32 + 4x and cos 2 pi (alpha + beta) of
    A, cos(2 pi beta)/32 of D, and the two terms of Re Psi and of Im Psi that
    do not involve lambda, where x = cos 2 pi alpha."""
    if isinstance(alpha, float) and isinstance(beta, float):
        cos, sin = math.cos, math.sin
    else:
        cos, sin = np.cos, np.sin
    ta, tb = TWO_PI * alpha, TWO_PI * beta
    x, xs, y, ys = cos(ta), sin(ta), cos(tb), sin(tb)
    # subexpressions shared by the products below, each in the operation order
    # of every product it stands in (2 * xs * x is (2 * xs) * x)
    x2 = x * x - xs * xs
    tx, txs, fx = 2 * x, 2 * xs, 4 * x
    sx2 = txs * x
    cab = x * y - xs * ys
    c2ab = x2 * y - sx2 * ys
    s2ab = sx2 * y + ys * x2
    sab = xs * y + x * ys
    return (fx, 32 + fx, cab, y / 32,
            tx + c2ab, 1 / 16 * (x2 + 2 * cab), txs + s2ab, 1 / 16 * (tx * xs + 2 * sab))


def u_lambda(factors: tuple, lam) -> tuple:
    """The lambda part of U: (A, D, re, im, R) from `u_factors` at lambda, a
    float (with `math`) or an array of the factors' shape."""
    fx, f32, cab, y32, re_c, re_k, im_c, im_k = factors
    if isinstance(lam, float):
        sqrt, divide = math.sqrt, _float_divide
    else:
        sqrt, divide = np.sqrt, _array_divide
    # -one_l / 4 is (-one_l) / 4, which is -(one_l / 4): rounding is sign-symmetric
    one_l = 1 - lam
    q = one_l / 4
    A = 16 * lam * lam - f32 * lam + 15 + fx + cab
    D = _cubic_d(lam, y32)
    re = one_l * one_l - 1 / 16 + q * re_c + re_k
    im = -q * im_c - im_k
    R = 1 + divide(A - 64 * D * one_l, 16 * sqrt(re * re + im * im))
    return A, D, re, im, R


def u_step(alpha, beta, lam) -> UStep:
    """U at (alpha, beta, lambda), elementwise over arrays of one shape, in
    double precision: `u_lambda` of `u_factors`.  Three real scalars are
    computed as Python floats with `math`, to the same bits (as `_atan2` takes
    libm's atan2 for them)."""
    if all(isinstance(v, (float, int)) for v in (alpha, beta, lam)):
        a, b, l = float(alpha), float(beta), float(lam)
    else:
        a, b, l = (np.asarray(v, dtype=float) for v in (alpha, beta, lam))
    return UStep(a, b, *u_lambda(u_factors(a, b), l))


def numerator_psi_dlam(alpha: float, beta: float, lam: float) -> tuple[float, complex]:
    """(N', Psi') at lambda: the lambda-derivatives of the numerator
    N = A - 64 D (1 - lambda) of R - 1 = N / (16 |Psi|), and of Psi."""
    e = lambda t: cmath.exp(-2j * math.pi * t)
    d_a = 32 * lam - 32 - 4 * math.cos(TWO_PI * alpha)
    d_d = -3 * lam * lam + 6 * lam - 45 / 16
    d_n = d_a - 64 * d_d * (1 - lam) + 64 * cell_cubic_d(beta, lam)
    return float(d_n), -2 * (1 - lam) - (2 * e(alpha) + e(2 * alpha + beta)) / 4


@dataclass(frozen=True)
class DecimationStep:
    flux: FluxPair
    lam: float
    A: float
    D: float
    Psi: complex
    absPsi: float
    theta: float | None
    R: float | None
    phi: float | None
    alpha_down: float | None
    beta_down: float | None


def _finite(x: float | None) -> float | None:
    return x if x is not None and math.isfinite(x) else None


def decimation_kit(flux: FluxPair, lam: float) -> DecimationStep:
    """`_step` at one lambda, as scalars: A and Psi from its `u_step`, D, theta,
    R and the evolved fluxes exact, with phi = |Psi|/4D.  Where Psi = 0 leaves
    R without a value (off the dyadic pairs, where `apply_U` raises
    OrbitTerminated) theta is undefined, and theta, R and the evolved fluxes
    are None.  phi is None where D = 0.  R and phi are None where an escaped
    orbit overflows double precision (R does from |lambda| ~ 1e77); the
    overflow raises no RuntimeWarning, since a float lambda is stepped in
    floats."""
    lam = float(lam)
    st, D, theta, a_down, b_down, R = _step(flux, lam)
    Psi = complex(st.re, st.im)
    if Psi or math.isfinite(R):
        theta = mod1(theta)
    else:
        a_down = b_down = R = theta = None
    absPsi = abs(Psi)
    return DecimationStep(
        flux=flux,
        lam=lam,
        A=st.A,
        D=D,
        Psi=Psi,
        absPsi=absPsi,
        theta=theta,
        R=_finite(R),
        phi=_finite(absPsi / (4 * D)) if D != 0 else None,
        alpha_down=a_down,
        beta_down=b_down,
    )


def r_dlam(step: DecimationStep) -> tuple[float, float]:
    """R' at a step with Psi != 0, and how far the two terms of its numerator cancel.

    R' = (N'|Psi|^2 - N Re(conj(Psi) Psi')) / (16 |Psi|^3).  The second value
    is |N'|Psi|^2 - N Re(conj(Psi) Psi')| relative to the larger term: a few
    ulps where R' = 0.
    """
    d_n, d_psi = numerator_psi_dlam(step.flux.alpha, step.flux.beta, step.lam)
    p = d_n * step.absPsi**2
    q = (step.A - 64 * step.D * (1 - step.lam)) * (step.Psi.conjugate() * d_psi).real
    scale = max(abs(p), abs(q))
    return (p - q) / (16 * step.absPsi**3), abs(p - q) / scale if scale else 0.0


# The four flux pairs with alpha, beta in {0, 1/2}.  There Psi is the real
# quadratic eta^2 + p eta + q in eta = 1 - lambda, and R folds to the real
# quadratic -4 lambda^2 + b lambda + c; the coefficients are dyadic rationals,
# so both evaluate exactly at dyadic lambda.
QUADRATICS = {  # name: ((alpha, beta), (p, q), (b, c))
    "R00": ((0.0, 0.0), (0.75, 0.125), (5.0, 0.0)),
    "Rhh": ((0.5, 0.5), (-0.75, 0.125), (11.0, -6.0)),
    "Rh0": ((0.5, 0.0), (-0.25, -0.125), (9.0, -3.0)),
    "R0h": ((0.0, 0.5), (0.25, -0.125), (7.0, -1.0)),
}


def quadratic_r(name: str, lam: float) -> float:
    _, _, (b, c) = QUADRATICS[name]
    return -4 * lam * lam + b * lam + c


_PAIR_NAMES = {pair: name for name, (pair, _, _) in QUADRATICS.items()}


def _pair_step(name: str, x):
    """`_step` at the dyadic pair of QUADRATICS[name], elementwise over lambda
    (a float, stepped in Python floats, or an array): D, theta, alpha', beta',
    R.  R is the quadratic, which has no 0/0 at the Psi zeros; where the real
    Psi < 0, theta = 1/2 and the step twists to (alpha' + 1/2, beta' + 1/2,
    2 - R)."""
    (a0, b0), (p, q), _ = QUADRATICS[name]
    eta, r = 1 - x, quadratic_r(name, x)
    twist = 0.5 * (eta * eta + p * eta + q < 0)
    if isinstance(x, float):
        r = 2 - r if twist else r
    else:
        r = np.where(twist, 2 - r, r)
    return cell_cubic_d(b0, x), twist, (3 * a0 + b0 + twist) % 1.0, (3 * b0 + a0 + twist) % 1.0, r


def _step(flux: FluxPair, lam):
    """The one exact step of U at a flux pair, in the |Psi| convention, at a
    lambda that is a float (stepped in Python floats) or a 1-d array:
    (st, D, theta, alpha', beta', R), with st = `u_step` at lambda, whose A
    and Psi every caller shares, theta = arg(Psi) in turns and sign(phi) =
    sign(D).  At the four dyadic pairs the rest is `_pair_step`'s: there Psi
    is real, theta is 0 or 1/2, and R the quadratic.  Elsewhere it is
    `u_step`'s (R is inf or NaN where Psi = 0), with D over its exact roots
    where beta alone is dyadic."""
    st = u_step(flux.alpha, flux.beta, lam)
    pair = dyadic(flux.alpha), dyadic(flux.beta)
    name = _PAIR_NAMES.get(pair)
    if name is not None:
        return st, *_pair_step(name, lam)
    a_down, b_down, arg = st.evolved()
    d = st.D if pair[1] is None else cell_cubic_d(flux.beta, lam)
    return st, d, arg / TWO_PI, a_down, b_down, st.R


def apply_U(alpha: float, beta: float, lam: float) -> tuple[float, float, float]:
    """`_step` at one lambda: (alpha', beta', R).  Raises OrbitTerminated
    where R is not finite: where Psi = 0 off the dyadic pairs, since theta is
    undefined there, and where an escaped orbit overflows."""
    *_, a, b, r = _step(FluxPair(alpha, beta), float(lam))
    if not math.isfinite(r):
        raise OrbitTerminated(alpha, beta, lam)
    return a, b, r


# Viete's roots of D(beta, .), one in each of [1/2, 3/4], [3/4, 5/4], [5/4, 3/2]
D_ROOT_BOUNDS = np.array([0.5, 0.75, 1.25, 1.5])


def zeros_of_D(beta: float) -> list[tuple[float, int]]:
    """Roots of D(beta, .), ascending, as (root, multiplicity) pairs.

    Viete's trigonometric solution of the depressed cubic in eta = 1 - lambda:
    eta^3 - (3/16) eta - cos(2 pi beta)/32, one real root in each interval of
    D_ROOT_BOUNDS.  Doubles occur only at beta in {0, 1/2}, returned exactly.
    """
    b0 = dyadic(beta)
    if b0 is not None:
        simple, double = _DYADIC_D_ROOTS[b0]
        return sorted([(simple, 1), (double, 2)])
    t = np.arccos(np.clip(np.cos(TWO_PI * beta), -1.0, 1.0))
    roots = np.sort(1 - 0.5 * np.cos((t - TWO_PI * np.arange(3)) / 3))
    return [(r, 1) for r in roots.tolist()]


def psi_real_zeros(flux: FluxPair) -> list[float]:
    """Real lambda where Psi(alpha, beta, .) = 0.

    Case I (both fluxes dyadic): two zeros; Case II (exactly one dyadic): one;
    Case III (3 alpha + beta = 1/2 mod 1): the unique zero 1 + cos(2 pi alpha)/2;
    Case IV: Psi never vanishes on the real line.
    """
    a, b = flux.alpha, flux.beta
    da, db = dyadic(a), dyadic(b)
    if da is not None and db is not None:
        _, (p, q), _ = QUADRATICS[_PAIR_NAMES[da, db]]
        s = math.sqrt(p * p - 4 * q)  # eta = 1 - lambda solves eta^2 + p eta + q = 0
        return [1 - (s - p) / 2, 1 + (s + p) / 2]
    if da is not None:
        return [1.5 if da == 0.0 else 0.5]
    if db is not None:  # D's double root, where Psi vanishes at every alpha (`classify`)
        return [_DYADIC_D_ROOTS[db][1]]
    if circ_dist(3 * a + b, 0.5) <= DYADIC_TOL:
        return [float(1 + np.cos(2 * np.pi * a) / 2)]
    return []


def exceptional_set(flux: FluxPair) -> list[float]:
    vals = [r for r, _ in zeros_of_D(flux.beta)] + psi_real_zeros(flux)
    out: list[float] = []
    for v in sorted(vals):
        if not out or v - out[-1] > DEDUP_TOL:
            out.append(v)
    return out


# The bisection bracket of `decimation_eigenvalues`.  The spectrum lies in
# [0, 2], with 0 an eigenvalue at (0, 0) and 2 one at (1/2, 1/2), so both ends
# lie outside it.  Ends off the dyadic grid keep every midpoint off the exact
# D roots and Psi zeros of the dyadic pairs (0.5, 0.75, 1.25, 1.5, ...), where
# a junction eigenvalue is an exact zero and the raw count is left to
# rounding: the singular-J recount catches such a probe only while brackets
# are wider than its shift, and costs two more counts when it does.
BRACKET = (-math.pi / 1000, 2 + math.e / 1000)
# The count resolves an eigenvalue to about 3e-14: with leaves 4 eps wide,
# engine spectra still sat up to 3.3e-14 off dense at levels 0-6 at the Case I
# and Case IV pairs (4.5e-14 at random Case IV pairs), so halvings below that
# split brackets on rounding.  Leaves at most 1e-13 wide end 45 halvings below
# BRACKET (5.7e-14 wide), not 52, and their values sit 3.4e-14 off dense.
BISECT_WIDTH = 1e-13


def _roots_below(x, D):
    """k = #{roots of D(beta, .) < x}, given D = D(beta, x): the q-th root lies in
    the q-th interval of D_ROOT_BOUNDS, so k is q or q - 1, whichever matches
    sign D = (-1)^k."""
    q = np.searchsorted(D_ROOT_BOUNDS, x)
    return np.clip(q - np.where(q % 2 == 1, D >= 0, D <= 0), 0, 3)


def one_step_count(level: int, k, c):
    """#{eigenvalues of L_level < x} by Haynsworth inertia additivity over the
    midpoint block and S = phi (L' - R I), sign phi = (-1)^k: k D roots lie
    below x and c = #{eigenvalues of L_(level-1)(alpha', beta') < R}."""
    return 3 ** (level - 1) * k + np.where(k % 2 == 1, dim_n(level - 1) - c, c)


# A junction block whose smallest |eigenvalue| is at most JUNCTION_TOL times
# its largest is singular to working precision; its probe is counted again at
# lambda -+ JUNCTION_SHIFT, far below operator.CLUSTER_TOL.
JUNCTION_TOL = 1e-11
JUNCTION_SHIFT = 1e-9
_MODES = np.arange(3.0)[:, None]  # k = 0, 1, 2 down axis 0
_OMEGA = np.exp(2j * np.pi * _MODES / 3)  # omega^k down axis 0
_SIN60 = math.sqrt(3) / 2


def _e(t):
    return np.exp(2j * np.pi * t)


def _circulant_eigenvalues(d, z):
    """d + 2 Re(z omega^k), k = 0, 1, 2: the spectrum of d I + z P + conj(z) P^T,
    mode-major: row k holds the k-th eigenvalue of every probe."""
    return d + 2 * (z * _OMEGA).real


def _row_shift(alpha, beta, step):
    """t = (alpha + beta) s^2 mod 1 at s = 2^step, the row shift of the top copy;
    s^2 is a power of 4, so each term is exact mod 1."""
    s2 = 4.0**step
    return (alpha * s2 % 1.0 + beta * s2 % 1.0) % 1.0


def _step_phases(alpha, beta, step):
    """(a, b), a_k = e((k - t)/3) and b_k = a_k e(t/2) = e((2k + t)/6) at the
    row shift t of `step`, mode-major down axis -2: (..., 3, 1) at a flux pair
    of scalars, (..., 3, P) at one pair per probe."""
    t = _row_shift(alpha, beta, step)
    return _e((_MODES - t) / 3), _e((2 * _MODES + t) / 6)


def _phase_parts(alpha, beta, level: int) -> tuple[np.ndarray, ...]:
    """Re a, Im a, Re b, Im b (`_step_phases`) at steps 0 to level - 1: four
    contiguous arrays, (level, 3, 1) at a flux pair of scalars, (level, 3, P)
    at one pair per probe."""
    a, b = _step_phases(alpha, beta, np.arange(level)[:, None, None])
    return tuple(np.ascontiguousarray(p) for p in (a.real, a.imag, b.real, b.imag))


@lru_cache(maxsize=64)
def _uniform_phase_parts(alpha: float, beta: float, level: int) -> tuple[np.ndarray, ...]:
    """`_phase_parts` at a flux pair of scalars, computed once and read-only:
    bisection glues the same pair in every pass."""
    parts = _phase_parts(alpha, beta, level)
    for p in parts:
        p.setflags(write=False)
    return parts


def _gluing_step(ar, ai, br, bi, d, x, y, j=None, scale=None):
    """One gluing step in closed form over 1-d arrays, on the state (d, z)
    carried as d and z = x + i y: (j, d', x', y', scale), with the junction
    eigenvalues j mode-major, (3, P).  j and scale, when given, are the
    buffers they are written into; d, x and y are overwritten.

    M_m is gauge-equivalent to d I + z P + conj(z) P^T, P the cyclic shift on
    its corners: diagonal d, off-diagonal entries of modulus |z| and loop
    product z^3.  Glue three copies, the top one shifted by the row shift t
    (`_row_shift`; a = ar + i ai and b = br + i bi are its `_step_phases`,
    scalars per mode at a uniform flux pair, one column per probe otherwise).
    The junction block J is circulant with eigenvalues j_k = 2 (d + Re(z a_k));
    corner c couples to mode k through q_{c,k} / sqrt(3), and M_(m+1) = d I -
    sum_k conj(q_k) q_k^T / (3 j_k).  Corners A and B couple conjugately,
    q_{B,k} = conj(q_{A,k}), and |q_{c,k}| = 2 |Re(z b_k)| at every corner, so
    with F_k = 4 Re(z b_k)^2 / (3 j_k) and G = sum_k omega^k F_k,

        d' = d - sum_k F_k,   M_AB = M_CA = -e(-t/3) G,   M_BC = -e(2t/3) G,

    whose loop product is -G^3: z' = e^(i pi/3) G.  Only real products and
    sums of the parts of z, a and b; no cube root or angle is taken.  z' is
    one of the three cube roots, so the modes of the next step may come
    permuted; counts, flags and determinants are symmetric in them.

    (d', z') is rescaled to max(|d'|, |z'|) = 1: the true block is M_(m+1) =
    S_m scale M~_(m+1) when M_m = S_m M~_m.  An exact j_k = 0 is taken as
    eps, its sign just below lambda, so nothing divides by zero; the rescaled
    state then keeps only that pole, and the count at such a lambda is not to
    be trusted.
    """
    # in place on (3, P) buffers: fresh temporaries cost as much as the arithmetic
    j = np.multiply(x, ar, out=j)
    f, w = x * br, y * ai
    j -= w
    j += d
    j *= 2  # 2 (d + Re(z a))
    np.multiply(y, bi, out=w)
    f -= w
    f *= f
    np.multiply(j, 0.75, out=w)
    w[j == 0] = 0.75 * EPS
    f /= w  # F = 4 Re(z b)^2 / (3 j)
    f0, f1, f2 = f
    d -= f0 + f1 + f2
    # e^(i pi/3) omega^k = 1/2 + i sin 60, -1, 1/2 - i sin 60
    np.add(f0, f2, out=x)
    np.subtract(f0, f2, out=y)
    x *= 0.5
    x -= f1
    y *= _SIN60
    scale = np.hypot(x, y, out=scale)
    np.maximum(scale, np.abs(d), out=scale)
    np.maximum(scale, TINY, out=scale)
    x /= scale
    y /= scale
    d /= scale
    return j, d, x, y, scale


def _gluing(alpha, beta, level: int, lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gluing recursion of H = Deg (1 - lam) - W over the probes lam, a 1-d
    array, at the flux pair (alpha, beta): scalars, or one pair per probe.

    Returns (j, scale, mu): j[m], (3, P), the junction eigenvalues of step m
    < level and scale[m] its rescaling (`_gluing_step`), and mu, (3, P), the
    eigenvalues of the last corner block M~_level.  Every result of the
    recursion is read off these: the count (`_glue`), the singular flag
    (`_singular`) and the log-determinant (`gluing_log_det`).
    """
    if np.ndim(alpha):
        ar, ai, br, bi = _phase_parts(alpha, beta, level)
    else:
        ar, ai, br, bi = _uniform_phase_parts(alpha, beta, level)
    # M_0 has loop product -e(alpha), one cube root of which is z; x and y
    # per probe even at scalar fluxes: numpy's scalar arithmetic rounds
    # otherwise, and the two calls must agree to the bit
    z = _e((alpha + 0.5) / 3)
    d, x, y = 2 * (1 - lam), np.full(lam.size, z.real), np.full(lam.size, z.imag)
    j = np.empty((level, 3, lam.size))
    scale = np.empty((level, lam.size))
    for step in range(level):
        _gluing_step(ar[step], ai[step], br[step], bi[step], d, x, y, j[step], scale[step])
    z = np.empty(lam.size, dtype=complex)
    z.real, z.imag = x, y
    return j, scale, _circulant_eigenvalues(d, z)


def _live(lam):
    """The probes that `_glue` glues: lam in (0, 2]."""
    return (lam > 0) & (lam <= 2)


def _glue(alpha, beta, level: int, lam) -> tuple[np.ndarray, np.ndarray]:
    """Haynsworth's count of H = Deg (1 - lam) - W over the 1-d array lam,
    saturated to 0 or dim_level outside (0, 2], and the junction eigenvalues j,
    (level, 3, L), of the L probes inside (`_live`).  alpha and beta are
    scalars, or 1-d arrays with one pair per probe."""
    count = np.where(lam > 2, dim_n(level), 0)
    live = np.flatnonzero(_live(lam))
    if np.ndim(alpha):
        alpha, beta = alpha[live], beta[live]
    j, _, mu = _gluing(alpha, beta, level, lam[live])
    count[live] = 3 ** np.arange(level)[::-1] @ (j < 0).sum(axis=1) + (mu < 0).sum(axis=0)
    return count, j


def _singular(lam, j):
    """Which probes of `_glue`(..., lam) met a junction block singular to
    working precision, from its j (their count is not to be used)."""
    size = np.abs(j)
    singular = np.zeros(lam.size, dtype=bool)
    singular[_live(lam)] = (size.min(axis=1) <= JUNCTION_TOL * size.max(axis=1)).any(axis=0)
    return singular


def gluing_count(alpha, beta, level: int, lam) -> tuple[np.ndarray, np.ndarray]:
    """#{eigenvalues of L_level < lam}, each probe at its own flux pair, without
    following U: (counts, fired), over arrays broadcast to one 1-d shape.

    The count is the negative inertia of H = Deg (1 - lam) - W (Sylvester), in
    the `build_connection` gauge, obtained by gluing corner blocks bottom-up.
    M_0 = 2(1 - lam) I - W_0 is the triangle on (0,0), (1,0), (0,1), the state
    d = 2(1 - lam), z = e((alpha + 1/2)/3), whose cube is its loop product
    -e(alpha).  Step m glues M_m on (A, X, Z), M_m on (X, B, Y) and G* M_m G
    on (Z, Y, C), with G = diag(1, e(-(alpha+beta) s^2), 1) and s = 2^m; J_m
    is the block of the junctions X, Y, Z, and M_(m+1) the Schur complement
    onto the corners (`_gluing_step`).  Haynsworth gives
    count = sum_m 3^(level-1-m) neg(J_m) + neg(M_level).

    The singular-J rule: a probe that meets a junction block with
    min |j_k| <= JUNCTION_TOL max |j_k| is counted again at lam -+ JUNCTION_SHIFT
    and `fired` is set.  Where both sides agree that is its count; where they
    differ (lam lies within the shift of an eigenvalue) or a side meets a
    singular block again, the count is -1: undetermined, never a wrong number.
    """
    alpha, beta, lam = np.broadcast_arrays(*(np.asarray(v, dtype=float).ravel() for v in (alpha, beta, lam)))
    count, j = _glue(alpha, beta, level, lam)
    fired = _singular(lam, j)
    if fired.any():
        f = np.flatnonzero(fired)
        shifted = np.concatenate([lam[f] - JUNCTION_SHIFT, lam[f] + JUNCTION_SHIFT])
        both, j = _glue(np.tile(alpha[f], 2), np.tile(beta[f], 2), level, shifted)
        again = _singular(shifted, j)
        lo, hi = both[:f.size], both[f.size:]
        count[f] = np.where((lo == hi) & ~again[:f.size] & ~again[f.size:], lo, -1)
    return count, fired


# At lambda = 0 every junction and final eigenvalue is >= 0; in the state's
# units (max(|d|, |z|) = 1) one below -PSD_TOL is not rounding.
PSD_TOL = 1e-12


def _check_psd(values) -> None:
    if values.min() < -PSD_TOL:
        raise ValueError(f"negative eigenvalue {values.min()} at lambda = 0: operator should be PSD")


def kernel_dimension(flux: FluxPair, level: int) -> int:
    """dim ker(Deg - W) at a uniform flux pair: 1, the constants, for the
    trivial connection (alpha = 0 and, from level 1 on, beta = 0, exactly;
    level 0 has no hole), else 0."""
    return int(flux.alpha == 0.0 and (flux.beta == 0.0 or level == 0))


def gluing_log_det(flux: FluxPair, level: int, corner: float = 0.0) -> float:
    """log |det'(Deg - W + corner E_AA)| at a uniform flux pair, by the gluing
    recursion at lambda = 0: O(level) work and no graph.  E_AA is the entry of
    the corner A = (0, 0).

    With M_m = S_m M~_m the true corner block (S_0 = 1, S_(m+1) = S_m scale_m,
    `_gluing_step`) and J_m = S_m J~_m, Haynsworth gives

        log|det H| = sum_(m<N) 3^(N-1-m) (3 log S_m + sum_k log|j_(m,k)|)
                     + log|det(M_N + corner E_AA)|,

    and det(S M~ + c E_AA) = S^3 (mu_0 mu_1 mu_2 + (c/S) e_2(mu)/3) over the
    eigenvalues mu_k of the circulant M~_N, whose eigenvectors all have
    |v_k(A)|^2 = 1/3, so that its (A, A) cofactor is e_2(mu)/3.

    Where Deg - W has a kernel (`kernel_dimension`), the constants, which sit
    in the final block, the mu_k of least modulus is set to exactly 0.  With
    corner = 0 the value is then the pseudo-determinant |d det H(lam)/d lam| at
    0, which replaces S |mu_0| by |d mu_0/d lam| = sum deg / 3 = 2 * 3^N.
    Raises ValueError where a junction or final eigenvalue is negative beyond
    PSD_TOL.
    """
    j, scale, mu = (x[..., 0] for x in _gluing(flux.alpha, flux.beta, level, np.zeros(1)))
    _check_psd(np.append(j, mu))
    log_sm = np.concatenate([[0.0], np.cumsum(np.log(scale))])  # log S_m, m = 0..N
    total = math.fsum(3.0 ** np.arange(level)[::-1] * (3 * log_sm[:-1] + np.log(np.abs(j)).sum(axis=1)))
    log_s = log_sm[-1]
    if kernel_dimension(flux, level):
        k = np.argmin(np.abs(mu))
        mu[k] = 0.0
        if not corner:
            rest = math.log(abs(np.prod(np.delete(mu, k))))
            return total + 2 * log_s + math.log(2) + level * math.log(3) + rest
    e2 = mu[0] * mu[1] + mu[1] * mu[2] + mu[2] * mu[0]
    return total + 3 * log_s + math.log(abs(np.prod(mu) + corner * math.exp(-log_s) * e2 / 3))


# A `_glue` call pays about as much in numpy dispatch as PASS_PROBES probes
# pay in arithmetic: 150-200 us (25-32 us per gluing step) against 29-31 ns
# per probe per step at levels 5-7 (2-vCPU host, best of 25 by timeit), a
# ratio of 800-1060.  A round of `decimation_eigenvalues` over n brackets
# glues the b levels of their midpoint trees that keep n (2^b - 1) within it.
PASS_PROBES = 1000


def decimation_eigenvalues(flux: FluxPair, level: int) -> np.ndarray:
    """Sorted eigenvalues of L_level at a uniform flux pair.

    Spectrum slicing by the gluing count (`_glue`, without the singular-J
    rule).  A bracket [lo, hi) holds the eigenvalues of index c_lo to
    c_hi - 1, c_lo and c_hi being the counts read at its ends; the first is
    BRACKET, with 0 and dim_N.  The count c at its midpoint, clamped into
    [c_lo, c_hi], splits it into [lo, mid) with (c_lo, c) and [mid, hi) with
    (c, c_hi), and an empty half is dropped: that is bisection of every index
    i by the rule count(mid) > i, the indices of one bracket sharing its
    counts.

    Every bracket of a round sits at one depth below BRACKET, W wide, so the
    depth alone decides what a bracket's width would.  Brackets at the leaf
    depth ceil(log2(W / BISECT_WIDTH)), 45, at most BISECT_WIDTH wide, end
    the bisection: they are the leaves, in order, and each gives its
    midpoint c_hi - c_lo times, its multiplicity.  A round glues, in one
    `_glue` call, every midpoint on the next b levels of the trees below its
    n brackets, b the largest with n (2^b - 1) <= PASS_PROBES (at least 1,
    and no deeper than the leaves), and then walks the trees down level by
    level: a spectrum takes 10 passes at the dyadic pairs at level 5 and 36
    at (0.37, 0.71), level 7.  Above the recount depth
    ceil(log2(W / (2 JUNCTION_SHIFT))), 30, brackets are wider than
    2 JUNCTION_SHIFT, and a probe there that met a junction block singular
    to working precision (`_singular`) is recounted by `gluing_count`'s rule
    in one call per pass, before the walk; a determined count there
    replaces the raw one, which rounding decides.

    Indices whose eigenvalues lie closer than a leaf share one value, its
    midpoint: at the dyadic pairs to level 10 the leaves are the closed
    form's distinct eigenvalues, one for one.  Measured against dense: within
    3.4e-14 over the dyadic pairs and three random Case IV pairs at levels
    0-6, and within 2.9e-14 of the closed forms at the dyadic pairs to
    level 10, half a leaf.  A near-zero junction eigenvalue a few steps down
    costs more at some Case IV pairs: 2.1e-12 at (0.3, 0.3), level 6, and
    1.4e-11 at (0.37, 0.71), level 7.  At Case II and III
    fluxes, where D roots and real Psi zeros meet, clusters land 1e-9 to
    4e-9 off at levels 3-6.
    """
    width = BRACKET[1] - BRACKET[0]
    leaf = math.ceil(math.log2(width / BISECT_WIDTH))
    recount = math.ceil(math.log2(width / (2 * JUNCTION_SHIFT)))
    lo, hi = np.array([BRACKET[0]]), np.array([BRACKET[1]])
    c_lo, c_hi = np.array([0]), np.array([dim_n(level)])
    depth = 0
    while depth < leaf:
        b = min(max(1, int(math.log2(PASS_PROBES / lo.size + 1))), leaf - depth)
        # the next b levels of the trees below the brackets, each in order:
        # node i of a level has children 2i and 2i + 1 on the next
        mids = []
        for _ in range(b):
            mids.append(0.5 * (lo + hi))
            lo, hi = _interleave(lo, mids[-1]), _interleave(mids[-1], hi)
        points = np.concatenate(mids)
        count, j = _glue(flux.alpha, flux.beta, level, points)
        if depth < recount:
            shallow = sum(m.size for m in mids[:recount - depth])
            f = np.flatnonzero(_singular(points, j)[:shallow])
            if f.size:
                again, _ = gluing_count(flux.alpha, flux.beta, level, points[f])
                count[f] = np.where(again >= 0, again, count[f])
        node, start = np.arange(c_lo.size), 0
        for m in mids:
            c = np.clip(count[start + node], c_lo, c_hi)
            start += m.size
            node = _interleave(2 * node, 2 * node + 1)
            c_lo, c_hi = _interleave(c_lo, c), _interleave(c, c_hi)
            keep = np.flatnonzero(c_hi > c_lo)  # one index for the three gathers
            node, c_lo, c_hi = node[keep], c_lo[keep], c_hi[keep]
        lo, hi = lo[node], hi[node]
        depth += b
    return np.repeat(0.5 * (lo + hi), c_hi - c_lo)


def _interleave(a, b):
    """a[0], b[0], a[1], b[1], ...: the children of nodes in order."""
    out = np.empty(2 * a.size, dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out


@dataclass(frozen=True)
class ClassificationTag:
    case: str  # Regular | PhiZero | PsiZeroEscape | DZeroVanishing |
    #            DNotSingular | DZeroMixed | DDoubleZero | Indeterminate
    root_mult: int = 0
    diagnostics: dict = field(default_factory=dict, compare=False)


def _root_mult_at(beta: float, lam: float, tol: float) -> int:
    for r, m in zeros_of_D(beta):
        if abs(lam - r) <= max(tol, 1e-9):
            return m
    return 0


def classify(flux: FluxPair, lam: float, tol: float = 1e-9) -> ClassificationTag:
    a, b = flux.alpha, flux.beta
    step = decimation_kit(flux, lam)
    # |D| <= tol only prefilters: beside a double root of D it holds out to
    # |lam - r| ~ 3.7e-5, so D = 0 is taken only where `_root_mult_at` finds one
    rm = _root_mult_at(b, lam, tol) if abs(step.D) <= tol else 0
    d_zero = rm > 0
    psi_zero = step.absPsi <= tol
    diag: dict = {"A": step.A, "D": step.D, "absPsi": step.absPsi}

    if not d_zero and not psi_zero:
        return ClassificationTag("Regular", 0, diagnostics=diag)

    if psi_zero and not d_zero:
        mu = 1 - lam - step.A / (64 * step.D)
        diag["mu"] = mu
        if abs(mu) <= tol:
            return ClassificationTag("PhiZero", 0, diagnostics=diag)
        return ClassificationTag("PsiZeroEscape", 0, diagnostics=diag)

    diag["root_mult"] = rm

    if psi_zero and d_zero:
        alpha_dyadic = dyadic(a) is not None
        if rm == 1:
            if alpha_dyadic:
                return ClassificationTag("DNotSingular", 1, diagnostics=diag)
            # the 3a+b = 1/2 line: Psi and D vanish together at a simple root
            diag["case_iii"] = circ_dist(3 * a + b, 0.5) <= DYADIC_TOL
            return ClassificationTag("Indeterminate", 1, diagnostics=diag)
        if alpha_dyadic:
            return ClassificationTag("DZeroVanishing", rm, diagnostics=diag)
        return ClassificationTag("DDoubleZero", rm, diagnostics=diag)

    # D root with Psi != 0: always a simple root (a double root of D at
    # beta in {0,1/2} forces Psi(alpha, beta, lam) = 0 for every alpha).  Near
    # it D(x)(lam-x)/(R(lam)-R(x)) ~ D'(lam)(x-lam)/R'(lam), so the decimation
    # limit vanishes exactly when R'(lam) != 0; the tag reads the exact R'.
    d_r, cancellation = r_dlam(step)
    diag.update(dR_dlam=d_r, cancellation=cancellation)
    case = "DZeroMixed" if cancellation <= tol else "DZeroVanishing"
    return ClassificationTag(case, rm, diagnostics=diag)
