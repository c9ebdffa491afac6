import cmath
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglap import butterfly
from sglap.decimation import (
    QUADRATICS,
    OrbitTerminated,
    _atan2,
    _pair_step,
    _roots_below,
    _step,
    apply_U,
    cell_cubic_d,
    classify,
    decimation_kit,
    exceptional_set,
    frac,
    psi_real_zeros,
    r_dlam,
    u_lambda,
    u_step,
    zeros_of_D,
)
from sglap.gauge import DYADIC_TOL, FluxPair, circ_dist, dyadic, mod1

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
lams = st.floats(min_value=-0.5, max_value=2.5)


def _longhand(al, be, lmd):
    """A, D, Psi written out the pedestrian way, as an independent check."""
    x, xs = math.cos(2 * math.pi * al), math.sin(2 * math.pi * al)
    y = math.cos(2 * math.pi * be)
    cosab = math.cos(2 * math.pi * (al + be))
    A = 16 * lmd * lmd - (32 + 4 * x) * lmd + 15 + 4 * x + cosab
    D = -(lmd**3) + 3 * lmd * lmd - 45 / 16 * lmd + 13 / 16 - y / 32
    re = (
        (1 - lmd) ** 2
        - 1 / 16
        + (1 - lmd) / 4 * (2 * x + math.cos(2 * math.pi * (2 * al + be)))
        + 1 / 16 * (x * x - xs * xs + 2 * cosab)
    )
    im = -(1 - lmd) / 4 * (2 * xs + math.sin(2 * math.pi * (2 * al + be))) - 1 / 16 * (
        2 * x * xs + 2 * math.sin(2 * math.pi * (al + be))
    )
    return A, D, complex(re, im)


@settings(max_examples=60, deadline=None)
@given(al=unit, be=unit, lam=lams)
def test_kit_matches_longhand_formulas(al, be, lam):
    A, D, Psi = _longhand(al, be, lam)
    st = u_step(al, be, lam)
    assert math.isclose(st.A, A, rel_tol=0, abs_tol=1e-10)
    assert math.isclose(st.D, D, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(cell_cubic_d(be, lam), D, rel_tol=0, abs_tol=1e-12)
    assert abs(complex(st.re, st.im) - Psi) <= 1e-10


def test_kit_equals_kernel_on_arrays_bitwise():
    # decimation_kit takes A and Psi from u_step on floats; the same points run
    # as one array must give the same bits.  D is u_step's too off the dyadic
    # betas and `_step`'s (over the exact roots) on them.  Off the dyadic grid
    # theta, R and the evolved fluxes are u_step's; at the dyadic pairs they are
    # apply_U's (the quadratics)
    rng = random.Random(17)
    pts = [(rng.random(), rng.random(), rng.uniform(-0.5, 2.5)) for _ in range(200)]
    pts += [(a, b, lam) for a in (0.0, 0.5) for b in (0.0, 0.5) for lam in (0.1, 0.6, 1.1, 1.4, 1.9)]
    pts.append((0.3, 0.0, 1.25))  # Psi is exactly 0 here
    pts += [(1 / 6, b, r + e) for b, r in ((0.0, 1.25), (0.5, 0.75)) for e in (-1e-8, 1e-9, 0.3)]
    al, be, lm = (np.array(c) for c in zip(*pts))
    st = u_step(al, be, lm)
    alpha_down, beta_down, _ = st.evolved()
    same = lambda x, y: np.float64(x).tobytes() == np.float64(y).tobytes()
    for k, (a, b, lam) in enumerate(pts):
        kit = decimation_kit(FluxPair(a, b), lam)
        d = st.D[k] if dyadic(b) is None else _step(FluxPair(a, b), lm[k:k + 1])[1][0]
        assert same(kit.A, st.A[k]) and same(kit.D, d), (a, b, lam)
        assert same(kit.Psi.real, st.re[k]) and same(kit.Psi.imag, st.im[k]), (a, b, lam)
        assert kit.phi == (kit.absPsi / (4 * kit.D) if kit.D != 0 else None)
        if FluxPair(a, b).is_dyadic():
            assert (kit.alpha_down, kit.beta_down, kit.R) == apply_U(a, b, lam), (a, b, lam)
            continue
        if kit.R is None:
            # Psi = 0 off the dyadic grid: theta is undefined, as where apply_U raises
            assert st.re[k] == 0 and st.im[k] == 0
            assert (kit.theta, kit.alpha_down, kit.beta_down) == (None, None, None)
            continue
        assert same(kit.alpha_down, alpha_down[k]) and same(kit.beta_down, beta_down[k]), (a, b, lam)
        assert same(kit.R, st.R[k]), (a, b, lam)
    assert decimation_kit(FluxPair(0.3, 0.0), 1.25).R is None


def test_kit_agrees_with_apply_U_at_the_dyadic_psi_zeros():
    # u_step's Psi is sin(pi) noise there, which gave R = 1.0 and theta 1/4 or
    # 3/4 at three of these points; the kit now takes the exact step
    zeros = [(a, b, z) for a in (0.0, 0.5) for b in (0.0, 0.5) for z in psi_real_zeros(FluxPair(a, b))]
    assert len(zeros) == 8
    for a, b, z in zeros:
        kit = decimation_kit(FluxPair(a, b), z)
        assert (kit.alpha_down, kit.beta_down, kit.R) == apply_U(a, b, z), (a, b, z)
        assert kit.theta in (0.0, 0.5)
        assert circ_dist(kit.alpha_down, 3 * a + b + 3 * kit.theta) == 0, (a, b, z)
        assert circ_dist(kit.beta_down, 3 * b + a - 3 * kit.theta) == 0, (a, b, z)
    pins = {(0.5, 0.5, 0.75): (0.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5): (0.0, 0.0, 0.0, -1.5),
            (0.0, 0.5, 0.75): (0.0, 0.5, 0.5, 2.0)}
    for (a, b, z), want in pins.items():
        kit = decimation_kit(FluxPair(a, b), z)
        assert (kit.theta, kit.alpha_down, kit.beta_down, kit.R) == want, (a, b, z)


def test_kit_internal_identities():
    rng = random.Random(5)
    for _ in range(25):
        a, b, lam = rng.random(), rng.random(), rng.uniform(-0.3, 2.3)
        step = decimation_kit(FluxPair(a, b), lam)
        assert step.absPsi == abs(step.Psi)
        if step.absPsi > 0:
            assert circ_dist(step.theta, np.angle(step.Psi) / (2 * np.pi)) <= 1e-12
            want_R = 1 + (step.A - 64 * step.D * (1 - lam)) / (16 * step.absPsi)
            assert math.isclose(step.R, want_R, rel_tol=1e-12)
        assert circ_dist(step.alpha_down, 3 * a + b + 3 * step.theta) <= 1e-12
        assert circ_dist(step.beta_down, 3 * b + a - 3 * step.theta) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(al=unit, be=unit, lam=st.floats(min_value=0.0, max_value=2.0))
def test_flux_sum_invariant(al, be, lam):
    # theta cancels: alpha' + beta' = 4(alpha + beta) mod 1, on both map routes
    try:
        a1, b1, _ = apply_U(al, be, lam)
    except OrbitTerminated:
        return
    assert circ_dist(a1 + b1, 4 * (al + be)) <= 1e-10


def test_branch_invariance_of_evolved_flux():
    # any 2*pi relabeling of arg(Psi) moves theta by an integer, which the
    # mod-1 flux update must swallow
    rng = random.Random(11)
    for _ in range(30):
        a, b, lam = rng.random(), rng.random(), rng.uniform(0.0, 2.0)
        step = decimation_kit(FluxPair(a, b), lam)
        for shift in (-1.0, 1.0, 2.0):
            theta2 = step.theta + shift
            a2 = mod1(3 * a + b + 3 * theta2)
            b2 = mod1(3 * b + a - 3 * theta2)
            assert circ_dist(a2, step.alpha_down) <= 1e-12
            assert circ_dist(b2, step.beta_down) <= 1e-12


def test_dyadic_orbit_steps_are_exact():
    assert apply_U(0.5, 0.5, 0.75) == (0.0, 0.0, 0.0)
    assert apply_U(0.0, 0.0, 0.5) == (0.0, 0.0, 1.5)  # R = lam(5 - 4 lam)
    a1, b1, r1 = apply_U(0.5, 0.0, 0.25)
    assert (a1, b1) == (0.5, 0.5) and r1 == -4 * 0.25**2 + 9 * 0.25 - 3
    # negative real Psi flips theta to 1/2: flux gets the half-turn twist
    a1, b1, r1 = apply_U(0.0, 0.0, 1.2)  # psi(e=-0.2) = 0.04 - 0.15 + 0.125 > 0
    assert (a1, b1) == (0.0, 0.0)
    a1, b1, r1 = apply_U(0.0, 0.0, 1.4)  # psi(e=-0.4) = 0.16 - 0.3 + 0.125 < 0
    assert (a1, b1) == (0.5, 0.5)


def test_apply_U_is_the_scalar_view_of_step():
    # `_step` at a float lambda runs in Python floats, at an array in numpy:
    # per flux pair, every row and apply_U agree with the array path to the bit
    # (every NaN counting as one value)
    rng = random.Random(23)
    fluxes = [(rng.random(), rng.random()) for _ in range(20)]
    fluxes += [(a, b) for a in (0.0, 0.5) for b in (0.0, 0.5)] + [(0.3, 0.0), (1 / 6, 0.5), (0.5, 0.3)]
    same = lambda x, y: _same_bits(np.array([x]), np.array([y]))
    for a, b in fluxes:
        flux = FluxPair(a, b)
        lams = [rng.uniform(-0.5, 2.5) for _ in range(10)] + [0.75, 1.25, 1e80]
        with np.errstate(over="ignore", invalid="ignore"):  # the array path at 1e80
            st, *rows = _step(flux, np.array(lams))
        arrays = [st.A, st.D, st.re, st.im, st.R, *rows]
        for k, lam in enumerate(lams):
            st1, *rows1 = _step(flux, lam)
            for row, (got, want) in enumerate(zip([st1.A, st1.D, st1.re, st1.im, st1.R, *rows1], arrays)):
                assert type(got) is float and same(got, want[k]), (a, b, lam, row)
            if np.isfinite(rows1[-1]):
                assert apply_U(a, b, lam) == tuple(rows1[-3:]), (a, b, lam)
            else:
                with pytest.raises(OrbitTerminated):
                    apply_U(a, b, lam)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, -0.5])
def test_roots_below_is_exact_at_dyadic_beta(beta):
    # D has a double root here; the expanded cubic has the wrong sign up to
    # 2e-8 from it, so cell_cubic_d writes D over its exact roots, and so
    # does _step when alpha is off the grid
    roots = {r for r, _ in zeros_of_D(beta)}
    xs = set(np.linspace(-0.5, 2.5, 61).tolist()) | roots
    xs |= {float(np.nextafter(r, t)) for r in roots for t in (-np.inf, np.inf)}
    double = next(r for r, m in zeros_of_D(beta) if m == 2)
    xs |= {double + s * e for s in (-1, 1) for e in (1e-12, 1e-9, 1e-8)}
    xs = np.array(sorted(xs))
    want = [sum(m for r, m in zeros_of_D(beta) if r < x) for x in xs]
    for x, k in zip(xs, want):
        assert _roots_below(x, cell_cubic_d(beta, x)) == k, (beta, x)
    for alpha in (1 / 6, 0.3, 0.1234):
        d = _step(FluxPair(alpha, beta), xs)[1]
        assert _roots_below(xs, d).tolist() == want, alpha


def test_roots_below_at_generic_beta():
    rng = random.Random(5)
    xs = np.linspace(-0.5, 2.5, 301)
    for _ in range(50):
        beta = rng.random()
        roots = [r for r, _ in zeros_of_D(beta)]
        away = xs[np.min(np.abs(xs[:, None] - roots), axis=1) > 1e-9]
        want = [sum(r < x for r in roots) for x in away]
        assert _roots_below(away, cell_cubic_d(beta, away)).tolist() == want, beta


def test_escaped_kit_orbit_ends_in_none_not_nan():
    # from (0.3, 0.1) at 1.9 the orbit leaves [0, 2] and |R| squares each
    # step; past |lambda| ~ 1e77 the next R would overflow to NaN
    flux, lam = FluxPair(0.3, 0.1), 1.9
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(20):
            step = decimation_kit(flux, lam)
            assert step.phi is None or math.isfinite(step.phi)
            if step.R is None:
                break
            assert math.isfinite(step.R)
            flux, lam = FluxPair(step.alpha_down, step.beta_down), step.R
    assert step.R is None and abs(lam) > 1e77


def _same_bits(got, want):
    """Bit for bit, sign of zero included; every NaN counts as one value."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


_SPECIAL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e-310, -1e-310, 5e-324, -5e-324, 1e308, -1e308]


def test_atan2_is_libm_bitwise(monkeypatch):
    # the array path of _atan2 is the imaginary part of the complex log; it must
    # be libm's atan2 to the bit, or butterfly rasters drift from the reference
    rng = np.random.default_rng(20190912)
    n = 100_000
    im, re = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-300, 300, (2, n))
    grid_im, grid_re = np.array([(i, r) for i in _SPECIAL for r in _SPECIAL]).T
    steps = []

    def recording_u_lambda(*args):
        out = u_lambda(*args)
        steps.append((out[3], out[2]))
        return out

    monkeypatch.setattr(butterfly, "u_lambda", recording_u_lambda)
    butterfly.render(butterfly.RasterConfig(grid_alpha=61, grid_lambda=61))
    assert len(steps) >= 3
    for im, re in [(im, re), (grid_im, grid_re), *steps[:3]]:
        want = np.array([math.atan2(i, r) for i, r in zip(im.tolist(), re.tolist())])
        assert _same_bits(_atan2(im, re), want)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _same_bits(_atan2(np.array([0.0, -0.0, 0.0, -0.0]), np.array([0.0, 0.0, -0.0, -0.0])),
                          np.array([0.0, -0.0, math.pi, -math.pi]))


def test_frac_is_mod_one_bitwise():
    # frac stands in for % 1.0 in the evolved fluxes of u_step and the U2 map
    rng = np.random.default_rng(7)
    x = np.concatenate([
        rng.uniform(-5.0, 5.0, 50_000),
        rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-320, 300, 50_000),
        np.nextafter(np.arange(-8.0, 8.0, 0.25), math.inf),
        np.nextafter(np.arange(-8.0, 8.0, 0.25), -math.inf),
        np.arange(-8.0, 8.0, 0.25),
        [2.0**52 + 0.5, -(2.0**52) - 0.5, 2.0**53, -(2.0**53), -1e-17, 1 - 1e-16, *_SPECIAL],
    ])
    want = np.array([v % 1.0 if math.isfinite(v) else math.nan for v in x.tolist()])
    with np.errstate(invalid="ignore"):
        assert _same_bits(frac(x), want)
        assert _same_bits(frac(x), x % 1.0)


def test_orbit_terminates_on_exact_psi_zero():
    # beta = 0 makes Psi a real polynomial with a float-exact root at 5/4
    st = u_step(0.3, 0.0, 1.25)
    assert st.re == 0 and st.im == 0
    with pytest.raises(OrbitTerminated):
        apply_U(0.3, 0.0, 1.25)


def test_kit_has_no_theta_at_an_exact_psi_zero_off_the_grid():
    # where apply_U raises, theta is undefined: the kit reports no theta, R or
    # evolved flux there, rather than the atan2(0, 0) branch
    for a, b, lam in [(0.3, 0.0, 1.25), (5 / 6, 0.0, 1.25)]:
        with pytest.raises(OrbitTerminated):
            apply_U(a, b, lam)
        kit = decimation_kit(FluxPair(a, b), lam)
        assert kit.Psi == 0 and math.isfinite(kit.A)
        assert (kit.theta, kit.R, kit.alpha_down, kit.beta_down) == (None, None, None, None), (a, b, lam)


_U_FIELDS = ("alpha", "beta", "A", "D", "re", "im", "R", "alpha_down", "beta_down", "arg")


def _u_fields(st):
    return dict(zip(_U_FIELDS, (st.alpha, st.beta, st.A, st.D, st.re, st.im, st.R, *st.evolved())))


def test_float_pair_step_is_the_array_path_bitwise():
    # a float lambda is stepped in Python floats (a conditional twist),
    # an array with numpy: every row agrees to the bit, on a grid over the
    # spectrum and beyond it and at each pair's Psi zeros and D roots
    grid = np.linspace(-2.0, 4.0, 1201).tolist()
    for name, ((a0, b0), _, _) in QUADRATICS.items():
        special = psi_real_zeros(FluxPair(a0, b0)) + [r for r, _ in zeros_of_D(b0)]
        for lam in grid + special + [0.0, -0.0]:
            got = _pair_step(name, lam)
            want = _pair_step(name, np.array([lam]))
            for row, (g, w) in enumerate(zip(got, want)):
                assert type(g) is float, (name, lam, row)
                assert _same_bits(np.array([g]), w), (name, lam, row)


def test_dyadic_decides_as_the_circle_distance_loop():
    def circ_dist_loop(x):
        for v in (0.0, 0.5):
            if circ_dist(x, v) <= DYADIC_TOL:
                return v
        return None

    points = [0.0, -0.0, 1 - 2.0**-53, -1e-17, 3.5, -2.5]
    for edge in (DYADIC_TOL, -DYADIC_TOL, 0.5 + DYADIC_TOL, 0.5 - DYADIC_TOL):
        points += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    for x in points:
        assert dyadic(x) == circ_dist_loop(x), x
    assert [dyadic(x) for x in (DYADIC_TOL, -DYADIC_TOL, 0.5 + DYADIC_TOL, 0.5 - DYADIC_TOL)] == [0.0, 0.0, 0.5, 0.5]


def test_scalar_u_step_is_the_array_path_bitwise():
    # three floats are stepped in Python floats with math's cos, sin, sqrt and
    # atan2, arrays with numpy: every field agrees to the bit, the escaped
    # lambdas, the division at Psi = 0 and the signed zeros included, and the
    # scalar path raises no RuntimeWarning (an error under pytest here)
    rng = np.random.default_rng(20190913)
    n, far = 100_000, 20_000
    al, be = rng.uniform(-1.0, 2.0, (2, n))
    lm = np.concatenate([rng.uniform(-0.5, 2.5, n - far),
                         rng.choice([-1.0, 1.0], far) * 10.0 ** rng.uniform(-20.0, 250.0, far)])
    edge = [(0.3, 0.0, 1.25), (5 / 6, 0.0, 1.25), (0.3, 0.1, 1e200), (0.3, 0.1, -1e200),
            (0.3, 0.1, 0.0), (0.3, 0.1, -0.0), (0.5, 0.5, 0.75), (0.0, 0.0, 1.25)]
    al, be, lm = (np.concatenate([v, e]) for v, e in zip((al, be, lm), zip(*edge)))
    scalar = [u_step(a, b, l) for a, b, l in zip(al.tolist(), be.tolist(), lm.tolist())]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _u_fields(u_step(al, be, lm))
    scalar = [_u_fields(st) for st in scalar]
    for f in _U_FIELDS:
        got = np.array([st[f] for st in scalar])
        assert _same_bits(got, want[f]), f
    assert all(type(st[f]) is float for st in scalar[-len(edge):] for f in _U_FIELDS)
    assert np.isneginf(want["R"][n]) and np.isnan(want["R"][n + 2])


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.23, 0.77, 1e-13, 0.5 + 1e-13])
def test_zeros_of_D(beta):
    roots = zeros_of_D(beta)
    assert sum(m for _, m in roots) == 3
    exact = {0.0: [(0.5, 1), (1.25, 2)], 0.5: [(0.75, 2), (1.5, 1)]}
    if dyadic(beta) is not None:
        assert roots == exact[dyadic(beta)]
    for r, m in roots:
        assert abs(cell_cubic_d(beta, r)) <= 1e-9
        if m >= 2:  # repeated root must also kill the derivative
            h = 1e-6
            deriv = (cell_cubic_d(beta, r + h) - cell_cubic_d(beta, r - h)) / (2 * h)
            assert abs(deriv) <= 1e-4


def test_psi_real_zero_counts_by_case():
    assert len(psi_real_zeros(FluxPair(0.5, 0.5))) == 2  # both dyadic
    assert len(psi_real_zeros(FluxPair(0.5, 0.3))) == 1  # one dyadic
    line = FluxPair(0.1, 0.2)  # 3a + b = 1/2
    zs = psi_real_zeros(line)
    assert len(zs) == 1
    assert math.isclose(zs[0], 1 + math.cos(2 * math.pi * 0.1) / 2, abs_tol=1e-12)
    assert psi_real_zeros(FluxPair(0.3, 0.3)) == []  # generic: none


def test_exceptional_set_members_are_exceptional():
    flux = FluxPair(0.3, 0.7)
    for lam in exceptional_set(flux):
        d = abs(cell_cubic_d(flux.beta, lam))
        p = decimation_kit(flux, lam).absPsi
        assert min(d, p) <= 1e-8


def test_classify_taxonomy():
    # one concrete witness per reachable branch
    assert classify(FluxPair(0.3, 0.3), 0.4).case == "Regular"
    assert classify(FluxPair(0.0, 0.0), 1.5).case == "PhiZero"
    assert classify(FluxPair(0.0, 0.0), 1.5 + 1e-5, tol=1e-5).case == "PsiZeroEscape"
    tag = classify(FluxPair(0.5, 0.5), 0.75)
    assert (tag.case, tag.root_mult) == ("DZeroVanishing", 2)
    tag = classify(FluxPair(0.5, 0.0), 0.5)
    assert (tag.case, tag.root_mult) == ("DNotSingular", 1)
    tag = classify(FluxPair(1 / 6, 0.0), 1.25)
    assert (tag.case, tag.root_mult) == ("DDoubleZero", 2)
    assert classify(FluxPair(0.3, 0.0), 1.25).case == "DDoubleZero"
    line = FluxPair(0.1, 0.2)  # 3a + b = 1/2: D and Psi share a simple root
    lam_star = 1 + math.cos(2 * math.pi * 0.1) / 2
    tag = classify(line, lam_star)
    assert tag.case == "Indeterminate"
    assert tag.diagnostics.get("case_iii") is True
    # D-roots away from any Psi zero: the eigenvalue branch vanishes there
    flux = FluxPair(0.3, 0.7)
    cases = {classify(flux, r).case for r, _ in zeros_of_D(flux.beta)}
    assert cases == {"DZeroVanishing"}
    # ... unless R'(lambda) = 0 there
    for flux, k, lam in (((1 / 12, 0.25), 0, 0.5669873), ((5 / 12, 0.25), 2, 1.4330127)):
        root = zeros_of_D(0.25)[k][0]
        assert abs(root - lam) <= 1e-7
        tag = classify(FluxPair(*flux), root)
        assert (tag.case, tag.root_mult) == ("DZeroMixed", 1), flux


def test_steep_d_root_is_vanishing():
    # |Psi| ~ 8e-7 at this D root and R' ~ -5.5e5: the exact slope is far
    # from 0, where finite differences of R never settled on a limit
    flux = FluxPair(0.3033685109329176, 0.5875806061435594)
    tag = classify(flux, 0.8331761416536679)
    assert (tag.case, tag.root_mult) == ("DZeroVanishing", 1)
    assert math.isclose(tag.diagnostics["dR_dlam"], -5.5e5, rel_tol=0.01)


D_ZERO_CASES = {"DZeroVanishing", "DZeroMixed", "DDoubleZero", "DNotSingular", "Indeterminate"}


@pytest.mark.parametrize("flux", [(1 / 6, 0.0), (5 / 6, 0.0), (1 / 3, 0.5)])
def test_classify_takes_d_zero_only_at_a_root(flux):
    # beside a double root of D, |D| ~ 0.75 delta^2 stays below tol = 1e-9 out
    # to delta ~ 3.7e-5; a D-zero tag is one that finds a root within tol
    fp, tol = FluxPair(*flux), 1e-9
    roots = [r for r, _ in zeros_of_D(fp.beta)]
    for r in roots:
        for lam in (r + s * delta for delta in (1e-9, 1e-7, 1e-5, 3e-5) for s in (-1, 1)):
            tag = classify(fp, lam, tol)
            if tag.case in D_ZERO_CASES:
                assert tag.root_mult >= 1, (flux, lam, tag.case)
            if min(abs(lam - x) for x in roots) > tol:
                assert tag.case not in D_ZERO_CASES, (flux, lam, tag.case)


def test_r_dlam_matches_central_differences():
    # five-point central differences of R, step 5e-5; near a Psi zero R varies
    # on the scale |Psi| and rounds off as 1/|Psi|, so points keep |Psi| >= 1e-2
    R = lambda flux, lam: float(u_step(flux.alpha, flux.beta, lam).R)
    rng = random.Random(29)
    h = 5e-5
    checked = 0
    while checked < 200:
        flux, lam = FluxPair(rng.random(), rng.random()), rng.uniform(0.0, 2.0)
        step = decimation_kit(flux, lam)
        if step.absPsi < 1e-2:
            continue
        diff = lambda k: R(flux, lam + k * h) - R(flux, lam - k * h)
        fd = (8 * diff(1) - diff(2)) / (12 * h)
        exact, _ = r_dlam(step)
        assert math.isclose(exact, fd, rel_tol=1e-6), (flux, lam, exact, fd)
        checked += 1
