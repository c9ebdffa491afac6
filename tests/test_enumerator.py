import json
import math
import random
import re
import sys

import numpy as np
import pytest
from _helpers import per_cut_verify
from hypothesis import given, settings
from hypothesis import strategies as st

from sglap import decimation, enumerator, operator
from sglap.decimation import QUADRATICS, quadratic_r
from sglap.enumerator import decimation_verify, quadratic_preimages, spectrum_closed_form
from sglap.gasket import build_gasket, dim_n
from sglap.gauge import FluxPair, build_connection
from sglap.operator import assemble, spectrum

DYADIC_PAIRS = [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]


@pytest.mark.parametrize("map_id", sorted(QUADRATICS))
@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=-1.0, max_value=2.5))
def test_preimages_invert_the_quadratic(map_id, lam):
    fn = lambda x: quadratic_r(map_id, x)
    _, _, (b, c) = QUADRATICS[map_id]
    disc0 = b * b + 16 * c
    y = fn(lam)
    if disc0 - 16 * y < -1e-12:
        return
    lo, hi = quadratic_preimages(map_id, y)
    assert lo <= hi
    assert math.isclose(fn(lo), y, rel_tol=0, abs_tol=1e-8)
    assert math.isclose(fn(hi), y, rel_tol=0, abs_tol=1e-8)


def test_preimages_reject_complex_branch():
    with pytest.raises(ValueError):
        quadratic_preimages("R00", 25 / 16 + 1.0)  # above the vertex


def test_closed_form_level_zero():
    sp = spectrum_closed_form(FluxPair(0.0, 0.0), 0)
    assert sp.pairs == [(0.0, 1), (1.5, 2)]
    # the twisted single triangle is deliberately left to the dense path
    with pytest.raises(ValueError, match="level 0"):
        spectrum_closed_form(FluxPair(0.5, 0.5), 0)


@pytest.mark.parametrize("flux", DYADIC_PAIRS)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_closed_form_matches_dense(flux, level):
    fp = FluxPair(*flux)
    cf = spectrum_closed_form(fp, level)
    g = build_gasket(level)
    dn = spectrum(assemble(g, build_connection(g, fp)))
    assert cf.total_multiplicity == dim_n(level)
    assert len(cf.pairs) == len(dn.pairs)
    for (ev_c, m_c), (ev_d, m_d) in zip(cf.pairs, dn.pairs):
        assert abs(ev_c - ev_d) <= 1e-8
        assert m_c == m_d


def test_closed_form_requires_dyadic_flux():
    with pytest.raises(ValueError, match="closed-form spectra"):
        spectrum_closed_form(FluxPair(0.3, 0.1), 2)


def test_verify_passes_on_random_fluxes():
    rng = random.Random(2024)
    for _ in range(4):
        fp = FluxPair(rng.random(), rng.random())
        report = decimation_verify(fp, 2)
        assert report.all_pass, [e for e in report.entries if e.ok is False]
        checked = [e for e in report.entries if e.ok is not None]
        assert checked, "report should contain actual assertions"


def test_verify_maps_merged_eigenvalues_one_by_one():
    # two eigenvalues 3.9e-7 apart merge into one cluster next to the D root
    # 1.1345089, where R and theta are steep; the counts at the cuts on either
    # side of the cluster see both of them
    report = decimation_verify(FluxPair(0.8152735957996344, 0.11995139405945265), 3)
    entry = min(report.entries, key=lambda e: abs(e.lam - 1.134864))
    assert abs(entry.lam - 1.134864) <= 1e-6
    assert entry.kind == "regular" and entry.mult == 2
    assert entry.ok, entry.note
    counts = re.findall(r"predicted (\d+) .*?observed (\d+)", entry.note)
    (p_lo, o_lo), (p_hi, o_hi) = [(int(p), int(o)) for p, o in counts]
    assert p_lo == o_lo and p_hi == o_hi and o_hi - o_lo == 2, entry.note


def test_verify_s3_multiplicity_at_dyadic_alpha():
    # alpha in {0, 1/2} pins a symmetry eigenvalue with multiplicity
    # (3^N+3)/2, at the real Psi zero 1/2 here
    report = decimation_verify(FluxPair(0.5, 0.37), 2)
    assert report.all_pass
    entry = min(report.entries, key=lambda e: abs(e.lam - 0.5))
    assert math.isclose(entry.lam, 0.5, abs_tol=1e-6)
    assert (entry.kind, entry.mult, entry.ok) == ("psi-zero", (3**2 + 3) // 2, True)


def test_verify_report_json_shape():
    report = decimation_verify(FluxPair(0.41, 0.13), 1)
    doc = json.loads(report.to_json())
    assert doc["all_pass"] is True
    assert doc["level"] == 1 and doc["tol"] == 1e-7
    assert {"lambda", "multiplicity", "kind", "ok", "note"} <= set(doc["entries"][0])


def test_verify_judges_case_iii_value():
    # on 3a + b = 1/2, Psi and D share the simple root 1 + cos(2 pi a)/2; the
    # counts on either side give it 3^(N-1) + m_(N-1) = 3 + 1 at level 2
    report = decimation_verify(FluxPair(0.1, 0.2), 2)
    assert report.all_pass
    assert all(e.ok is not None for e in report.entries)
    entry = min(report.entries, key=lambda e: abs(e.lam - (1 + math.cos(0.2 * math.pi) / 2)))
    assert (entry.kind, entry.mult, entry.ok) == ("d-root", 4, True)
    assert "tag=Indeterminate" in entry.note


@pytest.mark.parametrize(
    "level, flux",
    [
        (4, (0.08518526805075266, 0.24744098492908506)),
        (4, (0.999128539162579, 0.2093976318889128)),
        (4, (0.3790754208415891, 0.11373092728079992)),
        (5, (0.12380196114964559, 0.22323896460701453)),
    ],
)
def test_verify_green_in_near_degenerate_bands(level, flux):
    # bands whose images under U lie closer together than tol, or that
    # `spectrum` splits into clusters mapping into one reduced band
    report = decimation_verify(FluxPair(*flux), level)
    assert report.all_pass, [e for e in report.entries if e.ok is False]


@pytest.mark.parametrize("level, mult", [(3, 2), (4, 3)])
def test_verify_mixed_d_root_on_case_iii_line(level, mult):
    # the DZeroMixed root of (1/12, 1/4), where R'(lambda) = 0
    report = decimation_verify(FluxPair(1 / 12, 0.25), level)
    assert report.all_pass, [e for e in report.entries if e.ok is False]
    entry = min(report.entries, key=lambda e: abs(e.lam - 0.5669873))
    assert abs(entry.lam - 0.5669873) <= 1e-6
    assert (entry.kind, entry.mult, entry.ok) == ("d-root", mult, True)
    assert "tag=DZeroMixed" in entry.note


@pytest.mark.parametrize("flux, root", [((1 / 6, 0.0), 1.25), ((1 / 3, 0.5), 0.75)])
@pytest.mark.parametrize("level, mult", [(2, 3), (3, 11), (4, 30)])
def test_verify_judges_double_d_roots(flux, root, level, mult):
    # D has a double root where Psi vanishes too (DDoubleZero)
    report = decimation_verify(FluxPair(*flux), level)
    assert report.all_pass
    assert all(e.ok is not None for e in report.entries)
    entry = min(report.entries, key=lambda e: abs(e.lam - root))
    assert (entry.kind, entry.mult) == ("d-root", mult)
    assert "tag=DDoubleZero" in entry.note


def _theta_half(a, b, r):
    return a + 0.5, b + 0.5, r


@pytest.mark.parametrize(
    "mutate, flux, level",
    [
        (_theta_half, (0.41, 0.13), 3),
        (lambda a, b, r: (a, b, r + 1e-3), (0.41, 0.13), 3),
        (_theta_half, (0.37, 0.71), 7),
    ],
    ids=["theta+1/2", "R+1e-3", "theta+1/2-level7"],
)
def test_verify_goes_red_when_U_is_wrong(monkeypatch, mutate, flux, level):
    # theta + 1/2 moves both evolved fluxes by 3/2; the counts must notice.  At
    # level 7 both the spectrum and the reduced counts come from gluing, which
    # never reads U, while the prediction takes one step of U, so the check
    # still bites.  The verifier steps every cut in one `_step` call; the
    # mutation moves its alpha', beta' and R rows
    def wrong(flux, lam):
        st, d, theta, a, b, r = decimation._step(flux, lam)
        return (st, d, theta, *mutate(a, b, r))

    monkeypatch.setattr(enumerator, "_step", wrong)
    report = decimation_verify(FluxPair(*flux), level)
    assert not report.all_pass


_rng = random.Random(99)
# Case II (one dyadic flux), Case III (3 alpha + beta = 1/2) and generic fluxes
ORACLE_FLUXES = [(5 / 6, 0.0), (1 / 3, 0.5), (1 / 12, 0.25), (0.3, 0.0), (0.0, 0.3), (0.1, 0.2)]
ORACLE_FLUXES += [(_rng.random(), _rng.random()) for _ in range(4)]


@pytest.mark.parametrize("flux", ORACLE_FLUXES)
def test_batched_verify_equals_the_per_cut_oracle(flux):
    fp = FluxPair(*flux)
    for level in (1, 2, 3, 4):
        assert decimation_verify(fp, level).to_json() == per_cut_verify(fp, level).to_json(), level


def test_verify_keeps_the_note_of_a_terminated_cut(monkeypatch):
    # clusters at 1.0 and 1.5 put a cut on the exact Psi zero 1.25 of (0.3, 0),
    # where U has no R: the two clusters beside it are informational
    monkeypatch.setattr(enumerator, "spectrum", lambda op: operator.cluster(np.array([0.1, 1.0, 1.5, 1.9])))
    fp = FluxPair(0.3, 0.0)
    report = decimation_verify(fp, 2)
    assert report.to_json() == per_cut_verify(fp, 2).to_json()
    informational = [e for e in report.entries if e.kind == "informational"]
    assert [e.lam for e in informational] == [1.0, 1.5]
    for e in informational:
        assert e.ok is None
        assert "below 1.25: Psi = 0 at (alpha=0.3, beta=0.0, lambda=1.25)" in e.note, e.note


def test_verify_needs_the_half_turn_twist(monkeypatch):
    # where the real Psi is negative, theta = 1/2; a dyadic step that keeps the
    # signed quadratic and the untwisted fluxes there breaks sign phi = (-1)^k
    step = decimation._pair_step

    def untwisted(name, lam):
        d, theta, a, b, r = step(name, lam)
        (a0, b0), _, _ = decimation.QUADRATICS[name]
        plain_a, plain_b = np.full_like(a, (3 * a0 + b0) % 1.0), np.full_like(b, (3 * b0 + a0) % 1.0)
        return d, np.zeros_like(theta), plain_a, plain_b, np.where(a != plain_a, 2 - r, r)

    fluxes = [FluxPair(a, b) for a in (0.0, 0.5) for b in (0.0, 0.5)]
    for level in (2, 3, 4):
        assert all(decimation_verify(fp, level).all_pass for fp in fluxes), level
    monkeypatch.setattr(decimation, "_pair_step", untwisted)
    for level in (2, 3, 4):
        for fp in fluxes:
            assert not decimation_verify(fp, level).all_pass, (fp, level)


def test_verify_is_a_real_check_at_level_7():
    # observed counts from the level-7 gluing count (`decimation_eigenvalues`),
    # predicted ones from one step of U (`apply_U`) and the level-6 gluing count
    report = decimation_verify(FluxPair(0.37, 0.71), 7)
    assert report.all_pass, [e for e in report.entries if e.ok is False]
    assert all(e.ok is not None for e in report.entries)
    assert sum(e.mult for e in report.entries) == dim_n(7)


@pytest.mark.parametrize("flux", [(0.5, 0.0), (0.37, 0.71)])
def test_verify_is_green_at_level_8(flux):
    # 384 clusters at (1/2, 0) and 6,248 at (0.37, 0.71), each judged by counts
    report = decimation_verify(FluxPair(*flux), 8)
    assert report.all_pass, [e for e in report.entries if e.ok is False]
    assert all(e.ok is not None for e in report.entries)
    assert sum(e.mult for e in report.entries) == dim_n(8)


def test_verify_solves_one_operator(monkeypatch):
    # every name bound to `operator.eigenvalues` in the package counts its calls
    original, calls = operator.eigenvalues, []

    def counted(op):
        calls.append(op.dimension)
        return original(op)

    for module in [m for name, m in sys.modules.items() if name.startswith("sglap")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    assert decimation_verify(FluxPair(0.41, 0.13), 4).all_pass
    assert calls == [dim_n(4)]


def test_verify_level_guard():
    with pytest.raises(ValueError):
        decimation_verify(FluxPair(0.2, 0.2), 0)
