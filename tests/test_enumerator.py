import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglap.decimation import QUADRATICS, classify, quadratic_r
from sglap.enumerator import (
    decimation_verify,
    multiplicity_transfer,
    quadratic_preimages,
    spectrum_closed_form,
)
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


def test_multiplicity_transfer_dispatch():
    tag = classify(FluxPair(0.3, 0.3), 0.4)  # Regular
    assert multiplicity_transfer(tag, 7, 3, 0) == 7
    tag = classify(FluxPair(0.0, 0.0), 1.5)  # PhiZero: full previous level
    assert multiplicity_transfer(tag, 0, 2, 0) == dim_n(1)
    tag = classify(FluxPair(0.5, 0.0), 0.5)  # DNotSingular, root_mult 1
    assert multiplicity_transfer(tag, 2, 2, tag.root_mult) == 3 + 2
    line_tag = classify(FluxPair(0.1, 0.2), 1 + math.cos(2 * math.pi * 0.1) / 2)
    with pytest.raises(ValueError, match="unresolved"):
        multiplicity_transfer(line_tag, 0, 2, 1)
    with pytest.raises(ValueError, match="negative"):
        tag = classify(FluxPair(0.0, 0.0), 1.25)  # DZeroVanishing
        multiplicity_transfer(tag, 0, 1, 1)  # 1 - 3 + 0 < 0


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
    # 1.1345089, where R and theta are steep: each lands on its own reduced
    # operator as a simple eigenvalue, so the cluster mean must not be mapped
    report = decimation_verify(FluxPair(0.8152735957996344, 0.11995139405945265), 3)
    entry = min(report.entries, key=lambda e: abs(e.lam - 1.134864))
    assert abs(entry.lam - 1.134864) <= 1e-6
    assert entry.kind == "regular" and entry.mult == 2
    assert entry.ok, entry.note
    images = re.findall(r"R=(\S+) at \((\S+), (\S+)\)", entry.note)
    assert len(images) == 2 and len(set(images)) == 2, entry.note


def test_verify_s3_multiplicity_at_dyadic_alpha():
    # alpha in {0, 1/2} pins a symmetry eigenvalue with multiplicity (3^N+3)/2
    report = decimation_verify(FluxPair(0.5, 0.37), 2)
    assert report.all_pass
    s3 = [e for e in report.entries if e.kind == "s3"]
    assert len(s3) == 1 and s3[0].mult == (3**2 + 3) // 2
    assert math.isclose(s3[0].lam, 0.5, abs_tol=1e-6)


def test_verify_report_json_shape():
    report = decimation_verify(FluxPair(0.41, 0.13), 1)
    doc = json.loads(report.to_json())
    assert doc["all_pass"] is True
    assert doc["level"] == 1 and doc["tol"] == 1e-7
    assert {"lambda", "multiplicity", "kind", "ok", "note"} <= set(doc["entries"][0])


def test_verify_case_iii_line_is_informational():
    # on 3a + b = 1/2 the shared D/Psi root cannot be auto-resolved; the
    # report must say so rather than assert something it cannot check
    report = decimation_verify(FluxPair(0.1, 0.2), 2)
    kinds = {e.kind for e in report.entries}
    assert "informational" in kinds
    for e in report.entries:
        if e.kind == "informational":
            assert e.ok is None


def test_verify_level_guard():
    with pytest.raises(ValueError):
        decimation_verify(FluxPair(0.2, 0.2), 0)
