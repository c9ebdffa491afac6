import csv
import hashlib
import io
import math

import numpy as np
import pytest

from sglap.butterfly import BLOCK_CELLS, RasterConfig, Raster, render, write_raster
from sglap.decimation import OrbitTerminated, apply_U, u_step

from _reference import reference_cell


def _compare_with_reference(raster, beta_of):
    cfg = raster.config
    alphas, lambdas = cfg.alphas, cfg.lambdas
    for i, a in enumerate(alphas):
        for j, l in enumerate(lambdas):
            ret, it = reference_cell(
                float(a), beta_of(float(a)), float(l), cfg.threshold, cfg.max_iters
            )
            assert ret == bool(raster.retained[i, j]), (float(a), float(l))
            assert it == int(raster.escape_iter[i, j]), (float(a), float(l))


def test_engines_bitwise_identical():
    cfg = RasterConfig(grid_alpha=41, grid_lambda=41, max_iters=14)
    one = render(cfg)
    threaded = render(cfg, threads=3)
    assert np.array_equal(one.retained, threaded.retained)
    assert np.array_equal(one.escape_iter, threaded.escape_iter)


def test_diagonal_grid_matches_transliteration():
    cfg = RasterConfig(grid_alpha=31, grid_lambda=31, max_iters=16)
    _compare_with_reference(render(cfg), lambda a: a)


def test_fixed_beta_grid_matches_transliteration():
    cfg = RasterConfig(grid_alpha=21, grid_lambda=21, beta_mode=0.3, max_iters=12)
    _compare_with_reference(render(cfg), lambda a: 0.3)


def _policy_cell(al, be, lmd, th=10.0, num_iter=20, u2=False, diagonal=True):
    """The reference loop with the package's orbit policy: (retained, escape_iter, zero_hits).

    Line-for-line copy of reference_cell's arithmetic with two changes.  At an
    exact |Psi| = 0 (den == 0) the orbit continues through apply_U, which is
    exact at the dyadic flux pairs, and is retained where apply_U reports the
    map undefined.  With u2 the flux update is alpha <- 4 alpha mod 1, beta
    following alpha on the diagonal and staying fixed otherwise.  zero_hits
    counts the den == 0 steps, the cells where the reference itself is not
    the oracle.
    """
    count = zero_hits = 0
    while abs(lmd) < th:
        count += 1
        x = math.cos(2 * math.pi * al)
        xs = math.sin(2 * math.pi * al)
        y = math.cos(2 * math.pi * be)
        ys = math.sin(2 * math.pi * be)
        cosaplusb = x * y - xs * ys
        cosa2plusb = (x * x - xs * xs) * y - 2 * xs * x * ys
        sinaplusb = xs * y + x * ys
        sina2plusb = 2 * xs * x * y + ys * (x * x - xs * xs)
        A = 16 * lmd * lmd - (32 + 4 * x) * lmd + 15 + 4 * x + cosaplusb
        D = -(lmd * lmd * lmd) + 3 * lmd * lmd - 45 / 16 * lmd + 13 / 16 - y / 32
        re_psi = (
            (1 - lmd) * (1 - lmd)
            - 1 / 16
            + (1 - lmd) / 4 * (2 * x + cosa2plusb)
            + 1 / 16 * (x * x - xs * xs + 2 * cosaplusb)
        )
        im_psi = -(1 - lmd) / 4 * (2 * xs + sina2plusb) - 1 / 16 * (
            2 * x * xs + 2 * sinaplusb
        )
        theta = math.atan2(im_psi, re_psi)
        if count == num_iter:
            return True, -1, zero_hits
        den = 16 * math.sqrt(re_psi * re_psi + im_psi * im_psi)
        num = A - 64 * D * (1 - lmd)
        if den == 0.0:
            zero_hits += 1
            try:
                al_next, be_next, lmd = apply_U(al, be, lmd)
            except OrbitTerminated:
                return True, -1, zero_hits
        else:
            lmd = 1 + num / den
            al_dummy = al
            be_dummy = be
            al_next = (3 * al_dummy + be_dummy + 3 * theta / 2 / math.pi) % 1.0
            be_next = (3 * be_dummy + al_dummy - 3 * theta / 2 / math.pi) % 1.0
        if u2:
            al = (4 * al) % 1.0
            be = al if diagonal else be
        else:
            al, be = al_next, be_next
    return False, count, zero_hits


def _compare_with_policy(raster):
    """Every cell equals _policy_cell; returns the number of den == 0 cells."""
    cfg = raster.config
    diagonal = cfg.beta_mode == "diagonal"
    zero_cells = 0
    for i, a in enumerate(cfg.alphas):
        a = float(a)
        for j, l in enumerate(cfg.lambdas):
            b = a if diagonal else float(cfg.beta_mode)
            ret, it, hits = _policy_cell(
                a, b, float(l), cfg.threshold, cfg.max_iters, cfg.map == "U2", diagonal
            )
            assert ret == bool(raster.retained[i, j]), (a, float(l))
            assert it == int(raster.escape_iter[i, j]), (a, float(l))
            zero_cells += hits > 0
    return zero_cells


def test_exact_psi_zero_policy_diverges_from_reference_deliberately():
    # beta = 0, lambda = 5/4 makes |Psi| exactly 0.0 in floats.  The reference
    # poisons lambda with nan/inf, so those cells escape at the current count.
    # The engine instead treats an exact Psi zero as orbit data: continue
    # through the removable singularity when the flux pair is dyadic, retain
    # the cell when the map is genuinely undefined there.  Every cell must
    # equal the policy oracle, which is the reference loop wherever the orbit
    # never touches den == 0, under both maps.
    for map_ in ("U", "U2"):
        cfg = RasterConfig(
            grid_alpha=11, grid_lambda=9, lambda_min=0.0, lambda_max=2.0, beta_mode=0.0, map=map_
        )
        assert 1.25 in cfg.lambdas
        r = render(cfg)
        assert _compare_with_policy(r) > 0  # the lambda = 5/4 column must exercise the policy
        j = list(cfg.lambdas).index(1.25)
        for i, a in enumerate(cfg.alphas):
            a = float(a)
            if map_ == "U":
                for l in cfg.lambdas:
                    if _policy_cell(a, 0.0, float(l), diagonal=False)[2]:
                        assert not reference_cell(a, 0.0, float(l))[0]  # escaped via nan/inf
            # non-dyadic alpha with a zero at the first step: map undefined, cell retained
            if a not in (0.0, 0.5, 1.0) and _policy_cell(a, 0.0, 1.25, num_iter=2)[2]:
                assert bool(r.retained[i, j]) and int(r.escape_iter[i, j]) == -1


def test_multi_block_render_is_bitwise_across_threads():
    # more cells than BLOCK_CELLS, so every thread count splits the rows into
    # blocks (3, 4 and 3 of them), and the lambda = 5/4 column at beta = 0 puts
    # exact Psi zeros in each: continued orbits at the dyadic alphas 0, 1/2, 1
    # and orbits terminated at the others, under both maps
    for map_ in ("U", "U2"):
        cfg = RasterConfig(grid_alpha=129, grid_lambda=257, beta_mode=0.0, map=map_)
        assert cfg.grid_alpha * cfg.grid_lambda > BLOCK_CELLS
        j = list(cfg.lambdas).index(1.25)
        rasters = [render(cfg, threads=t) for t in (1, 2, 3)]
        for r in rasters[1:]:
            assert np.array_equal(r.retained, rasters[0].retained)
            assert np.array_equal(r.escape_iter, rasters[0].escape_iter)
        r = rasters[0]
        rng = np.random.default_rng(17)
        cells = [(i, j) for i in range(cfg.grid_alpha)]
        cells += [(int(i), int(k)) for i, k in zip(rng.integers(cfg.grid_alpha, size=64), rng.integers(cfg.grid_lambda, size=64))]
        zero_rows = set()
        for i, k in cells:
            a, l = float(cfg.alphas[i]), float(cfg.lambdas[k])
            ret, it, hits = _policy_cell(a, 0.0, l, cfg.threshold, cfg.max_iters, map_ == "U2", diagonal=False)
            assert (ret, it) == (bool(r.retained[i, k]), int(r.escape_iter[i, k])), (map_, a, l)
            if hits and k == j:
                zero_rows.add(i)
        for parts in (3, 4):
            for rows in np.array_split(np.arange(cfg.grid_alpha), parts):
                assert zero_rows & set(rows.tolist())
        assert {0, 64, 128} <= zero_rows  # the dyadic alphas continue through the zero
        # a non-dyadic alpha whose first step meets the zero is retained at once
        assert any(_policy_cell(float(cfg.alphas[i]), 0.0, 1.25, num_iter=2)[2] and r.escape_iter[i, j] == -1
                   for i in zero_rows - {0, 64, 128})


@pytest.mark.parametrize("map_", ["U", "U2"])
def test_short_orbits_match_the_policy(map_):
    # the last step computes lambda alone, since nothing reads its fluxes, also
    # where it meets an exact Psi zero (beta = 0, the lambda = 5/4 column)
    for iters in (1, 2, 3):
        for beta_mode in ("diagonal", 0.0):
            cfg = RasterConfig(grid_alpha=13, grid_lambda=9, max_iters=iters, map=map_, beta_mode=beta_mode)
            _compare_with_policy(render(cfg))


# sha256 of escape_iter (int32, little-endian, C order) of the benchmark's six
# rasters, its four fixed betas at the offset 0.29, and of U2 at beta = 0.3, as
# rendered when every cell was stepped through u_step; retained is escape_iter < 0
_OFFSET = 0.29
_PINNED = {
    "U-diagonal": (RasterConfig(301, 301), "01986a94dd099c7555afcd34f12b8f5a26d09891985e2221fe5660cae93e5a05"),
    "U-beta0": (RasterConfig(151, 151, beta_mode=_OFFSET / 4),
                "cfccf4e50c497b1c20f024de54891d4a86fa3dbc5b4a52619f9e9ced0190bce2"),
    "U-beta1": (RasterConfig(151, 151, beta_mode=(1 + _OFFSET) / 4),
                "0b737f8b7eaebb316a351bd5909d5a606ca28291bb8e575ffa9831d2d16c87f2"),
    "U-beta2": (RasterConfig(151, 151, beta_mode=(2 + _OFFSET) / 4),
                "d9097d0a27b792c54bccf176c48e51fc27e6181d8cde1b7572e13a78c92378c2"),
    "U-beta3": (RasterConfig(151, 151, beta_mode=(3 + _OFFSET) / 4),
                "8e302a8ad1915b752dfdeeea29725302459145fe704123c25345f59431c67e59"),
    "U2-diagonal": (RasterConfig(301, 301, map="U2"),
                    "1fb73eb867a343d9fb976c2e82ef48e56dddeae6bbfda5fc89ce49b25b3ad7ca"),
    "U2-beta0.3": (RasterConfig(151, 151, map="U2", beta_mode=0.3),
                   "3fb40bbcac8128e4f1d5ffc5a65974b635f30e4376f57e820aa5dc066d0edf13"),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_full_size_rasters_are_pinned(name):
    cfg, digest = _PINNED[name]
    for threads in (1, 2):
        r = render(cfg, threads=threads)
        assert np.array_equal(r.retained, r.escape_iter < 0)
        assert hashlib.sha256(r.escape_iter.astype("<i4").tobytes()).hexdigest() == digest, threads


def test_u_step_is_the_reference_step_bitwise():
    # u_step shares subexpressions of the reference's arithmetic; each shared
    # value keeps the operation order of what it replaces, so every output is
    # the reference's to the bit
    rng = np.random.default_rng(3)
    alphas, betas = rng.uniform(0.0, 1.0, (2, 2000))
    lams = np.concatenate([rng.uniform(-1.0, 3.0, 1000), rng.uniform(-1e6, 1e6, 1000)])
    st = u_step(alphas, betas, lams)
    alpha_down, beta_down, arg = st.evolved()
    got = np.array([st.A, st.D, st.re, st.im, arg, st.R, alpha_down, beta_down])
    for n, (al, be, lmd) in enumerate(zip(alphas.tolist(), betas.tolist(), lams.tolist())):
        x = math.cos(2 * math.pi * al)
        xs = math.sin(2 * math.pi * al)
        y = math.cos(2 * math.pi * be)
        ys = math.sin(2 * math.pi * be)
        cosaplusb = x * y - xs * ys
        cosa2plusb = (x * x - xs * xs) * y - 2 * xs * x * ys
        sinaplusb = xs * y + x * ys
        sina2plusb = 2 * xs * x * y + ys * (x * x - xs * xs)
        A = 16 * lmd * lmd - (32 + 4 * x) * lmd + 15 + 4 * x + cosaplusb
        D = -(lmd * lmd * lmd) + 3 * lmd * lmd - 45 / 16 * lmd + 13 / 16 - y / 32
        re_psi = (
            (1 - lmd) * (1 - lmd)
            - 1 / 16
            + (1 - lmd) / 4 * (2 * x + cosa2plusb)
            + 1 / 16 * (x * x - xs * xs + 2 * cosaplusb)
        )
        im_psi = -(1 - lmd) / 4 * (2 * xs + sina2plusb) - 1 / 16 * (
            2 * x * xs + 2 * sinaplusb
        )
        theta = math.atan2(im_psi, re_psi)
        den = 16 * math.sqrt(re_psi * re_psi + im_psi * im_psi)
        num = A - 64 * D * (1 - lmd)
        want = [A, D, re_psi, im_psi, theta, 1 + num / den,
                (3 * al + be + 3 * theta / 2 / math.pi) % 1.0, (3 * be + al - 3 * theta / 2 / math.pi) % 1.0]
        assert np.array_equal(got[:, n].view(np.int64), np.array(want).view(np.int64)), (al, be, lmd)


def test_u2_map_renders_and_differs_from_u():
    for beta_mode in ("diagonal", 0.3):
        cfg_u = RasterConfig(grid_alpha=61, grid_lambda=61, beta_mode=beta_mode)
        cfg_u2 = RasterConfig(grid_alpha=61, grid_lambda=61, map="U2", beta_mode=beta_mode)
        r_u, r_u2 = render(cfg_u), render(cfg_u2)
        assert r_u.retained_count != r_u2.retained_count
        _compare_with_policy(r_u2)


def test_config_validation():
    with pytest.raises(ValueError, match="grid"):
        RasterConfig(grid_alpha=1)
    with pytest.raises(ValueError, match="threshold"):
        RasterConfig(threshold=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        RasterConfig(max_iters=0)
    with pytest.raises(ValueError, match="unknown map"):
        RasterConfig(map="V")
    with pytest.raises(ValueError, match="beta_mode"):
        RasterConfig(beta_mode="perpendicular")


def test_pgm_export(tmp_path):
    cfg = RasterConfig(grid_alpha=23, grid_lambda=19, max_iters=8)
    r = render(cfg)
    path = tmp_path / "b.pgm"
    write_raster(r, "pgm", str(path))
    data = path.read_bytes()
    header = b"P5\n23 19\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 23 * 19
    img = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(19, 23)
    # top image row is lambda_max; black pixels are retained cells
    assert np.array_equal(img[::-1].T == 0, r.retained)
    assert set(np.unique(img)) <= {0, 255}
    # identical configs give identical bytes
    write_raster(render(cfg), "pgm", str(tmp_path / "b2.pgm"))
    assert (tmp_path / "b2.pgm").read_bytes() == data


def test_csv_export_round_trip(tmp_path):
    cfg = RasterConfig(grid_alpha=7, grid_lambda=5, max_iters=6)
    r = render(cfg)
    path = tmp_path / "b.csv"
    write_raster(r, "csv", str(path))
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 7 * 5
    for k, row in enumerate(rows):
        i, j = divmod(k, 5)
        assert float(row["alpha"]) == cfg.alphas[i]
        assert float(row["lambda"]) == cfg.lambdas[j]
        assert int(row["retained"]) == int(r.retained[i, j])
        if row["escape_iter"] == "":
            assert r.retained[i, j]
        else:
            assert int(row["escape_iter"]) == r.escape_iter[i, j]


def test_write_raster_rejects_unknown_format(tmp_path):
    r = render(RasterConfig(grid_alpha=4, grid_lambda=4))
    with pytest.raises(ValueError, match="unknown raster format"):
        write_raster(r, "png", str(tmp_path / "x.png"))
