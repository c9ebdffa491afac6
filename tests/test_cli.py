"""End-to-end tests of the sg command line: exit codes, payloads, manifests.

Everything goes through cli.main(argv) rather than a subprocess so coverage
and monkeypatching work; main() is exactly what the console script calls.
"""

import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sglap import cli
from sglap.decimation import cell_cubic_d, decimation_kit
from sglap.gauge import FluxPair


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, (code, err)
    return json.loads(out)


def test_help_and_version_exit_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for sub in ("spectrum", "verify", "kit", "butterfly", "det", "complexity", "crsf"):
        assert sub in out
    code, out, _ = run(capsys, "--version")
    assert code == 0 and "sg" in out


def test_unknown_option_exits_two(capsys):
    code, _, err = run(capsys, "spectrum", "--alpha", "0", "--beta", "0",
                       "--level", "1", "--bogus")
    assert code == 2
    assert "--bogus" in err


def test_fraction_flags_byte_identical(capsys):
    _, out_frac, _ = run(capsys, "kit", "--alpha", "1/2", "--beta", "1/2",
                         "--lambda", "3/4")
    _, out_dec, _ = run(capsys, "kit", "--alpha", "0.5", "--beta", "0.5",
                        "--lambda", "0.75")
    assert out_frac == out_dec
    # a Psi zero of the dyadic pair (1/2, 1/2): the exact step, not sin(pi) noise
    payload = json.loads(out_frac)
    assert (payload["theta"], payload["R"], payload["alpha_down"], payload["beta_down"]) == (0, 0, 0, 0)


def test_kit_prints_strict_json_for_an_escaped_lambda(capsys):
    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    code, out, _ = run(capsys, "kit", "--alpha", "0.3", "--beta", "0.1", "--lambda", "1e200")
    assert code == 0
    payload = json.loads(out, parse_constant=refuse)
    assert payload["A"] is None and payload["D"] is None and payload["Psi"]["re"] is None
    assert payload["R"] is None and payload["phi"] is None


def test_kit_prints_null_theta_at_an_exact_psi_zero(capsys):
    # Psi = 0 exactly at (0.3, 0, 5/4), off the dyadic grid: no theta, R or evolved flux
    payload = run_json(capsys, "kit", "--alpha", "0.3", "--beta", "0", "--lambda", "1.25")
    assert payload["Psi"] == {"re": 0.0, "im": 0.0}
    for key in ("theta", "R", "alpha_down", "beta_down"):
        assert payload[key] is None, key


@pytest.mark.parametrize("alpha, beta, double", [("1/6", 0.0, 1.25), ("5/6", 0.0, 1.25), ("1/3", 0.5, 0.75)])
def test_kit_phi_has_the_sign_of_the_exact_d_beside_a_double_root(capsys, alpha, beta, double):
    # the expanded cubic has the wrong sign up to 2e-8 from D's double root
    # (+4.4e-16 at 1.25 + 1e-8, where the exact D is -7.5e-17, and 0 at
    # 1.25 - 1e-8); the kit's D, and so phi, must have the exact sign there
    for lam in (double + s * e for s in (-1, 1) for e in (1e-9, 1e-8, 3e-8)):
        exact = cell_cubic_d(beta, lam)
        kit = decimation_kit(FluxPair(float(Fraction(alpha)), beta), lam)
        assert exact != 0 and np.sign(kit.D) == np.sign(exact), (alpha, lam, kit.D, exact)
        payload = run_json(capsys, "kit", "--alpha", alpha, "--beta", repr(beta), "--lambda", repr(lam))
        assert payload["lambda"] == lam
        assert payload["phi"] is not None and np.sign(payload["phi"]) == np.sign(exact), (alpha, lam, payload)


def test_spectrum_both_reports_match(capsys):
    payload = run_json(capsys, "spectrum", "--alpha", "1/2", "--beta", "0",
                       "--level", "2")
    assert payload["method"] == "both"
    assert payload["match"]["ok"] is True
    assert payload["match"]["max_eigenvalue_gap"] <= 1e-8
    total = sum(m for _, m in ((p["eigenvalue"], p["multiplicity"])
                               for p in payload["dense"]))
    assert total == 15  # (3^3 + 3) / 2


def test_spectrum_nondyadic_closed_form_is_usage_error(capsys):
    code, _, err = run(capsys, "spectrum", "--alpha", "0.3", "--beta", "0.1",
                       "--level", "1", "--method", "closed-form")
    assert code == 2
    assert "closed-form" in err or "decimation_verify" in err


def test_verify_passes_and_fails(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--alpha", "0.3", "--beta", "0.12",
                       "--level", "2")
    assert code == 0
    assert json.loads(out)["all_pass"] is True
    code, _, err = run(capsys, "verify", "--alpha", "0.3", "--beta", "0.12",
                       "--level", "2", "--tol", "1e-7")
    assert code == 2 and "--tol" in err

    class FakeReport:
        all_pass = False

        def to_json(self):
            return json.dumps({"all_pass": False, "entries": []})

    from sglap import enumerator

    monkeypatch.setattr(enumerator, "decimation_verify",
                        lambda *a, **k: FakeReport())
    code, out, _ = run(capsys, "verify", "--alpha", "0.3", "--beta", "0.12",
                       "--level", "2")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_kit_refuses_a_lambda_too_large_for_a_float(capsys):
    code, out, err = run(capsys, "kit", "--alpha", "0.3", "--beta", "0.1", "--lambda", "1e400")
    assert code == 2 and out == ""
    assert "too large for a float" in err


def test_kit_payload(capsys):
    payload = run_json(capsys, "kit", "--alpha", "0.3", "--beta", "0.3",
                       "--lambda", "0.4")
    for key in ("A", "D", "Psi", "absPsi", "theta", "R", "phi",
                "alpha_down", "beta_down", "classification"):
        assert key in payload, key
    assert payload["classification"]["case"] == "Regular"
    # evolved flux folds into [0, 1)
    assert 0 <= payload["alpha_down"] < 1 and 0 <= payload["beta_down"] < 1


def test_butterfly_pgm_manifest_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.pgm"
    code, echo, _ = run(capsys, "butterfly", "--grid", "21", "--iters", "8",
                        "--out", str(out1))
    assert code == 0
    summary = json.loads(echo)
    assert summary["grid"] == 21 and summary["retained"] > 0
    data1 = out1.read_bytes()
    assert data1.startswith(b"P5\n21 21\n255\n")
    man1 = json.loads((tmp_path / "a.pgm.manifest.json").read_text())
    assert man1["subcommand"] == "butterfly"
    assert man1["flags"]["grid"] == 21
    assert man1["flags"]["map"] == "U"  # trailing-underscore param recorded by flag name
    assert man1["outputs"] == [str(out1)]

    out2 = tmp_path / "b.pgm"
    code, _, _ = run(capsys, "butterfly", "--grid", "21", "--iters", "8",
                     "--out", str(out2))
    assert code == 0
    assert out2.read_bytes() == data1
    man2 = json.loads((tmp_path / "b.pgm.manifest.json").read_text())
    for doc in (man1, man2):
        doc.pop("wall_time_s")
        doc["outputs"] = [x.rsplit("/", 1)[-1] for x in doc["outputs"]]
        doc["flags"]["out"] = doc["flags"]["out"].rsplit("/", 1)[-1]
    man2["flags"]["out"] = man1["flags"]["out"] = None
    man2["outputs"] = man1["outputs"] = None
    assert man1 == man2


def test_butterfly_rejects_unknown_suffix(capsys, tmp_path):
    code, _, err = run(capsys, "butterfly", "--grid", "11", "--iters", "4",
                       "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert ".pgm or .csv" in err


def test_butterfly_has_one_engine(capsys, tmp_path):
    code, _, err = run(capsys, "butterfly", "--grid", "11", "--iters", "4",
                       "--engine", "scalar", "--out", str(tmp_path / "x.pgm"))
    assert code == 2
    assert "--engine" in err


def test_det_trees_prints_counts_past_the_int_to_str_limit(capsys):
    # the level-8 count has 4481 digits, past Python's default 4300
    payload = run_json(capsys, "det", "--case", "trees", "--level", "8")
    digits = payload["tree_count"]
    count = 1
    for base, exp in payload["exact_factors"]:
        count *= int(base) ** int(exp)
    assert digits.isdigit() and int(Decimal(digits)) == count
    log10 = sum(int(e) * math.log10(int(b)) for b, e in payload["exact_factors"])
    assert len(digits) == math.floor(log10) + 1 > sys.get_int_max_str_digits()


def test_det_trees_and_small_level_guard(capsys):
    payload = run_json(capsys, "det", "--case", "trees", "--level", "1")
    assert payload["tree_count"] == "54"
    payload = run_json(capsys, "det", "--case", "half-zero", "--level", "1")
    assert abs(payload["log_magnitude"] - math.log(49 / 128)) < 1e-12
    code, _, err = run(capsys, "det", "--case", "half-zero", "--level", "0")
    assert code == 2 and "level 0 is refused" in err
    payload = run_json(capsys, "det", "--case", "half-zero", "--level", "2")
    want = math.log(5 * 7**3 * 17**2) - 22 * math.log(2)
    assert abs(payload["log_magnitude"] - want) < 1e-10
    code, _, err = run(capsys, "det", "--case", "half-zero", "--level", "2",
                       "--allow-small-n")
    assert code == 2 and "--allow-small-n" in err


def test_complexity_payload(capsys):
    payload = run_json(capsys, "complexity", "--case", "zero-zero")
    assert abs(payload["log_complexity_per_site"] - 1.0485907) < 1e-5
    assert payload["loop_entropy"] == 0.0 and payload["lower_bound"] is True
    payload = run_json(capsys, "complexity", "--case", "half-half")
    assert abs(payload["log_complexity_per_site"] - 1.2638853) < 1e-5
    assert abs(payload["loop_entropy"] - 0.21529) < 2e-5


def test_crsf_partition_pin(capsys):
    payload = run_json(capsys, "crsf", "partition", "--level", "1",
                       "--alpha", "1/2", "--beta", "1/2")
    assert abs(payload["partition_re"] - 25 / 64) < 1e-12
    assert abs(payload["partition_im"]) < 1e-10
    assert payload["dimension"] == 6


def test_crsf_partition_size_cap(capsys):
    code, _, err = run(capsys, "crsf", "partition", "--level", "2",
                       "--alpha", "0.1", "--beta", "0.1")
    assert code == 2
    assert "enumeration" in err.lower() or "exceeds" in err


def test_crsf_sample_jsonl_reproducible(capsys):
    args = ("crsf", "sample", "--level", "1", "--alpha", "0.05",
            "--beta", "0.05", "--samples", "3", "--seed", "5")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    lines = out1.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        succ = json.loads(line)
        assert len(succ) == 6 and all(isinstance(x, int) for x in succ)
    code, out2, _ = run(capsys, *args)
    assert out2 == out1


def test_crsf_sample_refuses_out_of_window_flux(capsys):
    code, _, err = run(capsys, "crsf", "sample", "--level", "1",
                       "--alpha", "0.3", "--beta", "0")
    assert code == 2
    assert "outside" in err


def test_graph_export_shapes(capsys):
    payload = run_json(capsys, "graph-export", "--level", "1")
    assert len(payload["vertices"]) == 6
    assert len(payload["edges"]) == 9
    payload = run_json(capsys, "graph-export", "--level", "1",
                       "--alpha", "0.2", "--beta", "0.1", "--what", "connection")
    assert len(payload) == 18  # one phase per directed edge
    code, out, _ = run(capsys, "graph-export", "--level", "1", "--what", "matrix")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 1 + 6 + 18


def test_level_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("SG_MAX_LEVEL", "2")
    code, _, err = run(capsys, "spectrum", "--alpha", "0", "--beta", "0",
                       "--level", "3", "--method", "dense")
    assert code == 2
    assert "exceeds maximum" in err


def test_dense_size_cap_is_a_usage_error(capsys):
    # level 8 at a Case II flux goes to the dense path, which refuses it
    code, _, err = run(capsys, "spectrum", "--alpha", "1/6", "--beta", "0",
                       "--level", "8", "--method", "dense")
    assert code == 2
    assert "exceeds the cap" in err
