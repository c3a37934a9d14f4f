"""Tests for the versioned output files and the command-line front end."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhdeg
from nhdeg.cli import main
from nhdeg.model import ModelParams, save_params
from nhdeg.scanner import ScalarField, scan_discriminant
from nhdeg.serialize import (FORMAT, read_vector_field_csv,
                             write_vector_field_csv)


@pytest.fixture
def regime1_file(tmp_path):
    path = tmp_path / "regime1.txt"
    save_params(ModelParams(gamma=0.5, gx=0.5, gy=0.3), path)
    return path


@pytest.fixture
def regime3_file(tmp_path):
    path = tmp_path / "regime3.txt"
    save_params(ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0), path)
    return path


@pytest.fixture
def gapped_file(tmp_path):
    path = tmp_path / "gapped.txt"
    save_params(ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5), path)
    return path


# ---------------------------------------------------------------------------
# serialization

def test_vector_field_roundtrip_synthetic(tmp_path):
    kx = np.linspace(-np.pi, np.pi, 3, endpoint=False)
    vals = (np.arange(9, dtype=float) + 1j * np.arange(9)[::-1]).reshape(3, 3)
    fld = ScalarField(kx=kx, ky=kx, values=vals)
    path = tmp_path / "field.csv"
    write_vector_field_csv(path, fld)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# format={FORMAT}"
    assert lines[1] == "kx,ky,re_eta,im_eta"
    assert len(lines) == 2 + 9
    back = read_vector_field_csv(path)
    assert np.array_equal(back.values, vals)
    assert np.array_equal(back.kx, kx)


def test_vector_field_roundtrip_model(tmp_path):
    fld = scan_discriminant(ModelParams(gamma=0.4, gx=0.2, gy=0.1), 24, 24)
    path = tmp_path / "field.csv"
    write_vector_field_csv(path, fld)
    back = read_vector_field_csv(path)
    assert np.array_equal(back.values, fld.values)  # bit-exact round trip


def test_vector_field_supports_flow_reversal_detection(tmp_path):
    # with a vanishing Peierls phase the discriminant is real and changes
    # sign across the exceptional curves: the exported rows must show the
    # reversal of the (re_eta, im_eta) vector along a momentum row
    p = ModelParams(gamma=0.0, gx=0.5, gy=0.3)
    fld = scan_discriminant(p, 64, 64)
    path = tmp_path / "field.csv"
    write_vector_field_csv(path, fld)
    back = read_vector_field_csv(path)
    assert np.abs(back.values.imag).max() < 1e-12
    row = back.values[32].real  # a cut at fixed ky crossing the curves
    signs = np.sign(row[np.abs(row) > 1e-12])
    assert np.any(signs[:-1] != signs[1:])


def test_vector_field_csv_matches_row_writer(tmp_path):
    # the earlier one-row-at-a-time writer, kept as a byte oracle
    rng = np.random.default_rng(3)
    kx, ky = np.linspace(-np.pi, np.pi, 7, endpoint=False), np.sort(rng.uniform(-3, 3, 5))
    values = (rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-300, 300, (5, 7))
              + 1j * rng.standard_normal((5, 7)))
    values[0, :3] = [0.0, -0.0, complex(-0.0, -0.0)]
    fld = ScalarField(kx=kx, ky=ky, values=values)
    path = tmp_path / "field.csv"
    write_vector_field_csv(path, fld)
    expected = f"# format={FORMAT}\nkx,ky,re_eta,im_eta\n" + "".join(
        f"{float(kx[ix])!r},{float(ky[iy])!r},{float(values[iy, ix].real)!r},"
        f"{float(values[iy, ix].imag)!r}\n" for iy in range(5) for ix in range(7))
    assert path.read_text() == expected


def test_vector_field_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# format=other/9\nkx,ky,re_eta,im_eta\n")
    with pytest.raises(ValueError, match="format"):
        read_vector_field_csv(path)


# ---------------------------------------------------------------------------
# CLI commands

def test_cli_usage_error_exit_code():
    assert main(["scan"]) == 2  # missing --params
    assert main(["no-such-command"]) == 2


def test_cli_bad_params_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense = 1\n")
    assert main(["scan", "--params", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_theorem(tmp_path):
    out = tmp_path / "out"
    rc = main(["theorem", "--trials", "40", "--max-dim", "5",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "theorem.json").read_text())
    assert doc["format"] == FORMAT
    assert doc["passed"] is True
    assert doc["trials"] == 40


def test_cli_theorem_zero_trials(tmp_path):
    assert main(["theorem", "--trials", "0", "--out", str(tmp_path)]) == 0


def test_cli_theorem_defective_injection(tmp_path):
    rc = main(["theorem", "--trials", "8", "--min-dim", "4", "--max-dim", "4",
               "--inject-defective", "--out", str(tmp_path)])
    assert rc == 0  # all rejected, which is the expected outcome
    doc = json.loads((tmp_path / "theorem.json").read_text())
    assert doc["rejected_defective"] == 8


def test_cli_scan_regime1(tmp_path, regime1_file):
    out = tmp_path / "scan"
    rc = main(["scan", "--params", str(regime1_file), "--nx", "151",
               "--ny", "151", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "degeneracies.json").read_text())
    assert doc["format"] == FORMAT
    kinds = [pt["kind"] for pt in doc["points"]]
    assert kinds == ["nondefective"] * 4
    assert (out / "field.csv").exists()


def test_cli_scan_fold(tmp_path, regime3_file):
    out = tmp_path / "fold"
    rc = main(["scan", "--params", str(regime3_file), "--nx", "151",
               "--ny", "151", "--fold-bz", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "degeneracies.json").read_text())
    assert doc["fold_bz"] is True


def test_cli_symmetry(tmp_path, regime1_file):
    out = tmp_path / "sym"
    rc = main(["symmetry", "--params", str(regime1_file), "--nx", "10",
               "--ny", "10", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "symmetry.json").read_text())
    assert "upsilon" in doc["holding"]
    rep = doc["reports"]["upsilon"]
    assert rep["holds"] is True
    assert rep["right_residual"] < 1e-10


def test_cli_phases(tmp_path, gapped_file):
    out = tmp_path / "ph"
    rc = main(["phases", "--params", str(gapped_file), "--v-steps", "11",
               "--g-steps", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "phases.csv").read_text().splitlines()
    assert lines[0] == f"# format={FORMAT}"
    assert lines[1] == "g,v,v1,v2,phase"
    assert len(lines) == 2 + 11 * 3
    labels = {ln.split(",")[-1] for ln in lines[2:]}
    assert labels <= {"band_insulator", "topological_insulator",
                      "boundary_gapless"}
    # numeric fields are plain float reprs, not numpy scalar reprs
    for ln in lines[2:]:
        assert all(math.isfinite(float(f)) for f in ln.split(",")[:4])


def test_cli_phases_t1_zero_single_phase(tmp_path):
    pf = tmp_path / "p.txt"
    save_params(ModelParams(t1=0.0, gamma=0.5), pf)
    out = tmp_path / "ph0"
    rc = main(["phases", "--params", str(pf), "--v-steps", "10",
               "--g-steps", "2", "--v-min", "0.5", "--v-max", "6.0",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "phases.csv").read_text().splitlines()[2:]
    assert {ln.split(",")[-1] for ln in lines} == {"band_insulator"}


def test_cli_ribbon(tmp_path, regime3_file):
    out = tmp_path / "rib"
    rc = main(["ribbon", "--params", str(regime3_file), "--axis", "x",
               "--n-cells", "16", "--k-samples", "6", "--out", str(out),
               "--dump-vectors"])
    assert rc == 0
    doc = json.loads((out / "localization.json").read_text())
    assert doc["format"] == FORMAT
    assert doc["zero_mode_overlap"] > 0.99
    lines = (out / "bands.csv").read_text().splitlines()
    assert lines[1] == "k,index,re_e,im_e,edge_flag"
    assert len(lines) > 2 + 6 * 32  # band rows plus the eigenvector dump
    # numeric fields are plain float reprs, not numpy scalar reprs
    for ln in lines[2:2 + 6 * 32]:
        k, index, re_e, im_e, _ = ln.split(",")
        assert int(index) in range(32)
        assert all(math.isfinite(float(f)) for f in (k, re_e, im_e))
    dump = [ln for ln in lines if ln.startswith("# |psi|")]
    assert len(dump) == 6 * 32
    for ln in dump:
        assert all(math.isfinite(float(f)) for f in ln.split(": ", 1)[1].split(";"))


def test_cli_determinism(tmp_path, regime1_file):
    # identical configs produce byte-identical outputs
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["scan", "--params", str(regime1_file), "--nx", "101",
                   "--ny", "101", "--seed", "7", "--out", str(out)])
        assert rc == 0
    for name in ("degeneracies.json", "field.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    for out in (out_a, out_b):
        rc = main(["theorem", "--trials", "25", "--seed", "11",
                   "--out", str(out)])
        assert rc == 0
    assert (out_a / "theorem.json").read_bytes() == \
        (out_b / "theorem.json").read_bytes()


def test_runtime_imports_no_scipy():
    # the package needs numpy only; scipy is a test extra
    src = str(Path(nhdeg.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nhdeg.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
