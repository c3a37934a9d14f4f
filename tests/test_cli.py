"""Tests for the versioned output files and the command-line front end."""

import argparse
import json
import math
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from _oracles import phases_csv_loop

import nhdeg
import nhdeg.cli
from nhdeg.cli import build_parser, main
from nhdeg.model import ModelParams, load_params, phase_boundaries, save_params
from nhdeg.scanner import ScalarField, scan_discriminant
from nhdeg.ribbon import LocalizationReport, RibbonBand
from nhdeg.serialize import (FORMAT, write_band_csv, write_json, write_phases_csv,
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

def _load_field(path, nx):
    """A field.csv read back with np.loadtxt: kx and the (ny, nx) values."""
    kx, _, re, im = np.loadtxt(path, delimiter=",", skiprows=2).T
    values = np.empty(re.shape, dtype=complex)
    values.real, values.imag = re, im
    return kx[:nx], values.reshape(-1, nx)


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
    back_kx, back_values = _load_field(path, 3)
    assert np.array_equal(back_values, vals)
    assert np.array_equal(back_kx, kx)


def test_vector_field_roundtrip_model(tmp_path):
    fld = scan_discriminant(ModelParams(gamma=0.4, gx=0.2, gy=0.1), 24, 24)
    path = tmp_path / "field.csv"
    write_vector_field_csv(path, fld)
    _, back_values = _load_field(path, 24)
    assert np.array_equal(back_values, fld.values)  # bit-exact round trip


def test_vector_field_supports_flow_reversal_detection(tmp_path):
    # with a vanishing Peierls phase the discriminant is real and changes
    # sign across the exceptional curves: the exported rows must show the
    # reversal of the (re_eta, im_eta) vector along a momentum row
    p = ModelParams(gamma=0.0, gx=0.5, gy=0.3)
    fld = scan_discriminant(p, 64, 64)
    path = tmp_path / "field.csv"
    write_vector_field_csv(path, fld)
    _, back_values = _load_field(path, 64)
    assert np.abs(back_values.imag).max() < 1e-12
    row = back_values[32].real  # a cut at fixed ky crossing the curves
    signs = np.sign(row[np.abs(row) > 1e-12])
    assert np.any(signs[:-1] != signs[1:])


def test_vector_field_csv_matches_row_writer(tmp_path):
    # the earlier one-row-at-a-time writer, kept as a byte oracle
    rng = np.random.default_rng(3)
    kx, ky = np.linspace(-np.pi, np.pi, 7, endpoint=False), np.sort(rng.uniform(-3, 3, 7))
    values = (rng.standard_normal((7, 7)) * 10.0 ** rng.integers(-300, 300, (7, 7))
              + 1j * rng.standard_normal((7, 7)))
    values[0, :3] = [0.0, -0.0, complex(-0.0, -0.0)]
    # rows 1 and 6 are mirror twins, bit for bit, with inf and nan entries
    values[1, :4] = [complex(np.inf, -np.inf), complex(np.nan, 0.0), -0.0, complex(1.0, np.nan)]
    values[6] = values[1]
    # rows 2 and 5 differ only in the sign of one zero: not twins
    values[2, 0], values[5] = 0.0, values[2]
    values[5, 0] = -0.0
    # rows 3 and 4 are twins through zeros of both signs
    values[3, :2] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    values[4] = values[3]
    expected = f"# format={FORMAT}\nkx,ky,re_eta,im_eta\n" + "".join(
        f"{float(kx[ix])!r},{float(ky[iy])!r},{float(values[iy, ix].real)!r},"
        f"{float(values[iy, ix].imag)!r}\n" for iy in range(7) for ix in range(7))
    assert "-0.0" in expected.splitlines()[2 + 5 * 7] and "nan" in expected
    # the same values as a transposed view, whose rows are strided
    transposed = np.ascontiguousarray(values.T).T
    assert not transposed.flags.c_contiguous
    for grid in (values, transposed):
        path = tmp_path / "field.csv"
        write_vector_field_csv(path, ScalarField(kx=kx, ky=ky, values=grid))
        assert path.read_text() == expected


def _field_csv_oracle(fld):
    """field.csv as one repr per value: the byte oracle of the pair writer."""
    return f"# format={FORMAT}\nkx,ky,re_eta,im_eta\n" + "".join(
        f"{x!r},{y!r},{z.real!r},{z.imag!r}\n"
        for y, row in zip(fld.ky.tolist(), fld.values.tolist())
        for x, z in zip(fld.kx.tolist(), row))


_DIAG = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
# the README regimes, the topological ribbon and the nearest-neighbour
# gamma = 0 recipe, as the benchmark scans them
FIELD_RECIPES = {
    "pinned": ModelParams(gamma=0.5, gx=0.5, gy=0.3),
    "closure": _DIAG.replace(v=phase_boundaries(_DIAG)[1]),
    "coexist0": _DIAG.replace(gamma=0.0),
    "coexist_pi2": _DIAG.replace(gamma=np.pi / 2),
    "topo": _DIAG,
    "fermi": ModelParams(gamma=0.0, gx=0.5, gy=0.3),
}


@pytest.mark.parametrize("n", [16, 41, 64, 301])
@pytest.mark.parametrize("recipe", FIELD_RECIPES)
def test_vector_field_csv_matches_repr_oracle_on_the_recipes(tmp_path, recipe, n):
    fld = scan_discriminant(FIELD_RECIPES[recipe], n, n)
    path = tmp_path / "field.csv"
    write_vector_field_csv(path, fld)
    # compared as lines, so a failure names the first differing line cheaply
    assert path.read_text().splitlines() == _field_csv_oracle(fld).splitlines()


def test_vector_field_csv_matches_repr_oracle_on_special_values(tmp_path):
    # rows m and 8 - m are formatted together, row 4 alone
    nan_payload = np.array([0x7FF8000000000001], np.uint64).view(float)[0]
    specials = [0.0, -0.0, np.inf, -np.inf, np.copysign(np.nan, -1.0), np.nan, nan_payload,
                5e-324, -5e-324, -2.2250738585072e-309, 1e16, -1e16, 1.5, -1.5, 0.1, -0.1]
    rng = np.random.default_rng(11)
    values = np.empty((8, 8), complex)
    values.real = rng.choice(specials, (8, 8))
    values.imag = rng.choice(specials, (8, 8))
    values[0].real, values[0].imag = specials[:8], specials[8:]
    values[7] = values[1]          # twins bit for bit
    values[6] = -values[2]         # twins of opposite sign
    values[5] = values[3]          # twins but for the sign of a zero and of a nan
    values[5, 0], values[5, 1] = complex(-0.0, np.nan), complex(np.copysign(np.nan, -1.0), 0.0)
    values[3, 0], values[3, 1] = complex(0.0, np.nan), complex(np.nan, -0.0)
    fld = ScalarField(kx=np.linspace(-np.pi, np.pi, 8, endpoint=False), ky=rng.uniform(-3, 3, 8),
                      values=values)
    expected = _field_csv_oracle(fld)
    for text in ("-0.0", "-inf", "5e-324", "-2.2250738585072e-309", "-1e+16", "-1.5", "nan"):
        assert f",{text}," in expected or f",{text}\n" in expected, text
    assert "-nan" not in expected
    path = tmp_path / "field.csv"
    write_vector_field_csv(path, fld)
    assert path.read_text() == expected


def test_vector_field_csv_rejects_values_off_the_grid(tmp_path):
    # 4 kx by 3 ky labels over 3x3 values: nothing is written
    kx, ky = np.linspace(-np.pi, np.pi, 4, endpoint=False), np.zeros(3)
    path = tmp_path / "field.csv"
    with pytest.raises(ValueError, match=re.escape("shape (3, 3), grid (ky, kx) (3, 4)")):
        write_vector_field_csv(path, ScalarField(kx=kx, ky=ky, values=np.ones((3, 3), complex)))
    assert not path.exists()


def test_phases_csv_matches_row_writer(tmp_path):
    # the earlier f-string writer, kept as a byte oracle
    rng = np.random.default_rng(5)
    v_values = np.append(rng.standard_normal(5) * 10.0 ** rng.integers(-300, 300, 5), -0.0)
    names = np.array(["band_insulator", "topological_insulator", "boundary_gapless"])
    rows = [(g, *rng.standard_normal(2), names[rng.integers(0, 3, v_values.size)])
            for g in (-0.0, 0.0, 1e-300, 1.2345678901234567)]
    rows.append((np.float64(2.5), -0.0, np.float64(3.0), ["band_insulator"] * v_values.size))
    v_texts = [repr(float(v)) for v in v_values]
    expected = f"# format={FORMAT}\ng,v,v1,v2,phase\n" + "".join(
        f"{float(g)!r},{v},{float(v1)!r},{float(v2)!r},{label}\n"
        for g, v1, v2, labels in rows for v, label in zip(v_texts, labels))
    path = tmp_path / "phases.csv"
    write_phases_csv(path, v_values, rows)
    assert path.read_text() == expected


@pytest.mark.parametrize("dump_vectors", [False, True])
def test_band_csv_matches_row_writer(tmp_path, dump_vectors):
    # the earlier one-row-at-a-time writer, kept as a byte oracle
    rng = np.random.default_rng(4)
    bands = []
    for k in (-np.pi, -0.0, 0.0, 1.2345678901234567):
        lam = (rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)
               + 1j * rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6))
        lam[:3] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
        vecs = (rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-300, 300, (6, 6))
                + 1j * rng.standard_normal((6, 6)))
        vecs[0, :2] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
        flags = [["left", "right", "delocalized"][i % 3] for i in range(6)]
        bands.append(RibbonBand(transverse_k=k, eigenvalues=lam, eigenvectors=vecs,
                                edge_flags=flags))
    path = tmp_path / "bands.csv"
    write_band_csv(path, bands, dump_vectors=dump_vectors)
    expected = [f"# format={FORMAT}\n", "k,index,re_e,im_e,edge_flag\n"]
    for band in bands:
        for n, ev in enumerate(band.eigenvalues):
            expected.append(f"{band.transverse_k!r},{n},{float(ev.real)!r},"
                            f"{float(ev.imag)!r},{band.edge_flags[n]}\n")
    if dump_vectors:
        expected.append("# eigenvector dump\n")
        for band in bands:
            for n in range(band.eigenvectors.shape[1]):
                comps = ";".join(repr(float(abs(c))) for c in band.eigenvectors[:, n])
                expected.append(f"# |psi| k={band.transverse_k!r} index={n}: {comps}\n")
    assert path.read_text() == "".join(expected)


def test_band_csv_rejects_flags_not_one_per_eigenvalue_and_writes_nothing(tmp_path):
    # the bad band comes second, so a writer that checked it late would
    # leave the header and the first band on disk
    lam = np.arange(6.0) + 0j
    bands = [RibbonBand(transverse_k=0.5, eigenvalues=lam, eigenvectors=None,
                        edge_flags=["left"] * 6),
             RibbonBand(transverse_k=-0.25, eigenvalues=lam, eigenvectors=None,
                        edge_flags=["left"] * 3)]
    path = tmp_path / "bands.csv"
    with pytest.raises(ValueError, match=r"^band at transverse k = -0\.25 has 6 "
                                         r"eigenvalues, 3 edge flags$"):
        write_band_csv(path, bands)
    assert not path.exists()


def test_phases_csv_rejects_labels_not_one_per_v_and_writes_nothing(tmp_path):
    v_values = np.linspace(-1.0, 1.0, 4)
    rows = [(0.0, -1.0, 1.0, ["band_insulator"] * 4), (0.5, -1.0, 1.0, ["band_insulator"] * 5)]
    path = tmp_path / "phases.csv"
    with pytest.raises(ValueError, match=r"^phase row at g = 0\.5 has 5 labels, 4 v values$"):
        write_phases_csv(path, v_values, rows)
    assert not path.exists()


def test_write_json_encodes_complex_numbers_and_dataclass_records(tmp_path):
    path = tmp_path / "doc.json"
    rep = LocalizationReport(ipr=0.25, center_of_mass=1.5, side="left")
    write_json(path, {"params": ModelParams(t1=0.5), "eigenvalues": (1.5 - 0.0j, -2j),
                      "sides": {"3": rep}})
    doc = json.loads(path.read_text())
    assert doc == {"format": FORMAT, "toolkit_version": nhdeg.__version__,
                   "params": asdict(ModelParams(t1=0.5)),
                   "eigenvalues": [{"re": 1.5, "im": -0.0}, {"re": -0.0, "im": -2.0}],
                   "sides": {"3": {"ipr": 0.25, "center_of_mass": 1.5, "side": "left"}}}
    assert path.read_text().endswith("}\n")


@pytest.mark.parametrize("value", [np.int64(3), np.ones(2), {1.5, 2.5}, ModelParams])
def test_write_json_rejects_what_it_cannot_encode_and_writes_nothing(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        write_json(path, {"ok": 1.0, "value": [value]})
    assert not path.exists()


# ---------------------------------------------------------------------------
# CLI commands

def test_cli_usage_error_exit_code():
    assert main(["scan"]) == 2  # missing --params
    assert main(["no-such-command"]) == 2


def test_cli_parser_is_built_once_and_parses_like_a_fresh_one(tmp_path, regime1_file,
                                                              capsys):
    assert build_parser() is build_parser()
    params = ["--params", str(regime1_file)]
    argvs = [["scan", *params, "--nx", "11", "--fold-bz"], ["theorem", "--trials", "3"],
             ["symmetry", *params], ["phases", *params, "--v-steps", "5"],
             ["ribbon", *params, "--axis", "y"], ["scan", *params]]
    for argv in argvs:
        # no flag or default of an earlier command leaks into a later one
        assert vars(build_parser().parse_args(argv)) == vars(
            build_parser.__wrapped__().parse_args(argv))
    texts = []
    for argv in (["--help"], ["scan", "--help"], ["--help"], ["scan", "--nx", "0"],
                 ["no-such-command"], ["scan", "--nx", "0"]):
        code = main(argv)
        texts.append((code, capsys.readouterr()))
    assert [code for code, _ in texts] == [0, 0, 0, 2, 2, 2]
    assert texts[0] == texts[2] and texts[3] == texts[5]
    assert texts[0][1].out == build_parser.__wrapped__().format_help()
    assert "--fold-bz" in texts[1][1].out
    assert "argument --nx: expected a positive integer" in texts[3][1].err


def test_cli_consecutive_commands_run_the_current_functions(tmp_path, regime1_file,
                                                            monkeypatch):
    out = tmp_path / "out"
    assert main(["symmetry", "--params", str(regime1_file), "--nx", "6", "--ny", "6",
                 "--out", str(out)]) == 0
    assert main(["theorem", "--trials", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["symmetry.json", "theorem.json"]
    # a rebound command is the one the cached parser's dispatch reaches
    seen = []
    monkeypatch.setattr(nhdeg.cli, "cmd_symmetry", lambda args: seen.append(args) or 7)
    assert main(["symmetry", "--params", str(regime1_file)]) == 7
    assert seen[0].command == "symmetry" and seen[0].nx == 32


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


def test_cli_theorem_zero_trials(tmp_path, capsys):
    # an empty ensemble is a usage error, not a verified pass
    assert main(["theorem", "--trials", "0", "--out", str(tmp_path)]) == 2
    assert "--trials" in capsys.readouterr().err
    assert not (tmp_path / "theorem.json").exists()


@pytest.mark.parametrize("dims", [("5", "3"), ("1", "3"), ("2", "65"), ("2049", "2049")])
def test_cli_theorem_bad_dims(tmp_path, capsys, dims):
    out = tmp_path / "out"
    rc = main(["theorem", "--min-dim", dims[0], "--max-dim", dims[1], "--out", str(out)])
    assert rc == 2
    assert "dimensions" in capsys.readouterr().err
    assert not out.exists()


def test_cli_theorem_help_states_the_dimension_bound(capsys):
    assert main(["theorem", "--help"]) == 0
    assert "at most 64" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-3", "1.5", "abc"])
def test_cli_theorem_seed_must_be_a_non_negative_integer(tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert main(["theorem", "--trials", "2", "--seed", seed, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --seed: expected a non-negative integer, got {seed!r}\n")
    assert not out.exists()


def test_cli_theorem_prints_the_first_failure_and_exits_1(tmp_path, capsys, monkeypatch):
    failure = {"trial": 4, "dim": 3, "seed": 4, "error": "boom"}
    report = dict(nhdeg.cli.run_ensemble(trials=2), passed=False, failures=[failure])
    monkeypatch.setattr(nhdeg.cli, "run_ensemble", lambda **kw: report)
    assert main(["theorem", "--trials", "2", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.endswith(f"first failure: {failure}\n")
    assert json.loads((tmp_path / "theorem.json").read_text())["failures"] == [failure]


@pytest.mark.parametrize("argv", [
    ["theorem", "--trials", "-2"],
    ["scan", "--nx", "0"],
    ["scan", "--ny", "-1"],
    ["symmetry", "--nx", "0"],
    ["symmetry", "--ny", "2.5"],
    ["phases", "--v-steps", "0"],
    ["phases", "--g-steps", "zero"],
    ["ribbon", "--k-samples", "0"],
    ["ribbon", "--n-cells", "0"],
])
def test_cli_count_flags_reject_non_positive(tmp_path, regime1_file, capsys, argv):
    params = [] if argv[0] == "theorem" else ["--params", str(regime1_file)]
    assert main(argv[:1] + params + argv[1:] + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: expected a positive integer" in err


@pytest.mark.parametrize("command,flag", [
    *((command, flag) for command in ("symmetry", "phases", "ribbon")
      for flag in (["--tol", "1e-9"], ["--seed", "3"])),
    ("scan", ["--seed", "3"]),
])
def test_cli_removed_flags_are_usage_errors(tmp_path, regime1_file, command, flag):
    out = tmp_path / "out"
    assert main([command, "--params", str(regime1_file), *flag, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_scan_accepts_tol(tmp_path, regime1_file):
    assert main(["scan", "--params", str(regime1_file), "--nx", "31", "--ny", "31",
                 "--tol", "1e-12", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "degeneracies.json").read_text())
    assert doc["tol"] == 1e-12


def test_cli_theorem_accepts_tol_and_seed(tmp_path):
    assert main(["theorem", "--trials", "7", "--tol", "1e-8", "--seed", "4",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "theorem.json").read_text())
    assert (doc["bound"], doc["seed"], doc["trials"]) == (1e-8, 4, 7)


def _parser_actions():
    """(command, action) for every option of every subcommand."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action) for command, parser in sub.choices.items()
            for action in parser._actions if action.option_strings]


# the float flags are the options with a float default
FLOAT_FLAGS = [(command, action.option_strings[0]) for command, action in _parser_actions()
               if isinstance(action.default, float)]


def test_cli_parser_has_no_bare_float_type():
    assert not [(command, action.option_strings) for command, action in _parser_actions()
                if action.type is float]
    assert {flag for _, flag in FLOAT_FLAGS} == {
        "--tol", "--v-min", "--v-max", "--g-min", "--g-max", "--boundary-tol", "--zero-k"}


@pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
@pytest.mark.parametrize("value", ["nan", "inf", "abc"])
def test_cli_float_flags_reject_non_finite(tmp_path, regime1_file, capsys, command, flag,
                                           value):
    params = [] if command == "theorem" else ["--params", str(regime1_file)]
    out = tmp_path / "out"
    assert main([command, *params, f"{flag}={value}", "--out", str(out)]) == 2
    assert f"error: argument {flag}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


OVERFLOW = ("a hop amplitude or phase boundary is not finite "
            "(an exp(+-g) factor or its product with t or t1 overflows)")

# the commands that read a parameter file
PARAMS_COMMANDS = sorted({command for command, action in _parser_actions()
                          if action.option_strings == ["--params"]})


@pytest.mark.parametrize("command", PARAMS_COMMANDS)
@pytest.mark.parametrize("text,lineno,message", [
    ("t = 1.0\nt1 = abc\n", 2, "could not convert string to float: 'abc'"),
    ("t1 = 0.5\ngamma = 0.5\nt1 = 0.7\n", 3, "repeated parameter 't1'"),
    ("# comment\nt1 = 0.5\nnonsense = 1\n", 3, "unknown parameter 'nonsense'"),
    # exp(800) overflows: scan wrote an all-nan field.csv and symmetry listed
    # no holding spec, both with exit 0
    ("gamma = 0.5\ngx = 800\n", 2, OVERFLOW),
], ids=["bad_value", "repeated_key", "unknown_key", "overflow"])
def test_cli_rejects_bad_params_file(tmp_path, capsys, command, text, lineno, message):
    assert PARAMS_COMMANDS == ["phases", "ribbon", "scan", "symmetry"]
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--params", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:{lineno}: {message}\n"
    assert not out.exists()


def test_cli_symmetry_rejects_a_grid_below_three_momenta(tmp_path, regime3_file, capsys):
    # on this recipe a 2x2 grid shows upsilon holding, though t1 breaks it
    out = tmp_path / "out"
    assert main(["symmetry", "--params", str(regime3_file), "--nx", "2", "--ny", "2",
                 "--out", str(out)]) == 2
    assert "at least 3 momenta per axis" in capsys.readouterr().err
    assert not out.exists()
    assert main(["symmetry", "--params", str(regime3_file), "--nx", "3", "--ny", "3",
                 "--out", str(out)]) == 0
    assert "upsilon" not in json.loads((out / "symmetry.json").read_text())["holding"]


@pytest.mark.parametrize("command", ["theorem", "scan"])
@pytest.mark.parametrize("value", ["nan", "0", "-1", "1e-400"])
def test_cli_tol_must_be_finite_and_positive(tmp_path, regime1_file, capsys, command, value):
    # a nan scan tolerance dropped every candidate and exited 0, and a theorem
    # run with a nan or negative bound exited 1 as if verification failed
    params = [] if command == "theorem" else ["--params", str(regime1_file)]
    out = tmp_path / "out"
    assert main([command, *params, f"--tol={value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --tol: expected a finite number > 0, got {value!r}\n")
    assert not out.exists()


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


def run_phases(tmp_path, p, sweep, tag):
    """`nhdeg phases` on p with the sweep (v_min, v_max, v_steps, g_min, g_max,
    g_steps, boundary_tol); returns the exit code and the path of phases.csv."""
    pf, out = tmp_path / f"{tag}.txt", tmp_path / tag
    save_params(p, pf)
    flags = ("--v-min", "--v-max", "--v-steps", "--g-min", "--g-max", "--g-steps",
             "--boundary-tol")
    argv = ["phases", "--params", str(pf), "--out", str(out)]
    argv += [f"{flag}={value!r}" for flag, value in zip(flags, sweep)]
    return main(argv), out / "phases.csv"


_TOPO = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
_V2 = float(phase_boundaries(_TOPO.replace(ga=0.2, gb=0.2))[1])
PHASE_SWEEPS = {
    "readme": (_TOPO, (-6.0, 6.0, 121, 0.0, 1.0, 11, 1e-6)),
    # steps of half a tolerance across v2 at g = 0.2, and across v1
    "near_v2": (_TOPO, (_V2 - 2e-6, _V2 + 2e-6, 9, 0.2, 0.2, 3, 1e-6)),
    "near_v1": (_TOPO, (-_V2 - 3e-6, -_V2 + 3e-6, 13, 0.2, 0.2, 1, 1e-6)),
    # both boundaries at 0 (as -0.0 and 0.0), which the grid hits
    "t1_zero": (_TOPO.replace(t1=0.0), (-1.0, 1.0, 11, 0.0, 0.5, 2, 1e-6)),
    "g_across_zero": (_TOPO, (-6.0, 6.0, 25, -1.0, 1.0, 9, 1e-6)),
    "one_v": (_TOPO, (2.5, 6.0, 1, 0.0, 1.0, 4, 1e-6)),
    "negative_t1": (_TOPO.replace(t1=-0.4, mu_a=0.3), (-3.0, 3.0, 31, -0.5, 2.0, 5, 1e-3)),
}


@pytest.mark.parametrize("name", PHASE_SWEEPS)
def test_cli_phases_matches_point_loop(tmp_path, name):
    p, sweep = PHASE_SWEEPS[name]
    rc, path = run_phases(tmp_path, p, sweep, name)
    assert rc == 0
    want = phases_csv_loop(p, *sweep)
    if name.startswith("near_"):
        assert {"boundary_gapless", "band_insulator", "topological_insulator"} <= {
            line.rsplit(",", 1)[1] for line in want.splitlines()[2:]}
    assert path.read_bytes() == want.encode()


def test_cli_phases_matches_point_loop_on_seeded_sweeps(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(12):
        p = ModelParams(t1=rng.uniform(-1, 1), gamma=rng.uniform(0.01, 1.56),
                        mu_a=rng.uniform(-1, 1), mu_b=rng.uniform(-1, 1))
        v_min, v_max = sorted(rng.uniform(-8, 8, size=2).tolist())
        g_min, g_max = rng.uniform(-1.5, 1.5, size=2).tolist()
        sweep = (v_min, v_max, int(rng.integers(1, 40)), g_min, g_max,
                 int(rng.integers(1, 6)), float(rng.choice([1e-6, 0.05, 0.5])))
        rc, path = run_phases(tmp_path, p, sweep, f"s{trial}")
        assert rc == 0
        assert path.read_bytes() == phases_csv_loop(p, *sweep).encode(), (p, sweep)


_README_SWEEP = PHASE_SWEEPS["readme"][1]


@pytest.mark.parametrize("p,changes,message", [
    (_TOPO.replace(gamma=0.0), {}, "phase_classify requires 0 < gamma < pi/2, got 0.0"),
    (_TOPO.replace(gx=0.1), {}, "phase_classify requires gx = gy = 0"),
    # the regime fails on the first row, before a later g overflows cosh
    (_TOPO.replace(gamma=0.0), {4: 1000.0}, "phase_classify requires 0 < gamma < pi/2, got 0.0"),
    # an overflow at the first g fails before the regime is checked
    (_TOPO.replace(gamma=0.0), {3: 800.0}, OVERFLOW),
])
def test_cli_phases_rejects_what_the_point_loop_rejects(tmp_path, capsys, p, changes,
                                                        message):
    sweep = tuple(changes.get(i, value) for i, value in enumerate(_README_SWEEP))
    assert run_phases(tmp_path, p, sweep, "bad")[0] == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ValueError) as exc:
        phases_csv_loop(p, *sweep)
    assert str(exc.value) == message


@pytest.mark.parametrize("p,changes,flag,text", [
    (_TOPO, {1: math.inf}, "--v-max", "inf"),
    (_TOPO, {3: math.nan}, "--g-min", "nan"),
    # flags are read in command-line order, and all before the regime
    (_TOPO.replace(gx=0.1), {3: math.nan, 0: -math.inf}, "--v-min", "-inf"),
    (_TOPO.replace(gamma=0.0), {0: -math.inf}, "--v-min", "-inf"),
])
def test_cli_phases_rejects_non_finite_sweep_bounds(tmp_path, capsys, p, changes, flag,
                                                    text):
    # np.linspace would turn an infinite bound into a nan potential
    sweep = tuple(changes.get(i, value) for i, value in enumerate(_README_SWEEP))
    rc, path = run_phases(tmp_path, p, sweep, "bad")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: expected a finite number, got {text!r}\n")
    assert not path.parent.exists()


@pytest.mark.parametrize("name", ["v", "g"])
def test_cli_phases_rejects_a_span_that_overflows(tmp_path, capsys, name):
    # -1e308 to 1e308 is finite at both ends, but np.linspace's step is not:
    # it warned twice and then rejected a nan potential or loss rate
    pf, out = tmp_path / "p.txt", tmp_path / "out"
    save_params(_TOPO, pf)
    assert main(["phases", "--params", str(pf), f"--{name}-min=-1e308", f"--{name}-max",
                 "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: --{name}-min -1e+308 to --{name}-max 1e+308 "
                                       f"spans more than the largest float\n")
    assert not out.exists()


def test_cli_phases_regime_error_writes_nothing(tmp_path, capsys):
    # an empty parameter file is the gamma = 0 default, which phases rejects
    # before it creates the output directory
    out = tmp_path / "d"
    assert main(["phases", "--params", "/dev/null", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: phase_classify requires 0 < gamma < pi/2, got 0.0\n")
    assert not out.exists()


def test_cli_phases_rejects_a_sweep_whose_boundaries_overflow(tmp_path, capsys):
    # cosh(1000) overflows: phases wrote +-inf boundaries and labelled them
    rc, path = run_phases(tmp_path, _TOPO, (-6.0, 6.0, 121, 0.0, 1000.0, 11, 1e-6), "big")
    assert rc == 2
    assert capsys.readouterr().err == f"error: {OVERFLOW}\n"
    assert not path.parent.exists()


def test_cli_phases_boundary_tol_must_be_finite_and_non_negative(tmp_path, capsys):
    # at t1 = 0 both boundaries are v = 0, a grid point of this sweep
    pf = tmp_path / "t1_zero.txt"
    save_params(_TOPO.replace(t1=0.0), pf)
    argv = ["phases", "--params", str(pf), "--v-min=-1", "--v-max", "1", "--v-steps", "11",
            "--g-steps", "1"]
    assert main(argv + ["--boundary-tol", "0", "--out", str(tmp_path / "zero")]) == 0
    assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
    rows = [row.split(",") for row in (tmp_path / "ok" / "phases.csv").read_text().splitlines()]
    assert [row[4] for row in rows[2:] if float(row[1]) == 0.0] == ["boundary_gapless"]
    capsys.readouterr()
    for tol in ("nan", "-1", "-1e-300", "inf"):
        out = tmp_path / f"bad_{tol}"
        assert main(argv + [f"--boundary-tol={tol}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --boundary-tol: expected a finite number >= 0, got {tol!r}\n")
        assert not out.exists()


def readme_cli_recipes():
    """The README's `nhdeg` command lines and its example parameter file."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```(\w*)\n(.*?)```", text, re.S)
    lines = [line for lang, body in blocks if lang == "sh"
             for line in body.splitlines() if line.startswith("nhdeg ")]
    params = [body for lang, body in blocks if not lang and "t1 =" in body]
    return lines, params


def test_readme_cli_recipes_run(tmp_path, monkeypatch):
    lines, params = readme_cli_recipes()
    assert len(lines) == 5 and len(params) == 1
    (tmp_path / "params.txt").write_text(params[0])
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "bands.csv", "degeneracies.json", "field.csv", "localization.json",
        "phases.csv", "symmetry.json", "theorem.json"]
    # every JSON document is stamped; the parameters go into those of the
    # commands that read a parameter file
    params = asdict(load_params(tmp_path / "params.txt"))
    for name, stamped in (("theorem.json", False), ("degeneracies.json", True),
                          ("symmetry.json", True), ("localization.json", True)):
        doc = json.loads((tmp_path / "out" / name).read_text())
        assert doc["format"] == FORMAT == "nhdeg/1", name
        assert doc["toolkit_version"] == nhdeg.__version__, name
        assert ("params" in doc) is stamped, name
        if stamped:
            assert doc["params"] == params, name


def test_readme_library_tour_runs(tmp_path):
    # a fresh interpreter, so a public name the tour uses cannot go stale
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tours = [body for lang, body in re.findall(r"```(\w*)\n(.*?)```", text, re.S)
             if lang == "python"]
    assert len(tours) == 1
    src = str(Path(nhdeg.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r})\n" + tours[0]
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_topological_ribbon_edge_modes_on_both_sides(tmp_path):
    # at the default width the pair hybridizes on the crossing |k| = pi/2
    # itself, so the sides are read one grid step off it
    (tmp_path / "params.txt").write_text(readme_cli_recipes()[1][0])
    out = tmp_path / "out"
    assert main(["ribbon", "--params", str(tmp_path / "params.txt"), "--axis", "y",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "localization.json").read_text())
    assert sorted(v["side"] for v in doc["edge_mode_sides"].values()) == ["left", "right"]


def test_cli_phases_help_states_its_parameters(capsys):
    assert main(["phases", "--help"]) == 0
    assert "0 < gamma < pi/2 and gx = gy = 0" in capsys.readouterr().out


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


@pytest.mark.parametrize("axis,gamma", [("y", 0.5), ("x", 0.0)])
def test_cli_ribbon_dump_vectors_changes_no_other_output(tmp_path, axis, gamma):
    pf = tmp_path / "p.txt"
    save_params(ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=gamma), pf)
    docs = []
    for dump in ([], ["--dump-vectors"]):
        out = tmp_path / f"out{len(dump)}"
        assert main(["ribbon", "--params", str(pf), "--axis", axis, "--n-cells", "16",
                     "--k-samples", "12", "--out", str(out), *dump]) == 0
        rows = [ln for ln in (out / "bands.csv").read_text().splitlines()
                if not ln.startswith("#")]
        docs.append((rows, (out / "localization.json").read_bytes()))
    assert len(docs[0][0]) == 1 + 12 * 32
    assert docs[0] == docs[1]


def test_cli_ribbon_memory_is_bounded_by_the_workers(tmp_path, monkeypatch):
    # without --dump-vectors only the mid, zero-mode and skin bands keep
    # their vectors, so the peak is a few (2N)^2 matrices per worker rather
    # than two per solved momentum pair (about 71 of them here)
    pf = tmp_path / "p.txt"
    save_params(ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5), pf)
    monkeypatch.setattr(nhdeg.ribbon, "_worker_count", lambda: 2)
    n = 40
    tracemalloc.start()
    try:
        assert main(["ribbon", "--params", str(pf), "--axis", "y", "--n-cells", str(n),
                     "--k-samples", "64", "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 16 * (2 * n) ** 2


def test_cli_scan_memory_is_bounded_by_the_field(tmp_path):
    # eta is sampled in row blocks, the sign-change seeds come from one-byte
    # corner masks and field.csv is written row by row, so the peak is eta
    # plus the writer's held mirror-row text: about 2.4 copies of the complex
    # eta grid here
    pf = tmp_path / "p.txt"
    save_params(ModelParams(t1=0.75, ga=0.5, gb=0.3), pf)
    n = 401
    tracemalloc.start()
    try:
        assert main(["scan", "--params", str(pf), "--nx", str(n), "--ny", str(n),
                     "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 16 * n ** 2


def test_cli_ribbon_too_wide_to_solve_writes_nothing(tmp_path, regime1_file, capsys):
    out = tmp_path / "out"
    assert main(["ribbon", "--params", str(regime1_file), "--n-cells", "1025",
                 "--out", str(out)]) == 2
    assert "dense solver limited to dim <= 2048, got 2050" in capsys.readouterr().err
    assert not out.exists()


def test_cli_determinism(tmp_path, regime1_file):
    # identical configs produce byte-identical outputs
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["scan", "--params", str(regime1_file), "--nx", "101",
                   "--ny", "101", "--out", str(out)])
        assert rc == 0
    for name in ("degeneracies.json", "field.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    for out in (out_a, out_b):
        rc = main(["theorem", "--trials", "25", "--seed", "11",
                   "--out", str(out)])
        assert rc == 0
    assert (out_a / "theorem.json").read_bytes() == \
        (out_b / "theorem.json").read_bytes()


def _modules_after_cli_import(prefix):
    """Modules starting with ``prefix`` that a fresh ``import nhdeg.cli`` loads."""
    src = str(Path(nhdeg.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nhdeg.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(sys.argv[2])))")
    proc = subprocess.run([sys.executable, "-c", code, src, prefix], capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.strip()


def test_runtime_imports_no_scipy():
    # the package needs numpy only; scipy is a test extra
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_executor_pool():
    # the ribbon sweep imports its concurrent.futures pool when it runs;
    # imported with the CLI it would add several milliseconds to every
    # command's start-up
    assert _modules_after_cli_import("concurrent") == "[]"
