"""The benchmark's workloads: seeded inputs, one job each, and output checks.

Every workload turns a seed into parameter files (seed 0 is the README
recipes verbatim; other seeds jitter the continuous parameters inside
ranges where the regime's checks keep holding), runs one batch job through
the `nhdeg` CLI or library exactly as a user would, and checks the outputs
of that job with the invariants the test suite asserts.

Program functions are always looked up as module attributes at call time
(``scanner.fermi_curves``, ``cli.main``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

# Job sizes: the full benchmark, and the tiny --smoke sizes for its own tests.
# scan_n = 301 is the CLI default; ribbon sizes are the README recipes.
SIZES = {
    "full": {"scan_n": 301, "fermi_n": 51, "zero_n": 121, "ribbon_y_n": 100,
             "ribbon_x_n": 30, "k_samples": 64, "trials": 500},
    "smoke": {"scan_n": 201, "fermi_n": 31, "zero_n": 41, "ribbon_y_n": 100,
              "ribbon_x_n": 30, "k_samples": 4, "trials": 20},
}

HALF_PI = math.pi / 2
X_POINTS = [(HALF_PI, HALF_PI), (-HALF_PI, -HALF_PI),      # X1
            (HALF_PI, -HALF_PI), (-HALF_PI, HALF_PI)]      # X2
M_POINTS = [(math.pi, 0.0), (0.0, math.pi)]
GAMMA_POINTS = [(0.0, 0.0), (math.pi, math.pi)]

def recipes(seed: int) -> dict:
    """README regime recipes as parameter dicts; jittered for seed != 0."""
    rng = random.Random(seed)

    def draw(default, lo, hi):
        return default if seed == 0 else rng.uniform(lo, hi)

    # Jitter is kept small: the cost of the contour jobs moves fast with the
    # parameters (plateau area of Im eps, length of the eta zero curves),
    # and a seed should change the inputs, not the amount of work.
    pinned = {"gamma": draw(0.5, 0.4, 0.6), "gx": draw(0.5, 0.4, 0.6),
              "gy": draw(0.3, 0.2, 0.4)}
    diag = {"t1": draw(0.75, 0.74, 0.76), "ga": draw(0.5, 0.49, 0.51),
            "gb": draw(0.3, 0.29, 0.31)}
    # near gamma = 0.31-0.35 the topological ribbon's edge pair at k = pi/2
    # is not resolved onto opposite sides (see README.md)
    topo = dict(diag, gamma=draw(0.5, 0.45, 0.55))
    # The X2 gap closes at v2 = 2 t1 (cosh ga + cosh gb).  This regime keeps
    # the README values on every seed: jittered, `scan` leaves the X2 pair
    # unresolved or defective on about one draw in seven (see README.md).
    closure = {"t1": 0.75, "ga": 0.5, "gb": 0.3, "gamma": 0.5}
    closure["v"] = 2.0 * closure["t1"] * (math.cosh(closure["ga"]) + math.cosh(closure["gb"]))
    fermi = {"gamma": 0.0, "gx": draw(0.5, 0.495, 0.505), "gy": draw(0.3, 0.295, 0.305)}
    return {
        "pinned": pinned,                        # pinned X touchings
        "closure": closure,                      # gap closure at v = v2
        "coexist0": dict(diag, gamma=0.0),       # coexistence, gamma = 0
        "coexist_pi2": dict(diag, gamma=HALF_PI),  # coexistence, gamma = pi/2
        "topo": topo,                            # topological ribbon
        "fermi": fermi,                          # nearest-neighbour, gamma = 0
    }


def write_params(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
    return str(path)


def run_cli(cli, argv):
    """One `nhdeg` invocation; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def count_lines(path) -> int:
    n = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            n += chunk.count(b"\n")
    return n


def torus_dist(a, b) -> float:
    d = [abs((x - y + math.pi) % (2 * math.pi) - math.pi) for x, y in zip(a, b)]
    return math.hypot(*d)


def _payload(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """A batch job on seeded inputs.  ``job`` is timed; ``check`` is not."""

    name = ""

    def __init__(self, seed: int, workdir: Path, sizes: dict):
        self.seed, self.workdir, self.sizes = seed, workdir, sizes
        self.recipes = recipes(seed)
        self.params = {key: write_params(workdir / f"{key}.params", values)
                       for key, values in self.recipes.items()}

    def job(self, nhdeg):
        raise NotImplementedError

    def check(self, nhdeg, result) -> list:
        """Problems found in one job's outputs; empty when they are correct."""
        raise NotImplementedError


class Scan(Workload):
    """`nhdeg scan` on the four README regime recipes."""

    name = "scan"
    # regime -> (symmetry-pinned points, expected number of non-defective points)
    REGIMES = {"pinned": (X_POINTS, 4), "closure": (X_POINTS[2:], 2),
               "coexist0": (M_POINTS, 2), "coexist_pi2": (GAMMA_POINTS, 2)}

    def job(self, nhdeg):
        n = str(self.sizes["scan_n"])
        codes = {}
        for regime in self.REGIMES:
            out = self.workdir / f"scan-{regime}"
            codes[regime] = run_cli(nhdeg.cli, ["scan", "--params", self.params[regime],
                                                "--nx", n, "--ny", n, "--out", str(out)])
        return codes

    def check(self, nhdeg, result):
        problems = []
        n = self.sizes["scan_n"]
        for regime, (targets, n_nondefective) in self.REGIMES.items():
            code, text = result[regime]
            if code != 0:
                problems.append(f"{regime}: exit {code}: {text.strip()}")
                continue
            out = self.workdir / f"scan-{regime}"
            points = _payload(out / "degeneracies.json")["points"]
            kinds = [q["kind"] for q in points]
            nondefective = [(q["kx"], q["ky"]) for q in points if q["kind"] == "nondefective"]
            if "unresolved" in kinds:
                problems.append(f"{regime}: unresolved points")
            if len(nondefective) != n_nondefective:
                problems.append(f"{regime}: {len(nondefective)} non-defective points, "
                                f"expected {n_nondefective}")
            for target in targets:
                if min((torus_dist(q, target) for q in nondefective), default=9.0) > 1e-6:
                    problems.append(f"{regime}: no non-defective point at {target}")
            if regime == "pinned" and "defective" in kinds:
                problems.append("pinned: defective points in the nearest-neighbour model")
            if regime == "coexist0" and kinds.count("defective") < 2:
                problems.append("coexist0: fewer than 2 defective points")
            rows = count_lines(out / "field.csv") - 2
            if rows != n * n:
                problems.append(f"{regime}: field.csv has {rows} rows, expected {n * n}")
        return problems


class Contour(Workload):
    """r-/i-Fermi curves, then zero curves of Re eta and Im eta."""

    name = "contour"

    def __init__(self, seed, workdir, sizes):
        super().__init__(seed, workdir, sizes)
        self._defective = None

    def job(self, nhdeg):
        nf, nz = self.sizes["fermi_n"], self.sizes["zero_n"]
        scanner = nhdeg.scanner
        p_fermi = nhdeg.model.load_params(self.params["fermi"])
        p_eta = nhdeg.model.load_params(self.params["coexist0"])
        re_eps = scanner.fermi_curves(p_fermi, nf, nf, "re", "+")
        im_eps = scanner.fermi_curves(p_fermi, nf, nf, "im", "+")
        fld = scanner.scan_discriminant(p_eta, nz, nz)
        re_eta = scanner.zero_curves(fld, "Re_eta")
        im_eta = scanner.zero_curves(fld, "Im_eta")
        return re_eps, im_eps, re_eta, im_eta

    def check(self, nhdeg, result):
        re_eps, im_eps, re_eta, im_eta = result
        problems = []
        if not (re_eps.polylines and im_eps.polylines):
            return ["Fermi curves: no polylines"]
        # the r- and i-Fermi curves coincide at gamma = 0 (as in the scanner test)
        re_pts, im_pts = np.vstack(re_eps.polylines), np.vstack(im_eps.polylines)
        cell = 2 * np.pi / (self.sizes["fermi_n"] - 1)
        dists = [np.hypot(im_pts[:, 0] - x, im_pts[:, 1] - y).min()
                 for x, y in re_pts[::7]]
        if not np.median(dists) < 2 * cell:
            problems.append(f"Fermi curves: median Re-Im distance {np.median(dists):.3g} "
                            f">= 2 cells")
        if not (re_eta.polylines and im_eta.polylines):
            return problems + ["eta zero curves: no polylines"]
        # the defective points of the regime sit on both zero curves
        nz = self.sizes["zero_n"]
        if self._defective is None:
            p_eta = nhdeg.model.load_params(self.params["coexist0"])
            self._defective = nhdeg.scanner.find_degeneracies(p_eta, nz, nz).defective
        if len(self._defective) < 2:
            problems.append("eta zero curves: fewer than 2 defective points to test")
        cell = 2 * np.pi / (nz - 1)
        for curve in (re_eta, im_eta):
            pts = np.vstack(curve.polylines)
            for q in self._defective:
                dx = np.abs((pts[:, 0] - q.kx + np.pi) % (2 * np.pi) - np.pi)
                dy = np.abs((pts[:, 1] - q.ky + np.pi) % (2 * np.pi) - np.pi)
                if np.hypot(dx, dy).min() >= 2 * cell:
                    problems.append(f"{curve.which}: defective point ({q.kx:.4f}, "
                                    f"{q.ky:.4f}) off the curve")
        return problems


class Ribbon(Workload):
    """`nhdeg ribbon` on the topological (y-open) and gamma=0 (x-open) recipes."""

    name = "ribbon"

    def _runs(self):
        s = self.sizes
        return {"topo": ("y", s["ribbon_y_n"]), "coexist0": ("x", s["ribbon_x_n"])}

    def job(self, nhdeg):
        k = str(self.sizes["k_samples"])
        codes = {}
        for recipe, (axis, n) in self._runs().items():
            out = self.workdir / f"ribbon-{recipe}"
            codes[recipe] = run_cli(nhdeg.cli, [
                "ribbon", "--params", self.params[recipe], "--axis", axis,
                "--n-cells", str(n), "--k-samples", k, "--out", str(out)])
        return codes

    def check(self, nhdeg, result):
        problems = []
        for recipe, (axis, n) in self._runs().items():
            code, text = result[recipe]
            if code != 0:
                problems.append(f"{recipe}: exit {code}: {text.strip()}")
                continue
            out = self.workdir / f"ribbon-{recipe}"
            rows = count_lines(out / "bands.csv") - 2
            expected = self.sizes["k_samples"] * 2 * n
            if rows != expected:
                problems.append(f"{recipe}: bands.csv has {rows} rows, expected {expected}")
            loc = _payload(out / "localization.json")
            if recipe == "coexist0":
                # criterion 9 (c): coalesced zero-mode pair on the x-open ribbon
                if loc["zero_mode_absent"] or not loc["zero_mode_overlap"] > 1 - 1e-4:
                    problems.append(f"coexist0: zero-mode overlap "
                                    f"{loc['zero_mode_overlap']!r}, absent="
                                    f"{loc['zero_mode_absent']}")
            else:
                # criterion 9 (a): the edge pair sits on opposite sides
                sides = sorted(v["side"] for v in loc["edge_mode_sides"].values())
                if sides != ["left", "right"]:
                    problems.append(f"topo: edge modes on sides {sides}")
        return problems


class Verify(Workload):
    """`nhdeg theorem`, `symmetry` on every recipe, `phases`, and check_realspace."""

    name = "verify"
    SYMMETRY_RECIPES = ("pinned", "closure", "coexist0", "coexist_pi2", "topo")

    def job(self, nhdeg):
        out = str(self.workdir / "verify")
        codes = {"theorem": run_cli(nhdeg.cli, [
            "theorem", "--trials", str(self.sizes["trials"]), "--seed", str(self.seed),
            "--out", out])}
        realspace = {}
        for recipe in self.SYMMETRY_RECIPES:
            rout = str(self.workdir / f"symmetry-{recipe}")
            codes[recipe] = run_cli(nhdeg.cli, ["symmetry", "--params",
                                                self.params[recipe], "--out", rout])
            holding = _payload(Path(rout) / "symmetry.json")["holding"]
            p = nhdeg.model.load_params(self.params[recipe])
            for name in holding:
                spec = nhdeg.symmetry.builtin_spec(name)
                realspace[recipe, name] = _realspace_holds(nhdeg, p, spec)
        codes["phases"] = run_cli(nhdeg.cli, ["phases", "--params", self.params["topo"],
                                              "--out", out])
        return codes, realspace

    def check(self, nhdeg, result):
        codes, realspace = result
        problems = [f"{key}: exit {code}: {text.strip()}"
                    for key, (code, text) in codes.items() if code != 0]
        out = self.workdir / "verify"
        theorem = _payload(out / "theorem.json")
        worst = max(theorem["max_residuals"].values())
        if not (theorem["passed"] and worst <= 1e-9):
            problems.append(f"theorem: passed={theorem['passed']}, worst residual {worst!r}")
        for recipe in self.SYMMETRY_RECIPES:
            reports = _payload(self.workdir / f"symmetry-{recipe}" / "symmetry.json")["reports"]
            p = nhdeg.model.load_params(self.params[recipe])
            for name, report in reports.items():
                bloch = report["holds"]
                if bloch:
                    real = realspace.get((recipe, name))
                else:
                    real = _realspace_holds(nhdeg, p, nhdeg.symmetry.builtin_spec(name))
                if bloch != real:
                    problems.append(f"{recipe}/{name}: Bloch holds={bloch}, "
                                    f"real space holds={real}")
        problems += self._check_phases(out / "phases.csv")
        return problems

    def _check_phases(self, path):
        t1 = self.recipes["topo"]["t1"]
        problems = []
        with open(path) as fh:
            lines = fh.read().splitlines()[2:]
        for line in lines:
            g, v, v1, v2, label = line.split(",")
            g, v, v1, v2 = _csv_float(g), _csv_float(v), _csv_float(v1), _csv_float(v2)
            w = 4.0 * t1 * math.cosh(g)   # ga = gb = g along the sweep
            if abs(v1 + w) > 1e-12 * w or abs(v2 - w) > 1e-12 * w:
                problems.append(f"phases: boundaries ({v1!r}, {v2!r}) at g={g!r}, "
                                f"expected -+{w!r}")
            if min(abs(v - v1), abs(v - v2)) < 1e-6:
                expected = "boundary_gapless"
            elif min(v1, v2) < v < max(v1, v2):
                expected = "topological_insulator"
            else:
                expected = "band_insulator"
            if label != expected:
                problems.append(f"phases: g={g!r} v={v!r} labelled {label}, "
                                f"expected {expected}")
        if len(lines) != 121 * 11:
            problems.append(f"phases: {len(lines)} rows, expected {121 * 11}")
        return problems


def _csv_float(text: str) -> float:
    """A float written by repr(); numpy 2 spells numpy scalars 'np.float64(x)'."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _realspace_holds(nhdeg, p, spec) -> bool:
    try:
        return nhdeg.symmetry.check_realspace(p, spec, 4, 4).holds
    except ValueError:
        return False   # operator not realizable on the 4x4 torus


WORKLOADS = {cls.name: cls for cls in (Scan, Contour, Ribbon, Verify)}
