"""Versioned, byte-deterministic CSV and JSON output.

This module owns every output format: the commands compute and check their
results, then hand them to one ``write_*`` function per file.  Every file
carries the ``nhdeg/1`` format marker: JSON documents as a ``"format"``
field next to the toolkit version, CSV files as a leading comment line.
Floats are written with ``repr``, which round-trips exactly, so identical
inputs produce identical bytes and re-importing a vector-field export
reproduces the samples bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from . import __version__

FORMAT = "nhdeg/1"

__all__ = [
    "FORMAT",
    "write_json",
    "write_vector_field_csv",
    "read_vector_field_csv",
    "write_band_csv",
    "write_phases_csv",
]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(np.real(obj)), "im": float(np.imag(obj))}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def write_json(path, payload: dict, params=None) -> None:
    """JSON export of a payload, stamped with the format marker, the toolkit
    version and, when given, the model parameters."""
    doc = {"format": FORMAT, "toolkit_version": __version__}
    if params is not None:
        doc["params"] = asdict(params)
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_vector_field_csv(path, field) -> None:
    """CSV export of a discriminant field, row-major with ky outer."""
    kx = [repr(x) for x in field.kx.tolist()]
    with open(path, "w") as fh:
        fh.write(f"# format={FORMAT}\n")
        fh.write("kx,ky,re_eta,im_eta\n")
        for ky, re_row, im_row in zip(field.ky.tolist(), field.values.real.tolist(),
                                      field.values.imag.tolist()):
            y = repr(ky)
            fh.write("".join([f"{x},{y},{re!r},{im!r}\n"
                              for x, re, im in zip(kx, re_row, im_row)]))


def read_vector_field_csv(path):
    """Re-import a vector-field CSV; returns a ScalarField, bit-exact."""
    from .scanner import ScalarField

    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != f"# format={FORMAT}":
            raise ValueError(f"unrecognized format header {header!r}")
        columns = fh.readline().strip()
        if columns != "kx,ky,re_eta,im_eta":
            raise ValueError(f"unexpected columns {columns!r}")
        for line in fh:
            kx, ky, re, im = line.strip().split(",")
            rows.append((float(kx), float(ky), float(re), float(im)))
    kx = sorted({r[0] for r in rows})
    ky = sorted({r[1] for r in rows})
    nx, ny = len(kx), len(ky)
    if nx * ny != len(rows):
        raise ValueError("rows do not form a complete grid")
    values = np.empty((ny, nx), dtype=complex)
    pos_x = {v: i for i, v in enumerate(kx)}
    pos_y = {v: i for i, v in enumerate(ky)}
    for rkx, rky, re, im in rows:
        values[pos_y[rky], pos_x[rkx]] = re + 1j * im
    return ScalarField(kx=np.array(kx), ky=np.array(ky), values=values)


def write_band_csv(path, bands, dump_vectors: bool = False) -> None:
    """CSV export of ribbon bands: (k, index, re_e, im_e, edge_flag)."""
    with open(path, "w") as fh:
        fh.write(f"# format={FORMAT}\n")
        fh.write("k,index,re_e,im_e,edge_flag\n")
        for band in bands:
            k = repr(band.transverse_k)
            fh.write("".join([f"{k},{n},{re!r},{im!r},{flag}\n" for n, (re, im, flag)
                              in enumerate(zip(band.eigenvalues.real.tolist(),
                                               band.eigenvalues.imag.tolist(),
                                               band.edge_flags))]))
        if dump_vectors:
            fh.write("# eigenvector dump\n")
            for band in bands:
                k = repr(band.transverse_k)
                # np.hypot rounds like the scalar abs(); np.abs of a complex
                # array can differ from it in the last bit
                vecs = band.eigenvectors
                mags = np.hypot(vecs.real, vecs.imag).T.tolist()
                fh.write("".join([f"# |psi| k={k} index={n}: {';'.join(map(repr, col))}\n"
                                  for n, col in enumerate(mags)]))


def write_phases_csv(path, v_values, rows) -> None:
    """CSV export of a phase sweep: (g, v, v1, v2, phase), v inner.

    ``rows`` holds one (g, v1, v2, labels) per g, the labels over
    ``v_values``.
    """
    v_texts = [repr(float(v)) for v in v_values]
    with open(path, "w") as fh:
        fh.write(f"# format={FORMAT}\n")
        fh.write("g,v,v1,v2,phase\n")
        for g, v1, v2, labels in rows:
            head, tail = repr(float(g)), f"{float(v1)!r},{float(v2)!r}"
            fh.writelines(f"{head},{v_text},{tail},{label}\n"
                          for v_text, label in zip(v_texts, labels))
