"""Versioned, byte-deterministic CSV and JSON output.

This module owns every output format and encoding: the commands compute
and check their results, then hand them unconverted to one ``write_*``
function per file.  Every file carries the ``nhdeg/1`` format marker: JSON
documents as a ``"format"`` field next to the toolkit version, CSV files
as a leading comment line.  Floats are written with ``repr``, which
round-trips exactly, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__

FORMAT = "nhdeg/1"

__all__ = [
    "FORMAT",
    "write_json",
    "write_vector_field_csv",
    "write_band_csv",
    "write_phases_csv",
]


def _default(obj):
    """JSON form of a complex number ({"re", "im"}) or a dataclass record (its fields)."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    raise TypeError(f"cannot write a {type(obj).__name__} to JSON: {obj!r}")


def write_json(path, payload: dict) -> None:
    """JSON export of a payload, stamped with the format marker and the
    toolkit version.  The text is built before the file is opened, so a
    value that cannot be encoded raises and writes nothing."""
    doc = {"format": FORMAT, "toolkit_version": __version__, **payload}
    text = json.dumps(doc, indent=2, sort_keys=True, default=_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path, header: str, chunks) -> None:
    """Write the format line, the header line, then each text chunk in turn."""
    with open(path, "w") as fh:
        fh.write(f"# format={FORMAT}\n{header}\n")
        fh.writelines(chunks)


def write_vector_field_csv(path, field) -> None:
    """CSV export of a discriminant field, row-major with ky outer, one row at a time."""
    kx = [repr(x) for x in field.kx.tolist()]
    _write_csv(path, "kx,ky,re_eta,im_eta", (
        "".join([f"{x},{y},{re!r},{im!r}\n"
                 for x, re, im in zip(kx, row.real.tolist(), row.imag.tolist())])
        for y, row in zip(map(repr, field.ky.tolist()), field.values)))


def write_band_csv(path, bands, dump_vectors: bool = False) -> None:
    """CSV export of ribbon bands: (k, index, re_e, im_e, edge_flag).

    With ``dump_vectors`` every band must carry its eigenvectors; a band
    without them raises before the file is opened.
    """
    vectors = [band.vectors() for band in bands] if dump_vectors else None
    _write_csv(path, "k,index,re_e,im_e,edge_flag", _band_chunks(bands, vectors))


def _band_chunks(bands, vectors):
    """The rows of each band, then the eigenvector dump as comment lines."""
    ks = [repr(band.transverse_k) for band in bands]
    for k, band in zip(ks, bands):
        yield "".join([f"{k},{n},{re!r},{im!r},{flag}\n" for n, (re, im, flag)
                       in enumerate(zip(band.eigenvalues.real.tolist(),
                                        band.eigenvalues.imag.tolist(),
                                        band.edge_flags))])
    if vectors is not None:
        yield "# eigenvector dump\n"
        for k, vecs in zip(ks, vectors):
            # np.hypot rounds like the scalar abs(); np.abs of a complex
            # array can differ from it in the last bit
            mags = np.hypot(vecs.real, vecs.imag).T.tolist()
            yield "".join([f"# |psi| k={k} index={n}: {';'.join(map(repr, col))}\n"
                           for n, col in enumerate(mags)])


def write_phases_csv(path, v_values, rows) -> None:
    """CSV export of a phase sweep: (g, v, v1, v2, phase), v inner.

    ``rows`` holds one (g, v1, v2, labels) per g, the labels over
    ``v_values``.
    """
    v_texts = [repr(float(v)) for v in v_values]
    row_texts = ((repr(float(g)), f"{float(v1)!r},{float(v2)!r}", labels)
                 for g, v1, v2, labels in rows)
    _write_csv(path, "g,v,v1,v2,phase", (
        "".join([f"{g},{v},{bounds},{label}\n" for v, label in zip(v_texts, labels)])
        for g, bounds, labels in row_texts))
