"""Versioned, byte-deterministic CSV and JSON output.

This module owns every output format and encoding: the commands compute
and check their results, then hand them unconverted to one ``write_*``
function per file.  Every file carries the ``nhdeg/1`` format marker: JSON
documents as a ``"format"`` field next to the toolkit version, CSV files
as a leading comment line.  Floats are written with ``repr``, which
round-trips exactly, so identical inputs produce identical bytes.
"""

import json
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__

FORMAT = "nhdeg/1"

# float64 bits: all but the sign bit, and the bits of inf (above them, a NaN)
_MAGNITUDE = np.uint64(2 ** 63 - 1)
_INF_BITS = np.float64(np.inf).view(np.uint64)

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


def _lines(n: int, *columns) -> str:
    """The text of n CSV lines; a column is n texts or one text shared by all.

    Each column fills its fields of all n lines in one slice assignment
    into a list of fields and separators, and one join makes the text.
    """
    parts = ([None, ","] * (len(columns) - 1) + [None, "\n"]) * n
    for j, col in enumerate(columns):
        parts[2 * j::2 * len(columns)] = [col] * n if isinstance(col, str) else col
    return "".join(parts)


def write_vector_field_csv(path, field) -> None:
    """CSV export of a discriminant field, row-major with ky outer, row by row.

    Rows m and ny - m are formatted together (``_field_rows``), and each
    value's text is its ``repr``.  Values not of shape (ky.size, kx.size)
    raise before the file is opened.
    """
    grid = (field.ky.size, field.kx.size)
    if field.values.shape != grid:
        raise ValueError(f"field values have shape {field.values.shape}, grid (ky, kx) {grid}")
    _write_csv(path, "kx,ky,re_eta,im_eta", _field_rows(field))


def _field_rows(field):
    """The text of each row of the field; rows m and ny - m become text together.

    On the mirror-exact torus grid row ny - m sits at -ky of row m, so when
    eta is even in ky the two rows hold the same bits, and when it is odd
    their values differ only in sign.  Row ny - m's texts wait, joined, until
    that row is written.
    """
    kx, values, held = [repr(x) for x in field.kx.tolist()], field.values, {}
    ny = len(values)
    for m, y in enumerate(map(repr, field.ky.tolist())):
        if m in held:
            re, im = (text.split(",") for text in held.pop(m))
        else:
            (re, im), *twin = _reprs(values[[m, ny - m] if 0 < m < ny - m else [m]])
            if twin:
                held[ny - m] = tuple(map(",".join, twin[0]))
        yield _lines(len(kx), kx, y, re, im)


def _reprs(block):
    """The repr texts of the real and imaginary parts of each row of a block.

    ``repr`` runs once per distinct magnitude (the bits with the sign bit
    cleared); a value whose sign bit is set gets a leading "-", unless it is
    a NaN, whose repr has no sign.
    """
    bits = np.stack((block.real, block.imag), axis=1, dtype=float).view(np.uint64)
    mags = bits & _MAGNITUDE
    uniq, inv = np.unique(mags.ravel(), return_inverse=True)
    texts = list(map(repr, uniq.view(float).tolist()))
    table = np.array(texts + ["-" + text for text in texts], dtype=object)
    negative = (bits != mags) & (mags <= _INF_BITS)
    return table[inv.reshape(bits.shape) + len(texts) * negative].tolist()


def write_band_csv(path, bands, dump_vectors: bool = False) -> None:
    """CSV export of ribbon bands: (k, index, re_e, im_e, edge_flag).

    With ``dump_vectors`` every band must carry its eigenvectors.  A band
    without them, or with edge flags not one per eigenvalue, raises before
    the file is opened.
    """
    for band in bands:
        if len(band.edge_flags) != len(band.eigenvalues):
            raise ValueError(f"band at transverse k = {band.transverse_k!r} has "
                             f"{len(band.eigenvalues)} eigenvalues, "
                             f"{len(band.edge_flags)} edge flags")
    vectors = [band.vectors() for band in bands] if dump_vectors else None
    _write_csv(path, "k,index,re_e,im_e,edge_flag", _band_chunks(bands, vectors))


def _band_chunks(bands, vectors):
    """The rows of each band, then the eigenvector dump as comment lines."""
    ks = [repr(band.transverse_k) for band in bands]
    for k, band in zip(ks, bands):
        lam = band.eigenvalues
        yield _lines(len(lam), k, map(str, range(len(lam))), map(repr, lam.real.tolist()),
                     map(repr, lam.imag.tolist()), band.edge_flags)
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
    ``v_values``; a row with another number of labels raises before the
    file is opened.
    """
    v_texts, rows = [repr(float(v)) for v in v_values], list(rows)
    for g, _, _, labels in rows:
        if len(labels) != len(v_texts):
            raise ValueError(f"phase row at g = {float(g)!r} has {len(labels)} labels, "
                             f"{len(v_texts)} v values")
    _write_csv(path, "g,v,v1,v2,phase", (
        _lines(len(v_texts), repr(float(g)), v_texts, f"{float(v1)!r},{float(v2)!r}",
               map(str, labels))
        for g, v1, v2, labels in rows))
