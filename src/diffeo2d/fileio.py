"""File formats: PGM images, the MFLD binary field raster, basis files, and
CSV table helpers.

MFLD layout (little-endian): magic ``MFLD``, u16 version (=1), u32 height,
u32 width, u8 channels, then height*width*channels float64 values, row-major
with channels interleaved. Channels: 1 for scalar rasters (e.g. Jacobian
maps), 2 for displacement/log fields.

Basis files (magic ``MLEB``) store the grid, flags, total variance, the mean
field, the components, and the singular values; orthonormality is re-verified
on load.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    DomainError,
    FieldFileError,
    NonFiniteDataError,
    NonOrthonormalBasisError,
    PgmFormatError,
    PgmParseError,
    TruncatedPayloadError,
    UnsupportedChannelsError,
)
from .fields import DisplacementField, Grid, LabelImage, LogField, ScalarImage
from .latent import LogEuclideanBasis

_MFLD_MAGIC = b"MFLD"
_MFLD_VERSION = 1
_MFLD_HEADER = struct.Struct("<4sHIIB")
_BASIS_MAGIC = b"MLEB"
_BASIS_VERSION = 1
_BASIS_SIGN_VERSION = 1
_BASIS_HEADER = struct.Struct("<4sHIIHBBd")
_ORTHO_TOL = 1e-8


# ---------------------------------------------------------------------------
# PGM


def _read_pgm_tokens(data: bytes, count: int, start: int):
    """Read whitespace/comment-separated ASCII tokens; returns (tokens, offset)."""
    tokens = []
    pos = start
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        if pos >= n:
            raise PgmParseError("unexpected end of header", offset=pos)
        tok_start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        tok = data[tok_start:pos]
        if not tok.isdigit() or len(tok) > 18:
            raise PgmParseError(f"expected integer, got {tok[:24]!r}", offset=tok_start)
        tokens.append(int(tok))
    return tokens, pos


def _parse_pgm(data: bytes):
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"not a PGM file (magic {magic!r})")
    (width, height, maxval), pos = _read_pgm_tokens(data, 3, 2)
    if maxval <= 0 or maxval > 65535:
        raise PgmParseError(f"maxval {maxval} out of range 1..65535", offset=pos)
    if height < 2 or width < 2:
        raise PgmParseError(f"image must be at least 2x2, got {height}x{width}", offset=pos)
    if magic == b"P5":
        pos += 1  # exactly one whitespace byte after maxval
        n_bytes = width * height * (2 if maxval > 255 else 1)
        payload = data[pos : pos + n_bytes]
        if len(payload) < n_bytes:
            raise PgmParseError("truncated pixel data", offset=len(data))
        dtype = ">u2" if maxval > 255 else np.uint8
        raw = np.frombuffer(payload, dtype=dtype).astype(np.int64)
    else:
        values, _ = _read_pgm_tokens(data, width * height, pos)
        raw = np.asarray(values, dtype=np.int64)
    if np.any(raw > maxval):
        raise PgmParseError("pixel value exceeds maxval", offset=pos)
    return raw.reshape(height, width), maxval


def read_pgm(path) -> ScalarImage:
    """Read a P2/P5 PGM as intensities mapped to [0, 1]."""
    with open(path, "rb") as fh:
        raw, maxval = _parse_pgm(fh.read())
    return ScalarImage(Grid(*raw.shape), raw.astype(np.float64) / maxval)


def read_pgm_labels(path) -> LabelImage:
    """Read a PGM as raw integer labels (no intensity scaling)."""
    with open(path, "rb") as fh:
        raw, _ = _parse_pgm(fh.read())
    return LabelImage(Grid(*raw.shape), raw)


def write_pgm(path, image: ScalarImage | LabelImage) -> None:
    """Write binary (P5) PGM. Scalar images quantize to maxval 255 with
    round-half-up; label images pass through as raw integers."""
    if isinstance(image, ScalarImage):
        raw = np.floor(image.values * 255.0 + 0.5)
        raw = np.clip(raw, 0, 255).astype(np.int64)
        maxval = 255
    else:
        raw = image.labels
        top = int(raw.max()) if raw.size else 0
        if top > 65535:
            raise DomainError("labels above 65535 cannot be stored as PGM")
        maxval = 255 if top <= 255 else 65535
    h, w = raw.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    payload = raw.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + payload)


# ---------------------------------------------------------------------------
# MFLD fields


def _write_mfld(path, values: np.ndarray) -> None:
    if values.ndim == 2:
        values = values[..., None]
    h, w, channels = values.shape
    with open(path, "wb") as fh:
        fh.write(_MFLD_HEADER.pack(_MFLD_MAGIC, _MFLD_VERSION, h, w, channels))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def write_field(path, field: DisplacementField | LogField | ScalarImage) -> None:
    """Serialize a field (2 channels) or scalar raster (1 channel) as MFLD."""
    if isinstance(field, DisplacementField):
        _write_mfld(path, field.u)
    elif isinstance(field, LogField):
        _write_mfld(path, field.v)
    elif isinstance(field, ScalarImage):
        _write_mfld(path, field.values)
    else:
        raise DomainError(f"cannot serialize {type(field).__name__} as MFLD")


def _payload(payload: bytes, count, h, w, path) -> np.ndarray:
    """The ``count`` float64 values of a file's ``payload``, read-only,
    checked in this order: the payload is exactly ``count`` values long,
    every value is finite, and the grid ``h`` x ``w`` is at least 2x2."""
    expected = count * 8
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise NonFiniteDataError(f"{path}: payload contains non-finite values")
    if h < 2 or w < 2:
        raise FieldFileError(f"{path}: grid must be at least 2x2, got {h}x{w}")
    return flat


def _header(data: bytes, header: struct.Struct, magic: bytes, version: int, path, what):
    """The fields of ``header`` that follow its magic and version, checked
    in this order: ``data`` is at least a header long, and starts with
    ``magic`` and ``version``. ``what`` names the header in the error."""
    if len(data) < header.size:
        raise TruncatedPayloadError(f"{path}: file shorter than {what} header")
    found_magic, found_version, *fields = header.unpack_from(data)
    if found_magic != magic:
        raise BadMagicError(f"{path}: bad magic {found_magic!r}")
    if found_version != version:
        raise BadVersionError(f"{path}: unsupported version {found_version}")
    return fields


def _read_mfld(data: bytes, path=""):
    h, w, channels = _header(data, _MFLD_HEADER, _MFLD_MAGIC, _MFLD_VERSION, path, "MFLD")
    if channels not in (1, 2):
        raise UnsupportedChannelsError(f"{path}: unsupported channel count {channels}")
    flat = _payload(data[_MFLD_HEADER.size :], h * w * channels, h, w, path)
    return flat.reshape(h, w, channels).copy()


def read_field(path, as_log: bool = False):
    """Read an MFLD file.

    2-channel files load as a DisplacementField (or LogField with
    ``as_log``); 1-channel files load as a ScalarImage.
    """
    with open(path, "rb") as fh:
        values = _read_mfld(fh.read(), path=str(path))
    grid = Grid(values.shape[0], values.shape[1])
    if values.shape[2] == 1:
        return ScalarImage(grid, values[..., 0])
    if as_log:
        return LogField(grid, values)
    return DisplacementField(grid, values)


# ---------------------------------------------------------------------------
# Basis files


def write_basis(path, basis: LogEuclideanBasis) -> None:
    h, w = basis.grid.height, basis.grid.width
    with open(path, "wb") as fh:
        fh.write(
            _BASIS_HEADER.pack(
                _BASIS_MAGIC,
                _BASIS_VERSION,
                h,
                w,
                basis.dim,
                1 if basis.symmetrized else 0,
                _BASIS_SIGN_VERSION,
                basis.total_variance,
            )
        )
        fh.write(np.ascontiguousarray(basis.mean.v, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(basis.components, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(basis.singular_values, dtype="<f8").tobytes())


def read_basis(path) -> LogEuclideanBasis:
    with open(path, "rb") as fh:
        data = fh.read()
    h, w, dim, sym, sign_version, total_var = _header(
        data, _BASIS_HEADER, _BASIS_MAGIC, _BASIS_VERSION, path, "basis"
    )
    if sign_version != _BASIS_SIGN_VERSION:
        raise BadVersionError(f"{path}: unsupported sign-convention version {sign_version}")
    n_field = h * w * 2
    flat = _payload(data[_BASIS_HEADER.size :], n_field * (1 + dim) + dim, h, w, path)
    if dim < 1:
        raise FieldFileError(f"{path}: basis dimension must be >= 1")
    grid = Grid(h, w)
    mean = flat[:n_field].reshape(h, w, 2).copy()
    comps = flat[n_field : n_field * (1 + dim)].reshape(dim, h, w, 2).copy()
    svals = flat[n_field * (1 + dim) :].copy()
    with np.errstate(over="ignore"):  # huge components overflow to inf and fail below
        gram = comps.reshape(dim, -1) @ comps.reshape(dim, -1).T
    if not np.allclose(gram, np.eye(dim), atol=_ORTHO_TOL):
        raise NonOrthonormalBasisError(f"{path}: components are not orthonormal on load")
    if np.any(np.diff(svals) > 0):
        raise FieldFileError(f"{path}: singular values are not descending")
    return LogEuclideanBasis(
        grid=grid,
        mean=LogField(grid, mean),
        components=comps,
        singular_values=svals,
        symmetrized=bool(sym),
        total_variance=total_var,
    )


# ---------------------------------------------------------------------------
# CSV


def write_csv(path, header: list[str], rows) -> None:
    """CSV with a header row; floats render with '.' decimal separators."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v
