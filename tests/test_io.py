import struct

import numpy as np
import pytest

from diffeo2d import (
    DisplacementField,
    Grid,
    LabelImage,
    LogField,
    RandomFieldSpec,
    ScalarImage,
    fit_basis,
    random_log_field,
    read_basis,
    read_field,
    read_pgm,
    read_pgm_labels,
    write_basis,
    write_csv,
    write_field,
    write_pgm,
)
from diffeo2d.errors import (
    BadMagicError,
    DomainError,
    BadVersionError,
    FieldFileError,
    NonFiniteDataError,
    NonOrthonormalBasisError,
    PgmFormatError,
    PgmParseError,
    TruncatedPayloadError,
    UnsupportedChannelsError,
)

from conftest import GRID64


class TestPgm:
    def test_constant_half_quantization(self, tmp_path):
        img = ScalarImage(Grid(4, 4), np.full((4, 4), 0.5))
        p = tmp_path / "c.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        assert np.allclose(back.values, 128 / 255)

    def test_ascii_p2(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 255 0 255\n")
        img = read_pgm(p)
        assert np.allclose(img.values.ravel(), [0.0, 1.0, 0.0, 1.0])

    def test_comments_allowed(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n# a comment\n2 2\n255\n7 9 11 13\n")
        img = read_pgm(p)
        assert np.allclose(img.values.ravel(), np.array([7, 9, 11, 13]) / 255)

    def test_label_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        labs = LabelImage(Grid(8, 8), rng.integers(0, 200, (8, 8)))
        p = tmp_path / "l.pgm"
        write_pgm(p, labs)
        back = read_pgm_labels(p)
        assert np.array_equal(back.labels, labs.labels)

    def test_wide_label_roundtrip(self, tmp_path):
        labs = LabelImage(Grid(2, 2), np.array([[0, 300], [65535, 1]]))
        p = tmp_path / "l.pgm"
        write_pgm(p, labs)
        back = read_pgm_labels(p)
        assert np.array_equal(back.labels, labs.labels)

    def test_scalar_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(1)
        img = ScalarImage(Grid(8, 8), rng.random((8, 8)))
        p = tmp_path / "s.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        assert np.abs(back.values - img.values).max() <= 0.5 / 255 + 1e-12

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(2)
        img = ScalarImage(Grid(8, 8), rng.random((8, 8)))
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        write_pgm(p1, img)
        write_pgm(p2, img)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(PgmFormatError):
            read_pgm(p)

    def test_truncated_header_reports_offset(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P2\n2 2\n")
        with pytest.raises(PgmParseError) as exc:
            read_pgm(p)
        assert exc.value.offset >= 0

    @pytest.mark.parametrize("data", [b"P5\n1 1\n255\n\x00", b"P2\n0 0\n255\n",
                                      b"P5\n3 1\n255\n\x00\x00\x00"])
    def test_degenerate_grid_is_parse_error(self, tmp_path, data):
        p = tmp_path / "d.pgm"
        p.write_bytes(data)
        for read in (read_pgm, read_pgm_labels):
            with pytest.raises(PgmParseError):
                read(p)

    @pytest.mark.parametrize("data", [b"P2\n2 2\n10\n0 11 0 0\n",
                                      b"P5\n2 2\n100\n\x00\x00\xc8\x00"])
    def test_value_above_maxval_is_parse_error(self, tmp_path, data):
        p = tmp_path / "m.pgm"
        p.write_bytes(data)
        for read in (read_pgm, read_pgm_labels):
            with pytest.raises(PgmParseError, match="^pixel value exceeds maxval"):
                read(p)

    def test_labels_above_65535_are_not_written(self, tmp_path):
        p = tmp_path / "l.pgm"
        with pytest.raises(DomainError, match="^labels above 65535 cannot be stored as PGM$"):
            write_pgm(p, LabelImage(Grid(2, 2), np.array([[0, 65536], [1, 2]])))
        assert not p.exists()

    def test_overlong_integer_is_parse_error(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P2\n" + b"9" * 5000 + b" 2\n255\n")
        with pytest.raises(PgmParseError):
            read_pgm(p)


class TestMfld:
    def test_field_roundtrip_bit_exact(self, tmp_path):
        v = random_log_field(RandomFieldSpec(GRID64, seed=3))
        phi = DisplacementField(GRID64, v.v * 1.5)
        p = tmp_path / "f.mfld"
        write_field(p, phi)
        back = read_field(p)
        assert isinstance(back, DisplacementField)
        assert np.array_equal(back.u, phi.u)

    def test_log_roundtrip_bit_exact(self, tmp_path):
        v = random_log_field(RandomFieldSpec(GRID64, seed=4))
        p = tmp_path / "v.mfld"
        write_field(p, v)
        back = read_field(p, as_log=True)
        assert isinstance(back, LogField)
        assert np.array_equal(back.v, v.v)

    def test_scalar_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        img = ScalarImage(Grid(5, 7), rng.random((5, 7)))
        p = tmp_path / "s.mfld"
        write_field(p, img)
        back = read_field(p)
        assert isinstance(back, ScalarImage)
        assert np.array_equal(back.values, img.values)

    def test_truncated_payload(self, tmp_path):
        v = random_log_field(RandomFieldSpec(GRID64, seed=6))
        p = tmp_path / "t.mfld"
        write_field(p, v)
        data = p.read_bytes()
        p.write_bytes(data[:-1])
        with pytest.raises(TruncatedPayloadError):
            read_field(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.mfld"
        p.write_bytes(b"XFLD" + bytes(20))
        with pytest.raises(BadMagicError):
            read_field(p)

    def test_bad_version(self, tmp_path):
        import struct

        p = tmp_path / "v.mfld"
        header = struct.pack("<4sHIIB", b"MFLD", 9, 1, 1, 1)
        p.write_bytes(header + struct.pack("<d", 0.0))
        with pytest.raises(BadVersionError):
            read_field(p)

    def test_other_types_are_not_written(self, tmp_path):
        p = tmp_path / "x.mfld"
        with pytest.raises(DomainError, match="^cannot serialize LabelImage as MFLD$"):
            write_field(p, LabelImage(Grid(2, 2), np.zeros((2, 2), dtype=int)))
        assert not p.exists()

    def test_unsupported_channels(self, tmp_path):
        import struct

        p = tmp_path / "c.mfld"
        header = struct.pack("<4sHIIB", b"MFLD", 1, 1, 1, 3)
        p.write_bytes(header + struct.pack("<3d", 0.0, 0.0, 0.0))
        with pytest.raises(UnsupportedChannelsError):
            read_field(p)

    def test_non_finite_rejected(self, tmp_path):
        import struct

        p = tmp_path / "n.mfld"
        header = struct.pack("<4sHIIB", b"MFLD", 1, 1, 1, 1)
        p.write_bytes(header + struct.pack("<d", float("nan")))
        with pytest.raises(NonFiniteDataError):
            read_field(p)

    @pytest.mark.parametrize("h, w, channels", [(1, 1, 2), (0, 0, 2), (1, 5, 1)])
    def test_degenerate_grid_rejected(self, tmp_path, h, w, channels):
        import struct

        p = tmp_path / "d.mfld"
        n = h * w * channels
        p.write_bytes(struct.pack("<4sHIIB", b"MFLD", 1, h, w, channels) + bytes(8 * n))
        with pytest.raises(FieldFileError):
            read_field(p)


def _mfld_file(h, w, values):
    return struct.pack("<4sHIIB", b"MFLD", 1, h, w, 2) + struct.pack(f"<{len(values)}d", *values)


def _basis_file(h, w, values):
    header = struct.pack("<4sHIIHBBd", b"MLEB", 1, h, w, 1, 1, 1, 0.0)
    return header + struct.pack(f"<{len(values)}d", *values)


# Per file kind: the bytes of a file of (h, w, values), its payload's value
# count on an h x w grid (two channels; a basis of one component), and its
# reader.
PAYLOADS = {
    "mfld": (_mfld_file, lambda h, w: 2 * h * w, read_field),
    "basis": (_basis_file, lambda h, w: 4 * h * w + 1, read_basis),
}


@pytest.mark.parametrize("kind", list(PAYLOADS))
@pytest.mark.parametrize("h, w, defect, error, message", [
    (3, 4, "short", TruncatedPayloadError, "payload is {got} bytes, expected {want}"),
    (3, 4, "long", TruncatedPayloadError, "payload is {got} bytes, expected {want}"),
    (3, 4, "nan", NonFiniteDataError, "payload contains non-finite values"),
    (3, 4, "inf", NonFiniteDataError, "payload contains non-finite values"),
    (1, 5, None, FieldFileError, "grid must be at least 2x2, got 1x5"),
    # The checks run in order: length, then finiteness, then the grid.
    (1, 5, "short", TruncatedPayloadError, "payload is {got} bytes, expected {want}"),
    (1, 5, "nan", NonFiniteDataError, "payload contains non-finite values"),
])
def test_payload_checks_keep_their_order_types_and_messages(
    tmp_path, kind, h, w, defect, error, message
):
    # MFLD and basis files share one payload check; each still raises the
    # same exception, with the same message, for the same defect.
    write, count, read = PAYLOADS[kind]
    n = count(h, w)
    values = [0.0] * {"short": n - 1, "long": n + 1}.get(defect, n)
    if defect in ("nan", "inf"):
        values[-1] = float(defect)
    p = tmp_path / f"{kind}.bin"
    p.write_bytes(write(h, w, values))
    with pytest.raises(error) as info:
        read(p)
    assert str(info.value) == f"{p}: " + message.format(got=8 * len(values), want=8 * n)


class TestBasisFile:
    def make_basis(self):
        fields = [random_log_field(RandomFieldSpec(GRID64, seed=s)) for s in range(4)]
        return fit_basis(fields, dim=3)

    def test_roundtrip(self, tmp_path):
        basis = self.make_basis()
        p = tmp_path / "b.mleb"
        write_basis(p, basis)
        back = read_basis(p)
        assert back.grid == basis.grid
        assert np.array_equal(back.mean.v, basis.mean.v)
        assert np.array_equal(back.components, basis.components)
        assert np.array_equal(back.singular_values, basis.singular_values)
        assert back.symmetrized == basis.symmetrized
        assert back.total_variance == basis.total_variance

    def test_orthonormality_survives_roundtrip(self, tmp_path):
        basis = self.make_basis()
        p = tmp_path / "b.mleb"
        write_basis(p, basis)
        back = read_basis(p)
        flat = np.stack([c.ravel() for c in back.components])
        assert np.allclose(flat @ flat.T, np.eye(len(flat)), atol=1e-12)

    def test_corrupted_components_rejected(self, tmp_path):
        basis = self.make_basis()
        p = tmp_path / "b.mleb"
        write_basis(p, basis)
        data = bytearray(p.read_bytes())
        # Scale a component block value to break orthonormality.
        import struct

        # Singular values occupy the last 3*8 bytes; hit a component value.
        off = len(data) - 3 * 8 - 16
        (val,) = struct.unpack_from("<d", data, off)
        struct.pack_into("<d", data, off, val + 0.5)
        p.write_bytes(bytes(data))
        with pytest.raises(NonOrthonormalBasisError):
            read_basis(p)

    def test_non_finite_basis_rejected(self, tmp_path):
        import struct

        basis = self.make_basis()
        p = tmp_path / "b.mleb"
        write_basis(p, basis)
        data = bytearray(p.read_bytes())
        struct.pack_into("<d", data, len(data) - 8, float("nan"))
        p.write_bytes(bytes(data))
        with pytest.raises(NonFiniteDataError):
            read_basis(p)

    @pytest.mark.parametrize("h, w, dim", [(1, 1, 1), (0, 3, 1), (4, 4, 0)])
    def test_degenerate_shape_rejected(self, tmp_path, h, w, dim):
        import struct

        p = tmp_path / "d.mleb"
        header = struct.pack("<4sHIIHBBd", b"MLEB", 1, h, w, dim, 1, 1, 0.0)
        p.write_bytes(header + bytes(8 * (h * w * 2 * (1 + dim) + dim)))
        with pytest.raises(FieldFileError):
            read_basis(p)

    @pytest.mark.parametrize("magic, version, sign_version, error, message", [
        (b"XLEB", 1, 1, BadMagicError, "bad magic b'XLEB'"),
        (b"MLEB", 2, 1, BadVersionError, "unsupported version 2"),
        (b"MLEB", 1, 2, BadVersionError, "unsupported sign-convention version 2"),
    ])
    def test_bad_magic_and_version(self, tmp_path, magic, version, sign_version, error,
                                   message):
        p = tmp_path / "h.mleb"
        header = struct.pack("<4sHIIHBBd", magic, version, 2, 2, 1, 1, sign_version, 0.0)
        p.write_bytes(header + bytes(8 * (2 * 2 * 2 * 2 + 1)))
        with pytest.raises(error) as info:
            read_basis(p)
        assert str(info.value) == f"{p}: {message}"

    def test_ascending_singular_values_rejected(self, tmp_path):
        basis = self.make_basis()
        p = tmp_path / "b.mleb"
        write_basis(p, basis)
        data = p.read_bytes()
        # The singular values are the last 3*8 bytes; store them ascending.
        svals = np.frombuffer(data[-24:], dtype="<f8")[::-1]
        p.write_bytes(data[:-24] + svals.tobytes())
        with pytest.raises(FieldFileError):
            read_basis(p)


class TestCsv:
    def test_header_and_floats(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[1, 0.5], [2, 0.25]])
        text = p.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert "." in lines[2]

    def test_float_repr_roundtrip(self, tmp_path):
        p = tmp_path / "t.csv"
        value = 0.1234567890123456789
        write_csv(p, ["x"], [[value]])
        text = p.read_text().strip().splitlines()[1]
        assert float(text) == value
