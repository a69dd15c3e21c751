"""PGM/PFM/JSON round trips and format edge cases."""

import numpy as np
import pytest

from psbp.fileio import (
    load_image,
    load_mask,
    read_json,
    read_pfm,
    read_pgm,
    save_image,
    save_mask,
    write_json,
    write_pfm,
    write_pgm,
)


def test_pgm_16bit_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.integers(0, 65536, size=(7, 5), dtype=np.uint16)
    p = tmp_path / "img.pgm"
    write_pgm(p, data)
    back, maxval = read_pgm(p)
    assert maxval == 65535
    assert back.dtype == np.uint16
    assert np.array_equal(back, data)


def test_pgm_8bit_round_trip(tmp_path):
    data = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    p = tmp_path / "img8.pgm"
    write_pgm(p, data, maxval=255)
    back, maxval = read_pgm(p)
    assert maxval == 255
    assert back.dtype == np.uint8
    assert np.array_equal(back, data)


def test_pgm_16bit_samples_are_big_endian(tmp_path):
    p = tmp_path / "one.pgm"
    write_pgm(p, np.array([[0x0102]], dtype=np.uint16))
    raw = p.read_bytes()
    assert raw.endswith(b"\x01\x02")


def test_pgm_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "commented.pgm"
    p.write_bytes(b"P5 # binary pgm\n# size follows\n 2 1\n# maxval\n255\n\x07\x09")
    data, maxval = read_pgm(p)
    assert maxval == 255
    assert data.tolist() == [[7, 9]]


def test_pgm_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError):
        read_pgm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(ValueError):
        read_pgm(trunc)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.array([[300]]), maxval=255)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.array([[-1]]))


def test_save_load_image_quantization(tmp_path):
    values = np.array([[0.0, 0.25, 1.0], [1.5, -0.5, 0.5]])
    p = tmp_path / "img.pgm"
    save_image(p, values)
    back = load_image(p)
    # clipped then quantized to 1/65535 steps
    clipped = np.clip(values, 0.0, 1.0)
    assert np.abs(back - clipped).max() <= 0.5 / 65535
    assert back[1, 0] == 1.0 and back[1, 1] == 0.0


def test_save_image_is_exact_on_grid_values(tmp_path):
    values = np.array([[0.0, 1.0 / 65535, 12345.0 / 65535, 1.0]])
    p = tmp_path / "grid.pgm"
    save_image(p, values)
    assert np.array_equal(load_image(p), values)


def test_pfm_round_trip_single_channel(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((6, 9)).astype(np.float32)
    p = tmp_path / "depth.pfm"
    write_pfm(p, data)
    back = read_pfm(p)
    assert back.dtype == np.float32
    assert np.array_equal(back, data)


def test_pfm_round_trip_three_channel(tmp_path):
    rng = np.random.default_rng(2)
    data = rng.standard_normal((4, 5, 3)).astype(np.float32)
    p = tmp_path / "normals.pfm"
    write_pfm(p, data)
    back = read_pfm(p)
    assert back.shape == (4, 5, 3)
    assert np.array_equal(back, data)


def test_pfm_header_and_row_order(tmp_path):
    # bottom-up storage: the first stored row is the last image row
    data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    p = tmp_path / "rows.pfm"
    write_pfm(p, data)
    raw = p.read_bytes()
    assert raw.startswith(b"Pf\n2 2\n-1.0\n")
    stored = np.frombuffer(raw.split(b"-1.0\n", 1)[1], dtype="<f4")
    assert stored.tolist() == [3.0, 4.0, 1.0, 2.0]


def test_pfm_big_endian_scale_is_honoured(tmp_path):
    p = tmp_path / "be.pfm"
    payload = np.array([5.0, -1.0], dtype=">f4").tobytes()
    p.write_bytes(b"Pf\n2 1\n1.0\n" + payload)
    back = read_pfm(p)
    assert back.tolist() == [[5.0, -1.0]]


@pytest.mark.parametrize("rows", [1, 5], ids=["one-row", "five-rows"])
@pytest.mark.parametrize("order, scale", [("<", b"-1.0"), (">", b"1.0")],
                         ids=["little-endian", "big-endian"])
def test_read_pfm_returns_a_native_writable_copy(tmp_path, rows, order, scale):
    data = np.random.default_rng(rows).standard_normal((rows, 7)).astype(np.float32)
    p = tmp_path / "grid.pfm"
    p.write_bytes(b"Pf\n7 %d\n%s\n" % (rows, scale) + data[::-1].astype(order + "f4").tobytes())
    back = read_pfm(p)
    assert back.dtype == np.float32 and back.dtype.isnative
    assert back.flags.c_contiguous and back.flags.writeable
    assert np.array_equal(back, data)


@pytest.mark.parametrize("maxval", [200, 255, 1000, 65535])
def test_load_image_divides_by_maxval_exactly(tmp_path, maxval):
    data = np.random.default_rng(maxval).integers(0, maxval + 1, size=(6, 9))
    p = tmp_path / "img.pgm"
    write_pgm(p, data, maxval=maxval)
    got = load_image(p)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), (data / maxval).view(np.int64))


def test_pfm_errors(tmp_path):
    with pytest.raises(ValueError):
        write_pfm(tmp_path / "bad.pfm", np.array([[np.inf]]))
    with pytest.raises(ValueError):
        write_pfm(tmp_path / "bad.pfm", np.zeros((2, 2, 2)))
    nota = tmp_path / "nota.pfm"
    nota.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_pfm(nota)


def test_mask_round_trip(tmp_path):
    mask = np.array([[True, False], [False, True], [True, True]])
    p = tmp_path / "mask.pgm"
    save_mask(p, mask)
    data, maxval = read_pgm(p)
    assert maxval == 255
    assert set(np.unique(data)) <= {0, 255}
    assert np.array_equal(load_mask(p), mask)


def test_json_deterministic_output(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_json(p1, {"zeta": 1, "alpha": [1, 2, {"b": 2.5, "a": 1}]})
    write_json(p2, {"alpha": [1, 2, {"a": 1, "b": 2.5}], "zeta": 1})
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.endswith(b"\n")
    assert read_json(p1) == {"zeta": 1, "alpha": [1, 2, {"b": 2.5, "a": 1}]}


def test_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"v": float("nan")})


@pytest.mark.parametrize("token", [b"nan", b"0"])
def test_pfm_rejects_a_zero_or_nonfinite_scale(tmp_path, token):
    # the scale's sign selects the byte order, which zero and nan cannot do
    p = tmp_path / "scale.pfm"
    p.write_bytes(b"Pf\n2 1\n" + token + b"\n" + np.ones(2, dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="scale.pfm: scale must be a nonzero finite number"):
        read_pfm(p)


# a 5,000-digit width is past what int() converts, and int()'s own error
# names neither the file nor the field
@pytest.mark.parametrize("size", [b"-2 2", b"abc 2", b"2 0", b"0 0",
                                  pytest.param(b"9" * 5000 + b" 2", id="5000-digit-width")])
@pytest.mark.parametrize("header, reader", [(b"P5\n%s\n255\n", read_pgm),
                                            (b"Pf\n%s\n-1.0\n", read_pfm)])
def test_nonpositive_or_nonnumeric_dimensions_are_rejected(tmp_path, size, header, reader):
    p = tmp_path / "dims.img"
    p.write_bytes(header % size + bytes(64))
    with pytest.raises(ValueError, match=r"dims\.img: (width|height) must be a positive integer"):
        reader(p)


@pytest.mark.parametrize("header, reader", [(b"P5\n4096 4096\n255\n", read_pgm),
                                            (b"Pf\n4096 4096\n-1\n", read_pfm)])
def test_declared_size_is_checked_against_the_file_before_reading(tmp_path, header, reader):
    # a 20-byte file whose header declares a 4096 x 4096 image
    p = tmp_path / "short.img"
    p.write_bytes(header + bytes(20 - len(header)))
    assert p.stat().st_size == 20
    with pytest.raises(ValueError, match=r"short\.img: truncated pixel data: the header "
                                         r"declares \d+ bytes, but \d remain"):
        reader(p)


def test_pgm_rejects_samples_above_maxval(tmp_path):
    p = tmp_path / "over.pgm"
    p.write_bytes(b"P5\n2 1\n100\n" + bytes([100, 200]))
    with pytest.raises(ValueError, match="over.pgm: sample 200 exceeds maxval 100"):
        read_pgm(p)
    at_max = tmp_path / "at_max.pgm"
    at_max.write_bytes(b"P5\n2 1\n100\n" + bytes([0, 100]))
    assert load_image(at_max).tolist() == [[0.0, 1.0]]
