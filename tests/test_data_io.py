import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caggnet.data_io import (
    NetpbmError,
    Sample,
    SynthConfig,
    gen_synthetic,
    load_dataset,
    read_json,
    read_mask,
    read_netpbm,
    save_dataset,
    split,
    split_from_manifest,
    write_atomic,
    write_netpbm,
)
from caggnet.tensor_core import Tensor4


def disk_pixel_count(r):
    """Lattice points with x^2 + y^2 <= r^2 (independent mask-area oracle)."""
    count = 0
    for y in range(-r, r + 1):
        for x in range(-r, r + 1):
            if x * x + y * y <= r * r:
                count += 1
    return count


class TestReadNetpbm:
    def test_p5_hand_values(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = read_netpbm(path)
        assert img.data.shape == (1, 1, 2, 2)
        expect = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        assert np.allclose(img.data[0, 0], expect, rtol=0, atol=1e-12)
        assert abs(img.data[0, 0, 1, 0] - 0.50196078) < 1e-6
        assert abs(img.data[0, 0, 1, 1] - 0.25098039) < 1e-6

    def test_p6_channel_unpack(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = read_netpbm(path)
        assert img.data.shape == (1, 3, 1, 1)
        assert np.array_equal(img.data.reshape(3), [1.0, 0.0, 0.0])

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "b.pbm"
        path.write_bytes(b"P4\n2 2\n")
        with pytest.raises(NetpbmError, match="P4.*byte 0"):
            read_netpbm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(NetpbmError, match="maxval"):
            read_netpbm(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        # 11 header bytes + 3 of the 4 payload bytes: data ends at byte 14
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(NetpbmError, match="truncated payload at byte 14"):
            read_netpbm(path)

    def test_zero_extent_names_the_file(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n0 2\n255\n")
        with pytest.raises(NetpbmError, match="extents 0x2") as exc:
            read_netpbm(path)
        assert str(path) in str(exc.value)

    # headers that Python's `int` would read as 4x4 with maxval 255
    @pytest.mark.parametrize("header, named", [
        (b"P5 +4 4 255\n", "bad width b'+4' ending at byte 5"),
        (b"P5 4 4 2_55\n", "bad maxval b'2_55' ending at byte 11"),
        (b"P5 0_4 +4 +255\n", "bad width b'0_4' ending at byte 6"),
        # more digits than Python's `int` converts; only the first 16 shown
        (b"P5 " + b"1" * 5000 + b" 4 255\n",
         "bad width b'1111111111111111'... ending at byte 5003"),
    ])
    def test_header_integers_must_be_ascii_digits(self, tmp_path, header, named):
        path = tmp_path / "s.pgm"
        path.write_bytes(header + bytes(16))
        with pytest.raises(NetpbmError) as exc:
            read_netpbm(path)
        assert named in str(exc.value) and str(path) in str(exc.value)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([7, 9]))
        img = read_netpbm(path)
        assert img.data.shape == (1, 1, 1, 2)

    def test_round_trip_bytes(self, tmp_path, rng):
        for c, name in ((1, "g.pgm"), (3, "c.ppm")):
            img = Tensor4(rng.integers(0, 256, size=(1, c, 5, 7)).astype(float) / 255)
            path = tmp_path / name
            write_netpbm(path, img)
            again = read_netpbm(path)
            path2 = tmp_path / f"again_{name}"
            write_netpbm(path2, again)
            assert path.read_bytes() == path2.read_bytes()
            assert np.allclose(again.data, img.data, atol=1e-12)

    def test_mask_binarizes_above_127(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 127, 128, 255]))
        mask = read_mask(path)
        assert np.array_equal(mask.data.reshape(4), [0.0, 0.0, 1.0, 1.0])


# Netpbm header properties: derandomized, so a run is reproducible, with a
# small example budget, since each example writes and parses files.
PROPERTY = settings(derandomize=True, database=None, max_examples=30,
                    deadline=None)

_ws = st.sampled_from([bytes([b]) for b in b" \t\r\n\x0b\x0c"])
_comment = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
# between header tokens: at least one whitespace byte, then any run of
# whitespace and comments
_sep = st.builds(lambda first, rest: first + b"".join(rest),
                 _ws, st.lists(st.one_of(_ws, _comment), max_size=3))


@st.composite
def netpbm_files(draw):
    """(canonical file, same image with a drawn header layout)."""
    channels = draw(st.sampled_from([1, 3]))
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    payload = draw(st.binary(min_size=h * w * channels, max_size=h * w * channels))
    magic = b"P5" if channels == 1 else b"P6"
    canonical = magic + b"\n%d %d\n255\n" % (w, h) + payload
    seps = [draw(_sep) for _ in range(3)]
    layout = (magic + seps[0] + b"%d" % w + seps[1] + b"%d" % h + seps[2]
              + b"255" + draw(_ws) + payload)
    return canonical, layout


@pytest.fixture(scope="module")
def pbm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("netpbm")


class TestNetpbmHeaderProperties:
    @PROPERTY
    @given(files=netpbm_files())
    def test_any_header_layout_parses_the_same(self, pbm_dir, files):
        canonical, layout = files
        (pbm_dir / "a.pgm").write_bytes(canonical)
        (pbm_dir / "b.pgm").write_bytes(layout)
        a, b = read_netpbm(pbm_dir / "a.pgm"), read_netpbm(pbm_dir / "b.pgm")
        assert a.data.shape == b.data.shape
        assert a.data.tobytes() == b.data.tobytes()

    @settings(PROPERTY, max_examples=10)
    @given(files=netpbm_files())
    def test_every_truncated_prefix_names_the_file(self, pbm_dir, files):
        _, layout = files
        cut = pbm_dir / "cut.pgm"
        for k in range(len(layout)):
            cut.write_bytes(layout[:k])
            with pytest.raises(NetpbmError) as exc:
                read_netpbm(cut)
            assert str(cut) in str(exc.value)


class TestGenSynthetic:
    def test_noise_free_single_blob_is_exact_disk(self):
        cfg = SynthConfig(count=1, size=32, blobs_min=1, blobs_max=1,
                          radius_min=4, radius_max=4, noise_sigma=0.0, seed=5)
        s = gen_synthetic(cfg)[0]
        mask = s.mask.data[0, 0]
        assert mask.sum() == disk_pixel_count(4)
        # image is 0.1 background with 0.8 on the mask, exactly
        assert np.array_equal(s.image.data[0, 0], np.where(mask == 1, 0.8, 0.1))

    def test_deterministic_from_seed(self):
        cfg = SynthConfig(count=4, size=16, seed=9)
        a = gen_synthetic(cfg)
        b = gen_synthetic(cfg)
        for sa, sb in zip(a, b):
            assert sa.id == sb.id
            assert sa.image.data.tobytes() == sb.image.data.tobytes()
            assert sa.mask.data.tobytes() == sb.mask.data.tobytes()

    def test_mask_image_alignment_under_noise(self):
        noisy = gen_synthetic(SynthConfig(count=3, size=16, noise_sigma=0.05,
                                          seed=3))
        clean = gen_synthetic(SynthConfig(count=3, size=16, noise_sigma=0.0,
                                          seed=3))
        for n, c in zip(noisy, clean):
            assert np.array_equal(n.mask.data, c.mask.data)
            assert np.all(c.image.data[c.mask.data == 1] == 0.8)

    def test_values_bounded(self):
        for s in gen_synthetic(SynthConfig(count=5, size=16, noise_sigma=0.2,
                                           seed=2)):
            assert s.image.data.min() >= 0.0
            assert s.image.data.max() <= 1.0

    def test_foreground_fraction_within_radius_bounds(self):
        cfg = SynthConfig(count=100, size=32, blobs_min=1, blobs_max=3,
                          radius_min=3, radius_max=6, noise_sigma=0.0, seed=11)
        lo = disk_pixel_count(cfg.radius_min) / cfg.size ** 2
        hi = cfg.blobs_max * disk_pixel_count(cfg.radius_max) / cfg.size ** 2
        for s in gen_synthetic(cfg):
            frac = s.mask.data.mean()
            assert lo <= frac <= hi

    def test_config_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            SynthConfig(size=24).validate()
        with pytest.raises(ValueError, match="radius"):
            SynthConfig(size=16, radius_max=9).validate()


class TestSplit:
    def make_samples(self, n):
        cfg = SynthConfig(count=n, size=16, seed=1)
        return gen_synthetic(cfg)

    def test_fraction_arithmetic(self):
        train, val = split(self.make_samples(10), 0.8, seed=0)
        assert len(train) == 8 and len(val) == 2

    def test_partition_property(self):
        samples = self.make_samples(10)
        train, val = split(samples, 0.7, seed=4)
        assert {s.id for s in train} | {s.id for s in val} == {s.id for s in samples}
        assert not ({s.id for s in train} & {s.id for s in val})

    def test_deterministic(self):
        samples = self.make_samples(10)
        a = split(samples, 0.8, seed=2)
        b = split(samples, 0.8, seed=2)
        assert [s.id for s in a[0]] == [s.id for s in b[0]]

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split(self.make_samples(2), 0.9, seed=0)


class TestDatasetDirectory:
    def test_save_load_round_trip(self, tmp_path):
        samples = gen_synthetic(SynthConfig(count=4, size=16, seed=8))
        ids = [s.id for s in samples]
        save_dataset(tmp_path, samples,
                     split_ids={"train": ids[:3], "val": ids[3:]})
        loaded, manifest = load_dataset(tmp_path)
        assert [s.id for s in loaded] == ids
        for orig, back in zip(samples, loaded):
            assert np.array_equal(orig.mask.data, back.mask.data)
            # images round-trip through 8-bit quantization
            assert np.max(np.abs(orig.image.data - back.image.data)) <= 0.5 / 255
        train, val = split_from_manifest(loaded, manifest)
        assert len(train) == 3 and len(val) == 1

    def test_sample_invariants(self, rng):
        with pytest.raises(ValueError, match="mask"):
            Sample(image=Tensor4(rng.uniform(0, 1, (1, 1, 4, 4))),
                   mask=Tensor4(rng.uniform(0, 1, (1, 1, 4, 4))), id="x")


_json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                              kids, max_size=3),
    max_leaves=6).map(lambda v: json.dumps(v).encode())


class TestReadJson:
    @settings(PROPERTY, max_examples=150)
    @given(data=st.binary(max_size=32) | _json_docs | st.tuples(
        _json_docs, st.integers(0, 40), st.binary(min_size=1, max_size=3)).map(
            lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]))
    def test_any_bytes_give_an_object_or_an_error_naming_the_file(self, pbm_dir, data):
        path = pbm_dir / "m.json"
        path.write_bytes(data)
        try:
            value = read_json(path)
        except ValueError as e:
            assert str(e).startswith(f"{path}: ")
        else:
            assert isinstance(value, dict)


def write_half_then_fail(self, data):
    """Stands in for `Path.write_text` or `Path.write_bytes`: the disk
    fills halfway through."""
    with open(self, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data[:len(data) // 2])
    raise OSError("No space left on device")


class TestWriteAtomic:
    def test_replaces_the_whole_file(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text("x" * 100)
        write_atomic(target, "epoch\n")
        assert target.read_text() == "epoch\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    def test_failed_write_leaves_the_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "log.csv"
        target.write_text("previous\n")
        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="No space"):
            write_atomic(target, "epoch,train_loss\n" * 10)
        assert target.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    def test_failed_manifest_write_keeps_the_previous_manifest(self, tmp_path,
                                                               monkeypatch):
        samples = gen_synthetic(SynthConfig(count=2, size=16, seed=8))
        save_dataset(tmp_path, samples)
        before = (tmp_path / "manifest.json").read_bytes()
        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError):
            save_dataset(tmp_path, samples, {"train": ["a"], "val": ["b"]})
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert not (tmp_path / ".manifest.json.tmp").exists()

    def test_failed_netpbm_write_leaves_the_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "mask.pgm"
        write_netpbm(target, Tensor4(np.zeros((1, 1, 4, 6))))
        before = target.read_bytes()
        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError, match="No space"):
            write_netpbm(target, Tensor4(np.ones((1, 1, 4, 6))))
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["mask.pgm"]
