"""Tests for the PPM codec, image operations, SVG and synthetic data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media import (MoleculeTrajectory, PpmError, SvgDocument,
                         apply_operation, crop, decode, edge_detect,
                         encode_p3, encode_p6, grayscale, image_bytes,
                         invert, molecule_to_svg, scale_half, scale_nearest,
                         starfield)
from repro.xmlcore import parse


def sample_image(width=8, height=6, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)


def whole_frame_edge_detect(image):
    """The Sobel transform in one pass over the frame (the reference the
    banded :func:`edge_detect` must match byte for byte)."""
    gray = image.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    padded = np.pad(gray, 1, mode="edge")
    gx = (padded[:-2, 2:] + 2 * padded[1:-1, 2:] + padded[2:, 2:]
          - padded[:-2, :-2] - 2 * padded[1:-1, :-2] - padded[2:, :-2])
    gy = (padded[2:, :-2] + 2 * padded[2:, 1:-1] + padded[2:, 2:]
          - padded[:-2, :-2] - 2 * padded[:-2, 1:-1] - padded[:-2, 2:])
    magnitude = np.sqrt(gx * gx + gy * gy)
    scaled = np.clip(magnitude / magnitude.max() * 255 if magnitude.max()
                     else magnitude, 0, 255).astype(np.uint8)
    return np.repeat(scaled[..., None], 3, axis=2)


class TestPpm:
    def test_p6_roundtrip(self):
        image = sample_image()
        np.testing.assert_array_equal(decode(encode_p6(image)), image)

    def test_p3_roundtrip(self):
        image = sample_image(4, 3)
        np.testing.assert_array_equal(decode(encode_p3(image)), image)

    def test_p6_and_p3_decode_identically(self):
        image = sample_image(5, 5)
        np.testing.assert_array_equal(decode(encode_p6(image)),
                                      decode(encode_p3(image)))

    def test_p3_much_larger_than_p6(self):
        image = sample_image(64, 48)
        assert len(encode_p3(image)) > 2.5 * len(encode_p6(image))

    def test_header_comments_skipped(self):
        image = sample_image(2, 2)
        raw = encode_p6(image)
        commented = raw.replace(b"P6\n", b"P6\n# telescope 12\n")
        np.testing.assert_array_equal(decode(commented), image)

    def test_not_ppm_rejected(self):
        with pytest.raises(PpmError):
            decode(b"JFIF....")

    def test_truncated_p6_rejected(self):
        raw = encode_p6(sample_image())
        with pytest.raises(PpmError):
            decode(raw[:-10])

    def test_truncated_p3_rejected(self):
        raw = encode_p3(sample_image(4, 4))
        with pytest.raises(PpmError):
            decode(raw[: len(raw) // 2])

    def test_bad_shape_rejected(self):
        with pytest.raises(PpmError):
            encode_p6(np.zeros((4, 4), dtype=np.uint8))

    def test_non_uint8_clipped(self):
        image = np.full((2, 2, 3), 300.0)
        decoded = decode(encode_p6(image))
        assert decoded.max() == 255

    def test_paper_image_size(self):
        assert image_bytes(640, 480) == 921600  # "close to 1MB"

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**31 - 1))
    def test_p6_roundtrip_property(self, w, h, seed):
        image = sample_image(w, h, seed)
        np.testing.assert_array_equal(decode(encode_p6(image)), image)


class TestOps:
    def test_grayscale_channels_equal(self):
        gray = grayscale(sample_image())
        np.testing.assert_array_equal(gray[..., 0], gray[..., 1])
        np.testing.assert_array_equal(gray[..., 1], gray[..., 2])

    def test_scale_nearest_dimensions(self):
        out = scale_nearest(sample_image(8, 6), 4, 3)
        assert out.shape == (3, 4, 3)

    def test_scale_nearest_upscale(self):
        out = scale_nearest(sample_image(4, 4), 8, 8)
        assert out.shape == (8, 8, 3)

    def test_scale_nearest_bad_dims(self):
        with pytest.raises(ValueError):
            scale_nearest(sample_image(), 0, 5)

    def test_scale_half_is_quarter_pixels(self):
        image = sample_image(640, 480)
        half = scale_half(image)
        assert half.shape == (240, 320, 3)
        # quality step: 1/4 the bytes
        assert half.nbytes * 4 == image.nbytes

    def test_scale_half_averages(self):
        image = np.zeros((2, 2, 3), dtype=np.uint8)
        image[0, 0] = 100
        image[1, 1] = 100
        half = scale_half(image)
        assert half[0, 0, 0] == 50

    def test_edge_detect_finds_edges(self):
        image = np.zeros((16, 16, 3), dtype=np.uint8)
        image[:, 8:] = 255  # vertical step edge
        edges = edge_detect(image)
        assert edges[8, 8, 0] > 200     # strong response at the edge
        assert edges[8, 2, 0] < 30      # quiet in flat regions

    def test_edge_detect_black_image(self):
        edges = edge_detect(np.zeros((8, 8, 3), dtype=np.uint8))
        assert edges.max() == 0

    @pytest.mark.parametrize("height,width", [
        (1, 1), (1, 7), (7, 1), (63, 5), (64, 9), (65, 9), (129, 41),
        (480, 640)])
    def test_edge_detect_bands_match_a_whole_frame_pass(self, height, width):
        image = sample_image(width, height, seed=height * width)
        np.testing.assert_array_equal(edge_detect(image),
                                      whole_frame_edge_detect(image))

    def test_edge_detect_starfield_and_strided_input_match(self):
        for image in (starfield(640, 480, seed=2),
                      sample_image(300, 200)[::2, ::3]):
            np.testing.assert_array_equal(edge_detect(image),
                                          whole_frame_edge_detect(image))

    def test_edge_detect_float_temporaries_stay_small(self):
        import tracemalloc
        image = starfield(640, 480, seed=1)
        tracemalloc.start()
        try:
            edge_detect(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-frame pass peaks at 16.4 MB
        assert peak < 8 * 2**20

    def test_crop(self):
        image = sample_image(10, 10)
        region = crop(image, 2, 3, 4, 5)
        assert region.shape == (5, 4, 3)
        np.testing.assert_array_equal(region, image[3:8, 2:6])

    def test_crop_clamps_to_bounds(self):
        assert crop(sample_image(5, 5), 3, 3, 10, 10).shape == (2, 2, 3)

    def test_crop_outside_rejected(self):
        with pytest.raises(ValueError):
            crop(sample_image(5, 5), 9, 0, 2, 2)

    def test_invert_involutive(self):
        image = sample_image()
        np.testing.assert_array_equal(invert(invert(image)), image)

    def test_apply_operation_dispatch(self):
        image = sample_image()
        np.testing.assert_array_equal(apply_operation("identity", image),
                                      image)
        with pytest.raises(KeyError):
            apply_operation("sharpen", image)


class TestSvg:
    def test_valid_xml(self):
        doc = SvgDocument(100, 50, background="black")
        doc.circle(10, 10, 3, fill="red")
        doc.line(0, 0, 100, 50)
        doc.text(5, 40, "m51")
        root = parse(doc.to_xml().split("?>", 1)[1])
        assert root.tag == "svg"
        assert root.get("width") == "100"
        assert len(root) == 4  # rect + circle + line + text

    def test_molecule_rendering(self):
        atoms = [{"id": 0, "x": 0.25, "y": 0.5},
                 {"id": 1, "x": 0.75, "y": 0.5}]
        svg = molecule_to_svg(atoms, [(0, 1)], width=200, height=100)
        root = parse(svg.split("?>", 1)[1])
        circles = [e for e in root if e.tag == "circle"]
        lines = [e for e in root if e.tag == "line"]
        assert len(circles) == 2
        assert len(lines) == 1
        assert circles[0].get("cx") == "50"

    def test_dangling_bond_skipped(self):
        svg = molecule_to_svg([{"id": 0, "x": 0.5, "y": 0.5}], [(0, 99)])
        root = parse(svg.split("?>", 1)[1])
        assert not [e for e in root if e.tag == "line"]

    def test_size_roughly_16kb_for_viz_workload(self):
        """The remote-viz measurement uses ~16KB SVG responses."""
        trajectory = MoleculeTrajectory(n_atoms=150, seed=1)
        ts = trajectory.timestep()
        svg = molecule_to_svg(ts["atoms"],
                              [(b["a"], b["b"]) for b in ts["bonds"]])
        assert 4_000 < len(svg) < 64_000


class TestSynth:
    def test_starfield_shape_and_determinism(self):
        a = starfield(64, 48, n_stars=10, seed=5)
        b = starfield(64, 48, n_stars=10, seed=5)
        assert a.shape == (48, 64, 3)
        np.testing.assert_array_equal(a, b)

    def test_starfield_has_stars_and_darkness(self):
        frame = starfield(128, 96, n_stars=20, seed=2)
        assert frame.max() > 150     # bright stars
        assert np.median(frame) < 30  # dark sky

    def test_default_is_paper_resolution(self):
        frame = starfield()
        assert frame.shape == (480, 640, 3)
        assert frame.nbytes == 921600

    def test_trajectory_determinism(self):
        a = MoleculeTrajectory(n_atoms=20, seed=9).run(3)
        b = MoleculeTrajectory(n_atoms=20, seed=9).run(3)
        assert a == b

    def test_trajectory_steps_increment(self):
        steps = MoleculeTrajectory(n_atoms=10).run(4)
        assert [s["step"] for s in steps] == [0, 1, 2, 3]

    def test_atoms_stay_in_unit_box(self):
        trajectory = MoleculeTrajectory(n_atoms=30, step_size=0.2, seed=3)
        for _ in range(50):
            trajectory.advance()
        ts = trajectory.timestep()
        for atom in ts["atoms"]:
            assert 0.0 <= atom["x"] <= 1.0
            assert 0.0 <= atom["y"] <= 1.0

    def test_bonds_symmetric_pairs(self):
        trajectory = MoleculeTrajectory(n_atoms=40, cutoff=0.3)
        bonds = trajectory.bonds()
        assert all(a < b for a, b in bonds)
        assert len(bonds) > 0

    def test_graph_changes_over_time(self):
        trajectory = MoleculeTrajectory(n_atoms=60, cutoff=0.15, seed=11)
        first = set(trajectory.bonds())
        for _ in range(20):
            trajectory.advance()
        later = set(trajectory.bonds())
        assert first != later

    def test_timestep_size_near_4kb(self):
        """§IV-C.2: 'The size corresponding to each of the timesteps ...
        is about 4KB' — check the PBIO encoding of one timestep."""
        from repro.pbio import CodecCompiler, Format, FormatRegistry
        registry = FormatRegistry()
        registry.register(Format.from_dict(
            "Atom", {"id": "int32", "x": "float64", "y": "float64",
                     "z": "float64"}))
        registry.register(Format.from_dict("Bond", {"a": "int32",
                                                    "b": "int32"}))
        ts_fmt = Format.from_dict(
            "Timestep", {"step": "int32", "atoms": "struct Atom[]",
                         "bonds": "struct Bond[]"})
        registry.register(ts_fmt)
        compiler = CodecCompiler(registry)
        ts = MoleculeTrajectory().timestep()
        payload = compiler.encoder(ts_fmt)(ts)
        assert 3_000 < len(payload) < 6_000
