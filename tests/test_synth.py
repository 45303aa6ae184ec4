"""Signal synthesis: closed-form channel checks, radar peak-bin placement,
an O(N^2) DFT-matrix oracle and a per-slice FFT oracle for the radar maps,
raster and dataset invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from map_oracle import map_cells, rasterize_dense
from misac import synth
from misac.config import desk_config
from misac.synth import (
    ChannelSample,
    PathParams,
    RadarParams,
    Scatterer,
    SceneSpec,
    SynthConfig,
)

C = synth.C_LIGHT

# float64 bit patterns a map codec could mangle: -0.0, the smallest and
# largest subnormals, +-inf, a quiet NaN with a payload, a signalling NaN and
# a negative NaN
SPECIAL_BITS = [
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x000F_FFFF_FFFF_FFFF,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x7FF8_0000_DEAD_BEEF,
    0x7FF0_0000_0000_0001,
    0xFFF8_0000_0000_0000,
]


def replaced(a, where, value):
    a = a.copy()
    a[where] = value
    return a


# a sample file that contradicts the manifest's config, holds a non-finite
# value, or is a map file whose cell rows rasterization could not have
# written: the modality of the file, how it is rewritten (given the map
# resolution), and what the error says after the file's name
FILE_FAULTS = {
    "map_complex": ("map", lambda a, res: a.astype(np.complex128), " holds .*the manifest's config gives"),
    "radar_three_maps": ("radar", lambda a, res: np.concatenate([a, a[:1]]), " holds .*the manifest's config gives"),
    "csi_float": ("csi", lambda a, res: a.real, " holds .*the manifest's config gives"),
    "map_four_columns": ("map", lambda a, res: a[:, :4], r" holds float64 \(\d+, 4\); .* gives float64 \(k, 5\)"),
    "map_index_past_the_grid": (
        "map",
        lambda a, res: replaced(a, (-1, 0), res * res),
        r": map cell row \d+ \(index \d+\.0\) is outside \[0, \d+\)",
    ),
    "map_index_repeated": ("map", lambda a, res: replaced(a, (1, 0), a[0, 0]), ": map cell row 1 .* is not above"),
    "map_index_decreasing": ("map", lambda a, res: a[[1, 0, *range(2, len(a))]], ": map cell row 1 .* is not above"),
    "map_index_not_integral": (
        "map", lambda a, res: replaced(a, (0, 0), a[0, 0] + 0.5), ": map cell row 0 .* is not an integer"
    ),
    "map_all_zero_cell": (
        "map", lambda a, res: replaced(a, (2, slice(1, None)), 0.0), r": map cell row 2 .* all \+0\.0"
    ),
    "csi_nan": ("csi", lambda a, res: replaced(a, (0, 1), complex(np.nan, 0.0)), " holds a non-finite value"),
    "radar_inf": ("radar", lambda a, res: replaced(a, (1, 2, 3), np.inf), " holds a non-finite value"),
    "map_nan_channel": ("map", lambda a, res: replaced(a, (3, 4), np.nan), " holds a non-finite value"),
}


def one_scatterer_scene(position, reflectivity=1.0, velocity=(0.0, 0.0), rx=(-80.0, 0.0, 10.0)):
    return SceneSpec(
        scatterers=(Scatterer(position=position, reflectivity=reflectivity, velocity=velocity),),
        tx_position=(0.0, 0.0, 2.0),
        rx_position=rx,
    )


class TestSteeringAndChannel:
    def test_steering_boresight_is_ones(self):
        v = synth.steering_vector(0.0, 8)
        np.testing.assert_allclose(v, np.ones(8), atol=1e-15)

    def test_steering_frozen_quarter_turns(self):
        # spacing 0.5, sin(pi/6) = 0.5 -> phase step pi/2 per element
        v = synth.steering_vector(math.pi / 6, 4)
        np.testing.assert_allclose(v, [1, 1j, -1, -1j], atol=1e-12)

    def test_steering_rejects_back_halfplane(self):
        with pytest.raises(synth.SceneError):
            synth.steering_vector(math.pi, 4)

    def test_subcarrier_grid(self):
        f = synth.subcarrier_frequencies(3.5e9, 20e6, 5)
        np.testing.assert_allclose(f, 3.5e9 + np.array([-10e6, -5e6, 0, 5e6, 10e6]))
        np.testing.assert_allclose(synth.subcarrier_frequencies(3.5e9, 20e6, 1), [3.5e9])

    def test_single_path_closed_form(self):
        p = PathParams(beta=0.7, tau=3e-7, phi=1.1, theta=0.4)
        cs = synth.channel_response([p], f0=3.5e9, bw=20e6, n_sc=8, n_antennas=4)
        freqs = synth.subcarrier_frequencies(3.5e9, 20e6, 8)
        steer = np.exp(2j * math.pi * 0.5 * np.arange(4) * math.sin(0.4))
        want = 0.7 * np.exp(1j * 1.1) * np.outer(steer, np.exp(-2j * math.pi * freqs * 3e-7))
        np.testing.assert_allclose(cs.h.data, want, atol=1e-12)

    def test_paths_superpose_linearly(self):
        p1 = PathParams(beta=0.5, tau=2e-7, phi=0.3, theta=0.1)
        p2 = PathParams(beta=0.2, tau=5e-7, phi=2.0, theta=-0.8)
        both = synth.channel_response([p1, p2], 3.5e9, 20e6, 16, 8).h.data
        a = synth.channel_response([p1], 3.5e9, 20e6, 16, 8).h.data
        b = synth.channel_response([p2], 3.5e9, 20e6, 16, 8).h.data
        np.testing.assert_allclose(both, a + b, atol=1e-12)

    def test_empty_paths_rejected(self):
        with pytest.raises(synth.SceneError):
            synth.channel_response([], 3.5e9, 20e6, 8, 4)


class TestAwgn:
    def test_empirical_snr_within_half_db(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
        clean = ChannelSample(synth.ComplexTensor(h))
        noisy = synth.add_awgn(clean, 15.0, np.random.default_rng(11))
        p_sig = np.mean(np.abs(h) ** 2)
        p_noise = np.mean(np.abs(noisy.h.data - h) ** 2)
        assert abs(10 * math.log10(p_sig / p_noise) - 15.0) < 0.5

    def test_deterministic_under_seed(self):
        h = np.ones((4, 8), dtype=np.complex128)
        clean = ChannelSample(synth.ComplexTensor(h))
        a = synth.add_awgn(clean, 10.0, np.random.default_rng(5))
        b = synth.add_awgn(clean, 10.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a.h.data, b.h.data)


def dft2_oracle(x: np.ndarray, size: int) -> np.ndarray:
    """Zero-padded 2D DFT as explicit matrix products (FFT-free)."""
    def dft_matrix(n_in):
        k = np.arange(size)[:, None]
        n = np.arange(n_in)[None, :]
        return np.exp(-2j * np.pi * k * n / size)

    return dft_matrix(x.shape[0]) @ x @ dft_matrix(x.shape[1]).T


def per_slice_average(cube: synth.RadarCube, axis: int) -> np.ndarray:
    """The coherent map as it was taken before it transformed the mean slice:
    every slice's zero-padded (or truncated) 2D FFT, summed in slice order
    into a zeroed accumulator, divided by the slice count."""
    size = cube.params.out_size
    slices = np.moveaxis(cube.data, axis, 0)
    spectra = np.fft.fft2(slices, s=(size, size), axes=(1, 2))
    acc = np.zeros((size, size), dtype=np.complex128)
    for s in spectra:
        acc += s
    return acc / len(slices)


def assert_maps_match_per_slice_oracle(cube, ra, rv):
    """Both maps within 1e-12 of the oracle, relative to its largest bin."""
    for got, axis in ((ra, 1), (rv, 0)):
        want = per_slice_average(cube, axis)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _coord(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


SCENE_OF_SEED_9 = synth.sample_scene(SynthConfig(), np.random.default_rng(9))
# scenes inside SynthConfig's scatterer bounds, all in the radar's range
SCENES = st.builds(
    SceneSpec,
    scatterers=st.lists(
        st.builds(
            Scatterer,
            position=st.tuples(_coord(-40.0, 80.0), _coord(-70.0, 70.0), _coord(0.0, 25.0)),
            reflectivity=_coord(0.3, 1.0),
            velocity=st.tuples(_coord(-15.0, 15.0), _coord(-15.0, 15.0)),
        ),
        min_size=1,
        max_size=4,
    ).map(tuple),
    tx_position=st.just((0.0, 0.0, 2.0)),
    rx_position=st.just((-80.0, 0.0, 10.0)),
)


class TestRadar:
    def test_range_and_angle_peak_bins(self):
        params = RadarParams()
        size = params.out_size
        k_r, k_a = 11, 8
        r = k_r * params.sample_rate * C / (2.0 * params.slope * size)
        theta = math.asin(k_a / (params.spacing * size))
        rx = (-80.0, 0.0, 10.0)
        pos = (rx[0] + r * math.cos(theta), rx[1] + r * math.sin(theta), rx[2])
        scene = one_scatterer_scene(pos, rx=rx)
        ra = synth.range_angle_map(synth.radar_cube(scene, params))
        peak = np.unravel_index(np.argmax(np.abs(ra)), ra.shape)
        assert peak == (k_a, k_r)

    def test_velocity_peak_bin(self):
        params = RadarParams()
        size = params.out_size
        k_r, k_v = 20, 5
        r = k_r * params.sample_rate * C / (2.0 * params.slope * size)
        v = k_v * C / (2.0 * params.carrier * params.chirp_period * size)
        rx = (-80.0, 0.0, 10.0)
        pos = (rx[0] + r, rx[1], rx[2])  # boresight so rx averaging is coherent
        scene = one_scatterer_scene(pos, velocity=(v, 0.0), rx=rx)
        rv = synth.range_velocity_map(synth.radar_cube(scene, params))
        peak = np.unravel_index(np.argmax(np.abs(rv)), rv.shape)
        assert peak == (k_v, k_r)

    def test_maps_match_dft_oracle(self):
        cfg = SynthConfig()
        rng = np.random.default_rng(9)
        scene = synth.sample_scene(cfg, rng)
        cube = synth.radar_cube(scene, cfg.radar)
        data = cube.data
        size = cfg.radar.out_size

        ra = synth.range_angle_map(cube)
        want_ra = np.mean(
            [dft2_oracle(data[:, c, :], size) for c in range(data.shape[1])], axis=0
        )
        np.testing.assert_allclose(ra, want_ra, atol=1e-9 * np.abs(want_ra).max())

        rv = synth.range_velocity_map(cube)
        want_rv = np.mean(
            [dft2_oracle(data[m, :, :], size) for m in range(data.shape[0])], axis=0
        )
        np.testing.assert_allclose(rv, want_rv, atol=1e-9 * np.abs(want_rv).max())

    def test_magnitude_average_switch(self):
        params = RadarParams(magnitude_average=True)
        scene = one_scatterer_scene((-30.0, 20.0, 10.0), velocity=(8.0, -3.0))
        cube = synth.radar_cube(scene, params)
        ra = synth.range_angle_map(cube)
        want = np.mean(
            [np.abs(dft2_oracle(cube.data[:, c, :], 64)) for c in range(16)], axis=0
        )
        np.testing.assert_allclose(ra, want, atol=1e-9 * want.max())
        assert np.all(ra.imag == 0)

    def test_desk_dataset_maps_match_per_slice_oracle(self):
        desk = desk_config()
        cfg = desk.data.synth_config(desk.model)
        samples, _ = synth.synth_dataset(cfg, 32, seed=5)
        for s in samples:
            scene = synth.sample_scene(cfg, np.random.default_rng(5 ^ s.index))  # synth_sample's substream
            assert_maps_match_per_slice_oracle(synth.radar_cube(scene, cfg.radar), *s.radar.data)

    # out_size above every cube extent (zero-padding), below them
    # (truncation), and a single chirp or a single rx element
    @example(scene=SCENE_OF_SEED_9, out_size=64, n_chirp=16, n_rx=8)
    @example(scene=SCENE_OF_SEED_9, out_size=8, n_chirp=16, n_rx=8)
    @example(scene=SCENE_OF_SEED_9, out_size=16, n_chirp=16, n_rx=8)
    @example(scene=SCENE_OF_SEED_9, out_size=64, n_chirp=1, n_rx=8)
    @example(scene=SCENE_OF_SEED_9, out_size=64, n_chirp=16, n_rx=1)
    @example(scene=SCENE_OF_SEED_9, out_size=8, n_chirp=1, n_rx=1)
    @settings(max_examples=60, deadline=None)
    @given(
        scene=SCENES,
        out_size=st.sampled_from([8, 16, 33, 64]),
        n_chirp=st.integers(1, 16),
        n_rx=st.integers(1, 8),
    )
    def test_maps_match_per_slice_oracle(self, scene, out_size, n_chirp, n_rx):
        params = RadarParams(n_chirp=n_chirp, n_rx=n_rx, out_size=out_size)
        cube = synth.radar_cube(scene, params)
        assert_maps_match_per_slice_oracle(cube, synth.range_angle_map(cube), synth.range_velocity_map(cube))

    def test_single_slice_parseval(self):
        # unnormalized FFT: sum |X|^2 == prod(padded dims) * sum |x|^2
        params = RadarParams(n_chirp=1)
        scene = one_scatterer_scene((-20.0, -15.0, 5.0))
        cube = synth.radar_cube(scene, params)
        ra = synth.range_angle_map(cube)
        lhs = np.sum(np.abs(ra) ** 2)
        rhs = 64 * 64 * np.sum(np.abs(cube.data[:, 0, :]) ** 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_target_beyond_unambiguous_range_rejected(self):
        params = RadarParams()
        r_bad = params.max_range + 1.0
        scene = SceneSpec(
            scatterers=(Scatterer(position=(95.0, 70.0, 0.0), reflectivity=1.0),),
            tx_position=(0.0, 0.0, 2.0),
            rx_position=(-95.0, -70.0, 10.0),
        )
        assert np.linalg.norm(np.array([95.0, 70.0, 0.0]) - np.array([-95.0, -70.0, 10.0])) > r_bad - 2
        with pytest.raises(synth.SceneError):
            synth.radar_cube(scene, params)


class TestRaster:
    def test_center_scatterer_hits_center_cell(self):
        scene = one_scatterer_scene((0.0, 0.0, 12.0))
        smap = synth.rasterize_scene(scene)
        assert smap.bev.shape == (256, 256, 3)
        assert smap.bev[128, 128, 0] == 1.0
        assert smap.height[128, 128, 0] == 12.0

    def test_height_keeps_max_per_cell(self):
        scene = SceneSpec(
            scatterers=(
                Scatterer(position=(0.0, 0.0, 5.0), reflectivity=1.0),
                Scatterer(position=(0.1, 0.1, 21.0), reflectivity=1.0),
            ),
            tx_position=(50.0, 0.0, 2.0),
            rx_position=(-80.0, 0.0, 10.0),
        )
        smap = synth.rasterize_scene(scene)
        assert smap.height[128, 128, 0] == 21.0

    def test_markers_present_and_disjoint_channels(self):
        scene = one_scatterer_scene((10.0, 10.0, 3.0))
        smap = synth.rasterize_scene(scene)
        assert smap.bev[..., 1].sum() > 0  # tx disc
        assert smap.bev[..., 2].sum() > 0  # rx disc
        assert set(np.unique(smap.bev)) <= {0.0, 1.0}

    @pytest.mark.parametrize("resolution", [64, 128, 256])
    def test_rows_match_the_dense_raster_byte_for_byte(self, resolution):
        # scenes from the desk ranges, and from ranges that put markers on the
        # footprint's edge, scatterers below ground and many in one cell
        edges = SynthConfig(
            n_scatterers=(1, 40), scatter_x=(-100.0, 100.0), scatter_y=(-100.0, 100.0), scatter_z=(-5.0, 25.0),
            tx_x=(-100.0, 100.0), tx_y=(-100.0, 100.0), rx_position=(100.0, -100.0, 10.0),
        )
        for cfg in (SynthConfig(), edges):
            for seed in range(60):
                scene = synth.sample_scene(cfg, np.random.default_rng(seed))
                for radius in (3.0, 0.1, 9.0):
                    smap = synth.rasterize_scene(scene, resolution, radius)
                    want = map_cells(rasterize_dense(scene, resolution, radius))
                    assert smap.resolution == resolution and smap.rows.dtype == want.dtype
                    assert smap.rows.shape == want.shape and smap.rows.tobytes() == want.tobytes()

    def test_resolution_below_one_rejected(self):
        with pytest.raises(synth.SceneError, match="map resolution must be >= 1"):
            synth.rasterize_scene(one_scatterer_scene((0.0, 0.0, 1.0)), 0)

    def test_empty_scene_rejected(self):
        with pytest.raises(synth.SceneError):
            SceneSpec(scatterers=(), tx_position=(0, 0, 1), rx_position=(-80, 0, 10))


class TestLabels:
    def test_beam_label_against_bruteforce(self):
        cfg = SynthConfig()
        rng = np.random.default_rng(21)
        scene = synth.sample_scene(cfg, rng)
        paths = synth.scene_to_paths(scene, cfg, rng)
        csi = synth.channel_response(paths, cfg.f0, cfg.bw, cfg.n_sc, cfg.n_antennas)
        labels = synth.derive_labels(scene, paths, csi, cfg)
        h_c = csi.h.data[:, cfg.n_sc // 2]
        book = synth.beam_codebook(cfg.n_antennas, cfg.n_beams)
        best, best_gain = 0, -1.0
        for b in range(cfg.n_beams):
            gain = abs(sum(book[b, a].conjugate() * h_c[a] for a in range(cfg.n_antennas)))
            if gain > best_gain:
                best, best_gain = b, gain
        assert labels.beam_index == best

    def test_aoa_is_dominant_path_and_in_range(self):
        cfg = SynthConfig(include_los=False)
        rng = np.random.default_rng(2)
        scene = synth.sample_scene(cfg, rng)
        paths = synth.scene_to_paths(scene, cfg, rng)
        csi = synth.channel_response(paths, cfg.f0, cfg.bw, cfg.n_sc, cfg.n_antennas)
        labels = synth.derive_labels(scene, paths, csi, cfg)
        dominant = max(paths, key=lambda p: p.beta)
        assert labels.aoa_rad == dominant.theta
        assert -math.pi / 2 < labels.aoa_rad <= math.pi / 2

    def test_los_dominates_when_enabled(self):
        cfg = SynthConfig(include_los=True)
        rng = np.random.default_rng(4)
        scene = synth.sample_scene(cfg, rng)
        paths = synth.scene_to_paths(scene, cfg, rng)
        delta = np.asarray(scene.tx_position) - np.asarray(scene.rx_position)
        want = math.atan2(delta[1], delta[0])
        assert max(paths, key=lambda p: p.beta).theta == pytest.approx(want)


class TestDataset:
    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = SynthConfig(availability={"csi": 1.0, "radar": 0.7, "map": 0.5})
        d1, d2 = tmp_path / "a", tmp_path / "b"
        _, m1 = synth.synth_dataset(cfg, 12, 7, out_dir=d1)
        _, m2 = synth.synth_dataset(cfg, 12, 7, out_dir=d2)
        assert synth.manifest_hash(m1) == synth.manifest_hash(m2)
        assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
        for f in sorted(d1.iterdir()):
            assert (d1 / f.name).read_bytes() == (d2 / f.name).read_bytes()

    def test_different_seed_changes_hash(self, tmp_path):
        cfg = SynthConfig()
        _, m1 = synth.synth_dataset(cfg, 4, 7)
        _, m2 = synth.synth_dataset(cfg, 4, 8)
        assert synth.manifest_hash(m1) != synth.manifest_hash(m2)

    def test_availability_counts_exact(self):
        cfg = SynthConfig(availability={"csi": 1.0, "radar": 0.7, "map": 0.5})
        samples, _ = synth.synth_dataset(cfg, 20, 3)
        assert sum(s.csi is not None for s in samples) == 20
        assert sum(s.radar is not None for s in samples) == 14
        assert sum(s.map is not None for s in samples) == 10

    def test_synthesized_and_loaded_maps_share_one_layout(self, tmp_path):
        # a map is its file's cell rows whether synthesized or loaded; no grid is built
        generated, _ = synth.synth_dataset(SynthConfig(map_resolution=64), 2, 4, out_dir=tmp_path)
        loaded, _ = synth.load_dataset(tmp_path)
        for smap in (generated[0].map, loaded[0].map):
            assert smap.resolution == 64 and smap.rows.dtype == np.float64
            assert smap.rows.ndim == 2 and smap.rows.shape[1] == 5 and smap.rows.flags.c_contiguous
            assert smap.rows.flags.writeable and smap.rows.ctypes.data % 8 == 0
        assert generated[0].map.rows.tobytes() == loaded[0].map.rows.tobytes()

    def test_roundtrip_through_disk(self, tmp_path):
        cfg = SynthConfig(availability={"csi": 1.0, "radar": 0.5, "map": 1.0})
        generated, _ = synth.synth_dataset(cfg, 6, 11, out_dir=tmp_path)
        loaded, manifest = synth.load_dataset(tmp_path)
        assert len(loaded) == 6
        for a, b in zip(generated, loaded):
            assert a.available == b.available
            assert a.labels == b.labels
            if a.csi is not None:
                np.testing.assert_array_equal(a.csi.h.data, b.csi.h.data)
            if a.radar is not None:
                np.testing.assert_array_equal(a.radar.ra.data, b.radar.ra.data)
                np.testing.assert_array_equal(a.radar.rv.data, b.radar.rv.data)
            if a.map is not None:
                np.testing.assert_array_equal(a.map.bev, b.map.bev)
                np.testing.assert_array_equal(a.map.height, b.map.height)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda m: m.pop("config"), "config"),
            (lambda m: m["config"].pop("n_sc"), "n_sc"),
            (lambda m: m.pop("samples"), "samples"),
            (lambda m: m["samples"][0].pop("files"), "files"),
            (lambda m: m["samples"][0].pop("labels"), "labels"),
            (lambda m: m["samples"][1]["labels"].pop("beam_index"), "beam_index"),
            (lambda m: m["samples"][1].pop("index"), "index"),
            (lambda m: m["samples"][1].pop("available"), "available"),
        ],
        ids=["config", "n_sc", "samples", "files", "labels", "beam_index", "index", "available"],
    )
    def test_manifest_missing_key_is_named(self, tmp_path, edit, key):
        synth.synth_dataset(SynthConfig(), 2, 11, out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(synth.SceneError, match=repr(key)):
            synth.load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "edit, where, key",
        [
            (lambda m: m.update(config=[]), "the manifest", "config"),
            (lambda m: m["config"].update(map_resolution=256.0), "config", "map_resolution"),
            (lambda m: m.update(samples={}), "the manifest", "samples"),
            (lambda m: m["samples"][0].update(files=list(m["samples"][0]["files"])), "sample 0", "files"),
            (lambda m: m["samples"][1]["files"].update(csi=7), "sample 1 files", "csi"),
            (lambda m: m["samples"][0].update(labels=[1, 2, 3]), "sample 0", "labels"),
            (lambda m: m["samples"][1]["labels"].update(beam_index=2.0), "sample 1 labels", "beam_index"),
            (lambda m: m["samples"][0]["labels"].update(distance_m="far"), "sample 0 labels", "distance_m"),
            (lambda m: m["samples"][1]["labels"].update(aoa_rad=True), "sample 1 labels", "aoa_rad"),
            (lambda m: m["samples"][1].update(index="1"), "sample 1", "index"),
            (lambda m: m["config"].update(map_resolution=-1), "config", "map_resolution"),
            (lambda m: m["config"].update(n_t=0), "config", "n_t"),
            (lambda m: m["config"].update(n_r=-2), "config", "n_r"),
            (lambda m: m["config"].update(n_sc=0), "config", "n_sc"),
            (lambda m: m["config"]["radar"].update(out_size=0), "config radar", "out_size"),
        ],
        ids=[
            "config", "map_resolution", "samples", "files", "file_name", "labels", "beam_index", "distance_m",
            "aoa_rad", "index", "map_resolution_negative", "n_t_zero", "n_r_negative", "n_sc_zero", "out_size_zero",
        ],
    )
    def test_manifest_wrong_type_is_named(self, tmp_path, edit, where, key):
        synth.synth_dataset(SynthConfig(), 2, 11, out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(synth.SceneError, match=f"{where} {key!r} must be"):
            synth.load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "key, value, says",
        [
            ("beam_index", -1, "must be >= 0, got -1"),
            ("beam_index", 16, "must be < 16, got 16"),
            ("distance_m", math.nan, "must be finite, got nan"),
            ("aoa_rad", -math.inf, "must be finite, got -inf"),
        ],
        ids=["beam_negative", "beam_past_the_codebook", "distance_nan", "aoa_inf"],
    )
    def test_label_no_task_can_use_is_named(self, tmp_path, key, value, says):
        # json writes and reads NaN and -Infinity; a beam index must pick one of the 16 codebook beams
        synth.synth_dataset(SynthConfig(), 2, 11, out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["samples"][1]["labels"][key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(synth.SceneError, match=f"sample 1 labels {key!r} {says}"):
            synth.load_dataset(tmp_path)

    @pytest.mark.parametrize("kind, edit, says", FILE_FAULTS.values(), ids=FILE_FAULTS.keys())
    def test_sample_file_contradicting_the_manifest_is_named(self, tmp_path, kind, edit, says):
        cfg = SynthConfig()
        synth.synth_dataset(cfg, 2, 11, out_dir=tmp_path)
        bad = tmp_path / f"sample_00001_{kind}.mstn"
        synth.write_mstn(bad, np.ascontiguousarray(edit(synth.read_mstn(bad), cfg.map_resolution)))
        with pytest.raises(synth.SceneError, match=f"{bad.name}{says}"):
            synth.load_dataset(tmp_path)

    @pytest.mark.parametrize("version", [1, 3, "2", 2.0, None])
    def test_manifest_of_another_version_is_refused(self, tmp_path, version):
        synth.synth_dataset(SynthConfig(map_resolution=64), 2, 11, out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = version
        path.write_text(json.dumps(manifest))
        found = json.dumps(version)
        with pytest.raises(synth.SceneError, match=rf"is version {found}, .*`misac synth` .*seed \(11\) and n \(2\)"):
            synth.load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "edit, says",
        [
            (lambda e: e["files"].pop("csi"), "sample 1 available 'csi' is true, but its files do not list 'csi'"),
            (lambda e: e["available"].update(map=False), "sample 1 available 'map' is false, but its files list 'map'"),
            (lambda e: e["available"].pop("radar"), "sample 1 available 'radar' is null, but its files list 'radar'"),
            (lambda e: e["files"].update(lidar="x.mstn"), "sample 1 files name 'lidar', which is not one of"),
        ],
        ids=["file_missing", "file_not_available", "availability_missing", "unknown_modality"],
    )
    def test_availability_contradicting_the_files_is_named(self, tmp_path, edit, says):
        synth.synth_dataset(SynthConfig(map_resolution=64), 2, 11, out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["samples"][1])
        path.write_text(json.dumps(manifest))
        with pytest.raises(synth.SceneError, match=f"dataset manifest: {says}"):
            synth.load_dataset(tmp_path)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        res=st.integers(1, 6),
        cells=st.dictionaries(
            st.integers(0, 6 * 6 * 4 - 1),
            st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1)),
            max_size=12,
        ),
    )
    @example(res=4, cells={})
    @example(res=2, cells={i: b for i, b in enumerate(SPECIAL_BITS)})
    def test_map_cells_round_trip_bit_for_bit(self, tmp_path, res, cells):
        # any bit pattern, NaN and inf included, survives the write, the read
        # and the row check; only load_dataset refuses non-finite values
        bits = np.zeros(res * res * 4, dtype=np.uint64)
        for i, b in cells.items():
            bits[i % bits.size] = b
        grid = bits.view(np.float64).reshape(res, res, 4)
        path = tmp_path / "map.mstn"
        synth.write_mstn(path, map_cells(grid))
        rows = synth.read_mstn(path)
        assert rows.shape == (np.count_nonzero(bits.reshape(-1, 4).any(axis=1)), 5)
        back = synth.SceneMap.checked(rows, res, path)
        assert back.rows is rows and back.resolution == res
        dense = np.concatenate([back.bev, back.height], axis=-1)
        assert dense.shape == grid.shape and dense.dtype == np.float64
        np.testing.assert_array_equal(dense.view(np.uint64), grid.view(np.uint64))

    def test_loaded_maps_are_the_file_arrays(self, tmp_path, monkeypatch):
        generated, _ = synth.synth_dataset(SynthConfig(map_resolution=128), 3, 4, out_dir=tmp_path)
        read, read_mstn = {}, synth.read_mstn

        def recording_read(path):
            read[path.name] = read_mstn(path)
            return read[path.name]

        monkeypatch.setattr(synth, "read_mstn", recording_read)
        loaded, _ = synth.load_dataset(tmp_path)
        for a, b in zip(generated, loaded):
            assert b.map.rows is read[f"sample_{b.index:05d}_map.mstn"]
            assert b.map.resolution == a.map.resolution == 128
            assert b.map.rows.tobytes() == a.map.rows.tobytes()

    def test_loaded_radar_maps_are_views_of_the_file_array(self, tmp_path, monkeypatch):
        generated, _ = synth.synth_dataset(SynthConfig(), 2, 4, out_dir=tmp_path)
        read, read_mstn = {}, synth.read_mstn

        def recording_read(path):
            read[path.name] = read_mstn(path)
            return read[path.name]

        monkeypatch.setattr(synth, "read_mstn", recording_read)
        loaded, _ = synth.load_dataset(tmp_path)
        for a, b in zip(generated, loaded):
            file_array = read[f"sample_{b.index:05d}_radar.mstn"]
            assert b.radar.data is file_array
            for radar in (a.radar, b.radar):
                assert np.shares_memory(radar.ra.data, radar.data) and np.shares_memory(radar.rv.data, radar.data)
            np.testing.assert_array_equal(b.radar.ra.data, file_array[0])
            np.testing.assert_array_equal(b.radar.rv.data, file_array[1])
            np.testing.assert_array_equal(a.radar.data, b.radar.data)

    def test_scene_positions_stay_in_front_halfplane(self):
        cfg = SynthConfig()
        for seed in range(8):
            scene = synth.sample_scene(cfg, np.random.default_rng(seed))
            rx = np.asarray(scene.rx_position)
            for pos in [scene.tx_position] + [s.position for s in scene.scatterers]:
                assert pos[0] > rx[0]  # +x of the array, so azimuth is in range
