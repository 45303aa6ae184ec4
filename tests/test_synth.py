"""Signal synthesis: closed-form channel checks, radar peak-bin placement,
an O(N^2) DFT-matrix oracle for the FFT maps, raster and dataset invariants."""

import json
import math

import numpy as np
import pytest

from misac import synth
from misac.synth import (
    ChannelSample,
    PathParams,
    RadarParams,
    Scatterer,
    SceneSpec,
    SynthConfig,
)

C = synth.C_LIGHT

# a sample file whose dtype or shape contradicts the manifest's config:
# the modality of the file and how it is rewritten
FILE_FAULTS = {
    "map_complex": ("map", lambda a: a.astype(np.complex128)),
    "radar_three_maps": ("radar", lambda a: np.concatenate([a, a[:1]])),
    "csi_float": ("csi", lambda a: a.real),
    "map_half_resolution": ("map", lambda a: a[::2, ::2]),
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
        # the map file is the grid itself; bev and height are views of it
        generated, _ = synth.synth_dataset(SynthConfig(map_resolution=64), 2, 4, out_dir=tmp_path)
        loaded, _ = synth.load_dataset(tmp_path)
        for smap in (generated[0].map, loaded[0].map):
            assert smap.grid.shape == (64, 64, 4) and smap.grid.flags.c_contiguous
            assert np.shares_memory(smap.bev, smap.grid) and np.shares_memory(smap.height, smap.grid)
            assert smap.grid.flags.writeable and smap.grid.ctypes.data % 8 == 0
        np.testing.assert_array_equal(generated[0].map.grid, loaded[0].map.grid)

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
        ],
        ids=["config", "n_sc", "samples", "files", "labels", "beam_index", "index"],
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
        ],
        ids=["config", "map_resolution", "samples", "files", "file_name", "labels", "beam_index", "distance_m", "aoa_rad", "index"],
    )
    def test_manifest_wrong_type_is_named(self, tmp_path, edit, where, key):
        synth.synth_dataset(SynthConfig(), 2, 11, out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(synth.SceneError, match=f"{where} {key!r} must be"):
            synth.load_dataset(tmp_path)

    @pytest.mark.parametrize("kind, edit", FILE_FAULTS.values(), ids=FILE_FAULTS.keys())
    def test_sample_file_contradicting_the_manifest_is_named(self, tmp_path, kind, edit):
        synth.synth_dataset(SynthConfig(), 2, 11, out_dir=tmp_path)
        bad = tmp_path / f"sample_00001_{kind}.mstn"
        synth.write_mstn(bad, np.ascontiguousarray(edit(synth.read_mstn(bad))))
        with pytest.raises(synth.SceneError, match=f"{bad.name} holds .*the manifest's config gives"):
            synth.load_dataset(tmp_path)

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
