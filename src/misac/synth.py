"""Synthetic scene -> (CSI, radar, map) sample generation.

Geometry conventions, fixed across the package:

* Positions are (x, y, z) in meters inside a square footprint
  [-F, F] x [-F, F]; the receiver array sits near the -x edge.
* The receive array is a half-wavelength ULA along +y with boresight +x.
  Azimuth theta = atan2(dy, dx) measured from boresight, and every scene is
  constrained to the front half-plane so theta stays inside (-pi/2, pi/2].
* The channel is a clustered multipath sum over scatterer bounces (plus an
  optional line-of-sight path): each path contributes
  beta * exp(-j 2 pi f tau) * exp(j phi) * a(theta) per subcarrier.
* The radar is a colocated FMCW unit under the stop-and-hop approximation:
  a point target at range r, radial speed v, azimuth theta contributes phase
  2 pi (2 S r / c) t within a chirp, 2 pi (2 f_c v / c) T_c per chirp, and
  2 pi * spacing * sin(theta) per element. Range-angle / range-velocity maps
  are unnormalized 2D FFTs (numpy convention, no fftshift) averaged
  coherently over the remaining axis, taken as the one FFT of the mean
  slice.
* The radar maps are one [2, n, n] complex array (range-angle, then
  range-velocity), the layout of the radar file; ``ra`` and ``rv`` are views
  of it.
* A map is a [res, res] grid of four channels (bev occupancy, then height)
  held as float64 [k, 5] rows of its cells that are not all +0.0
  (``SceneMap``). Rasterization builds the rows from the scene, the map file
  is the rows, and loading keeps the file's array: no dense grid is built.
  Loading checks each sample file's dtype, shape and finiteness against the
  manifest's config, and each map file's rows.

All randomness flows through explicitly passed numpy Generators; dataset
generation derives per-sample substreams as seed ^ index.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import MisacError
from .tensor import ComplexTensor, read_mstn, write_mstn

C_LIGHT = 299_792_458.0


class SceneError(MisacError):
    pass


# ---------------------------------------------------------------------------
# scene and sample records


@dataclass(frozen=True)
class Scatterer:
    position: tuple[float, float, float]
    reflectivity: float
    velocity: tuple[float, float] = (0.0, 0.0)  # (vx, vy), m/s

    def __post_init__(self):
        if not self.reflectivity > 0:
            raise SceneError("scatterer reflectivity must be positive")


@dataclass(frozen=True)
class SceneSpec:
    scatterers: tuple[Scatterer, ...]
    tx_position: tuple[float, float, float]
    rx_position: tuple[float, float, float]
    footprint: float = 100.0

    def __post_init__(self):
        if len(self.scatterers) == 0:
            raise SceneError("scene needs at least one scatterer")
        if not self.footprint > 0:
            raise SceneError("footprint must be positive")
        for p in (self.tx_position, self.rx_position) + tuple(
            s.position for s in self.scatterers
        ):
            if abs(p[0]) > self.footprint or abs(p[1]) > self.footprint:
                raise SceneError(f"position {p} outside footprint")


@dataclass(frozen=True)
class PathParams:
    """One propagation path: amplitude, delay, random phase, azimuth."""

    beta: float
    tau: float
    phi: float
    theta: float

    def __post_init__(self):
        if self.tau < 0:
            raise SceneError("path delay must be non-negative")
        if not (-math.pi / 2 < self.theta <= math.pi / 2):
            raise SceneError("path azimuth outside (-pi/2, pi/2]")


@dataclass
class ChannelSample:
    h: ComplexTensor  # [n_antennas, n_subcarriers]


@dataclass(frozen=True)
class RadarParams:
    carrier: float = 24e9
    slope: float = 8e12  # Hz/s
    sample_rate: float = 10e6
    n_samp: int = 32
    n_chirp: int = 16
    n_rx: int = 8
    chirp_period: float = 40e-6
    spacing: float = 0.5  # element pitch in wavelengths
    out_size: int = 64

    @property
    def max_range(self) -> float:
        return C_LIGHT * self.sample_rate / (2.0 * self.slope)

    @property
    def max_speed(self) -> float:  # unambiguous radial speed: a quarter wavelength per chirp
        return C_LIGHT / (4.0 * self.carrier * self.chirp_period)


@dataclass
class RadarCube:
    data: np.ndarray  # complex [n_rx, n_chirp, n_samp]
    params: RadarParams


@dataclass
class RadarMaps:
    data: np.ndarray  # [2, n, n] complex, the radar file's layout

    @property
    def ra(self) -> ComplexTensor:  # [angle, range] view
        return ComplexTensor(self.data[0])

    @property
    def rv(self) -> ComplexTensor:  # [velocity, range] view
        return ComplexTensor(self.data[1])


@dataclass
class SceneMap:
    """Rasterized bird's-eye view of a [res, res] grid of four channels: 0-2
    (bev) are scatterer / tx / rx occupancy in {0,1}; 3 (height) holds the
    per-cell max scatterer z in meters. ``rows`` is the map file's float64
    [k, 5] array: one row per cell whose channels are not all +0.0 bit
    patterns, in increasing row-major cell index (row * res + col). Column 0
    is the index, columns 1-4 the channels; every other cell is +0.0 in all
    four. This class is the only code that knows that row layout."""

    rows: np.ndarray  # float64 [k, 5]
    resolution: int

    @classmethod
    def from_cells(cls, index: np.ndarray, channels: np.ndarray, resolution: int) -> SceneMap:
        """The map whose listed cells are index (increasing), with channels [k, 4]."""
        return cls(np.column_stack([index, channels]), resolution)

    @classmethod
    def checked(cls, rows: np.ndarray, resolution: int, path: Path) -> SceneMap:
        """The map of a file's float64 [k, 5] rows; a row that rasterization
        could not have written is a SceneError naming path."""
        index, n_cells = rows[:, 0], resolution * resolution
        problems = (
            (index != np.trunc(index), "is not an integer"),
            ((index < 0) | (index >= n_cells), f"is outside [0, {n_cells})"),
            (np.diff(index, prepend=-1.0) <= 0, "is not above the previous row's index"),
            ((rows[:, 1:].view(np.uint64) == 0).all(axis=1), "lists a cell whose four channels are all +0.0"),
        )
        for bad, what in problems:
            if bad.any():
                row = int(np.argmax(bad))
                raise SceneError(f"dataset file {path}: map cell row {row} (index {index[row]}) {what}")
        return cls(rows, resolution)

    @property
    def index(self) -> np.ndarray:  # [k] row-major cell indices
        return self.rows[:, 0].astype(np.intp)

    @property
    def channels(self) -> np.ndarray:  # [k, 4] view
        return self.rows[:, 1:]

    def _dense(self, columns: slice) -> np.ndarray:
        res = self.resolution
        grid = np.zeros((res * res, columns.stop - columns.start))
        grid[self.index] = self.rows[:, columns]
        return grid.reshape(res, res, -1)

    @property
    def bev(self) -> np.ndarray:  # a dense [res, res, 3] copy, built on each read
        return self._dense(slice(1, 4))

    @property
    def height(self) -> np.ndarray:  # a dense [res, res, 1] copy, built on each read
        return self._dense(slice(4, 5))


@dataclass
class Labels:
    beam_index: int
    distance_m: float
    aoa_rad: float


# the sample's modality fields, in the order the availability plan draws them
MODALITY_NAMES = ("csi", "radar", "map")

# the manifest version synth_dataset writes and load_dataset reads; version 2
# stores each map file as its listed cells' rows (SceneMap)
DATASET_VERSION = 2


@dataclass
class MultimodalSample:
    index: int
    csi: ChannelSample | None
    radar: RadarMaps | None
    map: SceneMap | None
    labels: Labels

    def __post_init__(self):
        if not any(self.available.values()):
            raise SceneError("sample has no modality")

    @property
    def available(self) -> dict[str, bool]:
        return {m: getattr(self, m) is not None for m in MODALITY_NAMES}


# ---------------------------------------------------------------------------
# channel


def steering_vector(theta: float, n_elements: int, spacing: float = 0.5) -> np.ndarray:
    """ULA response exp(j 2 pi spacing n sin(theta)), n = 0..N-1."""
    if n_elements < 1:
        raise SceneError("steering_vector: need at least one element")
    if not (-math.pi / 2 < theta <= math.pi / 2):
        raise SceneError("steering_vector: azimuth outside (-pi/2, pi/2]")
    n = np.arange(n_elements)
    return np.exp(2j * math.pi * spacing * n * math.sin(theta))


def subcarrier_frequencies(f0: float, bw: float, n_sc: int) -> np.ndarray:
    """n_sc subcarriers spread evenly over [f0 - bw/2, f0 + bw/2], both ends
    included."""
    if n_sc < 2:
        raise SceneError(f"need at least 2 subcarriers, got {n_sc}")
    k = np.arange(n_sc)
    return f0 - bw / 2.0 + k * bw / (n_sc - 1)


def channel_response(
    paths: list[PathParams],
    f0: float,
    bw: float,
    n_sc: int,
    n_antennas: int,
    spacing: float = 0.5,
) -> ChannelSample:
    """Superpose path contributions on the subcarrier grid -> h [n_a, n_sc]."""
    if len(paths) == 0:
        raise SceneError("channel_response: no paths")
    freqs = subcarrier_frequencies(f0, bw, n_sc)
    h = np.zeros((n_antennas, n_sc), dtype=np.complex128)
    for p in paths:
        gain = p.beta * np.exp(1j * p.phi)
        sweep = np.exp(-2j * math.pi * freqs * p.tau)
        steer = steering_vector(p.theta, n_antennas, spacing)
        h += gain * np.outer(steer, sweep)
    return ChannelSample(ComplexTensor(h))


def add_awgn(csi: ChannelSample, snr_db: float, rng: np.random.Generator) -> ChannelSample:
    """Return a copy with complex white noise at the given SNR."""
    h = csi.h.data
    p_sig = float(np.mean(np.abs(h) ** 2))
    p_noise = p_sig / (10.0 ** (snr_db / 10.0))
    scale = math.sqrt(p_noise / 2.0)
    noise = scale * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
    return ChannelSample(ComplexTensor(h + noise))


def with_noisy_csi(sample: MultimodalSample, snr_range, rng: np.random.Generator) -> MultimodalSample:
    """A copy of sample whose CSI carries noise at an SNR drawn from U(snr_range)."""
    snr = float(rng.uniform(*snr_range))
    return dataclasses.replace(sample, csi=add_awgn(sample.csi, snr, rng))


def beam_codebook(n_elements: int, n_beams: int) -> np.ndarray:
    """DFT beams w_b[n] = exp(j 2 pi n b / n_beams) / sqrt(n_elements)."""
    n = np.arange(n_elements)[None, :]
    b = np.arange(n_beams)[:, None]
    return np.exp(2j * math.pi * n * b / n_beams) / math.sqrt(n_elements)


# ---------------------------------------------------------------------------
# radar


def _radar_targets(scene: SceneSpec, params: RadarParams):
    """Per-scatterer (range, radial speed, azimuth, amplitude) at the radar,
    which is colocated with the receive array."""
    rx = np.asarray(scene.rx_position)
    out = []
    for s in scene.scatterers:
        delta = np.asarray(s.position) - rx
        r = float(np.linalg.norm(delta))
        if r >= params.max_range:
            raise SceneError(
                f"target range {r:.1f} m beyond unambiguous range {params.max_range:.1f} m"
            )
        theta = math.atan2(delta[1], delta[0])
        u = delta[:2] / max(np.linalg.norm(delta[:2]), 1e-12)
        v_r = float(np.dot(np.asarray(s.velocity), u))
        if abs(v_r) >= params.max_speed:
            raise SceneError(
                f"target radial speed {v_r:.1f} m/s beyond unambiguous speed {params.max_speed:.2f} m/s"
            )
        amp = s.reflectivity / max(r, 1.0) ** 2  # two-way spreading
        out.append((r, v_r, theta, amp))
    return out


def radar_cube(scene: SceneSpec, params: RadarParams) -> RadarCube:
    """Point-target FMCW cube [n_rx, n_chirp, n_samp], stop-and-hop. Each
    target adds a constant phasor times the outer product of its element,
    chirp and sample phasors, elementwise, so no BLAS kernel moves a byte."""
    m, c, n = np.arange(params.n_rx), np.arange(params.n_chirp), np.arange(params.n_samp)
    cube = np.zeros((params.n_rx, params.n_chirp, params.n_samp), dtype=np.complex128)
    for r, v_r, theta, amp in _radar_targets(scene, params):
        f_beat = 2.0 * params.slope * r / C_LIGHT
        f_dopp = 2.0 * params.carrier * v_r / C_LIGHT
        rx = cmath.rect(amp, -4.0 * math.pi * params.carrier * r / C_LIGHT) * np.exp(
            1j * (2.0 * math.pi * params.spacing * math.sin(theta) * m)
        )
        slow = rx[:, None] * np.exp(1j * (2.0 * math.pi * f_dopp * c * params.chirp_period))
        cube += slow[:, :, None] * np.exp(1j * (2.0 * math.pi * f_beat * n / params.sample_rate))
    return RadarCube(cube, params)


def _averaged_fft2(cube: RadarCube, axis: int) -> np.ndarray:
    """2D FFT over the two other axes of the cube, averaged coherently across
    its slices along axis, both FFT axes zero-padded (or truncated) to
    out_size. The DFT is linear, so that average is the FFT of the mean slice."""
    size = cube.params.out_size
    return np.fft.fft2(cube.data.mean(axis=axis), s=(size, size))


def range_angle_map(cube: RadarCube) -> np.ndarray:
    """2D FFT over (rx, fast-time) per chirp, averaged across chirps. Output
    rows are angle bins, columns range bins."""
    return _averaged_fft2(cube, 1)


def range_velocity_map(cube: RadarCube) -> np.ndarray:
    """2D FFT over (slow-time, fast-time) per rx element, averaged across rx."""
    return _averaged_fft2(cube, 0)


# ---------------------------------------------------------------------------
# map rasterization


def rasterize_scene(
    scene: SceneSpec, resolution: int = 256, marker_radius: float = 3.0
) -> SceneMap:
    """Occupancy raster over the footprint; rows follow y, columns follow x,
    so a scatterer at (0, 0) lands in the center cell. The listed cells are
    the scatterers' cells and the tx and rx marker discs."""
    if resolution < 1:
        raise SceneError("map resolution must be >= 1")
    F = scene.footprint

    def cell(x: float, y: float) -> tuple[int, int]:
        col = min(int((x + F) / (2 * F) * resolution), resolution - 1)
        row = min(int((y + F) / (2 * F) * resolution), resolution - 1)
        return row, col

    scatterers = [row * resolution + col for row, col in (cell(*s.position[:2]) for s in scene.scatterers)]
    rad = max(int(round(marker_radius / (2 * F) * resolution)), 1)
    discs = []
    for pos in (scene.tx_position, scene.rx_position):
        row, col = cell(pos[0], pos[1])
        lo_r, hi_r = max(row - rad, 0), min(row + rad + 1, resolution)
        lo_c, hi_c = max(col - rad, 0), min(col + rad + 1, resolution)
        rr, cc = np.mgrid[lo_r:hi_r, lo_c:hi_c]
        disc = (rr - row) ** 2 + (cc - col) ** 2 <= rad * rad
        discs.append(rr[disc] * resolution + cc[disc])
    index = np.unique(np.concatenate([scatterers, *discs]))
    channels = np.zeros((index.size, 4))
    at = np.searchsorted(index, scatterers)
    channels[at, 0] = 1.0
    for i, s in zip(at, scene.scatterers):  # in scene order, as a running max from +0.0
        channels[i, 3] = max(channels[i, 3], s.position[2])
    for ch, disc in enumerate(discs, 1):
        channels[np.searchsorted(index, disc), ch] = 1.0
    return SceneMap.from_cells(index, channels, resolution)


# ---------------------------------------------------------------------------
# scene sampling and labels


@dataclass(frozen=True)
class SynthConfig:
    # channel / array
    n_t: int = 16
    n_r: int = 1
    n_sc: int = 32
    f0: float = 3.5e9
    bw: float = 20e6
    spacing: float = 0.5
    # radar
    radar: RadarParams = field(default_factory=RadarParams)
    # map
    map_resolution: int = 256
    marker_radius: float = 3.0
    # scene distribution (front half-plane relative to the rx array)
    footprint: float = 100.0
    rx_position: tuple[float, float, float] = (-80.0, 0.0, 10.0)
    # scatterer bounds keep every target inside the radar's unambiguous range
    n_scatterers: tuple[int, int] = (3, 8)
    scatter_x: tuple[float, float] = (-40.0, 80.0)
    scatter_y: tuple[float, float] = (-70.0, 70.0)
    scatter_z: tuple[float, float] = (0.0, 25.0)
    reflectivity: tuple[float, float] = (0.3, 1.0)
    speed: tuple[float, float] = (-15.0, 15.0)
    tx_x: tuple[float, float] = (-40.0, 90.0)
    tx_y: tuple[float, float] = (-80.0, 80.0)
    tx_z: tuple[float, float] = (1.0, 3.0)
    include_los: bool = True
    los_amplitude: float = 2.0
    # labels
    n_beams: int = 16
    # availability fractions per modality
    availability: dict = field(default_factory=lambda: dict.fromkeys(MODALITY_NAMES, 1.0))

    @property
    def n_antennas(self) -> int:
        return self.n_t * self.n_r


def sample_scene(cfg: SynthConfig, rng: np.random.Generator) -> SceneSpec:
    n = int(rng.integers(cfg.n_scatterers[0], cfg.n_scatterers[1] + 1))
    scatterers = tuple(
        Scatterer(
            position=(
                float(rng.uniform(*cfg.scatter_x)),
                float(rng.uniform(*cfg.scatter_y)),
                float(rng.uniform(*cfg.scatter_z)),
            ),
            reflectivity=float(rng.uniform(*cfg.reflectivity)),
            velocity=(float(rng.uniform(*cfg.speed)), float(rng.uniform(*cfg.speed))),
        )
        for _ in range(n)
    )
    tx = (
        float(rng.uniform(*cfg.tx_x)),
        float(rng.uniform(*cfg.tx_y)),
        float(rng.uniform(*cfg.tx_z)),
    )
    return SceneSpec(
        scatterers=scatterers,
        tx_position=tx,
        rx_position=cfg.rx_position,
        footprint=cfg.footprint,
    )


def scene_to_paths(
    scene: SceneSpec, cfg: SynthConfig, rng: np.random.Generator
) -> list[PathParams]:
    """One bounce path per scatterer (amplitude ~ reflectivity / (d1 d2)),
    plus an optional direct path; phases are drawn fresh per call."""
    tx = np.asarray(scene.tx_position)
    rx = np.asarray(scene.rx_position)
    paths = []
    if cfg.include_los:
        delta = tx - rx
        d = float(np.linalg.norm(delta))
        paths.append(
            PathParams(
                beta=cfg.los_amplitude / max(d, 1.0),
                tau=d / C_LIGHT,
                phi=float(rng.uniform(0.0, 2.0 * math.pi)),
                theta=math.atan2(delta[1], delta[0]),
            )
        )
    for s in scene.scatterers:
        sp = np.asarray(s.position)
        d1 = float(np.linalg.norm(sp - tx))
        d2 = float(np.linalg.norm(sp - rx))
        paths.append(
            PathParams(
                beta=s.reflectivity / max(d1 * d2, 1.0),
                tau=(d1 + d2) / C_LIGHT,
                phi=float(rng.uniform(0.0, 2.0 * math.pi)),
                theta=math.atan2(sp[1] - rx[1], sp[0] - rx[0]),
            )
        )
    return paths


def derive_labels(scene: SceneSpec, paths: list[PathParams], csi: ChannelSample, cfg: SynthConfig) -> Labels:
    dominant = max(paths, key=lambda p: p.beta)
    h_center = csi.h.data[:, csi.h.data.shape[1] // 2]
    book = beam_codebook(cfg.n_antennas, cfg.n_beams)
    gains = np.abs(book.conj() @ h_center)
    distance = float(np.linalg.norm(np.asarray(scene.tx_position) - np.asarray(scene.rx_position)))
    return Labels(
        beam_index=int(np.argmax(gains)),  # argmax keeps the lowest index on ties
        distance_m=distance,
        aoa_rad=dominant.theta,
    )


def synth_sample(cfg: SynthConfig, index: int, base_seed: int) -> MultimodalSample:
    """Generate one fully populated sample from substream base_seed ^ index."""
    rng = np.random.default_rng(base_seed ^ index)
    scene = sample_scene(cfg, rng)
    paths = scene_to_paths(scene, cfg, rng)
    csi = channel_response(paths, cfg.f0, cfg.bw, cfg.n_sc, cfg.n_antennas, cfg.spacing)
    cube = radar_cube(scene, cfg.radar)
    maps = RadarMaps(np.stack([range_angle_map(cube), range_velocity_map(cube)]))
    smap = rasterize_scene(scene, cfg.map_resolution, cfg.marker_radius)
    labels = derive_labels(scene, paths, csi, cfg)
    return MultimodalSample(index=index, csi=csi, radar=maps, map=smap, labels=labels)


def _availability_plan(cfg: SynthConfig, n: int, base_seed: int) -> dict[str, np.ndarray]:
    """Exact-count availability: round(fraction * n) samples keep each
    modality, chosen by a seeded permutation per modality."""
    rng = np.random.default_rng((base_seed, 0x41564C))
    plan = {}
    for mod in MODALITY_NAMES:
        frac = float(cfg.availability.get(mod, 1.0))
        if not 0.0 <= frac <= 1.0:
            raise SceneError(f"availability fraction for {mod} outside [0, 1]")
        keep = np.zeros(n, dtype=bool)
        keep[rng.permutation(n)[: round(frac * n)]] = True
        plan[mod] = keep
    if not np.logical_or.reduce(list(plan.values())).all():
        raise SceneError("availability schedule leaves a sample with no modality")
    return plan


def synth_dataset(
    cfg: SynthConfig, n: int, seed: int, out_dir: str | Path | None = None
) -> tuple[list[MultimodalSample], dict]:
    """Generate n samples; optionally persist to out_dir (tensor files plus a
    manifest.json whose bytes are a pure function of cfg, n, seed)."""
    if n < 1:
        raise SceneError("dataset size must be >= 1")
    plan = _availability_plan(cfg, n, seed)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    samples = []
    entries = []
    for i in range(n):
        full = synth_sample(cfg, i, seed)
        sample = MultimodalSample(
            index=i,
            csi=full.csi if plan["csi"][i] else None,
            radar=full.radar if plan["radar"][i] else None,
            map=full.map if plan["map"][i] else None,
            labels=full.labels,
        )
        samples.append(sample)
        files = {}
        if out_dir is not None:
            if sample.csi is not None:
                files["csi"] = f"sample_{i:05d}_csi.mstn"
                write_mstn(out / files["csi"], sample.csi.h.data)
            if sample.radar is not None:
                files["radar"] = f"sample_{i:05d}_radar.mstn"
                write_mstn(out / files["radar"], sample.radar.data)
            if sample.map is not None:
                files["map"] = f"sample_{i:05d}_map.mstn"
                write_mstn(out / files["map"], sample.map.rows)
        entries.append(
            {
                "index": i,
                "available": sample.available,
                "files": files,
                "labels": dataclasses.asdict(sample.labels),
            }
        )
    manifest = {
        "format": "misac-dataset",
        "version": DATASET_VERSION,
        "seed": seed,
        "n": n,
        "config": dataclasses.asdict(cfg),
        "samples": entries,
    }
    if out_dir is not None:
        (out / "manifest.json").write_text(canonical_json(manifest))
    return samples, manifest


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(canonical_json(manifest).encode()).hexdigest()


def _field(record, key: str, where: str, kind, least: int | None = None):
    """record[key] from a parsed manifest if it is of type kind, finite and,
    given least, not below it; or a SceneError naming the key."""
    if not isinstance(record, dict) or key not in record:
        raise SceneError(f"dataset manifest: {where} has no {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise SceneError(f"dataset manifest: {where} {key!r} must be {names}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN and Infinity
        raise SceneError(f"dataset manifest: {where} {key!r} must be finite, got {value}")
    if least is not None and value < least:
        raise SceneError(f"dataset manifest: {where} {key!r} must be >= {least}, got {value}")
    return value


def _file_layouts(cfg: dict) -> dict[str, tuple[np.dtype, tuple[int | None, ...]]]:
    """The dtype and shape of each modality's sample file under the
    manifest's synthesis config; None is an extent the config leaves free
    (a map file's cell count)."""
    n_antennas = _field(cfg, "n_t", "config", int, 1) * _field(cfg, "n_r", "config", int, 1)
    side = _field(_field(cfg, "radar", "config", dict), "out_size", "config radar", int, 1)
    return {
        "csi": (np.dtype(np.complex128), (n_antennas, _field(cfg, "n_sc", "config", int, 1))),
        "radar": (np.dtype(np.complex128), (2, side, side)),
        "map": (np.dtype(np.float64), (None, 5)),
    }


def _read_sample_file(path: Path, layout: tuple[np.dtype, tuple[int | None, ...]]) -> np.ndarray:
    """read_mstn(path); a file that does not parse, holds another dtype or
    shape than layout, or holds a non-finite value is a SceneError naming it."""
    try:
        arr = read_mstn(path)
    except ValueError as e:
        raise SceneError(f"dataset file {path}: {e}") from None
    dtype, shape = layout
    if arr.dtype != dtype or len(arr.shape) != len(shape) or any(w not in (None, g) for w, g in zip(shape, arr.shape)):
        want = "(" + ", ".join("k" if w is None else str(w) for w in shape) + ")"
        raise SceneError(f"dataset file {path} holds {arr.dtype} {arr.shape}; the manifest's config gives {dtype} {want}")
    if not np.isfinite(arr).all():
        raise SceneError(f"dataset file {path} holds a non-finite value")
    return arr


def load_dataset(manifest_path: str | Path) -> tuple[list[MultimodalSample], dict]:
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except ValueError as e:  # bad JSON or bad UTF-8; a missing file stays an OSError
        raise SceneError(f"dataset manifest {path} is not valid JSON: {e}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "misac-dataset":
        raise SceneError("not a dataset manifest")
    version = manifest.get("version")
    if type(version) is not int or version != DATASET_VERSION:
        raise SceneError(
            f"dataset manifest {path} is version {json.dumps(version)}, but this misac reads version "
            f"{DATASET_VERSION}: re-run `misac synth` with the manifest's seed ({json.dumps(manifest.get('seed'))}) "
            f"and n ({json.dumps(manifest.get('n'))}) to rebuild the dataset"
        )
    root = path.parent
    cfg = _field(manifest, "config", "the manifest", dict)
    layouts, res = _file_layouts(cfg), _field(cfg, "map_resolution", "config", int, 1)
    n_beams = _field(cfg, "n_beams", "config", int, 1)
    samples = []
    for i, e in enumerate(_field(manifest, "samples", "the manifest", list)):
        where = f"sample {i}"
        files = _field(e, "files", where, dict)
        available = _field(e, "available", where, dict)
        for m in files:
            if m not in MODALITY_NAMES:
                raise SceneError(f"dataset manifest: {where} files name {m!r}, which is not one of {MODALITY_NAMES}")
        for m in MODALITY_NAMES:
            if available.get(m) is not (m in files):
                listed = "list" if m in files else "do not list"
                raise SceneError(
                    f"dataset manifest: {where} available {m!r} is {json.dumps(available.get(m))}, "
                    f"but its files {listed} {m!r}"
                )
        paths = {m: root / _field(files, m, f"{where} files", str) for m in MODALITY_NAMES if m in files}
        arrays = {m: _read_sample_file(p, layouts[m]) for m, p in paths.items()}
        csi = ChannelSample(ComplexTensor(arrays["csi"])) if "csi" in arrays else None
        radar = RadarMaps(arrays["radar"]) if "radar" in arrays else None
        smap = SceneMap.checked(arrays["map"], res, paths["map"]) if "map" in arrays else None
        lab, at = _field(e, "labels", where, dict), f"{where} labels"
        labels = Labels(
            beam_index=_field(lab, "beam_index", at, int, 0),
            distance_m=_field(lab, "distance_m", at, (int, float)),
            aoa_rad=_field(lab, "aoa_rad", at, (int, float)),
        )
        if labels.beam_index >= n_beams:
            raise SceneError(f"dataset manifest: {at} 'beam_index' must be < {n_beams}, got {labels.beam_index}")
        samples.append(
            MultimodalSample(index=_field(e, "index", where, int), csi=csi, radar=radar, map=smap, labels=labels)
        )
    return samples, manifest
