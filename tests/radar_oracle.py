"""The per-element radar cube that misac.synth replaced, kept as a test
oracle, and a long-double evaluation of the same signal model that both
float64 forms are measured against."""

import math

import numpy as np

from misac import synth
from misac.synth import C_LIGHT

# pi to long-double precision (64-bit significand on x86-64)
PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def radar_cube_per_element(scene, params) -> synth.RadarCube:
    """The cube as it was built before it was separable: one complex exp of
    the whole [n_rx, n_chirp, n_samp] phase grid per target."""
    m = np.arange(params.n_rx)[:, None, None]
    c = np.arange(params.n_chirp)[None, :, None]
    n = np.arange(params.n_samp)[None, None, :]
    cube = np.zeros((params.n_rx, params.n_chirp, params.n_samp), dtype=np.complex128)
    for r, v_r, theta, amp in synth._radar_targets(scene, params):
        f_beat = 2.0 * params.slope * r / C_LIGHT
        f_dopp = 2.0 * params.carrier * v_r / C_LIGHT
        phase = (
            -4.0 * math.pi * params.carrier * r / C_LIGHT
            + 2.0 * math.pi * f_beat * n / params.sample_rate
            + 2.0 * math.pi * f_dopp * c * params.chirp_period
            + 2.0 * math.pi * params.spacing * math.sin(theta) * m
        )
        cube = cube + amp * np.exp(1j * phase)
    return synth.RadarCube(cube, params)


def radar_cube_longdouble(scene, params) -> np.ndarray:
    """The same phase sum with every operation in np.longdouble, from the
    float64 targets and params taken as exact: a complex256
    [n_rx, n_chirp, n_samp] array, about 2^11 times finer than float64."""
    L = np.longdouble
    m = np.arange(params.n_rx, dtype=L)[:, None, None]
    c = np.arange(params.n_chirp, dtype=L)[None, :, None]
    n = np.arange(params.n_samp, dtype=L)[None, None, :]
    carrier, slope, light = L(params.carrier), L(params.slope), L(C_LIGHT)
    cube = np.zeros((params.n_rx, params.n_chirp, params.n_samp), dtype=np.clongdouble)
    for r, v_r, theta, amp in synth._radar_targets(scene, params):
        r, v_r = L(r), L(v_r)
        f_beat = 2 * slope * r / light
        f_dopp = 2 * carrier * v_r / light
        phase = (
            -4 * PI_LONG * carrier * r / light
            + 2 * PI_LONG * f_beat * n / L(params.sample_rate)
            + 2 * PI_LONG * f_dopp * c * L(params.chirp_period)
            + 2 * PI_LONG * L(params.spacing) * np.sin(L(theta)) * m
        )
        cube += L(amp) * np.exp(1j * phase)
    return cube
