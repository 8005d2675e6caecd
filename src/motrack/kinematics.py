"""Constant-velocity Kalman filtering over 8-dimensional box states.

The filter tracks [x, y, w, h, vx, vy, vw, vh] with a unit frame step and
applies a confidence-gated update: corrections fire only once a counter of
consecutive reliable observations reaches ``tau_kf``; until then the track
coasts on its prediction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundingBox

OBS_DIM = 4

# Predicted extents are floored before box construction: velocity
# extrapolation may drive w/h negative and IoU needs positive extents.
MIN_EXTENT = 1e-3


@dataclass(frozen=True)
class KinematicsConfig:
    """Filter tuning knobs. Each field's metadata holds its config-file key
    and doc string; tau_kf = 0 lets every correction fire."""

    tau_kf: float = field(default=3.0, metadata={
        "key": "kf.tau_kf", "int_or_inf": True,
        "doc": "reliable frames required before a Kalman correction fires; 'inf' disables corrections"})
    tau_obj: float = field(default=0.5, metadata={
        "key": "kf.tau_obj", "doc": "objectness threshold for a reliable observation"})
    pos_noise: float = field(default=0.05, metadata={
        "key": "kf.pos_noise",
        "doc": "process-noise std multiplier on position components (relative to box size)"})
    vel_noise: float = field(default=0.05, metadata={
        "key": "kf.vel_noise", "doc": "process-noise std multiplier on velocity components"})
    obs_noise: float = field(default=0.1, metadata={
        "key": "kf.obs_noise", "doc": "observation-noise std multiplier"})

    def __post_init__(self) -> None:
        if self.tau_kf < 0:
            raise ValueError(f"tau_kf must be >= 0, got {self.tau_kf}")
        if not 0.0 <= self.tau_obj <= 1.0:
            raise ValueError(f"tau_obj must be in [0, 1], got {self.tau_obj!r}")
        for name in ("pos_noise", "vel_noise"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if not 0.0 < self.obs_noise < math.inf:  # keeps the innovation variance p_pp + r > 0
            raise ValueError(f"obs_noise must be finite and > 0, got {self.obs_noise!r}")


@dataclass(frozen=True)
class KalmanTrackState:
    """Motion state, per-axis covariance, reliability counter, and noise.

    A plain value: every operation returns a fresh state, so instances are
    freely transferable between threads. Diagonal P, Q and R at ``kf_init``
    and the constant-velocity model with its position-only observation
    couple each of x, y, w, h only with its own velocity, so the covariance
    is stored as those four 2x2 blocks; ``covariance`` is the dense view.
    """

    state: np.ndarray                        # (8,) [x, y, w, h, vx, vy, vw, vh]
    pos_var: tuple[float, ...]               # 4 position variances
    vel_var: tuple[float, ...]               # 4 velocity variances
    cross: tuple[float, ...]                 # 4 position-velocity covariances
    counter: int                             # consecutive reliable associations
    q: tuple[float, ...]                     # 8 process-noise variances
    r: tuple[float, ...]                     # 4 observation-noise variances

    @property
    def covariance(self) -> np.ndarray:
        """The dense (8, 8) covariance; zero outside the per-axis blocks."""
        cov = np.diag(self.pos_var + self.vel_var)
        axis = np.arange(OBS_DIM)
        cov[axis, axis + OBS_DIM] = cov[axis + OBS_DIM, axis] = self.cross
        return cov


def _variances(scale: float, size: tuple[float, ...]) -> tuple[float, ...]:
    """The variance ``(scale * s) ** 2`` for each size entry s."""
    return tuple(std * std for std in (scale * s for s in size))


def kf_init(z: BoundingBox, config: KinematicsConfig) -> KalmanTrackState:
    """Initialise a track state from its first observed box.

    Position components start at the box, velocities at zero. Noise scales
    with box size: ``size = [w, h, w, h]`` so behaviour is scale invariant.
    Velocity uncertainty is deliberately inflated relative to position
    uncertainty because nothing is known about motion yet.
    """
    w, h = float(z.w), float(z.h)
    size = (w, h, w, h)
    pos_var = _variances(2.0 * config.pos_noise, size)
    vel_var = _variances(10.0 * config.vel_noise, size)
    q = _variances(config.pos_noise, size) + _variances(config.vel_noise, size)
    r = _variances(config.obs_noise, size)
    # The update divides by p_pp + r, so r must be invertible for a zero p_pp.
    if not all(map(math.isfinite, pos_var + vel_var + q + r)) or min(r) < sys.float_info.min:
        raise ValueError(f"kf.pos_noise = {config.pos_noise!r}, kf.vel_noise = {config.vel_noise!r} "
                         f"and kf.obs_noise = {config.obs_noise!r} give a non-finite or zero noise "
                         f"variance for box size {w!r} x {h!r}")
    return KalmanTrackState(
        state=np.array([z.x, z.y, w, h, 0.0, 0.0, 0.0, 0.0]),
        pos_var=pos_var, vel_var=vel_var, cross=(0.0,) * OBS_DIM, counter=0, q=q, r=r,
    )


# Per axis, the formulas below are the dense products F P F' + Q and, with
# gain K = P H' / (p_pp + r), the Joseph form (I - K H) P (I - K H)' + K R K',
# each symmetrised, written out without their zero terms and in the same
# order of operations. The Joseph form keeps the covariance PSD under roundoff.


def kf_predict(s: KalmanTrackState) -> tuple[KalmanTrackState, BoundingBox]:
    """Advance the state one frame under the constant-velocity model; return
    it with the predicted observation box."""
    x = s.state.tolist()
    pos_var, vel_var, cross = list(s.pos_var), list(s.vel_var), list(s.cross)
    for i in range(OBS_DIM):
        pv_vv = cross[i] + vel_var[i]
        pos_var[i] = ((pos_var[i] + cross[i]) + pv_vv) + s.q[i]
        cross[i] = pv_vv
        vel_var[i] = vel_var[i] + s.q[i + OBS_DIM]
        x[i] = x[i] + x[i + OBS_DIM]
    box = BoundingBox(x[0], x[1], max(x[2], MIN_EXTENT), max(x[3], MIN_EXTENT))
    return KalmanTrackState(
        np.array(x), tuple(pos_var), tuple(vel_var), tuple(cross), s.counter, s.q, s.r), box


def kf_gated_update(
    s: KalmanTrackState,
    z: BoundingBox,
    reliable: bool,
    config: KinematicsConfig,
) -> KalmanTrackState:
    """Confidence-gated measurement update.

    The counter of consecutive reliable associations is incremented when
    ``reliable`` and reset to zero otherwise. Only once the counter has
    reached ``config.tau_kf`` is the standard Kalman correction applied;
    before that the prior (post-predict) state is retained unchanged, which
    keeps noisy observations from corrupting the motion state.

    Must be called after ``kf_predict`` for the current frame.
    """
    counter = s.counter + 1 if reliable else 0
    if counter < config.tau_kf:
        return KalmanTrackState(s.state, s.pos_var, s.vel_var, s.cross, counter, s.q, s.r)

    x = s.state.tolist()
    pos_var, vel_var, cross = list(s.pos_var), list(s.vel_var), list(s.cross)
    obs = z.as_tuple()
    for i in range(OBS_DIM):
        p_pp, p_pv, p_vv, r_i = pos_var[i], cross[i], vel_var[i], s.r[i]
        inv_s = 1.0 / (p_pp + r_i)
        k_p, k_v = p_pp * inv_s, p_pv * inv_s
        innovation = obs[i] - x[i]
        x[i] = x[i] + k_p * innovation
        x[i + OBS_DIM] = x[i + OBS_DIM] + k_v * innovation
        g = 1.0 - k_p
        m_pp, m_pv = g * p_pp, g * p_pv
        m_vp, m_vv = -k_v * p_pp + p_pv, -k_v * p_pv + p_vv
        kr_p, kr_v = k_p * r_i, k_v * r_i
        pos_var[i] = m_pp * g + kr_p * k_p
        upper = (m_pp * -k_v + m_pv) + kr_p * k_v
        lower = m_vp * g + kr_v * k_p
        cross[i] = (upper + lower) / 2.0
        vel_var[i] = (m_vp * -k_v + m_vv) + kr_v * k_v
    return KalmanTrackState(
        np.array(x), tuple(pos_var), tuple(vel_var), tuple(cross), counter, s.q, s.r)

