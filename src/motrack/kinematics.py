"""Constant-velocity Kalman filtering over 8-dimensional box states.

The filter tracks [x, y, w, h, vx, vy, vw, vh] with a unit frame step and
applies a confidence-gated update: corrections fire only once a counter of
consecutive reliable observations reaches ``tau_kf``; until then the track
coasts on its prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox

STATE_DIM = 8
OBS_DIM = 4

# Predicted extents are floored before box construction: velocity
# extrapolation may drive w/h negative and IoU needs positive extents.
MIN_EXTENT = 1e-3


_POS = np.arange(OBS_DIM)
_VEL = _POS + OBS_DIM
# Flat indices of the entries a filter covariance can hold: the position
# variances, the velocity variances, then each position-velocity covariance
# in both orders.
_BLOCK_FLAT = np.concatenate([
    _POS * (STATE_DIM + 1),
    _VEL * (STATE_DIM + 1),
    _POS * STATE_DIM + _VEL,
    _VEL * STATE_DIM + _POS,
])


@dataclass(frozen=True)
class KinematicsConfig:
    """Filter tuning knobs.

    tau_kf: consecutive reliable associations required before a Kalman
        correction fires; 0 means corrections always fire, ``math.inf``
        disables them entirely.
    tau_obj: objectness threshold above which an observation counts as
        reliable.
    pos_noise / vel_noise / obs_noise: standard-deviation multipliers
        relative to box width/height for the process and observation
        noise models.
    """

    tau_kf: float = 3
    tau_obj: float = 0.5
    pos_noise: float = 0.05
    vel_noise: float = 0.05
    obs_noise: float = 0.1

    def __post_init__(self) -> None:
        if self.tau_kf < 0:
            raise ValueError(f"tau_kf must be >= 0, got {self.tau_kf}")


@dataclass(frozen=True)
class KalmanTrackState:
    """Motion state, covariance, reliability counter, and noise models.

    A plain value: every operation returns a fresh state, so instances are
    freely transferable between threads.

    The covariance couples each observed component only with its own
    velocity: ``kf_init`` builds diagonal P, Q and R, and the
    constant-velocity model with its position-only observation keeps that
    structure. ``kf_predict`` and ``kf_gated_update`` rely on it and run
    four independent two-state filters, one per axis, on plain floats.
    """

    state: np.ndarray            # (8,) [x, y, w, h, vx, vy, vw, vh]
    covariance: np.ndarray       # (8, 8) symmetric PSD, per-axis blocks only
    counter: int                 # consecutive reliable associations
    process_noise: np.ndarray    # (8, 8) Q, diagonal
    observation_noise: np.ndarray  # (4, 4) R, diagonal


def _axis_blocks(s: KalmanTrackState) -> tuple[list[float], list[float], list[float]]:
    """Per-axis position variances, velocity variances and their covariances."""
    v = s.covariance.ravel()[_BLOCK_FLAT].tolist()
    return v[:OBS_DIM], v[OBS_DIM:2 * OBS_DIM], v[2 * OBS_DIM:3 * OBS_DIM]


def _covariance(pos_var: list[float], vel_var: list[float], cross: list[float]) -> np.ndarray:
    cov = np.zeros((STATE_DIM, STATE_DIM))
    cov.put(_BLOCK_FLAT, pos_var + vel_var + cross + cross)
    return cov


def kf_init(z: BoundingBox, config: KinematicsConfig) -> KalmanTrackState:
    """Initialise a track state from its first observed box.

    Position components start at the box, velocities at zero. Noise scales
    with box size: ``size = [w, h, w, h]`` so behaviour is scale invariant.
    Velocity uncertainty is deliberately inflated relative to position
    uncertainty because nothing is known about motion yet.
    """
    size = np.array([z.w, z.h, z.w, z.h])
    state = np.array([z.x, z.y, z.w, z.h, 0.0, 0.0, 0.0, 0.0])

    pos_std = 2.0 * config.pos_noise * size
    vel_std = 10.0 * config.vel_noise * size
    covariance = np.diag(np.concatenate([pos_std, vel_std]) ** 2)

    q_std = np.concatenate([config.pos_noise * size, config.vel_noise * size])
    process_noise = np.diag(q_std ** 2)
    observation_noise = np.diag((config.obs_noise * size) ** 2)

    return KalmanTrackState(
        state=state,
        covariance=covariance,
        counter=0,
        process_noise=process_noise,
        observation_noise=observation_noise,
    )


# Per axis, the formulas below are the dense products F P F' + Q and, with
# gain K = P H' / (p_pp + r), the Joseph form (I - K H) P (I - K H)' + K R K',
# each symmetrised, written out without their zero terms and in the same
# order of operations. The Joseph form keeps the covariance PSD under roundoff.


def kf_predict(s: KalmanTrackState) -> tuple[KalmanTrackState, BoundingBox]:
    """Advance the state one frame under the constant-velocity model.

    Returns the advanced state and the predicted observation box.
    """
    x = s.state.tolist()
    pos_var, vel_var, cross = _axis_blocks(s)
    q = s.process_noise.diagonal().tolist()
    for i in range(OBS_DIM):
        pv_vv = cross[i] + vel_var[i]
        pos_var[i] = ((pos_var[i] + cross[i]) + pv_vv) + q[i]
        cross[i] = pv_vv
        vel_var[i] = vel_var[i] + q[i + OBS_DIM]
        x[i] = x[i] + x[i + OBS_DIM]
    state = np.array(x)
    box = BoundingBox(x[0], x[1], max(x[2], MIN_EXTENT), max(x[3], MIN_EXTENT))
    cov = _covariance(pos_var, vel_var, cross)
    return KalmanTrackState(state, cov, s.counter, s.process_noise, s.observation_noise), box


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
        return KalmanTrackState(s.state, s.covariance, counter, s.process_noise, s.observation_noise)

    x = s.state.tolist()
    pos_var, vel_var, cross = _axis_blocks(s)
    r = s.observation_noise.diagonal().tolist()
    obs = z.as_tuple()
    for i in range(OBS_DIM):
        p_pp, p_pv, p_vv, r_i = pos_var[i], cross[i], vel_var[i], r[i]
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
    cov = _covariance(pos_var, vel_var, cross)
    return KalmanTrackState(np.array(x), cov, counter, s.process_noise, s.observation_noise)


def is_reliable(s_obj: float, config: KinematicsConfig) -> bool:
    """Reliability rule shared by the tracker: objectness meets tau_obj."""
    if not math.isfinite(s_obj):
        raise ValueError(f"objectness score must be finite, got {s_obj!r}")
    return s_obj >= config.tau_obj
