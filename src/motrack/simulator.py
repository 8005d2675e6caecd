"""Seeded synthetic scenario generator for occlusion / fast-motion stress tests.

Agents move with piecewise-constant velocity inside a reflective arena.
Detections are the true boxes corrupted by seeded Gaussian noise, dropped
during occlusion windows, optionally merged into a single union box when two
agents overlap (emulating segmentation failure), and mixed with uniform
clutter. Appearance arrives as per-agent signature embeddings whose
reliability is governed by the fidelity knob: with probability 1 - fidelity
a detection carries another agent's signature, so the true identity is no
longer the closest in appearance space.

All randomness flows through ``numpy.random.default_rng(seed)`` (PCG64), so
a config fully determines the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import Frame
from .geometry import BoundingBox, iou
from .metrics import TrajectorySet

# Internal constants, not scenario knobs: embedding jitter, merged-detection
# objectness range, clutter objectness range, mean occlusion window length.
EMBED_NOISE = 0.2
MERGED_SOBJ = (0.30, 0.55)
CLUTTER_SOBJ = (0.2, 0.7)
MEAN_OCCLUSION_LEN = 6.0

DEFAULT_EMBED_DIM = 16  # also the default of the embed.dim config key


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic scenario; the seed pins the output."""

    n_agents: int
    n_frames: int
    arena: tuple[float, float] = (640.0, 480.0)
    speed_range: tuple[float, float] = (2.0, 6.0)
    turn_rate: float = 0.05                    # per-frame direction-change probability
    box_size_range: tuple[float, float] = (24.0, 48.0)
    crossing: bool = False                     # spawn agents on converging linear paths
    occlusion_windows: tuple[tuple[int, int, int], ...] = ()  # (agent, first, last), 1-based
    occlusion_rate: float = 0.0                # target fraction of occluded frames per agent
    proximity_merge: bool = False              # overlapping agents collapse to one union box
    merge_iou: float = 0.15                    # overlap that triggers a merge
    detection_noise: float = 0.0               # box noise sigma, relative to box size
    fp_rate: float = 0.0                       # expected clutter detections per frame
    miss_rate: float = 0.0                     # per-detection drop probability
    affinity_fidelity: float = 1.0             # P(true agent has the closest signature)
    embed_dim: int = DEFAULT_EMBED_DIM
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        for name in ("arena", "speed_range"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.arena[0] <= 0 or self.arena[1] <= 0:
            raise ValueError(f"degenerate arena {self.arena}")
        if not 0 < self.box_size_range[0] <= self.box_size_range[1]:
            raise ValueError(f"box_size_range must satisfy 0 < lo <= hi, got {self.box_size_range}")
        if self.arena[0] <= self.box_size_range[1] or self.arena[1] <= self.box_size_range[1]:
            raise ValueError("arena must be larger than the largest agent box")
        for name in ("turn_rate", "occlusion_rate", "miss_rate", "affinity_fidelity", "merge_iou"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("fp_rate", "detection_noise"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.speed_range[0] < 0 or self.speed_range[1] < self.speed_range[0]:
            raise ValueError(f"bad speed_range {self.speed_range}")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        for window in self.occlusion_windows:
            agent, first, last = window
            if not 1 <= agent <= self.n_agents:
                raise ValueError(f"occlusion_windows names unknown agent {agent}")
            if first > last:
                raise ValueError(f"occlusion_windows entry {window} starts after it ends")


def _signatures(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Per-agent appearance anchors; orthonormal when n <= dim."""
    raw = rng.normal(size=(max(n, 1), dim))
    if n <= dim:
        q, _ = np.linalg.qr(raw.T)
        return q.T[:n].copy()
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _spawn_free(rng, config: ScenarioConfig, sizes: np.ndarray):
    """Random spawn positions and headings for free-roaming agents."""
    w_arena, h_arena = config.arena
    centers = np.empty((config.n_agents, 2))
    velocities = np.empty((config.n_agents, 2))
    for i in range(config.n_agents):
        half = sizes[i] / 2.0
        centers[i, 0] = rng.uniform(half[0], w_arena - half[0])
        centers[i, 1] = rng.uniform(half[1], h_arena - half[1])
        angle = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(*config.speed_range)
        velocities[i] = speed * np.array([math.cos(angle), math.sin(angle)])
    return centers, velocities


def _spawn_crossing(rng, config: ScenarioConfig, sizes: np.ndarray):
    """Agents on linear paths through a shared waypoint with synchronised arrival."""
    w_arena, h_arena = config.arena
    waypoint = np.array([
        w_arena / 2.0 + rng.uniform(-0.05, 0.05) * w_arena,
        h_arena / 2.0 + rng.uniform(-0.05, 0.05) * h_arena,
    ])
    base = rng.uniform(0.0, 2.0 * math.pi)
    headings = []
    speeds = []
    for i in range(config.n_agents):
        angle = base + i * 2.0 * math.pi / config.n_agents + rng.uniform(-0.2, 0.2)
        headings.append(np.array([math.cos(angle), math.sin(angle)]))
        speeds.append(rng.uniform(*config.speed_range))

    # Largest shared back-off time that keeps every spawn inside the arena.
    t_meet = config.n_frames / 2.0
    for i in range(config.n_agents):
        half = sizes[i] / 2.0
        for axis, extent in ((0, w_arena), (1, h_arena)):
            step = speeds[i] * abs(headings[i][axis])
            if step > 1e-9:
                room = min(waypoint[axis] - half[axis], extent - half[axis] - waypoint[axis])
                t_meet = min(t_meet, room / step)
    t_meet = max(t_meet, 1.0)

    centers = np.empty((config.n_agents, 2))
    velocities = np.empty((config.n_agents, 2))
    for i in range(config.n_agents):
        velocities[i] = speeds[i] * headings[i]
        centers[i] = waypoint - velocities[i] * t_meet
    return centers, velocities


def _occlusion_mask(rng, config: ScenarioConfig) -> np.ndarray:
    """Boolean (n_agents, n_frames) mask of suppressed detections."""
    occluded = np.zeros((config.n_agents, config.n_frames), dtype=bool)
    for agent, first, last in config.occlusion_windows:
        occluded[agent - 1, max(first - 1, 0) : last] = True
    if config.occlusion_rate > 0:
        # Two-state Markov chain whose stationary occupancy matches the rate.
        p_stay = 1.0 - 1.0 / MEAN_OCCLUSION_LEN
        rate = min(config.occlusion_rate, 0.95)
        p_on = rate / (MEAN_OCCLUSION_LEN * (1.0 - rate))
        for i in range(config.n_agents):
            state = False
            for t in range(config.n_frames):
                u = rng.uniform()
                state = (u < p_stay) if state else (u < p_on)
                occluded[i, t] = occluded[i, t] or state
    return occluded


def _merge_clusters(boxes: list[BoundingBox], threshold: float) -> list[list[int]]:
    """Connected components of the overlap graph over the given boxes."""
    n = len(boxes)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if iou(boxes[i], boxes[j]) > threshold:
                parent[find(j)] = find(i)

    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return sorted(clusters.values(), key=lambda c: c[0])


def _union_box(boxes: list[BoundingBox]) -> BoundingBox:
    x0 = min(b.x for b in boxes)
    y0 = min(b.y for b in boxes)
    x1 = max(b.right for b in boxes)
    y1 = max(b.bottom for b in boxes)
    return BoundingBox(x0, y0, x1 - x0, y1 - y0)


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def generate(config: ScenarioConfig) -> tuple[TrajectorySet, list[Frame]]:
    """Produce ground truth and per-frame detection candidates for a scenario.

    Returns:
        (gt, frames) where gt maps every frame and agent (ids 1..n_agents)
        to its true box, and frames[t] is the ``Frame`` of frame t+1: every
        candidate has an embedding and no s_mask.
    """
    rng = np.random.default_rng(config.seed)
    w_arena, h_arena = config.arena

    sizes = np.column_stack([
        rng.uniform(config.box_size_range[0], config.box_size_range[1], config.n_agents),
        rng.uniform(config.box_size_range[0], config.box_size_range[1], config.n_agents),
    ])
    signatures = _signatures(rng, config.n_agents, config.embed_dim)
    if config.crossing:
        centers, velocities = _spawn_crossing(rng, config, sizes)
    else:
        centers, velocities = _spawn_free(rng, config, sizes)
    occluded = _occlusion_mask(rng, config)

    gt_boxes: list[tuple[float, float, float, float]] = []  # frame-major, agents in id order
    frames: list[Frame] = []

    for t in range(config.n_frames):
        # Advance motion (frame 1 uses the spawn state as-is).
        if t > 0:
            for i in range(config.n_agents):
                if config.turn_rate > 0 and rng.uniform() < config.turn_rate:
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    speed = rng.uniform(*config.speed_range)
                    velocities[i] = speed * np.array([math.cos(angle), math.sin(angle)])
                centers[i] += velocities[i]
                for axis, extent in ((0, w_arena), (1, h_arena)):
                    half = sizes[i, axis] / 2.0
                    if centers[i, axis] < half:
                        centers[i, axis] = 2.0 * half - centers[i, axis]
                        velocities[i, axis] = -velocities[i, axis]
                    elif centers[i, axis] > extent - half:
                        centers[i, axis] = 2.0 * (extent - half) - centers[i, axis]
                        velocities[i, axis] = -velocities[i, axis]

        true_boxes: list[BoundingBox] = []
        for i in range(config.n_agents):
            box = BoundingBox(
                centers[i, 0] - sizes[i, 0] / 2.0,
                centers[i, 1] - sizes[i, 1] / 2.0,
                sizes[i, 0],
                sizes[i, 1],
            )
            true_boxes.append(box)
            gt_boxes.append(box.as_tuple())

        visible = [i for i in range(config.n_agents) if not occluded[i, t]]

        if config.proximity_merge and len(visible) > 1:
            clusters = _merge_clusters([true_boxes[i] for i in visible], config.merge_iou)
            clusters = [[visible[j] for j in c] for c in clusters]
        else:
            clusters = [[i] for i in visible]

        boxes, s_obj, embeddings = [], [], []  # one entry per candidate
        for cluster in clusters:
            if len(cluster) == 1:
                i = cluster[0]
                if config.miss_rate > 0 and rng.uniform() < config.miss_rate:
                    continue
                box = true_boxes[i]
                if config.detection_noise > 0:
                    s = config.detection_noise
                    dx, dy, dw, dh = rng.normal(size=4)
                    boxes.append((
                        box.x + dx * s * box.w,
                        box.y + dy * s * box.h,
                        max(box.w + dw * s * box.w, 2.0),
                        max(box.h + dh * s * box.h, 2.0),
                    ))
                else:
                    boxes.append(box.as_tuple())
                if config.n_agents > 1 and rng.uniform() >= config.affinity_fidelity:
                    other = int(rng.integers(config.n_agents - 1))
                    sig = signatures[other if other < i else other + 1]
                else:
                    sig = signatures[i]
                embeddings.append(_unit(sig + EMBED_NOISE * rng.normal(size=config.embed_dim)))
                s_obj.append(rng.uniform(0.75, 1.0))
            else:
                boxes.append(_union_box([true_boxes[i] for i in cluster]).as_tuple())
                sig = _unit(signatures[cluster].mean(axis=0))
                embeddings.append(_unit(sig + EMBED_NOISE * rng.normal(size=config.embed_dim)))
                s_obj.append(rng.uniform(*MERGED_SOBJ))

        if config.fp_rate > 0:
            for _ in range(int(rng.poisson(config.fp_rate))):
                fw = rng.uniform(*config.box_size_range)
                fh = rng.uniform(*config.box_size_range)
                fx = rng.uniform(0.0, w_arena - fw)
                fy = rng.uniform(0.0, h_arena - fh)
                boxes.append((fx, fy, fw, fh))
                embeddings.append(_unit(rng.normal(size=config.embed_dim)))
                s_obj.append(rng.uniform(*CLUTTER_SOBJ))

        frames.append(Frame(boxes, s_obj, embeddings=np.reshape(embeddings, (len(s_obj), config.embed_dim))))

    frame = np.repeat(np.arange(1, config.n_frames + 1), config.n_agents)
    ident = np.tile(np.arange(1, config.n_agents + 1), config.n_frames)
    return TrajectorySet.from_columns(frame, ident, gt_boxes), frames


def standard_suite() -> list[tuple[str, ScenarioConfig]]:
    """The fixed named stress suite; sweep/ablate runs re-seed each config."""
    return [
        ("crossing2", ScenarioConfig(
            n_agents=2, n_frames=100, arena=(640.0, 480.0),
            speed_range=(3.0, 5.0), turn_rate=0.0, crossing=True,
            box_size_range=(28.0, 40.0), proximity_merge=True, merge_iou=0.05,
            detection_noise=0.02, miss_rate=0.02, fp_rate=0.0,
            affinity_fidelity=0.85, seed=0,
        )),
        ("crowd8_occl20", ScenarioConfig(
            n_agents=8, n_frames=120, arena=(960.0, 720.0),
            speed_range=(2.0, 6.0), turn_rate=0.04,
            occlusion_rate=0.2, proximity_merge=True,
            detection_noise=0.03, miss_rate=0.03, fp_rate=0.05,
            affinity_fidelity=0.9, seed=0,
        )),
        ("fastmotion4", ScenarioConfig(
            n_agents=4, n_frames=100, arena=(800.0, 600.0),
            speed_range=(15.0, 25.0), turn_rate=0.03,
            proximity_merge=True,
            detection_noise=0.03, miss_rate=0.03, fp_rate=0.0,
            affinity_fidelity=0.9, seed=0,
        )),
        ("clutter4", ScenarioConfig(
            n_agents=4, n_frames=100, arena=(800.0, 600.0),
            speed_range=(3.0, 7.0), turn_rate=0.05,
            proximity_merge=True,
            detection_noise=0.03, miss_rate=0.05, fp_rate=0.3,
            affinity_fidelity=0.9, seed=0,
        )),
    ]


def scenario_by_name(name: str) -> ScenarioConfig:
    for suite_name, config in standard_suite():
        if suite_name == name:
            return config
    known = ", ".join(n for n, _ in standard_suite())
    raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
