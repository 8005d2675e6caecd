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
from dataclasses import dataclass, field

import numpy as np

from .association import Frame
from .geometry import BoundingBox, check_fields, iou
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

    n_agents: int = field(metadata={"range": "integer >= 1"})
    n_frames: int = field(metadata={"range": "integer >= 1"})
    arena: tuple[float, float] = (640.0, 480.0)
    speed_range: tuple[float, float] = (2.0, 6.0)
    turn_rate: float = field(default=0.05, metadata={"range": "[0, 1]"})  # per-frame P(direction change)
    box_size_range: tuple[float, float] = (24.0, 48.0)
    crossing: bool = False                     # spawn agents on converging linear paths
    occlusion_windows: tuple[tuple[int, int, int], ...] = ()  # (agent, first, last), 1-based
    occlusion_rate: float = field(default=0.0, metadata={"range": "[0, 1]"})  # target occluded share per agent
    proximity_merge: bool = False              # overlapping agents collapse to one union box
    merge_iou: float = field(default=0.15, metadata={"range": "[0, 1]"})  # overlap that triggers a merge
    detection_noise: float = field(default=0.0, metadata={"range": "[0, inf)"})  # box sigma / box size
    fp_rate: float = field(default=0.0, metadata={"range": "[0, inf)"})  # expected clutter per frame
    miss_rate: float = field(default=0.0, metadata={"range": "[0, 1]"})  # per-detection drop probability
    affinity_fidelity: float = field(default=1.0, metadata={"range": "[0, 1]"})  # P(true agent is closest)
    embed_dim: int = field(default=DEFAULT_EMBED_DIM, metadata={"range": "integer >= 1"})
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("arena", "speed_range"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.arena[0] <= 0 or self.arena[1] <= 0:
            raise ValueError(f"degenerate arena {self.arena}")
        if not 0 < self.box_size_range[0] <= self.box_size_range[1]:
            raise ValueError(f"box_size_range must satisfy 0 < lo <= hi, got {self.box_size_range}")
        if self.arena[0] <= self.box_size_range[1] or self.arena[1] <= self.box_size_range[1]:
            raise ValueError("arena must be larger than the largest agent box")
        if self.speed_range[0] < 0 or self.speed_range[1] < self.speed_range[0]:
            raise ValueError(f"bad speed_range {self.speed_range}")
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
    half = sizes / 2.0
    n = config.n_agents
    # One block of draws, agent-major: each agent's x, y, heading and speed,
    # the same doubles as one scalar draw of each in turn.
    low = np.column_stack([half, np.zeros(n), np.full(n, config.speed_range[0])])
    high = np.column_stack([np.asarray(config.arena) - half, np.full(n, 2.0 * math.pi),
                            np.full(n, config.speed_range[1])])
    draws = rng.uniform(low, high)
    velocities = [(s * math.cos(a), s * math.sin(a)) for a, s in draws[:, 2:].tolist()]
    return draws[:, :2], np.array(velocities)


def _spawn_crossing(rng, config: ScenarioConfig, sizes: np.ndarray):
    """Agents on linear paths through a shared waypoint with synchronised arrival."""
    w_arena, h_arena = config.arena
    waypoint = np.array([
        w_arena / 2.0 + rng.uniform(-0.05, 0.05) * w_arena,
        h_arena / 2.0 + rng.uniform(-0.05, 0.05) * h_arena,
    ])
    base = rng.uniform(0.0, 2.0 * math.pi)
    headings = np.empty((config.n_agents, 2))
    speeds = np.empty((config.n_agents, 1))
    for i in range(config.n_agents):
        angle = base + i * 2.0 * math.pi / config.n_agents + rng.uniform(-0.2, 0.2)
        headings[i] = math.cos(angle), math.sin(angle)
        speeds[i] = rng.uniform(*config.speed_range)

    # Largest shared back-off time that keeps every spawn inside the arena.
    half = sizes / 2.0
    step = speeds * np.abs(headings)
    room = np.minimum(waypoint - half, np.asarray(config.arena) - half - waypoint)
    moving = step > 1e-9
    t_meet = max(np.min(room[moving] / step[moving], initial=config.n_frames / 2.0), 1.0)

    velocities = speeds * headings
    return waypoint - velocities * t_meet, velocities


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
        # One block of draws, agent-major: the scalar draws of each agent's
        # chain in turn, as PCG64 yields the same doubles either way.
        u = rng.uniform(size=(config.n_agents, config.n_frames))
        state = np.zeros(config.n_agents, dtype=bool)
        for t in range(config.n_frames):
            state = u[:, t] < np.where(state, p_stay, p_on)
            occluded[:, t] |= state
    return occluded


def _merge_clusters(boxes: list[BoundingBox], threshold: float) -> list[list[int]]:
    """Connected components of the overlap graph (IoU above a threshold >= 0)
    over the given boxes, each ascending, ordered by their first box."""
    n = len(boxes)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # Sweep in x order: a pair above a threshold >= 0 overlaps in x or is one
    # box twice, so each box meets only the later boxes that start left of its
    # right edge or at its own x (equal boxes whose x + w rounds to x).
    xs = [box.x for box in boxes]
    order = sorted(range(n), key=xs.__getitem__)
    for pos, i in enumerate(order):
        a, x, right = boxes[i], xs[i], boxes[i].right
        for j in order[pos + 1:]:
            if xs[j] >= right and xs[j] != x:
                break
            if iou(a, boxes[j]) > threshold:
                parent[find(j)] = find(i)

    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return sorted(clusters.values(), key=lambda c: c[0])


def _union_box(rows: np.ndarray) -> np.ndarray:
    """The smallest (x, y, w, h) row enclosing the given (k, 4) rows."""
    lo = rows[:, :2].min(axis=0)
    return np.concatenate([lo, (rows[:, :2] + rows[:, 2:]).max(axis=0) - lo])


def _unit(v: np.ndarray) -> np.ndarray:
    n = math.sqrt(v.dot(v))  # np.linalg.norm's arithmetic for a 1-D float vector
    return v / n if n > 0 else v


def generate(config: ScenarioConfig) -> tuple[TrajectorySet, list[Frame]]:
    """Produce ground truth and per-frame detection candidates for a scenario.

    Returns:
        (gt, frames) where gt maps every frame and agent (ids 1..n_agents)
        to its true box, and frames[t] is the ``Frame`` of frame t+1: every
        candidate has an embedding and no s_mask. The candidates of all
        frames are filled into one column set, checked once, and handed out
        as per-frame read-only views of it.
    """
    rng = np.random.default_rng(config.seed)
    arena = np.asarray(config.arena)

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

    half = sizes / 2.0
    far = arena - half  # the largest center that keeps a box inside
    truth = np.empty((config.n_frames, config.n_agents, 4))  # frame-major, agents in id order
    truth[:, :, 2:] = sizes
    room = config.n_agents * config.n_frames  # one candidate per agent and frame; clutter can need more
    boxes, s_obj, embeddings = np.empty((room, 4)), np.empty(room), np.empty((room, config.embed_dim))
    counts, n = [], 0  # candidates per frame, and in all

    for t in range(config.n_frames):
        # Advance motion (frame 1 uses the spawn state as-is).
        if t > 0:
            for i in range(config.n_agents):
                if config.turn_rate > 0 and rng.uniform() < config.turn_rate:
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    speed = rng.uniform(*config.speed_range)
                    velocities[i] = speed * np.array([math.cos(angle), math.sin(angle)])
            centers += velocities
            # Reflect off the walls; a center past the near wall is not tested
            # against the far one.
            near = centers < half
            bounce = near | (centers > far)
            centers = np.where(bounce, 2.0 * np.where(near, half, far) - centers, centers)
            velocities = np.where(bounce, -velocities, velocities)

        rows = truth[t]
        rows[:, :2] = centers - half
        coords = rows.tolist()
        visible = np.flatnonzero(~occluded[:, t]).tolist()

        if config.proximity_merge and len(visible) > 1:
            clusters = _merge_clusters([BoundingBox._checked(*coords[i]) for i in visible], config.merge_iou)
            clusters = [[visible[j] for j in c] for c in clusters]
        else:
            clusters = [[i] for i in visible]

        frame_boxes, frame_s_obj, frame_embeddings = [], [], []  # one entry per candidate
        for cluster in clusters:
            if len(cluster) == 1:
                i = cluster[0]
                if config.miss_rate > 0 and rng.uniform() < config.miss_rate:
                    continue
                box = coords[i]
                if config.detection_noise > 0:
                    x, y, w, h = box
                    dx, dy, dw, dh = (rng.normal(size=4) * config.detection_noise).tolist()
                    box = (x + dx * w, y + dy * h, max(w + dw * w, 2.0), max(h + dh * h, 2.0))
                if config.n_agents > 1 and rng.uniform() >= config.affinity_fidelity:
                    other = int(rng.integers(config.n_agents - 1))
                    sig = signatures[other if other < i else other + 1]
                else:
                    sig = signatures[i]
                sobj_range = (0.75, 1.0)
            else:
                box = _union_box(rows[cluster])
                sig = _unit(signatures[cluster].mean(axis=0))
                sobj_range = MERGED_SOBJ
            frame_boxes.append(box)
            frame_embeddings.append(_unit(sig + EMBED_NOISE * rng.normal(size=config.embed_dim)))
            frame_s_obj.append(rng.uniform(*sobj_range))

        if config.fp_rate > 0:
            for _ in range(int(rng.poisson(config.fp_rate))):
                size = rng.uniform(*config.box_size_range, size=2)
                frame_boxes.append(np.concatenate([rng.uniform(0.0, arena - size), size]))
                frame_embeddings.append(_unit(rng.normal(size=config.embed_dim)))
                frame_s_obj.append(rng.uniform(*CLUTTER_SOBJ))

        k = len(frame_s_obj)
        if n + k > len(s_obj):
            for column in (boxes, s_obj, embeddings):  # in place, as no view of them is alive
                column.resize((2 * (n + k), *column.shape[1:]), refcheck=False)
        if k:
            boxes[n:n + k], s_obj[n:n + k], embeddings[n:n + k] = frame_boxes, frame_s_obj, frame_embeddings
        counts.append(k)
        n += k

    frame = np.repeat(np.arange(1, config.n_frames + 1), config.n_agents)
    ident = np.tile(np.arange(1, config.n_agents + 1), config.n_frames)
    # The filled rows, trimmed in place, are the one column set: checked once, then cut.
    for column in (boxes, s_obj, embeddings):
        column.resize((n, *column.shape[1:]), refcheck=False)
    candidates = Frame._checked(boxes, s_obj, np.full(n, math.nan), embeddings, np.ones(n, dtype=bool))
    candidates._check()
    return TrajectorySet.from_columns(frame, ident, truth), candidates._split(counts)


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
