"""Output-identity regression: the tracker and the metrics must keep producing
the exact bytes recorded before association and evaluation moved from
per-pair scalar loops to whole-frame score matrices.

The digests below are SHA-256 hashes of outputs produced by the scalar
implementation. A change here means a different hypothesis or report; it is
a behaviour change to explain, not a digest to update.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from motrack import RunConfig, generate, scenario_by_name
from motrack.cli import main
from motrack.mot_io import load_trajectories, write_trajectories
from motrack.runner import run_suite, track_frames

DATA = Path(__file__).parent / "data"

# sha256 of the `motrack track` output on each golden detection file
# (with its .aff sidecar), default config.
TRACK_DIGESTS = {
    "crossing2_seed0_det.txt": "5a2ae85d044d8c35841c03b327aab03c4557e58b25fc5bd87b63074acb8e525a",
    "crowd8_occl20_seed0_det.txt": "0150824d3e32eaa11c740a209cf807254ce0c531276ea962f8b968aa885ee72f",
}

# sha256 of the lines f"{seed} {report!r}" over seeds 0-24, joined by
# newlines, per standard scenario, default config.
SUITE_SEEDS = range(25)
SUITE_DIGESTS = {
    "clutter4": "07b7e93ace63352f8fdafb4a8aa1c5f439292c91c8d3f99dbae463a8a23b5a18",
    "crossing2": "7f8b3962e71f4d3539390c6fa897f88efa91237c4a52e531f0b8bc9ee025659f",
    "crowd8_occl20": "1e7b87abef84fa2be1e4c2c0ca065672014275c1a22df3adf624b95df50b4f64",
    "fastmotion4": "9e8e5d114cf31acc470ab143f982300429951c5db59409017d6e2cf15fdd5cfa",
}

# sha256 of the `motrack eval --format kv` output on a generated pair: the
# crowd8_occl20 ground truth (seed 0, 600 frames) and the default tracker's
# hypothesis on its detections, both written as MOT files. Recorded while
# CLEAR, identity and HOTA still each built their own per-frame IoU.
EVAL_SCENARIO = ("crowd8_occl20", 0, 600)
EVAL_DIGEST = "67c291d663a8bf01124513e0ea5b1550d031d65db230e0cb00c556b17994d9ae"

# sha256 of `write_trajectories(load_trajectories(f))` for the same pair's
# two files, recorded while loading still built one BoundingBox per line.
RELOAD_DIGESTS = {
    "gt": "c5de38ae927ac0683d163d9d63edc4785ce38505fd98982b054c78ec659f1871",
    "hyp": "4589abb64efb52fd3c7c73f32e96aff8858d3c3980d840a739f75bba35f3b4e3",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("det_name", sorted(TRACK_DIGESTS))
def test_golden_track_output_unchanged(det_name, tmp_path, capsys):
    out = tmp_path / "hyp.txt"
    assert main(["track", "--det", str(DATA / det_name), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == TRACK_DIGESTS[det_name]


def test_golden_track_output_with_every_status(tmp_path, capsys):
    """`motrack track` with lost and tentative tracks in the output: the
    golden hypothesis, recorded while each step still built one
    ``TrackOutput`` per row and the run filtered them one by one."""
    out = tmp_path / "hyp.txt"
    assert main(["track", "--det", str(DATA / "crowd8_occl20_seed0_det.txt"),
                 "--config", str(DATA / "crowd8_occl20_seed0_hyp_all.cfg"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "crowd8_occl20_seed0_hyp_all.txt").read_bytes()


def test_standard_suite_reports_unchanged():
    reports = run_suite(RunConfig(), seeds=SUITE_SEEDS)
    lines: dict[str, list[str]] = {}
    for (name, seed), report in sorted(reports.items()):
        lines.setdefault(name, []).append(f"{seed} {report!r}")
    digests = {name: _sha256("\n".join(rows).encode()) for name, rows in lines.items()}
    assert digests == SUITE_DIGESTS


def test_eval_kv_output_unchanged(tmp_path, capsys):
    name, seed, n_frames = EVAL_SCENARIO
    gt, frames = generate(replace(scenario_by_name(name), seed=seed, n_frames=n_frames))
    gt_path, hyp_path = tmp_path / "gt.txt", tmp_path / "hyp.txt"
    write_trajectories(gt_path, gt)
    write_trajectories(hyp_path, track_frames(frames, RunConfig()))
    assert main(["eval", "--gt", str(gt_path), "--hyp", str(hyp_path), "--format", "kv"]) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == EVAL_DIGEST, out


def test_eval_pair_reload_output_unchanged(tmp_path):
    name, seed, n_frames = EVAL_SCENARIO
    gt, frames = generate(replace(scenario_by_name(name), seed=seed, n_frames=n_frames))
    digests = {}
    for label, ts in (("gt", gt), ("hyp", track_frames(frames, RunConfig()))):
        first, second = tmp_path / f"{label}.txt", tmp_path / f"{label}2.txt"
        write_trajectories(first, ts)
        write_trajectories(second, load_trajectories(first))
        digests[label] = _sha256(second.read_bytes())
    assert digests == RELOAD_DIGESTS


def test_pinned_crowd_eval_kv_is_the_golden_one(tmp_path, capsys):
    # The dense pinned pair, recorded before CLEAR and HOTA matched frames
    # without competing pairs in bulk: 56 of its 120 frames still call
    # HOTA's assignment and 13 may call CLEAR's.
    hyp_path = tmp_path / "hyp.txt"
    assert main(["track", "--det", str(DATA / "crowd8_occl20_seed0_det.txt"), "--out", str(hyp_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--gt", str(DATA / "crowd8_occl20_seed0_gt.txt"), "--hyp", str(hyp_path),
                 "--format", "kv"]) == 0
    assert capsys.readouterr().out == (DATA / "crowd8_occl20_seed0_eval.kv").read_text()
