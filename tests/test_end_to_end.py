"""One differential test across every layer: ``run_scenario`` against the
chain of scalar references in ``tests/oracles.py``.

The chain is ``generate_oracle`` (one ``DetectionCandidate`` per detection),
``step_tracker_oracle`` per frame (the per-track step), keeping the
confirmed outputs as ``RunConfig()`` does, then the CLEAR, identity and HOTA
loop oracles. Any layer that is replaced by a faster one (the simulator's
column set, the column tracker, the shared frame table of the metrics) must
leave the report equal to the chain's, field by field and exactly.
"""

from dataclasses import asdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from motrack import CONFIRMED, RunConfig, ScenarioConfig, TrajectorySet
from motrack.metrics import HOTA_ALPHAS, EvalReport
from motrack.runner import run_scenario

from oracles import (OracleTrackerState, clear_loop_oracle, generate_oracle, hota_loop_oracle,
                     identity_loop_oracle, step_tracker_oracle)


def oracle_report(scenario: ScenarioConfig, run_cfg: RunConfig) -> EvalReport:
    gt, frames = generate_oracle(scenario)
    state, records = OracleTrackerState(config=run_cfg.tracker), []
    for number, candidates in enumerate(frames, start=1):
        state, outputs = step_tracker_oracle(state, candidates, frame_index=number)
        records += [(number, out.track_id, out.box) for out in outputs if out.status == CONFIRMED]
    hyp = TrajectorySet.from_records(records)
    threshold = run_cfg.eval_iou_threshold
    mota, fp, fn, ids, total_gt = clear_loop_oracle(gt, hyp, threshold)
    idf1, idp, idr, _ = identity_loop_oracle(gt, hyp, threshold)
    hota, deta, assa = hota_loop_oracle(gt, hyp, HOTA_ALPHAS)
    return EvalReport(mota=mota, idf1=idf1, idp=idp, idr=idr, ids=ids, fp=fp, fn=fn, hota=hota,
                      deta=deta, assa=assa, total_gt=total_gt, total_hyp=hyp.total_boxes())


@st.composite
def merging_scenarios(draw):
    """1-4 agents for up to 30 frames in a small arena, so that merges,
    occlusions, misses and clutter all occur."""
    n_agents = draw(st.integers(1, 4))
    n_frames = draw(st.integers(1, 30))
    windows = draw(st.lists(st.tuples(st.integers(1, n_agents), st.integers(1, n_frames),
                                      st.integers(0, 6)), max_size=2))
    return ScenarioConfig(
        n_agents=n_agents, n_frames=n_frames, arena=(draw(st.floats(100.0, 240.0)), draw(st.floats(100.0, 240.0))),
        speed_range=(1.0, draw(st.floats(1.0, 12.0))), turn_rate=draw(st.floats(0.0, 0.3)),
        box_size_range=(20.0, 40.0), crossing=draw(st.booleans()),
        occlusion_windows=tuple((a, first, first + length) for a, first, length in windows),
        occlusion_rate=draw(st.floats(0.0, 0.4)), proximity_merge=True, merge_iou=draw(st.floats(0.0, 0.3)),
        detection_noise=draw(st.floats(0.0, 0.1)), fp_rate=draw(st.floats(0.0, 2.0)),
        miss_rate=draw(st.floats(0.0, 0.2)), affinity_fidelity=draw(st.floats(0.5, 1.0)),
        embed_dim=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**32)),
    )


class TestRunScenarioAgainstOracleChain:
    @settings(max_examples=100, deadline=None)
    @given(merging_scenarios())
    # Pinned: two agents crossing with a merge and an occlusion window, and a
    # crowded arena with clutter on most frames.
    @example(ScenarioConfig(n_agents=2, n_frames=30, arena=(160.0, 120.0), crossing=True, turn_rate=0.0,
                            occlusion_windows=((1, 5, 9),), proximity_merge=True, merge_iou=0.05,
                            detection_noise=0.02, fp_rate=0.5, seed=4))
    @example(ScenarioConfig(n_agents=4, n_frames=30, arena=(120.0, 110.0), box_size_range=(24.0, 40.0),
                            occlusion_rate=0.3, proximity_merge=True, fp_rate=1.5, miss_rate=0.1,
                            affinity_fidelity=0.7, seed=11))
    def test_report_equals_the_chain(self, scenario):
        run_cfg = RunConfig()
        assert asdict(run_scenario(scenario, run_cfg)) == asdict(oracle_report(scenario, run_cfg))
