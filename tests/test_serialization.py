"""Round-trips for the on-disk formats, with integrity checks on load."""

import copy
import csv
import json

import numpy as np
import pytest

from ddrollout import (
    INF,
    AugmentedState,
    FreeTerminal,
    SampleSetIntegrityError,
    SolverConfig,
    Trajectory,
    run_rollout,
    simulate_policy,
)
from ddrollout.serialization import (
    append_summary,
    config_from_dict,
    config_to_dict,
    decode_value,
    dumps_json,
    encode_value,
    run_from_doc,
    run_to_doc,
    sample_set_from_doc,
    sample_set_to_doc,
    summary_row,
    trajectory_from_csv,
    trajectory_from_doc,
    trajectory_to_csv,
    trajectory_to_doc,
)

from conftest import widened_doc


def roundtrip(v):
    return decode_value(json.loads(json.dumps(encode_value(v))))


def test_value_codec_roundtrips():
    assert roundtrip(INF) == INF
    assert roundtrip(-INF) == -INF
    assert roundtrip(3.25) == 3.25
    assert roundtrip("up") == "up"
    assert roundtrip(None) is None
    got = roundtrip(np.array([1.0, -2.5]))
    assert isinstance(got, np.ndarray) and got.tolist() == [1.0, -2.5]
    assert roundtrip(("vec", b"\x00\xff")) == ("vec", b"\x00\xff")
    aug = roundtrip(AugmentedState(np.array([1.0, 2.0]), 0.25))
    assert isinstance(aug, AugmentedState)
    assert aug.base.tolist() == [1.0, 2.0] and aug.info == 0.25
    assert roundtrip({"a": 1.5, "b": (2, 3)}) == {"a": 1.5, "b": (2, 3)}


def test_value_codec_rejects_the_unserializable():
    with pytest.raises(ValueError):
        encode_value(float("nan"))
    with pytest.raises(ValueError):
        encode_value(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        encode_value({"__tuple__": 1})  # reserved key
    with pytest.raises(TypeError):
        encode_value(object())
    with pytest.raises(ValueError):
        decode_value({"__wat__": []})


def _vector_traj(integrator):
    policy = next(iter(integrator.base_policies.values()))
    return simulate_policy(integrator.problem, policy,
                           integrator.start_states[0], max_steps=12)


def test_trajectory_json_roundtrip_is_exact(integrator):
    traj = _vector_traj(integrator)
    back = trajectory_from_doc(json.loads(dumps_json(trajectory_to_doc(traj))))
    assert back.policy_id == traj.policy_id
    assert back.terminated_in_stopping_set == traj.terminated_in_stopping_set
    assert all(np.array_equal(a, b) for a, b in zip(back.states, traj.states))
    assert back.stage_costs == traj.stage_costs
    assert back.tail_costs == traj.tail_costs


def test_trajectory_csv_roundtrip_vector_states(integrator):
    traj = _vector_traj(integrator)
    text = trajectory_to_csv(traj)
    assert text.splitlines()[1].split(",")[:3] == ["step", "x0", "x1"]
    back = trajectory_from_csv(text)
    assert all(np.array_equal(a, b) for a, b in zip(back.states, traj.states))
    assert back.stage_costs == traj.stage_costs
    assert back.tail_costs == traj.tail_costs


def test_trajectory_csv_roundtrip_token_states(tour):
    policy = tour.base_policies["prefers-cdb"]
    traj = simulate_policy(tour.problem, policy, tour.start_states[0])
    back = trajectory_from_csv(trajectory_to_csv(traj))
    assert back.states == traj.states
    assert back.controls == traj.controls
    assert back.tail_costs == traj.tail_costs


def _assert_same_trajectory(back, traj):
    def same(a, b):
        return np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b
    for field in ("states", "controls"):
        got, want = getattr(back, field), getattr(traj, field)
        assert len(got) == len(want) and all(map(same, got, want)), field
    assert back.stage_costs == traj.stage_costs
    assert back.tail_costs == traj.tail_costs
    assert back.policy_id == traj.policy_id
    assert back.terminated_in_stopping_set == traj.terminated_in_stopping_set


def test_trajectory_csv_roundtrip_keeps_vector_controls(integrator):
    traj = _vector_traj(integrator)
    assert len(traj.controls) > 0
    _assert_same_trajectory(trajectory_from_csv(trajectory_to_csv(traj)), traj)


@pytest.mark.parametrize("state,layout", [
    (np.array([1.5, -2.0]), ["step", "x0", "x1", "stage_cost", "tail_cost"]),
    ("A", ["step", "state", "control", "stage_cost", "tail_cost"]),
])
@pytest.mark.parametrize("tails", [None, (0.0,)])
def test_trajectory_csv_roundtrip_without_controls(state, layout, tails):
    traj = Trajectory(states=(state,), controls=(), stage_costs=(), policy_id="p",
                      terminated_in_stopping_set=True, tail_costs=tails)
    text = trajectory_to_csv(traj)
    assert text.splitlines()[1].split(",") == layout
    _assert_same_trajectory(trajectory_from_csv(text), traj)


def test_trajectory_csv_controls_of_mixed_size_fall_back_to_tokens():
    traj = Trajectory(states=(np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 3.0])),
                      controls=(np.array([1.0]), np.array([0.5, 2.0])),
                      stage_costs=(1.0, 4.25), policy_id="mixed",
                      terminated_in_stopping_set=False, tail_costs=(5.25, 4.25, 0.0))
    text = trajectory_to_csv(traj)
    assert text.splitlines()[1].split(",")[:3] == ["step", "state", "control"]
    _assert_same_trajectory(trajectory_from_csv(text), traj)


def test_explicit_set_roundtrip_reverifies(spiral):
    sset = spiral.sample_sets["trajectory-0"]
    doc = json.loads(dumps_json(sample_set_to_doc(sset)))
    policies = {p.id: p for p in spiral.base_policies.values()}
    back = sample_set_from_doc(doc, problem=spiral.problem, policies=policies)
    for e, f in zip(sset.entries(), back.entries()):
        assert f.value == e.value and np.array_equal(f.state, e.state)
    # a load without context has nothing to verify against
    with pytest.raises(ValueError):
        sample_set_from_doc(doc)


def test_explicit_set_corruption_is_caught(spiral):
    # load-time re-verification covers membership invariance; a successor
    # pointing outside the set must be rejected
    sset = spiral.sample_sets["trajectory-0"]
    policies = {p.id: p for p in spiral.base_policies.values()}
    doc = copy.deepcopy(sample_set_to_doc(sset))
    doc["entries"][1]["successor"] = {"__vector__": [40.0, 40.0]}
    with pytest.raises(SampleSetIntegrityError):
        sample_set_from_doc(doc, problem=spiral.problem, policies=policies)


def test_a_stored_set_cannot_widen_the_state_tolerance(spiral, integrator):
    policies = {p.id: p for p in spiral.base_policies.values()}
    doc = widened_doc(spiral.sample_sets["trajectory-0"])
    with pytest.raises(SampleSetIntegrityError, match="eps_state"):
        sample_set_from_doc(doc, problem=spiral.problem, policies=policies)
    budget = sample_set_to_doc(integrator.augmented_sets["budget"])
    budget["eps_state"] = 1e-3
    with pytest.raises(SampleSetIntegrityError, match="eps_state"):
        sample_set_from_doc(budget)


def test_analytic_sets_do_not_serialize(spiral):
    with pytest.raises(TypeError, match="AnalyticSampleSet is defined by code"):
        sample_set_to_doc(spiral.sample_sets["disk"])
    with pytest.raises(TypeError, match="FreeTerminal is defined by code"):
        sample_set_to_doc(FreeTerminal())


def test_budget_set_roundtrip_and_tamper_detection(integrator):
    sset = integrator.augmented_sets["budget"]
    doc = json.loads(dumps_json(sample_set_to_doc(sset)))
    back = sample_set_from_doc(doc)
    assert back.tail_usages == sset.tail_usages
    assert back.spec.e_max == sset.spec.e_max
    bad = copy.deepcopy(doc)
    bad["tail_usages"][3] = float(decode_value(bad["tail_usages"][3])) + 1e-9
    with pytest.raises(SampleSetIntegrityError):
        sample_set_from_doc(bad)
    bad = copy.deepcopy(doc)
    bad["usages"].pop()  # a ledger one step short of its seed
    with pytest.raises(SampleSetIntegrityError, match="stored usage entries"):
        sample_set_from_doc(bad)
    bad = copy.deepcopy(doc)
    bad["usage_quad"] = [[-1.0]]  # prices every step below zero
    with pytest.raises(SampleSetIntegrityError, match="usage ledger"):
        sample_set_from_doc(bad)


def test_run_roundtrip_and_summary(grid, tmp_path):
    cfg = SolverConfig(ell=2)
    run = run_rollout(grid.problem, grid.sample_sets["trajectory"],
                      grid.start_states[0], cfg, horizon=40)
    doc = json.loads(dumps_json(run_to_doc(run)))
    back = run_from_doc(doc)
    assert back.total_cost == run.total_cost
    assert back.per_step_values == run.per_step_values
    assert back.status == run.status
    assert back.trajectory.states == run.trajectory.states

    path = tmp_path / "summary.csv"
    append_summary(str(path), summary_row(run, "two-vehicle-grid", grid.start_states[0]))
    append_summary(str(path), summary_row(back, "two-vehicle-grid", grid.start_states[0]))
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0][0] == "instance" and len(rows) == 3
    assert rows[1] == rows[2]


def test_dumps_json_is_deterministic(integrator):
    doc = sample_set_to_doc(integrator.augmented_sets["budget"])
    assert dumps_json(doc) == dumps_json(copy.deepcopy(doc))


def test_config_dict_roundtrip():
    cfg = SolverConfig(ell=3, mode_cap=64)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ValueError):
        config_from_dict({"ell": 2, "wibble": 1})


def test_run_documents_with_retired_config_fields_still_load(grid):
    cfg = SolverConfig(ell=2)
    run = run_rollout(grid.problem, grid.sample_sets["trajectory"],
                      grid.start_states[0], cfg, horizon=40)
    doc = json.loads(dumps_json(run_to_doc(run)))
    # the config block as earlier versions wrote it, retired knobs included
    doc["config"] = {
        "ell": 2, "backend": "discrete", "eps_term": 1e-06, "eps_tail": 1e-06,
        "max_iters": 5000, "penalty_init": 100.0, "penalty_growth": 10.0,
        "penalty_max": 1e12, "seed": 0, "workers": 1, "node_cap": 2000000,
        "mode_cap": 128, "diagnostics": True,
    }
    back = run_from_doc(doc)
    assert back.config == cfg
    assert back.total_cost == run.total_cost
    # only the retired names are forgiven
    with pytest.raises(ValueError):
        config_from_dict({"ell": 2, "seed": 0, "wibble": 1})
