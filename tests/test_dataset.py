import json

import pytest

from mazekit.augment import RESET_MARKER, AugmentConfig
from mazekit.dataset import (
    DatasetError,
    DatasetRecord,
    RecordKind,
    SplitPlan,
    SplitShortfallError,
    build_splits,
    read_records,
    record_from_dict,
    validate_record,
    write_records,
)
from mazekit.generate import GenConfig

SMALL_PLAN = SplitPlan(total_pool=120, test_count=10, sft_straight_count=40, sft_retry_count=40, grpo_count=30)


@pytest.fixture(scope="module")
def small_splits():
    return build_splits(SMALL_PLAN, GenConfig(seed=2024), AugmentConfig(seed=77))


def _maze_hash(record: DatasetRecord) -> str:
    return record.id.split("-")[1]


def test_split_counts(small_splits):
    assert len(small_splits.test) == 10
    assert len(small_splits.sft) == 80
    assert len(small_splits.grpo) == 30
    retry = sum(r.kind is RecordKind.RETRY for r in small_splits.sft)
    assert retry == 40


def test_test_pool_disjoint_from_training(small_splits):
    test_ids = {_maze_hash(r) for r in small_splits.test}
    train_ids = {_maze_hash(r) for r in small_splits.sft + small_splits.grpo}
    assert not test_ids & train_ids


def test_every_completion_solves_its_maze(small_splits):
    for r in small_splits.test + small_splits.sft + small_splits.grpo:
        validate_record(r)


def test_kind_matches_reset_content(small_splits):
    for r in small_splits.sft:
        assert (RESET_MARKER in r.completion) == (r.kind is RecordKind.RETRY)
    for r in small_splits.test + small_splits.grpo:
        assert r.kind is RecordKind.STRAIGHT_SUCCESS
        assert RESET_MARKER not in r.completion


def test_prompt_is_the_maze_grid(small_splits):
    for r in small_splits.sft[:10]:
        assert r.prompt == r.maze_tokens


def test_grpo_disjoint_from_sft_straight(small_splits):
    straight_ids = {_maze_hash(r) for r in small_splits.sft if r.kind is RecordKind.STRAIGHT_SUCCESS}
    grpo_ids = {_maze_hash(r) for r in small_splits.grpo}
    assert not straight_ids & grpo_ids


def test_build_is_deterministic(small_splits):
    again = build_splits(SMALL_PLAN, GenConfig(seed=2024), AugmentConfig(seed=77))
    assert again == small_splits


def test_different_seed_differs(small_splits):
    other = build_splits(SMALL_PLAN, GenConfig(seed=2025), AugmentConfig(seed=77))
    assert other != small_splits


def test_retry_shortfall_reported():
    plan = SplitPlan(total_pool=20, test_count=0, sft_straight_count=0, sft_retry_count=20, grpo_count=0)
    with pytest.raises(SplitShortfallError, match="retry quota"):
        build_splits(plan, GenConfig(seed=5), AugmentConfig(seed=5))


def test_grpo_shortfall_reported():
    plan = SplitPlan(total_pool=30, test_count=0, sft_straight_count=0, sft_retry_count=0, grpo_count=40)
    with pytest.raises(SplitShortfallError, match="grpo quota"):
        build_splits(plan, GenConfig(seed=5), AugmentConfig(seed=5))


def test_plan_validation():
    with pytest.raises(ValueError):
        SplitPlan(total_pool=10, test_count=11, sft_straight_count=0, sft_retry_count=0, grpo_count=0)
    with pytest.raises(ValueError):
        SplitPlan.scaled(0)


def test_scaled_plan_matches_full_scale_counts():
    plan = SplitPlan.scaled(100)
    assert plan.total_pool == 5300
    assert plan.test_count == 300
    assert plan.sft_straight_count == 2500
    assert plan.sft_retry_count == 2500
    assert plan.grpo_count == 1500
    assert plan.scale_factor == 100


def test_write_read_round_trip(small_splits, tmp_path):
    path = tmp_path / "sft.jsonl"
    n = write_records(small_splits.sft, str(path))
    assert n == len(small_splits.sft)
    back = read_records(str(path), strict=True)
    assert back == list(small_splits.sft)


def test_gzip_round_trip(small_splits, tmp_path):
    path = tmp_path / "sft.jsonl.gz"
    write_records(small_splits.sft[:5], str(path))
    assert read_records(str(path)) == list(small_splits.sft[:5])


def test_empty_collection_round_trips(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_records([], str(path)) == 0
    assert read_records(str(path)) == []


def test_malformed_line_names_line_number(small_splits, tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(small_splits.sft[0].to_dict())
    path.write_text(good + "\nnot json\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2"):
        read_records(str(path))


def test_schema_violation_names_field(small_splits, tmp_path):
    row = small_splits.sft[0].to_dict()
    del row["steps"]
    path = tmp_path / "schema.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="steps"):
        read_records(str(path))


def test_wrong_type_rejected(small_splits):
    row = small_splits.sft[0].to_dict()
    row["steps"] = "five"
    with pytest.raises(DatasetError, match="'steps' must be int"):
        record_from_dict(row)


def test_strict_mode_catches_broken_completion(small_splits, tmp_path):
    row = small_splits.sft[0].to_dict()
    row["completion"] = "<think>nope</think><|up|><|up|><|up|>"
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    # lenient read accepts it, strict read rejects it
    assert len(read_records(str(path))) == 1
    with pytest.raises(DatasetError, match="does not solve"):
        read_records(str(path), strict=True)


def test_strict_mode_catches_kind_mismatch(small_splits, tmp_path):
    record = next(r for r in small_splits.sft if r.kind is RecordKind.RETRY)
    row = record.to_dict()
    row["kind"] = "straight_success"
    path = tmp_path / "kind.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="disagrees with RESET"):
        read_records(str(path), strict=True)


def test_unknown_kind_rejected(small_splits):
    row = small_splits.sft[0].to_dict()
    row["kind"] = "mystery"
    with pytest.raises(DatasetError, match="kind"):
        record_from_dict(row)


def test_records_ordered_by_pool_index(small_splits):
    for split in (small_splits.test, small_splits.sft, small_splits.grpo):
        indices = [int(r.id.split("-")[0]) for r in split]
        assert indices == sorted(indices)
