import json
import re
import time
from dataclasses import replace

import pytest

from mazekit import dataset
from mazekit.augment import RESET_MARKER, AugmentConfig
from mazekit.bench import hash16
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
    write_jsonl,
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


def test_read_records_keeps_one_copy_of_the_maze_text(small_splits, tmp_path):
    path = str(tmp_path / "sft.jsonl")
    write_records(small_splits.sft, path)
    assert all(r.prompt is r.maze_tokens for r in read_records(path))
    row = {**small_splits.sft[0].to_dict(), "prompt": "hello"}
    assert record_from_dict(row).prompt == "hello"


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


# at --scale 400 one training maze of this seed repeats a test maze's id,
# which leaves the straight quota one maze short of the unpadded plan
REPEAT_SEED = 7750221749264622373


def test_scaled_plan_tops_up_past_a_repeated_test_maze():
    splits = build_splits(SplitPlan.scaled(400), GenConfig(seed=REPEAT_SEED), AugmentConfig(seed=REPEAT_SEED))
    assert splits.top_up == 1
    assert (len(splits.test), len(splits.sft), len(splits.grpo)) == (75, 1250, 375)
    assert sum(r.kind is RecordKind.RETRY for r in splits.sft) == 625
    test_ids = {_maze_hash(r) for r in splits.test}
    assert not test_ids & {_maze_hash(r) for r in splits.sft + splits.grpo}
    # the extra item is pool index total_pool, and it is used
    assert max(int(r.id.split("-")[0]) for r in splits.sft + splits.grpo) == 1325
    for r in splits.test + splits.sft + splits.grpo:
        validate_record(r)


def test_explicit_plan_names_the_repeated_ids():
    plan = replace(SplitPlan.scaled(400), scale_factor=None)
    with pytest.raises(SplitShortfallError) as err:
        build_splits(plan, GenConfig(seed=REPEAT_SEED), AugmentConfig(seed=REPEAT_SEED))
    assert str(err.value) == (
        "straight quota shortfall: need 625, only 624 mazes remain outside the retry selection; "
        "left out as repeats of a test maze id (1): b491488198974a79"
    )


def test_top_up_is_bounded_by_the_pool_size():
    # 2x2 grids hold 48 distinct solved mazes, so nearly every training maze
    # repeats a test maze: the top-up stops after total_pool extra items
    plan = SplitPlan.scaled(400)
    with pytest.raises(SplitShortfallError, match=r"retry quota shortfall: .*left out as repeats of a test maze id \(\d+\): \w{16}, "):
        build_splits(plan, GenConfig(width=2, height=2, seed=1), AugmentConfig(seed=1))


def test_a_plan_that_fills_generates_nothing_extra(small_splits):
    assert small_splits.top_up == 0
    scaled = build_splits(SplitPlan.scaled(400), GenConfig(seed=400), AugmentConfig(seed=400))
    assert scaled.top_up == 0


@pytest.mark.parametrize(
    "plan", [SplitPlan.scaled(400), replace(SMALL_PLAN, sft_retry_count=0)], ids=["scale-400", "no-retry"]
)
def test_augments_only_until_the_retry_quota_fills(plan, monkeypatch):
    traces, real = [], dataset.augment_trace

    def counting(*args):
        traces.append(real(*args))
        return traces[-1]

    monkeypatch.setattr(dataset, "augment_trace", counting)
    splits = build_splits(plan, GenConfig(seed=400), AugmentConfig(seed=400))
    assert sum(t.is_retry for t in traces) == plan.sft_retry_count
    # the last maze augmented is the one that filled the quota
    assert traces[-1].is_retry if plan.sft_retry_count else traces == []
    assert sum(r.kind is RecordKind.RETRY for r in splits.sft) == plan.sft_retry_count


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


def test_gzip_output_is_byte_reproducible(tmp_path, monkeypatch):
    path = tmp_path / "x.jsonl.gz"
    written = []
    for now in (1_000_000_000.0, 1_700_000_000.0):
        monkeypatch.setattr(time, "time", lambda now=now: now)
        write_jsonl(str(path), [{"row": 0}, {"row": 1}])
        written.append(path.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("name", ["out.jsonl", "out.jsonl.gz"])
def test_failed_write_leaves_old_file_and_no_temp(tmp_path, name):
    path = tmp_path / name
    write_jsonl(str(path), [{"row": 0}, {"row": 1}])
    before = path.read_bytes()

    def rows():
        yield {"row": "new"}
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_jsonl(str(path), rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


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


def _forged_rows(record):
    """Rows that differ from a straight record in one field that strict mode checks against its maze."""
    row = record.to_dict()
    other_maze = hash16(row["maze_tokens"] + "\n")
    retry_id = row["id"].replace("-straight", "-retry")
    return {
        "prompt-not-the-maze": ({**row, "prompt": "hello"}, "field 'prompt' is not the maze_tokens text"),
        "id-made-up": ({**row, "id": "made-up"}, "field 'id' 'made-up' does not carry the maze hash"),
        "id-hash-of-another-maze": (
            {**row, "id": f"000001-{other_maze}-straight"},
            f"field 'id' '000001-{other_maze}-straight' does not carry the maze hash",
        ),
        "id-suffix-not-kind": (
            {**row, "id": retry_id},
            f"field 'id' '{retry_id}' does not end in '-straight' for kind 'straight_success'",
        ),
        "steps-raised": (
            {**row, "steps": row["steps"] + 5},
            f"field 'steps' is {row['steps'] + 5}, the answer has {row['steps']} moves",
        ),
    }


@pytest.mark.parametrize(
    "case", ["prompt-not-the-maze", "id-made-up", "id-hash-of-another-maze", "id-suffix-not-kind", "steps-raised"]
)
def test_strict_mode_checks_record_against_its_maze(small_splits, tmp_path, case):
    row, message = _forged_rows(small_splits.test[0])[case]
    path = tmp_path / "forged.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert len(read_records(str(path))) == 1
    with pytest.raises(DatasetError, match=re.escape(f"{path}: line 1: {message}")):
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
