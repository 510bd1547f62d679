import gzip
import json
import os
import re
import tempfile
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazekit import dataset
from mazekit.augment import RESET_MARKER, AugmentConfig, ReasoningTrace
from mazekit.bench import hash16
from mazekit.dataset import (
    DatasetError,
    DatasetRecord,
    RecordKind,
    SplitPlan,
    SplitShortfallError,
    build_splits,
    make_record,
    read_records,
    record_from_dict,
    validate_record,
    write_jsonl,
    write_records,
)
from mazekit.generate import GenConfig, solved_pool
from mazekit.tokens import render_maze_tokens
from reference import materialized, record_dict, reference_record_from_dict

SMALL_PLAN = SplitPlan(total_pool=120, test_count=10, sft_straight_count=40, sft_retry_count=40, grpo_count=30)


@pytest.fixture(scope="module")
def small_splits():
    return materialized(build_splits(SMALL_PLAN, GenConfig(seed=2024), AugmentConfig(seed=77)))


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
    row = {**record_dict(small_splits.sft[0]), "prompt": "hello"}
    assert record_from_dict(row).prompt == "hello"


def test_grpo_disjoint_from_sft_straight(small_splits):
    straight_ids = {_maze_hash(r) for r in small_splits.sft if r.kind is RecordKind.STRAIGHT_SUCCESS}
    grpo_ids = {_maze_hash(r) for r in small_splits.grpo}
    assert not straight_ids & grpo_ids


def test_build_is_deterministic(small_splits):
    again = materialized(build_splits(SMALL_PLAN, GenConfig(seed=2024), AugmentConfig(seed=77)))
    assert again == small_splits


def test_different_seed_differs(small_splits):
    other = materialized(build_splits(SMALL_PLAN, GenConfig(seed=2025), AugmentConfig(seed=77)))
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
    seeds = GenConfig(seed=REPEAT_SEED), AugmentConfig(seed=REPEAT_SEED)
    splits = materialized(build_splits(SplitPlan.scaled(400), *seeds))
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


@pytest.fixture
def made(monkeypatch):
    """The records ``make_record`` has made since the fixture was set up."""
    made, real = [], dataset.make_record

    def counting(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(dataset, "make_record", counting)
    return made


def test_splits_make_each_record_as_it_is_read(made, small_splits):
    splits = build_splits(SMALL_PLAN, GenConfig(seed=2024), AugmentConfig(seed=77))
    assert made == []
    for name in ("grpo", "test", "sft"):  # any order: each split makes only its own records
        split, want = getattr(splits, name), getattr(small_splits, name)
        for k, expected in enumerate(want, start=1):
            assert next(split) == expected
            assert len(made) == k and made[-1] == expected
        made.clear()
        assert list(split) == []  # one pass: a second read yields nothing
    assert made == []


def test_shortfall_is_raised_before_any_record_is_made(made):
    plan = SplitPlan(total_pool=30, test_count=5, sft_straight_count=0, sft_retry_count=0, grpo_count=40)
    with pytest.raises(SplitShortfallError, match="grpo quota"):
        build_splits(plan, GenConfig(seed=5), AugmentConfig(seed=5))
    assert made == []


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
    good = json.dumps(record_dict(small_splits.sft[0]))
    path.write_text(good + "\nnot json\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2"):
        read_records(str(path))


def test_schema_violation_names_field(small_splits, tmp_path):
    row = record_dict(small_splits.sft[0])
    del row["steps"]
    path = tmp_path / "schema.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="steps"):
        read_records(str(path))


def test_wrong_type_rejected(small_splits):
    row = record_dict(small_splits.sft[0])
    row["steps"] = "five"
    with pytest.raises(DatasetError, match="'steps' must be int"):
        record_from_dict(row)


def test_strict_mode_catches_broken_completion(small_splits, tmp_path):
    row = record_dict(small_splits.sft[0])
    row["completion"] = "<think>nope</think><|up|><|up|><|up|>"
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    # lenient read accepts it, strict read rejects it
    assert len(read_records(str(path))) == 1
    with pytest.raises(DatasetError, match="does not solve"):
        read_records(str(path), strict=True)


def test_strict_mode_catches_kind_mismatch(small_splits, tmp_path):
    record = next(r for r in small_splits.sft if r.kind is RecordKind.RETRY)
    row = record_dict(record)
    row["kind"] = "straight_success"
    path = tmp_path / "kind.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="disagrees with RESET"):
        read_records(str(path), strict=True)


def _forged_rows(record):
    """Rows that differ from a straight record in one field that strict mode checks against its maze."""
    row = record_dict(record)
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
    row = record_dict(small_splits.sft[0])
    row["kind"] = "mystery"
    with pytest.raises(DatasetError, match="kind"):
        record_from_dict(row)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda row: {**row, "extra": 1, "another": 2}, "unknown fields ['another', 'extra']"),
        (lambda row: {**row, "kind": "mystery"}, "field 'kind' must be one of ['straight_success', 'retry'], got 'mystery'"),
        (lambda row: {**row, "seed": True}, "field 'seed' must be int"),
        (lambda row: {k: v for k, v in row.items() if k not in ("completion", "seed")}, "missing field 'seed'"),
    ],
    ids=["unknown-fields", "unknown-kind", "bool-for-int", "first-missing-in-field-order"],
)
def test_record_from_dict_messages(small_splits, change, message):
    """Each schema fault's message, with the fields checked in ``DatasetRecord`` order."""
    with pytest.raises(DatasetError, match=f"^{re.escape('row 7: ' + message)}$"):
        record_from_dict(change(record_dict(small_splits.sft[0])), "row 7")


class Text(str):
    """A str subclass, as a caller other than the JSON decoder may pass."""


@st.composite
def _mutated_rows(draw, records):
    """A written record's row with up to three faults: a field dropped or added, a value
    retyped to bool, float, None, a list or a str subclass, or the kind changed."""
    row = record_dict(draw(st.sampled_from(records)))
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(row) or ["id"]))
        fault = draw(st.sampled_from(["drop", "add", "bool", "float", "none", "list", "subclass", "kind"]))
        if fault == "drop":
            row.pop(name, None)
        elif fault == "add":
            row[draw(st.sampled_from(["extra", "Kind", "", "seed "]))] = draw(st.sampled_from([1, "x", None]))
        elif fault == "kind":
            row["kind"] = draw(st.sampled_from(["straight_success", "retry", "mystery", "", "Retry", 0, True, ["retry"]]))
        elif name in row:
            value = row[name]
            row[name] = {
                "bool": lambda: draw(st.booleans()),
                "float": lambda: float(value) if isinstance(value, int) else 1.5,
                "none": lambda: None,
                "list": lambda: [value],
                "subclass": lambda: Text(value) if isinstance(value, str) else value,
            }[fault]()
    return row


def _read(read, row):
    try:
        return read(row, "row 3")
    except DatasetError as exc:
        return f"DatasetError: {exc}"


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_record_from_dict_matches_the_field_by_field_reference(small_splits, data):
    """Each mutated row gives an equal record, or the same DatasetError message, under both readers."""
    row = data.draw(_mutated_rows(small_splits.test[:3] + small_splits.sft[:3]))
    assert _read(record_from_dict, row) == _read(reference_record_from_dict, row)


def test_records_ordered_by_pool_index(small_splits):
    for split in (small_splits.test, small_splits.sft, small_splits.grpo):
        indices = [int(r.id.split("-")[0]) for r in split]
        assert indices == sorted(indices)


# Arabic-Indic 000006 is a digit string to str.isdigit, but not ASCII
@pytest.mark.parametrize("index", ["banana", "00006", "", "\u0660" * 5 + "\u0666", "+00006"])
def test_strict_mode_requires_a_pool_index_in_the_id(tmp_path, index):
    # pool item 6 of a seed-0 2x2 pool is the maze c7c661f0d63d96dd
    seed, m, solution = list(solved_pool(GenConfig(width=2, height=2, seed=0), 7))[6]
    text = render_maze_tokens(m)
    record = make_record(6, seed, text, hash16(text), ReasoningTrace(m, (), solution), retry=False)
    assert record.id == "000006-c7c661f0d63d96dd-straight"
    validate_record(record)
    forged = f"{index}-c7c661f0d63d96dd-straight"
    path = tmp_path / "forged.jsonl"
    write_records([replace(record, id=forged)], str(path))
    message = f"{path}: line 1: field 'id' {forged!r} does not start with a pool index of 6 or more digits"
    with pytest.raises(DatasetError, match=re.escape(message)):
        read_records(str(path), strict=True)


@pytest.mark.parametrize(
    "retext, message",
    [
        (lambda text: text + "\n", "field 'maze_tokens' ends in a newline"),
        (lambda text: text.replace("\n", "\r\n"), "field 'maze_tokens' has a carriage return"),
    ],
    ids=["trailing-newline", "crlf"],
)
def test_strict_mode_rejects_non_canonical_maze_text(small_splits, tmp_path, retext, message):
    # the parser reads both forms, so with a matching prompt and id hash they would name one maze twice
    row = record_dict(small_splits.test[0])
    text = retext(row["maze_tokens"])
    index, _, suffix = row["id"].split("-")
    forged = {**row, "maze_tokens": text, "prompt": text, "id": f"{index}-{hash16(text)}-{suffix}"}
    path = tmp_path / "forged.jsonl"
    path.write_text(json.dumps(forged) + "\n", encoding="utf-8")
    assert len(read_records(str(path))) == 1
    with pytest.raises(DatasetError, match=re.escape(f"{path}: line 1: {message}")):
        read_records(str(path), strict=True)


def test_strict_mode_accepts_indices_past_six_digits(small_splits):
    record = small_splits.test[0]
    validate_record(replace(record, id="1" + record.id))


# JSON's escapes, characters ensure_ascii=False leaves raw (the line and
# paragraph separators among them), a BOM, an astral character and token text
_awkward = st.text(st.sampled_from('a"\\/\x00\x08\n\r\t\x1f\x7f\u00e9\u8ff7\u2028\u2029\ufeff\U0001f600<|>'))
_strings = _awkward | st.text()


@st.composite
def _records(draw):
    maze_tokens = draw(_strings)
    return DatasetRecord(
        id=draw(_strings),
        seed=draw(st.integers(-(2**70), 2**70)),
        maze_tokens=maze_tokens,
        steps=draw(st.integers(-5, 10**6)),
        kind=draw(st.sampled_from(RecordKind)),
        prompt=draw(st.just(maze_tokens) | _strings),
        completion=draw(_strings),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(_records(), max_size=4), st.sampled_from(["r.jsonl", "r.jsonl.gz"]))
def test_record_lines_equal_json_dumps_of_record_dict(records, name):
    """The record writer's bytes are json.dumps of each record_dict, one per line."""
    expected = "".join(json.dumps(record_dict(r), ensure_ascii=False, separators=(",", ":")) + "\n" for r in records)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        assert write_records(records, path) == len(records)
        with open(path, "rb") as fh:
            data = fh.read()
    if name.endswith(".gz"):
        data = gzip.decompress(data)
    assert data == expected.encode("utf-8")


def test_atomic_write_leaves_an_error_inside_the_block_as_raised(tmp_path):
    """Only opening the temp file and replacing path name path; the caller's own OSError passes
    through unchanged, and the temp file is removed."""
    with pytest.raises(OSError) as err:
        with dataset.atomic_write(str(tmp_path / "out.jsonl")):
            raise OSError(28, "No space left on device", "elsewhere")
    assert str(err.value) == "[Errno 28] No space left on device: 'elsewhere'"
    assert list(tmp_path.iterdir()) == []


# Lines on which a cheaper decode could drift from json.loads: a BOM, trailing data, rows that are
# not objects, non-finite numbers, a lone surrogate, duplicate keys, the int digit limit, deep
# nesting, cut-off text, characters that are not JSON whitespace, and lines that hold no row at all
_DECODE_CASES = [
    '\ufeff{"a": 1}',
    '{"a": 1} x',
    "{}{}",
    "[1, 2]",
    '"text"',
    "null",
    '{"a": NaN}',
    '{"a": -Infinity}',
    '{"a": "\\ud800"}',
    '{"a": 1, "a": 2}',
    '{"n": ' + "9" * 5000 + "}",
    "[" * 200_000,
    "{",
    '{"a": 01}',
    '{"a" 1}',
    "\xa0{}",
    "{}\x0c",
    "\x1c",
    '\t {"a": [1, {"b": null}]} \r',
    "",
    "   ",
]


def _parent_read(path: str, line: str):
    """What ``iter_jsonl`` gave before it decoded with ``raw_decode``: json.loads of the stripped line."""
    line = line.strip(" \t\r\n")
    if not line:
        return []
    where = f"{path}: line 2"
    try:
        row = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return f"{where}: invalid JSON: {exc}"
    return [(where, row)] if isinstance(row, dict) else f"{where}: expected a JSON object"


@pytest.mark.parametrize("case", range(len(_DECODE_CASES) + 1))
def test_iter_jsonl_decodes_as_json_loads(small_splits, tmp_path, case):
    line = _DECODE_CASES[case] if case < len(_DECODE_CASES) else json.dumps(record_dict(small_splits.sft[0]))
    path = tmp_path / "rows.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    want = _parent_read(str(path), line)
    try:
        got = list(dataset.iter_jsonl(str(path)))
    except DatasetError as exc:
        got = str(exc)
    # repr: NaN is not equal to itself
    assert repr(got) == repr(want)


def test_iter_jsonl_names_a_bom_and_trailing_data(tmp_path):
    path = tmp_path / "bom.jsonl"
    path.write_bytes(b'\xef\xbb\xbf{"a": 1}\n')
    with pytest.raises(DatasetError) as err:
        list(dataset.iter_jsonl(str(path)))
    assert str(err.value) == (
        f"{path}: line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    )
    path.write_text('{"a": 1}\n{"a": 1} {"b": 2}\n', encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        list(dataset.iter_jsonl(str(path)))
    assert str(err.value) == f"{path}: line 2: invalid JSON: Extra data: line 1 column 10 (char 9)"


def test_iter_jsonl_calls_json_loads_only_on_a_faulty_line(small_splits, tmp_path, monkeypatch):
    path = tmp_path / "rows.jsonl"
    write_records(small_splits.sft, str(path))
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("a valid line reached json.loads"))
    assert [row for _, row in dataset.iter_jsonl(str(path))] == [record_dict(r) for r in small_splits.sft]
