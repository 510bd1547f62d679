"""mazekit: tokenized maze datasets, retry-trace augmentation and benchmark scoring."""

from .augment import (
    AugmentConfig,
    OriginClass,
    ReasoningTrace,
    TerminalKind,
    WrongAttempt,
    augment_trace,
    build_attempts,
    classify_origin,
    generate_wrong_path,
    process_order1,
    process_order2,
    render_trace,
)
from .bench import (
    BenchEntry,
    BenchReport,
    BenchSuite,
    Difficulty,
    MazeVerdict,
    TrendFit,
    build_suite,
    classify_difficulty,
    evaluate_suite,
    fit_trendline,
    maze_id,
)
from .core import (
    DIRECTIONS,
    Maze,
    MoveDirection,
    OutOfBoundsError,
    Position,
    SimOutcome,
    SimStatus,
    WallSet,
    open_neighbors,
    simulate_moves,
    validate_maze,
    wall_count,
)
from .dataset import (
    DatasetRecord,
    DatasetSplits,
    RecordKind,
    SplitPlan,
    build_splits,
    read_records,
    write_records,
)
from .generate import (
    EndpointSamplingError,
    GenConfig,
    SolutionPath,
    generate_maze,
    generate_solved_maze,
    place_endpoints,
    solve_shortest_path,
)
from .rewards import (
    GroupAdvantages,
    RewardBreakdown,
    correctness_reward,
    group_advantages,
    integrity_reward,
    thinking_reward,
    total_reward,
)
from .rng import SplitMix64, derive_seed
from .tokens import (
    MazeParseError,
    ascii_preview,
    extract_move_tokens,
    parse_maze_tokens,
    render_maze_tokens,
    render_move_tokens,
)

__version__ = "0.1.0"
