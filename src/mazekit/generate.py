"""Seeded perfect-maze generation, endpoint placement and the shortest-path solver.

The generator is an iterative randomized depth-first search (recursive
backtracker carved with an explicit stack), so the open-passage graph of
every generated maze is a spanning tree of the cell grid: connected, with
exactly width*height - 1 open passages and a unique simple path between any
two cells.  All randomness comes from SplitMix64 streams, so a config fully
determines the output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .core import EDGES, WALL_SETS, Maze, MoveDirection, Position, bfs, open_neighbors
from .rng import SplitMix64, derive_seed, mix64

# Endpoint placement draws from its own stream so it never replays the
# wall-carving draws of the same seed.
_ENDPOINT_SALT = 0x5E1EC7_0E2D_901D

DEFAULT_ENDPOINT_ATTEMPTS = 1000


class EndpointSamplingError(RuntimeError):
    """No endpoint pair satisfied the step bounds within the attempt budget."""


class UnreachableTargetError(RuntimeError):
    """The target cannot be reached from the origin (disconnected input)."""


@dataclass(frozen=True)
class GenConfig:
    """Maze generation parameters; the seed determines everything."""

    width: int = 5
    height: int = 5
    seed: int = 0
    min_steps: Optional[int] = None
    max_steps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.width}x{self.height}")
        if (
            self.min_steps is not None
            and self.max_steps is not None
            and self.min_steps > self.max_steps
        ):
            raise ValueError(f"min_steps {self.min_steps} exceeds max_steps {self.max_steps}")


@dataclass(frozen=True)
class SolutionPath:
    """Shortest origin-to-target walk: parallel moves and visited cells."""

    moves: tuple[MoveDirection, ...]
    cells: tuple[Position, ...]

    @property
    def steps(self) -> int:
        return len(self.moves)


def generate_maze(cfg: GenConfig) -> Maze:
    """Carve a perfect maze from the config's seed; endpoints stay unset."""
    rng = SplitMix64(cfg.seed)
    w, h = cfg.width, cfg.height
    # every cell starts with all four walls; carving an edge clears one bit
    # on each side, so a cell is unvisited while its mask is still 15 (the
    # start cell loses a bit on the first step)
    masks = [[15] * w for _ in range(h)]
    stack = [(rng.randbelow(h), rng.randbelow(w))]
    while stack:
        r, c = stack[-1]
        candidates = []
        for _, bit, back, dr, dc in EDGES:
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and masks[nr][nc] == 15:
                candidates.append((bit, back, nr, nc))
        if not candidates:
            stack.pop()
            continue
        bit, back, nr, nc = rng.choice(candidates)
        masks[r][c] &= ~bit
        masks[nr][nc] &= ~back
        stack.append((nr, nc))
    return Maze(width=w, height=h, walls=tuple(tuple(WALL_SETS[x] for x in row) for row in masks))


def place_endpoints(m: Maze, cfg: GenConfig, attempts: int = DEFAULT_ENDPOINT_ATTEMPTS) -> Maze:
    """Draw origin/target from the seed's endpoint stream.

    When step bounds are configured, candidate pairs are rejection-sampled
    until the shortest-path length lies in [min_steps, max_steps].  Raises
    EndpointSamplingError once the attempt budget is exhausted.
    """
    rng = SplitMix64(mix64(cfg.seed ^ _ENDPOINT_SALT))
    cells = m.width * m.height
    for _ in range(attempts):
        o = rng.randbelow(cells)
        t = rng.randbelow(cells)
        if o == t:
            continue
        origin = Position(o // m.width, o % m.width)
        target = Position(t // m.width, t % m.width)
        path = _shortest_path(m, origin, target)
        if path is None:
            continue
        if cfg.min_steps is not None and path.steps < cfg.min_steps:
            continue
        if cfg.max_steps is not None and path.steps > cfg.max_steps:
            continue
        return m.with_endpoints(origin, target)
    raise EndpointSamplingError(
        f"no endpoint pair with path length in "
        f"[{cfg.min_steps}, {cfg.max_steps}] after {attempts} attempts"
    )


def generate_solved_maze(cfg: GenConfig, attempts: int = DEFAULT_ENDPOINT_ATTEMPTS) -> Maze:
    """Convenience: carve walls and place endpoints in one call."""
    return place_endpoints(generate_maze(cfg), cfg, attempts=attempts)


def solved_pool(cfg: GenConfig, count: int) -> Iterator[tuple[int, Maze, SolutionPath]]:
    """Yield (seed, solved maze, shortest path) for items 0..count-1.

    Item i is generated from ``cfg`` with seed ``derive_seed(cfg.seed, i)``.
    """
    for i in range(count):
        item = replace(cfg, seed=derive_seed(cfg.seed, i))
        m = generate_solved_maze(item)
        yield item.seed, m, solve_shortest_path(m)


def solve_shortest_path(m: Maze) -> SolutionPath:
    """Breadth-first shortest path from origin to target over open passages.

    Neighbor expansion follows the canonical up, down, left, right order;
    on a perfect maze the result is the unique simple path regardless.
    """
    if m.origin is None or m.target is None:
        raise ValueError("solve_shortest_path requires origin and target")
    path = _shortest_path(m, m.origin, m.target)
    if path is None:
        raise UnreachableTargetError(f"target {m.target} unreachable from origin {m.origin}")
    return path


def _shortest_path(m: Maze, origin: Position, target: Position) -> Optional[SolutionPath]:
    """Walk the BFS parent links back from target; None when unreachable."""
    prev = bfs(m, origin, target)
    if target not in prev:
        return None
    moves: list[MoveDirection] = []
    cells: list[Position] = [target]
    cur = target
    while cur != origin:
        cur, d = prev[cur]
        moves.append(d)
        cells.append(cur)
    moves.reverse()
    cells.reverse()
    return SolutionPath(moves=tuple(moves), cells=tuple(cells))


def open_passage_count(m: Maze) -> int:
    """Count of open interior edges; equals cells - 1 on a perfect maze."""
    # the rule is symmetric, so each open edge is seen from both of its cells
    return sum(len(open_neighbors(m, p)) for p in m.positions()) // 2
