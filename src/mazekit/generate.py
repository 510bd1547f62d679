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

from .core import Maze, MoveDirection, Position, _cells, _index, _search, links
from .rng import SplitMix64, derive_seed, mix64

# Endpoint placement draws from its own stream so it never replays the
# wall-carving draws of the same seed.
_ENDPOINT_SALT = 0x5E1EC7_0E2D_901D

ENDPOINT_ATTEMPTS = 1000


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
    table = links(w, h)
    # every cell starts with all four walls; carving an edge clears one bit
    # on each side, so a cell is unvisited while its mask is still 15 (the
    # start cell loses a bit on the first step)
    masks = bytearray(b"\x0f" * (w * h))
    stack = [rng.randbelow(h) * w + rng.randbelow(w)]
    while stack:
        i = stack[-1]
        candidates = [edge for _, edge in table[i] if masks[edge[2]] == 15]
        if not candidates:
            stack.pop()
            continue
        bit, back, j = rng.choice(candidates)
        masks[i] &= ~bit
        masks[j] &= ~back
        stack.append(j)
    return Maze(width=w, height=h, masks=bytes(masks))


def place_endpoints(m: Maze, cfg: GenConfig) -> Maze:
    """Draw origin/target from the seed's endpoint stream.

    When step bounds are configured, candidate pairs are rejection-sampled
    until the shortest-path length lies in [min_steps, max_steps].  Raises
    EndpointSamplingError once the attempt budget is exhausted.
    """
    return _solved(m, cfg)[0]


def _solved(m: Maze, cfg: GenConfig) -> tuple[Maze, SolutionPath]:
    """``place_endpoints`` with the shortest path its accept test found."""
    rng = SplitMix64(mix64(cfg.seed ^ _ENDPOINT_SALT))
    cells = m.width * m.height
    for _ in range(ENDPOINT_ATTEMPTS):
        o = rng.randbelow(cells)
        t = rng.randbelow(cells)
        if o == t:
            continue
        path = _shortest_path(m, o, t)
        if path is None:
            continue
        if cfg.min_steps is not None and path.steps < cfg.min_steps:
            continue
        if cfg.max_steps is not None and path.steps > cfg.max_steps:
            continue
        return m.with_endpoints(path.cells[0], path.cells[-1]), path
    raise EndpointSamplingError(
        f"no endpoint pair with path length in "
        f"[{cfg.min_steps}, {cfg.max_steps}] after {ENDPOINT_ATTEMPTS} attempts"
    )


def generate_solved_maze(cfg: GenConfig) -> Maze:
    """Convenience: carve walls and place endpoints in one call."""
    return place_endpoints(generate_maze(cfg), cfg)


def solved_pool(cfg: GenConfig, count: int, start: int = 0) -> Iterator[tuple[int, Maze, SolutionPath]]:
    """Yield (seed, solved maze, shortest path) for items start..start+count-1.

    Item i is generated from ``cfg`` with seed ``derive_seed(cfg.seed, i)``,
    so it is the same whichever range it is drawn in.
    """
    for i in range(start, start + count):
        item = replace(cfg, seed=derive_seed(cfg.seed, i))
        yield item.seed, *_solved(generate_maze(item), item)


def solve_shortest_path(m: Maze) -> SolutionPath:
    """Breadth-first shortest path from origin to target over open passages.

    Neighbor expansion follows the canonical up, down, left, right order;
    on a perfect maze the result is the unique simple path regardless.
    """
    if m.origin is None or m.target is None:
        raise ValueError("solve_shortest_path requires origin and target")
    path = _shortest_path(m, _index(m, m.origin), _index(m, m.target))
    if path is None:
        raise UnreachableTargetError(f"target {m.target} unreachable from origin {m.origin}")
    return path


def _shortest_path(m: Maze, origin: int, target: int) -> Optional[SolutionPath]:
    """Walk the BFS parent links back from flat index target; None when unreachable."""
    parents = _search(m, origin, target)[0]
    if parents[target] is None:
        return None
    positions = _cells(m.width, m.height)
    cur, moves, cells = target, [], [positions[target]]
    while cur != origin:
        cur, d = parents[cur]
        moves.append(d)
        cells.append(positions[cur])
    return SolutionPath(moves=tuple(reversed(moves)), cells=tuple(reversed(cells)))
