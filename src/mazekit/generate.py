"""Seeded perfect-maze generation, endpoint placement and the shortest-path solver.

The generator is an iterative randomized depth-first search (recursive
backtracker carved with an explicit stack), so the open-passage graph of
every generated maze is a spanning tree of the cell grid: connected, with
exactly width*height - 1 open passages and a unique simple path between any
two cells.  All randomness comes from SplitMix64 streams, so a config fully
determines the output.

The carve finds each step's candidate edges in a per-shape table: for each
cell and each set of directions whose neighbour is still uncarved, the
edges to those neighbours in ``EDGES`` order.  Entering a cell clears the
bit facing it in each neighbour's set, so no step rescans a neighbour.

A carve draws its start row and column with ``randbelow``, then one block of
``take(w*h - 1)``: one draw per carved edge, mod the step's candidate count.  A
draw ``randbelow`` would reject moves the carve on by one, and the stream's
next draw joins the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .core import SHAPE_CACHE, Maze, MoveDirection, Position, _cells, _index, _search, links
from .rng import _LIMITS, SplitMix64, derive_seed, mix64

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
        # distinct endpoints are at least one step apart, and a path visits each cell once
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps {self.max_steps} is below 1, the shortest path between distinct endpoints")
        longest = self.width * self.height - 1
        if self.min_steps is not None and self.min_steps > longest:
            raise ValueError(
                f"min_steps {self.min_steps} exceeds {longest}, the longest path in a {self.width}x{self.height} maze"
            )


@dataclass(frozen=True)
class SolutionPath:
    """Shortest origin-to-target walk: parallel moves and visited cells."""

    moves: tuple[MoveDirection, ...]
    cells: tuple[Position, ...]

    @property
    def steps(self) -> int:
        return len(self.moves)


@lru_cache(maxsize=SHAPE_CACHE)
def _carve_table(width: int, height: int):
    """The carve's per-shape table, per flat index: each neighbour's flat index and
    the mask that clears its bit facing the cell; for each 4-bit set of directions,
    those of its edges (see ``links``) in ``EDGES`` order; and its in-bounds
    directions, the set a carve starts from."""
    edges = tuple(tuple(edge for _, edge in row) for row in links(width, height))
    choices = tuple(tuple(tuple(e for e in row if dirs & e[0]) for dirs in range(16)) for row in edges)
    clears = tuple(tuple((n, ~back) for _, back, n in row) for row in edges)
    return clears, choices, tuple(sum(bit for bit, _, _ in row) for row in edges)


def generate_maze(cfg: GenConfig) -> Maze:
    """Carve a perfect maze from the config's seed; endpoints stay unset."""
    rng = SplitMix64(cfg.seed)
    w, h = cfg.width, cfg.height
    clears, choices, uncarved = _carve_table(w, h)
    # every cell starts with all four walls; carving an edge clears one bit
    # on each side.  uncarved[i] holds the directions from cell i whose
    # neighbour is not carved yet, so choices[i][uncarved[i]] are its
    # candidate edges.  Both are lists: their items read and write faster
    # than a bytearray's
    masks = [15] * (w * h)
    uncarved = list(uncarved)
    start = rng.randbelow(h) * w + rng.randbelow(w)
    for n, clear in clears[start]:
        uncarved[n] &= clear
    draws = rng.take(w * h - 1)
    draw = iter(draws).__next__  # a list iterator also reads items appended later
    stack = [start]
    while stack:
        i = stack[-1]
        candidates = choices[i][uncarved[i]]
        if not candidates:
            stack.pop()
            continue
        k = len(candidates)
        x = draw()
        while x >= _LIMITS[k]:
            draws.append(rng.next_u64())
            x = draw()
        bit, back, j = candidates[x % k]
        # each edge is carved once, so its wall bits are still set
        masks[i] ^= bit
        masks[j] ^= back
        # entering j clears, in each neighbour, the bit that faces j
        for n, clear in clears[j]:
            uncarved[n] &= clear
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
        item = GenConfig(cfg.width, cfg.height, derive_seed(cfg.seed, i), cfg.min_steps, cfg.max_steps)
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
