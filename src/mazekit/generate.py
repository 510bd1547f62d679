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
next draw joins the block.  The carve keeps its tree; ``_tree_path``, the one path
builder, climbs it, or the same-shaped BFS tree that the solver grows on any maze.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .core import EDGES, SHAPE_CACHE, Maze, MoveDirection, Position, _cells, _search, links
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


def _carve(w: int, h: int, seed: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """The one carve loop: per flat index, the wall mask and, in the spanning tree it
    walks, the parent, the wall bit of the edge in from it, and the depth (0 at the start)."""
    rng = SplitMix64(seed)
    clears, choices, uncarved = _carve_table(w, h)
    # every cell starts with all four walls; carving an edge clears one bit on each side.
    # uncarved[i] holds the directions from cell i whose neighbour is not carved yet, so
    # choices[i][uncarved[i]] are its candidates.  Lists read and write faster than bytearrays
    masks = [15] * (w * h)
    parent, entered, depth = [0] * (w * h), [0] * (w * h), [0] * (w * h)
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
        # the stack is the tree path from the start to i
        parent[j], entered[j], depth[j] = i, bit, len(stack)
        stack.append(j)
    return masks, parent, entered, depth


def generate_maze(cfg: GenConfig) -> Maze:
    """Carve a perfect maze from the config's seed; endpoints stay unset."""
    return Maze(width=cfg.width, height=cfg.height, masks=bytes(_carve(cfg.width, cfg.height, cfg.seed)[0]))


def place_endpoints(m: Maze, cfg: GenConfig) -> Maze:
    """Draw origin/target from the seed's endpoint stream.

    When step bounds are configured, candidate pairs are rejection-sampled
    until the shortest-path length lies in [min_steps, max_steps].  Raises
    EndpointSamplingError once the attempt budget is exhausted.
    """
    path = _endpoints(cfg.seed, m.width * m.height, cfg, lambda o, t: _shortest_path(m, o, t))
    return m.with_endpoints(path.cells[0], path.cells[-1])


def _endpoints(seed: int, cells: int, cfg: GenConfig, path_of) -> SolutionPath:
    """The endpoint loop on ``seed``'s stream: the first path ``path_of(origin, target)``
    gives (on flat indices; None when unreachable) within cfg's step bounds."""
    rng = SplitMix64(mix64(seed ^ _ENDPOINT_SALT))
    # a path between distinct cells takes 1 to cells - 1 steps, so these stand in for no bound
    lo, hi = cfg.min_steps or 0, cfg.max_steps or cells
    for _ in range(ENDPOINT_ATTEMPTS):
        o = rng.randbelow(cells)
        t = rng.randbelow(cells)
        if o == t:
            continue
        path = path_of(o, t)
        if path is not None and lo <= path.steps <= hi:
            return path
    raise EndpointSamplingError(
        f"no endpoint pair with path length in "
        f"[{cfg.min_steps}, {cfg.max_steps}] after {ENDPOINT_ATTEMPTS} attempts"
    )


# each wall bit's move, and the move back along it: a climb to the parent undoes the carve's move
_ALONG = {bit: d for d, bit, _, _, _ in EDGES}
_BACK = {bit: _ALONG[back] for _, bit, back, _, _ in EDGES}


def _tree_path(parent: list[int], entered: list[int], depth: list[int], positions, o: int, t: int) -> SolutionPath:
    """The one path builder: the simple path from flat index o to t in a carve's or a BFS's
    tree.  Climb the deeper end until both meet at their common ancestor, then join the climbs."""
    up, down = [], []
    while o != t:
        if depth[o] >= depth[t]:
            up.append(o)
            o = parent[o]
        else:
            down.append(t)
            t = parent[t]
    down.reverse()
    moves = [_BACK[entered[i]] for i in up] + [_ALONG[entered[i]] for i in down]
    # a list, not map(): a tuple grown from an iterator of unknown length can keep a larger block once trimmed
    return SolutionPath(moves=tuple(moves), cells=tuple([positions[i] for i in up + [o] + down]))


def _tree_solved(cfg: GenConfig, seed: int) -> tuple[Maze, SolutionPath]:
    """The maze of ``seed`` at cfg's shape, solved with each candidate path read from its carve's tree."""
    w, h = cfg.width, cfg.height
    masks, parent, entered, depth = _carve(w, h, seed)
    positions = _cells(w, h)
    path = _endpoints(seed, w * h, cfg, lambda o, t: _tree_path(parent, entered, depth, positions, o, t))
    # the carve sets every mask in 0..15 and the endpoints are its own cells
    o, t = path.cells[0], path.cells[-1]
    return Maze._trusted(w, h, bytes(masks), o.row * w + o.col, t.row * w + t.col), path


def generate_solved_maze(cfg: GenConfig) -> Maze:
    """Convenience: carve walls and place endpoints in one call."""
    return _tree_solved(cfg, cfg.seed)[0]


def solved_pool(cfg: GenConfig, count: int, start: int = 0) -> Iterator[tuple[int, Maze, SolutionPath]]:
    """Yield (seed, solved maze, shortest path) for items start..start+count-1.

    Item i is generated from ``cfg`` with seed ``derive_seed(cfg.seed, i)``,
    so it is the same whichever range it is drawn in.
    """
    for i in range(start, start + count):
        seed = derive_seed(cfg.seed, i)
        yield seed, *_tree_solved(cfg, seed)


def solve_shortest_path(m: Maze) -> SolutionPath:
    """Breadth-first shortest path from origin to target over open passages.

    Neighbor expansion follows the canonical up, down, left, right order;
    on a perfect maze the result is the unique simple path regardless.
    """
    if m.origin is None or m.target is None:
        raise ValueError("solve_shortest_path requires origin and target")
    path = _shortest_path(m, m._origin_index, m._target_index)
    if path is None:
        raise UnreachableTargetError(f"target {m.target} unreachable from origin {m.origin}")
    return path


def _shortest_path(m: Maze, origin: int, target: int) -> Optional[SolutionPath]:
    """The BFS tree's path from flat index origin to target; None when unreachable."""
    parent, entered, depth, _ = _search(m, origin, target)
    return None if depth[target] < 0 else _tree_path(parent, entered, depth, _cells(m.width, m.height), origin, target)
