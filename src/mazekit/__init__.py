"""mazekit: tokenized maze datasets, retry-trace augmentation and benchmark scoring.

The package root exports the API shown in the README; everything else is
imported from its submodule (``mazekit.core``, ``mazekit.dataset``, ...).
"""

from .augment import AugmentConfig, augment_trace
from .core import simulate_moves
from .generate import GenConfig, generate_solved_maze, solve_shortest_path
from .rewards import group_advantages, total_reward
from .tokens import extract_move_tokens, render_maze_tokens

__version__ = "0.1.0"
