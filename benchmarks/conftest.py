"""Benchmark-suite configuration.

The ``bench_ablation*.py`` files print the result table they compute
(run with ``-s`` to see it inline).  The paper's evaluation tables and
figures themselves are regenerated by the scenario registry
(``python -m repro.experiments``), not from here.
"""

import sys


def emit(result) -> None:
    """Print a reproduced table so it lands in the bench log."""
    text = "\n" + result.render()
    if result.notes:
        text += f"\nnotes: {result.notes}"
    print(text, file=sys.stderr)
