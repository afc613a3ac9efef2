import sys
from pathlib import Path

# Allow running the suite from a fresh checkout without installing.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def flat_keys(chunks) -> list[tuple]:
    """The sort keys that a stream of block lists stands for, in order.

    A block (head, cones) stands for the keys head + (c,), one per c in cones.
    """
    return [head + (c,) for blocks in chunks for head, cones in blocks for c in cones]
