"""The strtour CLI on a machine with a fraction of the sorter's memory.

Usage: python3 scaled_cli.py DIVISOR solve --in G --out T --stats S   (src/ on the path)

The StrSort path for inputs larger than memory needs a stream longer than
the sorter's in-memory chunk.  With the solver's own chunk of 65 536 items
that makes every such solve take most of a minute, too long to repeat
within one benchmark run.  This launcher divides the program's default
chunk by DIVISOR before it runs the unchanged CLI, so a graph DIVISOR times
smaller takes the same spilling path.  It reads the default from the
program each time, so a change to the default still shows.  A DIVISOR of 1
runs the CLI as it is.
"""

import inspect
import sys
from contextlib import contextmanager

from strtour import cli
from strtour.stream_core import StreamPipeline


@contextmanager
def sort_memory_divided_by(divisor: int):
    """Divide ``StreamPipeline``'s default ``sort_chunk`` inside the block.

    Yields the chunk in force.  Raises ``LookupError`` when the pipeline no
    longer has that parameter, so the benchmark fails loudly instead of
    measuring something else.
    """
    init = StreamPipeline.__init__
    with_defaults = [p.name for p in inspect.signature(init).parameters.values()
                     if p.default is not inspect.Parameter.empty
                     and p.kind is p.POSITIONAL_OR_KEYWORD]
    if "sort_chunk" not in with_defaults:
        raise LookupError("StreamPipeline.__init__ has no sort_chunk default to scale")
    at = with_defaults.index("sort_chunk")
    saved = init.__defaults__
    defaults = list(saved)
    defaults[at] = max(2, saved[at] // divisor)
    init.__defaults__ = tuple(defaults)
    try:
        yield defaults[at]
    finally:
        init.__defaults__ = saved


if __name__ == "__main__":
    with sort_memory_divided_by(int(sys.argv[1])):
        code = cli.main(sys.argv[2:])
    sys.exit(code)
