"""The calibration loop: how fast the host runs this process right now.

Shared timings on a shared host drift by a fifth or more over minutes,
in CPU time too.  Worker processes and the import probe run this fixed
loop between their timed steps, and run.py scales each time by
CALIBRATION_REF_S over the loop's nearby CPU time.  The module imports
nothing of the program, so it can run before `import setsyl`.
"""

import time

CALIBRATION_LOOPS = 20000
# CPU seconds of the loop at the reference speed: about its median on the
# machine the README names, in a quiet spell.
CALIBRATION_REF_S = 0.0012


def calibration() -> float:
    """CPU seconds of a fixed arithmetic loop.  The loop makes no objects
    the garbage collector tracks, so the program's heap does not slow it."""
    start = time.process_time()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i
    return time.process_time() - start
