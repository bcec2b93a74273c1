"""Set-up probe: in a fresh interpreter, import the CLI and build the rings
named on the command line with their operation tables, and print the time
that took in reference seconds (speed.py).  run.py runs this for the setup_s
metric."""

import sys

from speed import SpeedClock

clock = SpeedClock(tick_s=0.01)
with clock:
    start = clock.now()
    import ringfunc.cli  # noqa: F401
    from ringfunc.rings import make_ring

    for desc in sys.argv[1:]:
        make_ring(desc).index_op_tables()
    print(clock.now() - start)
