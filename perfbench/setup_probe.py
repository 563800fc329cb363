"""Set-up probe: how long a fresh process takes to import semiweyl and load
a workload's specs.

    setup_probe.py SPAWNED WORKLOAD

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process.  Prints one JSON object: the wall seconds from spawn to specs
loaded, and the same at the reference host speed (see ``hostspeed``).
"""

import json
import sys
import time

from hostspeed import SpeedProbe

spawned, workload = float(sys.argv[1]), sys.argv[2]
with SpeedProbe() as probe:
    import worker  # numpy, semiweyl and the benchmark's own modules

    worker.load_specs(workload)
    done = time.monotonic()
print(json.dumps({"wall_s": done - spawned, "setup_s": probe.normalize(spawned, done)}))
