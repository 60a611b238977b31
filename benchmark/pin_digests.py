"""Re-pin the outcome digests of the default-seed cells.

    python3 benchmark/pin_digests.py

Run this only for a deliberate change of results, and say in CHANGES.md
which digests moved and why. It runs both cell sets once at full size
(about half a minute) and rewrites benchmark/pins.json.
"""

import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts src/ on the path

import workloads

if __name__ == "__main__":
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        pins = workloads.write_pins(Path(tmp))
    print(f"pinned {len(pins)} cells in {workloads.PINS_PATH}")
