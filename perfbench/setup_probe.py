"""Time one cold start of mergemix and print it in seconds.

    python3 perfbench/setup_probe.py <config.json>

Set-up is everything a run needs before it starts: importing mergemix and
its pipeline, loading and validating the config, and building the world.
Only the standard library is imported before the clock starts.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    import mergemix.pipeline  # noqa: F401  (imports the whole package)
    from mergemix.config import load_config

    load_config(sys.argv[1]).build_world()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
