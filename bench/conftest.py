"""Put the checkout's faultmech sources and the benchmark modules on the path."""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE.parent / "src", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
