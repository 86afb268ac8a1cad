"""Puts the source tree on the path for the self-tests, as run.py does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "src"))
