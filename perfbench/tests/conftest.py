import sys
from pathlib import Path

# The benchmark's modules import each other as top-level modules (run.py is a script).
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
