import sys
from pathlib import Path

# The benchmark's modules import each other by bare name, as they do
# when run.py and child.py run them as scripts.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
