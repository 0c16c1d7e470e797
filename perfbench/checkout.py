"""Puts this checkout's `src` first on sys.path and imports the program from it.

Importing this module fails with a message when the checkout has no
`src/stablefixtures` or when `stablefixtures` resolves anywhere else, such
as an installed copy, which would otherwise be measured silently.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "stablefixtures" / "cli.py").is_file():
    raise SystemExit(f"error: no stablefixtures package under {SRC}")
sys.path.insert(0, str(SRC))

import stablefixtures  # noqa: E402
import stablefixtures.cli  # noqa: E402,F401

if Path(stablefixtures.__file__).resolve().parent.parent != SRC.resolve():
    raise SystemExit(f"error: imported {stablefixtures.__file__}, not the checkout's src")
