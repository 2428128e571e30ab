"""The environment of the fresh interpreters that some tests start."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_env():
    """os.environ for a child interpreter: PYTHONPATH is src only, so the
    child imports this checkout's pretzeltab, and PYTHONUNBUFFERED is unset,
    so only a -u flag makes its stdout unbuffered."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return env
