"""``python -m qborel``: the batch verification jobs of ``qborel.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
