"""``python -m advice_search``: the same command line as ``advice-search``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
