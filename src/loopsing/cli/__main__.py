"""Command-line entry point for `python -m loopsing.cli`."""

from .main import main

if __name__ == "__main__":
    raise SystemExit(main())
