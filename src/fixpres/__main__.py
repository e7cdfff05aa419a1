"""Entry point for ``python -m fixpres``; same as the ``fixpres`` command."""

from .cli import main

if __name__ == "__main__":
    main()
