"""``python -m rankbench``: the same command line as the ``rankbench`` script."""

from .cli import main

if __name__ == "__main__":
    main()
