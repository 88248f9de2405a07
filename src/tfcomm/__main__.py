"""``python -m tfcomm``: the same command line as the ``tfcomm`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
