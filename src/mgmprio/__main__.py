"""``python -m mgmprio``: the same command line as the ``mgmprio`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
