"""``python -m ringca``: the ``ringca`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
