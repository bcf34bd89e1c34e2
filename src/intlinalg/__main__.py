"""``python -m intlinalg``: the ``intlinalg`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
