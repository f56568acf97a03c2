"""`python -m dpmod2`: the same command line as the `dpmod2` script."""

from .cli import main

if __name__ == "__main__":
    main()
