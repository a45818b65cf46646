"""`python -m pgc ...` runs the `pgc` tool."""

from .cli import main

if __name__ == "__main__":
    main()
