"""``python -m flagtor``: the same entry point as the ``flagtor`` script."""

from flagtor.cli import main

# Guarded so that importing this module, e.g. with runpy or a test
# collector, does not run the CLI.
if __name__ == "__main__":
    main()
