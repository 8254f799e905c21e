"""``python -m elastodtn <command> ...`` runs the command-line interface."""

from .driver import main

if __name__ == "__main__":
    main()
