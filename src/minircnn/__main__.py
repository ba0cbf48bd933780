"""`python -m minircnn` runs the command-line interface."""
from .cli import main

main()
