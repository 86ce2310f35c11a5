"""`python -m fastgate`: the command line of `fastgate.cli`."""
from .cli import main

raise SystemExit(main())
