"""End-to-end OASIS benchmark (``python3 perfbench/run.py --help``)."""
