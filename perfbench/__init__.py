"""pflight's benchmark: see README.md in this directory."""
