"""Repository tools: run from the repository root, not installed."""
