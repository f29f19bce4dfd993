"""Empty: no solver uses a tree metric.  The module is kept only because
perfbench/spans.py lists it in LAYERS and imports it."""
