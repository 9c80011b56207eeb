"""Slider-tick benchmark for the RIN widget stack (see README.md)."""
