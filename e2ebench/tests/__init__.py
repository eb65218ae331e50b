"""Tests of the end-to-end benchmark itself."""
