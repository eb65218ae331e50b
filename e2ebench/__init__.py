"""Outside-in end-to-end benchmark of the colour-picker lab (see README.md)."""
