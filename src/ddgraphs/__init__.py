"""Distance-dependent random graphs: sequences, sampling, first-order model
checking, Ehrenfeucht games, and probability estimation."""

__version__ = "0.1.0"
