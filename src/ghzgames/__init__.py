"""Executable quantum logic for three-party parity games.

Builds the four commuting context operators and their shared eigenbasis,
enumerates two-valued states on orthogonality hypergraphs, and plays the full
family of parity games with classical, quantum, urn-contextual and
nonlocal-box strategies.
"""

__version__ = "0.1.0"
