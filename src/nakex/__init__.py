"""nakex: a workbench for non-associative and non-commutative key establishment.

Subpackages:

- :mod:`nakex.braid` -- braid group arithmetic (Garside normal forms, handle
  reduction, the shift endomorphism, pure-braid strand removal).
- :mod:`nakex.platforms` -- uniform group-platform abstraction (braid,
  symmetric, multiplicative mod p) with endomorphisms and centralizers.
- :mod:`nakex.magma` -- tree words with per-node operation labels: evaluation,
  push-through, combs, enumeration, random generation.
- :mod:`nakex.ldops` -- the catalog of (multi-)LD binary operations and
  executable law/condition verifiers, including Laver tables.
- :mod:`nakex.protocols` -- the generic AAG-for-magmas engine and its concrete
  instantiations, producing deterministic transcripts.
- :mod:`nakex.attacks` -- desk-scale brute-force oracles and the executable
  problem reductions.
- :mod:`nakex.session` -- framed two-party wire protocol.
- :mod:`nakex.cli` -- the ``nakex`` command line front end.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
