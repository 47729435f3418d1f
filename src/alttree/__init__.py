"""alttree: exact workbench for an alternating self-similar group.

Submodules:

* ``core``      -- permutations, tree-automorphism generators, word algebra
* ``points``    -- the boundary-with-doubled-orbit point space and its Gray
                   projection
* ``pieces``    -- Schreier graphs over levels and over Gray-line segments,
                   canonical codes, marginals, separation constants
* ``diagram``   -- the stationary path space (encode/decode, clopen sets,
                   towers, boundedness/regularity checks)
* ``corpus``    -- seeded sample streams used by the tests and audits
"""

from .core import Config

__version__ = "0.1.0"

__all__ = ["Config", "__version__"]
