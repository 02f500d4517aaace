"""Exact computations around the affine cone of square-zero rank-one
N x N matrices and its two cotangent-bundle resolutions.

Everything is integer/rational arithmetic; no floating point enters any
result.  Submodules:

- ``combinat``  : partitions, binomials, Weyl dimensions, LR products
- ``bwb``       : Borel-Weil-Bott cohomology engine on projective space
- ``cohengine`` : graded Hom/Ext bookkeeping on the resolutions, tilting checks
- ``relations`` : generators of the quiver's relation ideal, shared by the next two
- ``quiveralg`` : the doubled Beilinson quiver with relations, graded dimensions
- ``repmoduli`` : rank-one representations of the quiver and their geometry
- ``kfunctor``  : K-lattice flop matrices and the Ext-dimension ledger
- ``mutation``  : Euler-sequence splices and mutation orbits
- ``cli``       : command line front end
"""

__version__ = "0.1.0"
