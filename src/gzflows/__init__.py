"""Gelfand-Zeitlin flows on gl(n,C) and their rational-map models.

Subpackages:

* :mod:`gzflows.matpoly` -- matrix/polynomial kernel (minors, characteristic
  polynomials, exponentials, companion matrices, Krylov ranks, clustering);
* :mod:`gzflows.gzcore` -- the invariant map, exact commuting flows, strong
  regularity, stratification and orbit counts;
* :mod:`gzflows.spaces` -- cyclic pairs (B, b) and T*GL(n,C) with left/right
  flows;
* :mod:`gzflows.ratmodel` -- the matricial model of based rational maps,
  orbit enumeration on the zero fiber, and open-stratum chart brackets;
* :mod:`gzflows.lax` -- Lax-equation integration and the regular gauge
  fixing;
* :mod:`gzflows.verify` -- finite-difference gradients, Poisson brackets,
  and defect measurements;
* :mod:`gzflows.serialize` -- JSON codecs: a complex array of any rank is
  nested lists of JSON numbers with ``[re, im]`` pairs innermost;
* :mod:`gzflows.cli` -- the ``gzflows`` command.
"""

from .gzcore import (
    GZCoordinates,
    GZGroupElement,
    StratumSignature,
    fiber_orbit_data,
    gz_flow,
    gz_map,
    gz_vector_field,
    sr_orbit_count_zero_fiber,
    stratum_signature,
    strongly_regular,
)
from .lax import LaxPath, gauge_apply, gauge_fix_regular, lax_integrate, lax_symplectic
from .matpoly import (
    charpoly,
    cluster_points,
    companion_of,
    krylov_rank,
    leading_minor,
    matexp,
    newton_convert,
    roots,
)
from .ratmodel import (
    MatricialData,
    OpenStratumChart,
    ak_act,
    chart_bracket,
    enumerate_sr,
    gk_act,
    md_strongly_regular,
    md_symplectic,
    md_validate,
    polar,
    sigma_of,
)
from .spaces import (
    CotangentPoint,
    VnPoint,
    tgl_flow,
    tgl_symplectic,
    tilde_a_flow,
    vn_gz_flow,
    vn_iso,
    vn_validate,
)
from .verify import (
    commute_defect,
    conservation_defect,
    fd_gradient,
    lie_poisson_bracket,
)

__version__ = "0.1.0"
