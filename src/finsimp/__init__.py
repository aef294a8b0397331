"""Combinatorics of strings of finite-set maps.

The package enumerates and canonicalizes strings and grids of maps between
standard finite sets, computes the defect grading, certifies how grid
images glue along shuffle filtrations (inner generalized horns and
boundary spheres), and assembles fully certified presentation skeletons
for the defect-bounded complexes.
"""

from .errors import (
    CertificateError,
    DualConstructionError,
    HypothesisError,
    InputError,
    MatchingError,
    OrderAuditError,
    StaircaseDefectError,
)
from .finmap import FinMap, MapClass, classify, compose, epi_mono_factor, identity
from .grids import (
    CornerData,
    GridDiagram,
    boundary_image,
    complete_from_corner,
    complete_from_staircase,
    defect_subcomplex,
    enumerate_corner_grids,
    is_saturated,
)
from .presentation import (
    ExcessProfile,
    Generator,
    Matching,
    PresentationSkeleton,
    excess_strings,
    match_excess,
    order_excess,
    present,
    skeletal_dimension,
    verify_skeleton,
)
from .shuffles import (
    AttachmentCertificate,
    HornCertificate,
    attach_diagram,
    attachment_hypothesis,
    enumerate_shuffles,
    horn_certificate,
    is_inner_generalized_horn,
    poset_dot,
)
from .strings import (
    MapString,
    StringComplex,
    canonicalize,
    core,
    defect,
    degeneracy,
    enumerate_nondegenerate,
    face,
    saturate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
