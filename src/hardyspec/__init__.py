"""Numerical laboratory for second-order elliptic forms whose coefficients
degenerate like powers of the boundary distance: exact distance calculus,
graded finite elements, weighted Hardy-inequality certification, and
exhaustion-based spectral discreteness diagnostics."""

from .coefficients import Coefficient, constant, parse_coefficient
from .eigensolve import SpectralReport, counting_function, smallest_eigenpairs
from .forms import (FormSpec, IMSPartition, Pencil, assemble_pencil,
                    ims_identity_residual, ims_partition)
from .geometry import (Annulus, ConvexPolygon, Disc, DistanceEval, Domain,
                       Interval, SuperharmonicityReport, Torus, TorusSection,
                       superharmonicity_scan)
from .hardy import (HardyBoundSpec, HardyCertificate, HardyConstants,
                    hardy_constants, kappa, lambda_bound, verify_hardy)
from .meshing import (Mesh, build_mesh_1d, build_trimesh, mesh_1d_with_level,
                      refine_mesh_1d, refine_trimesh,
                      restrict_to_strip)
from .spectral import (CriterionReport, DiagnosticReport, PerssonSequence,
                       ProblemSpec, check_form_nonnegativity,
                       check_pointwise_criterion, discreteness_diagnostic,
                       persson_sequence)

__version__ = "0.1.0"
