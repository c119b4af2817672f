"""minleg: numerical verification for minimal Legendrian submanifolds of spheres."""

import json as _json
import random as _random

__version__ = "0.1.0"


class MinlegError(Exception):
    """Base of minleg's errors: the command line prints prefix and the message
    on one `error:` line and exits with exit_code (2, usage, unless overridden)."""

    exit_code = 2
    prefix = ""


class NumericalFailure(MinlegError, RuntimeError):
    """No trustworthy number: a degenerate chart point, a fundamental matrix that
    is not finite or not PSD, Jacobi sweeps that do not converge, or a NaN
    bound for output."""

    exit_code = 3
    prefix = "numerical failure: "


def seeded_random(*key: int) -> _random.Random:
    """The generator of every seeded draw in minleg: random.Random seeded with
    the key's integers joined by commas, for example "7,3,20", a text that
    random.Random hashes with SHA-512.  minleg draws only through random(),
    whose stream Python keeps the same across versions for a given seed."""
    return _random.Random(",".join(map(str, key)))


def json_text(doc) -> str:
    """The text of every JSON document minleg writes: doc indented by 2, then
    a newline.  Floats are written as their repr, the shortest text that
    reads back as the same double; a NaN or an infinity is a NumericalFailure."""
    try:
        return _json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalFailure("reports must not contain NaN or infinity") from exc


from .geometry import (
    DegeneratePointError,
    ImmersionChart,
    Interval,
    NonPSDError,
    PointData,
    PointFrame,
    Spectrum,
    apply_J,
    derivative_cross_check,
    fundamental_matrix,
    gauss_rank,
    legendrian_residual,
    minimality_residual,
    point_data,
    scalar_curvature_intrinsic,
    sigma_symmetry_defect,
    simons_residual,
    spectrum_of,
)
from .lu_inequality import (
    FamilyValidationError,
    LuReport,
    MatrixFamily,
    SearchStats,
    canonical_extremal,
    extremal_search,
    family_from_text,
    family_to_text,
    load_family,
    lu_bound,
    lu_check,
    normalize_family,
)
from .symmat import (
    EigenResult,
    JacobiConvergenceError,
    commutator,
    frobenius_inner,
    frobenius_norm,
    sym_eigen,
    symmetrize,
)
from .verify import (
    GridSpec,
    ScanResult,
    Tolerances,
    VerificationReport,
    chart_volume,
    grid_points,
    integral_p1,
    pinching_scan,
    sample_points,
    scan_to_csv,
    verify_chart,
)
from .zoo import (
    UnknownExampleError,
    ZooEntry,
    calabi_product,
    calabi_sigma_closed_form,
    calabi_torus,
    default_entries,
    equivariant_sphere3,
    flat_torus,
    geodesic_sphere,
    get_entry,
)

__all__ = [name for name in dir() if not name.startswith("_")]
