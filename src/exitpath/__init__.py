"""Exit-path simplicial sets of linked spans.

Build the exit complex Ex of a span M <- L -> N (projection and link
inclusion), drive its faces and degeneracies through the shuffle index
calculus, and machine-check simplicial identities, inner-horn filling,
and fibration properties on the result.
"""

from .operators import (
    Operator,
    compose,
    degeneracy_op,
    epi_mono_factor,
    face_op,
    identity,
)
from .simplicial import (
    FormalSimplex,
    SimplicialMap,
    SimplicialSet,
    empty_sset,
    nerve_of_poset,
    nondeg,
    standard_simplex,
)
from .shuffles import (
    FaceClass,
    UndefinedFlat,
    classify_face,
    collapse,
    exit_shuffle,
    flat,
    restriction_operator,
    sharp,
)
from .construction import (
    Exit,
    ExitComplex,
    IotaNotMono,
    LinkedSpan,
    Low,
    SpanIntegrityError,
    Upper,
    all_exit_simplices,
    build_exit,
    detect_degenerate_exit,
    exit_degeneracy,
    exit_face,
    exit_normal_form,
    exit_simplices,
    is_exit_path,
)
from .verify import (
    Budget,
    BudgetExhausted,
    HornProblem,
    VerificationReport,
    check_fibration,
    comparison_report,
    enumerate_horns,
    find_filler,
    verify_quasicategory,
    verify_simplicial_identities,
)
from .gallery import GALLERY, load_span

__version__ = "0.1.0"
