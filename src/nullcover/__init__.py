"""nullcover: small complements B with A+B covering grids, tori and cubes.

The package builds discrete and continuous covering complements at desk
scale and verifies every claimed inequality exactly (integer or rational
arithmetic) or within a stated floating tolerance.  Certificates are plain
dicts serializable under the "nullcover/1" JSON schema; the `nullcover`
command line drives the same pipelines and re-validates stored traces.
"""

from nullcover.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    GroupSubset,
    dft,
    idft,
    convolve,
    linear_bias,
    sumset,
    sumset_counts,
    sumset_cover_report,
)
from nullcover.gf import (
    FieldSpec,
    FieldElement,
    make_field,
    kth_power_set,
    kth_power_codes,
    to_coordinates,
    coordinate_subset,
)
from nullcover.bias_sets import (
    PropositionParams,
    SignedBoxSet,
    select_parameters,
    build_bias_complement,
    verify_coverage_bound,
    lift_to_signed_box,
    coverage_threshold,
    continuous_patch_complement,
)
from nullcover.covering import (
    SetFamily,
    size_threshold,
    random_cover_complement,
    lift_cover_to_box,
    dyadic_cover_complement,
    anchored_cover_complement,
)
from nullcover.fractal import (
    DyadicCubeSet,
    GaugeFunction,
    LargenessProfile,
    generate_cantor,
    covering_number,
    packing_number_greedy,
    hausdorff_content_dyadic,
    hausdorff_distance,
    uniform_large_subset,
    log_dimension_estimate,
)
from nullcover.elementary import ElementarySet
from nullcover.engine import (
    AffineMap,
    FunctionFamily,
    ConstructionTrace,
    GridSet,
    family_covering_number,
    middle_thirds_points,
    rrp_step,
    rrp_run,
    full_measure_run,
    verify_rrp_trace,
    verify_full_measure_trace,
)

__version__ = "0.1.0"
