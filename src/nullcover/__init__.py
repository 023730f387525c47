"""nullcover: small complements B with A+B covering grids, tori and cubes.

The package builds discrete and continuous covering complements at desk
scale and verifies every claimed inequality exactly (integer or rational
arithmetic) or within a stated floating tolerance.  Certificates are plain
dicts serializable under the "nullcover/1" JSON schema; the `nullcover`
command line drives the same pipelines and re-validates stored traces.

The exports below load lazily (PEP 562): `import nullcover` imports no
submodule, and `nullcover.rrp_run` imports `nullcover.engine` on first use.
"""

import importlib

_EXPORTS = {
    "groups": """FiniteAbelianGroup GroupFunction GroupSubset dft convolve
        linear_bias sumset sumset_counts""",
    "gf": "FieldSpec make_field kth_power_codes coordinate_subset",
    "bias_sets": """PropositionParams SignedBoxSet select_parameters build_bias_complement
        verify_coverage_bound lift_to_signed_box coverage_threshold""",
    "covering": "SetFamily size_threshold random_cover_complement dyadic_cover_complement",
    "fractal": """DyadicCubeSet GaugeFunction generate_cantor
        covering_number packing_number_greedy hausdorff_content_dyadic
        hausdorff_distance uniform_large_subset log_dimension_estimate""",
    "engine": """AffineMap FunctionFamily ConstructionTrace GridSet family_covering_number
        middle_thirds_points rrp_run full_measure_run verify_rrp_trace
        verify_full_measure_trace""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
