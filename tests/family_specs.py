"""The usual boundary of each family, and a spec carried to the dual lattice."""

from latuni import ConstructionSpec, dualize_operator, join_tconorm, meet_tnorm


def family_boundary(lat, e, family):
    """Join on [e,1] for a closure family, meet on [0,e] for an interior one."""
    return join_tconorm(lat, e) if family.closure_based else meet_tnorm(lat, e)


def dual_spec(spec, dual_family):
    """``spec`` on the dual lattice in ``dual_family``: both operators
    dualized, and that family's usual boundary at the same e."""
    dual = spec.lattice.dual()
    return ConstructionSpec(
        dual_family, dual, spec.e, family_boundary(dual, spec.e, dual_family),
        dualize_operator(spec.op_low, dual), dualize_operator(spec.op_inc, dual),
    )
