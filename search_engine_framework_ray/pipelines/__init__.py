"""End-to-end Ray Data pipelines: index build, distributed query run, dedup,
ANN, text analytics."""


def unreserved(ds):
    """Turn Ray Data's per-operator resource reservation off on ``ds``'s own
    ``DataContext`` and return ``ds``.

    The reservation splits half the cluster evenly among a plan's map
    operators, which on 4 CPUs leaves each one task slot. In the index
    build, pruning and impact plans a sort barrier sits between the map
    stages, so no two of them ever have input at once and the split buys
    nothing; with it off the stage that runs gets every CPU (Ray Data's
    cluster-wide CPU and object-store limits still apply). A source
    dataset's context is its own copy of the process-wide one, shared by
    every dataset derived from it and carried over by ``materialize``, so
    other pipelines in the same process keep Ray Data's defaults."""
    ds.context.op_resource_reservation_enabled = False
    return ds
