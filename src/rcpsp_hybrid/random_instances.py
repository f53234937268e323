"""Random RCPSP instance generation for tests, demos and smoke runs."""

from __future__ import annotations

from .model import Activity, ProjectInstance


def random_instance(
    rng,
    n_real: int,
    n_resources: int = 2,
    max_duration: int = 9,
    edge_probability: float = 0.3,
    max_capacity: int = 10,
    name: str = "",
) -> ProjectInstance:
    """Random layered DAG with dummy source/sink, durations in
    1..max_duration and demands bounded by the capacities."""
    sink = n_real + 1
    capacities = [rng.randint(2, max_capacity) for _ in range(n_resources)]

    activities = [Activity(0, 0, (0,) * n_resources)]
    for j in range(1, sink):
        demand = tuple(rng.randint(0, capacities[k]) for k in range(n_resources))
        activities.append(Activity(j, rng.randint(1, max_duration), demand))
    activities.append(Activity(sink, 0, (0,) * n_resources))

    arcs: set[tuple[int, int]] = set()
    for i in range(1, sink):
        for j in range(i + 1, sink):
            if rng.random() < edge_probability:
                arcs.add((i, j))
    # dummy wiring: sources hang off 0, sinks feed n+1
    has_pred = {j for _, j in arcs}
    has_succ = {i for i, _ in arcs}
    for j in range(1, sink):
        if j not in has_pred:
            arcs.add((0, j))
        if j not in has_succ:
            arcs.add((j, sink))

    return ProjectInstance(activities, arcs, capacities, name=name)
