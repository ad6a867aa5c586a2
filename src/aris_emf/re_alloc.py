"""Greedy per-slot assignment of resource elements to users.

Every user is seeded with one resource element, then surplus elements are
granted one at a time to the user whose ranking metric is currently largest.
The metric scales the rate burden a user would carry per owned element by
how weak its reflected path is, so far users with high targets accumulate
more elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exposure import InfeasibleError, power_factor


@dataclass(frozen=True)
class AllocationMatrix:
    """Binary user-by-element ownership, (..., U, N_c): one or more slots."""

    delta: np.ndarray

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        if delta.ndim < 2:
            raise ValueError(f"allocation must be at least 2-D, got shape {delta.shape}")
        if not np.all((delta == 0.0) | (delta == 1.0)):
            raise ValueError("allocation entries must be 0 or 1")
        if np.any(delta.sum(axis=-2) > 1):
            raise ValueError("a resource element is assigned to more than one user")
        users, res = delta.shape[-2:]
        if res >= users and np.any(delta.sum(axis=-1) < 1):
            raise ValueError("a user holds no resource element")
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta)

    @property
    def counts(self):
        """Resource elements held by each user."""
        return self.delta.sum(axis=-1).astype(int)


def ranking_metric(r_u, d_ur, d_rb, kappa1, kappa2, w):
    """(2**(r_u/w) - 1) * d_ur**kappa1 * d_rb**kappa2, elementwise."""
    r_u = np.asarray(r_u, dtype=float)
    return power_factor(r_u, 1.0, w) * np.asarray(d_ur, dtype=float) ** kappa1 \
        * np.asarray(d_rb, dtype=float) ** kappa2


def allocate(rates, d_ur, d_rb, kappa1, kappa2, w, num_res):
    """Greedy allocation of num_res elements among len(rates) users.

    rates: per-user total rate burden (bit/s) driving the metric; d_ur:
    (U,) distances to the reflecting surface, or (N_T, U) for N_T slots
    granted together; d_rb: the surface to base-station distance, scalar or
    (N_T,).  Ties go to the lowest user index.
    """
    rates = np.asarray(rates, dtype=float)
    d_ur = np.asarray(d_ur, dtype=float)
    d_rb = np.asarray(d_rb, dtype=float)
    users = rates.size
    if num_res < users:
        raise InfeasibleError(
            f"{num_res} resource elements cannot seed {users} users")
    if d_ur.shape[-1:] != (users,) or d_rb.shape != d_ur.shape[:-1]:
        raise ValueError("one surface distance needed per user and slot")
    if np.any(d_ur <= 0) or np.any(d_rb <= 0):
        raise ValueError("distances must be positive")

    slots = d_rb.shape
    delta = np.zeros(slots + (users, num_res))
    counts = np.ones(slots + (users,))
    delta[..., np.arange(users), np.arange(users)] = 1.0
    for n in range(users, num_res):
        metric = ranking_metric(rates / counts, d_ur, d_rb[..., None], kappa1, kappa2, w)
        np.put_along_axis(delta[..., n], np.argmax(metric, axis=-1)[..., None], 1.0, -1)
        counts += delta[..., n]
    return AllocationMatrix(delta)
