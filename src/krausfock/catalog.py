"""Deterministic constructors for families of example channels.

Every constructor is a pure function of its parameters (including the
seed), produces exactly unital Kraus families, and is used by both the
test suite and the command line front end.  A family is declared once, by
its constructor: ``PARAMETERS`` lists the names of each constructor's
signature, and the defaults are the signature's.  A :class:`CatalogSpec`
that sets anything else is rejected, and so is a parameter of the wrong
type or range (nothing is rounded, parsed or cast from ``bool``), a missing
size and an instance of more than ``MAX_ENTRIES`` Kraus entries.  Every
family carries the default tolerances; a caller who wants others writes
``KrausSet(family.ops, tol=...)``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any

import numpy as np

from .channel import KrausSet

__all__ = [
    "FAMILIES",
    "CatalogSpec",
    "identity_channel",
    "unitary_channel",
    "projective_measurement",
    "commuting_generic",
    "random_unital",
    "sequential_projective",
    "build_catalog",
]

MAX_ENTRIES = 2**24  # 256 MiB of complex128 Kraus entries


def _is_integer(value) -> bool:
    """Python or numpy integer, not a ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class CatalogSpec:
    """Family name and the parameters given for one instance (``None``: not given).

    Refuses an unknown family, a parameter its constructor does not take, a
    value of the wrong type or range, a missing size (``d``, then ``n``) and
    an instance of more than ``MAX_ENTRIES`` Kraus entries.  An omitted seed
    is the constructor's default.
    """

    family: str
    n: int | None = None
    d: int | None = None
    seed: int | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a dict, got {self.params!r}")
        # validated into a copy, so a later change to the caller's dict is never read
        params = dict(self.params)
        object.__setattr__(self, "params", params)
        reads = PARAMETERS[self.family]
        given = [name for name in ("n", "d", "seed") if getattr(self, name) is not None]
        # a size or seed is a field of its own, never read from params
        for name in given + [f"params.{k}" if k in ("n", "d", "seed") else k for k in params]:
            if name not in reads:
                raise ValueError(f"family {self.family!r} does not use parameter {name!r}")
        for name, least in (("n", 1), ("d", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is not None:
                if not (_is_integer(value) and value >= least):
                    raise ValueError(
                        f"parameter {name!r} must be an integer of at least {least}, got {value!r}"
                    )
                # a Python int, so size products cannot wrap around as numpy integers do
                object.__setattr__(self, name, int(value))
        angle = params.get("angle", 0.0)
        if isinstance(angle, bool) or not isinstance(angle, Real):
            raise ValueError(f"parameter 'angle' must be a real number, got {angle!r}")
        ranks = params.get("ranks", [])
        if not (isinstance(ranks, list) and all(_is_integer(r) for r in ranks)):
            raise ValueError(f"parameter 'ranks' must be a list of integers, got {ranks!r}")
        if "ranks" in params:
            params["ranks"] = list(ranks)
        if self.seed is None and "seed" in reads:
            seed = inspect.signature(_CONSTRUCTORS[self.family]).parameters["seed"].default
            object.__setattr__(self, "seed", seed)
        for name in ("d", "n"):
            if name in reads and getattr(self, name) is None:
                raise ValueError(f"family {self.family!r} needs parameter {name!r}")
        # a projective family has at most d operators, a sequential one four
        count = {"projective": self.d, "sequential_projective": 4}.get(self.family, self.n or 1)
        if count * self.d * self.d > MAX_ENTRIES:
            raise ValueError(
                f"family {self.family!r} with d={self.d} needs over {MAX_ENTRIES} Kraus entries"
            )


def identity_channel(d: int) -> KrausSet:
    """The trivial channel ``A -> A``."""
    return KrausSet(np.eye(d, dtype=complex)[None, :, :])


def unitary_channel(d: int, seed: int = 0) -> KrausSet:
    """Conjugation by a Haar-random unitary."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return KrausSet(q[None, :, :])


def projective_measurement(d: int, ranks=None) -> KrausSet:
    """Measurement channel from orthogonal projections onto coordinate blocks,
    ``d`` blocks of rank one when no ``ranks`` are given."""
    ranks = [1] * d if ranks is None else ranks
    if any(r < 1 for r in ranks):
        raise ValueError("projection ranks must be positive")
    if sum(ranks) != d:
        raise ValueError(f"projection ranks {ranks} must sum to the dimension {d}")
    ops = np.zeros((len(ranks), d, d), dtype=complex)
    start = 0
    for k, r in enumerate(ranks):
        ops[k, start : start + r, start : start + r] = np.eye(r)
        start += r
    return KrausSet(ops)


def commuting_generic(n: int, d: int, seed: int = 0) -> KrausSet:
    """``n`` commuting diagonal operators with generic entries.

    Each diagonal position carries a seeded random point on the unit sphere
    of ``C^n``, so unitality holds by construction and the operators satisfy
    no relations beyond commutativity while the level dimensions fit in ``d``.
    """
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    ops = np.stack([np.diag(points[:, k]) for k in range(n)])
    return KrausSet(ops)


def random_unital(n: int, d: int, seed: int = 0) -> KrausSet:
    """Generic family with no relations: normalized Gaussian matrices.

    Draws ``n`` seeded complex Gaussians ``G_k`` and right-multiplies by
    ``(sum_k G_k† G_k)^(-1/2)``, which enforces unitality exactly.  If the
    normalizer were singular the next seed is tried; the result is still a
    deterministic function of the requested seed.
    """
    if n < 1 or d < 1:
        raise ValueError(f"random_unital needs positive n and d, got n={n}, d={d}")
    attempt = seed
    while True:
        rng = np.random.default_rng(attempt)
        g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        total = np.einsum("kba,kbc->ac", g.conj(), g)
        w, v = np.linalg.eigh((total + total.conj().T) / 2.0)
        if w[0] > 1e-12 * w[-1]:
            break
        attempt += 1
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return KrausSet(g @ inv_sqrt)


def sequential_projective(d: int, angle: float = np.pi / 4, seed: int = 0) -> KrausSet:
    """Two sequential two-outcome measurements with rotated projections.

    Builds a seeded rank-``d//2`` real projection ``P`` and a copy ``Q``
    rotated by ``angle`` inside a plane mixing the range of ``P`` with its
    complement, then returns the four products ``Q_b P_a``.  Unitality holds
    because the two ``P_a`` and the two ``Q_b`` each sum to the identity.
    As the angle shrinks the family degenerates toward a commuting one.
    """
    if not 0.0 < angle < np.pi / 2:
        raise ValueError("angle must lie strictly between 0 and pi/2")
    if d < 2:
        raise ValueError("need dimension at least 2")
    rng = np.random.default_rng(seed)
    o, _ = np.linalg.qr(rng.normal(size=(d, d)))
    r = d // 2
    p = o[:, :r] @ o[:, :r].T
    p = (p + p.T) / 2.0
    u, v = o[:, 0], o[:, r]
    rot = (
        np.eye(d)
        + np.sin(angle) * (np.outer(v, u) - np.outer(u, v))
        + (np.cos(angle) - 1.0) * (np.outer(u, u) + np.outer(v, v))
    )
    q = rot @ p @ rot.T
    q = (q + q.T) / 2.0
    p_parts = [p, np.eye(d) - p]
    q_parts = [q, np.eye(d) - q]
    ops = np.stack([qb @ pa for pa in p_parts for qb in q_parts]).astype(complex)
    return KrausSet(ops)


_CONSTRUCTORS = {
    "identity": identity_channel,
    "unitary": unitary_channel,
    "projective": projective_measurement,
    "commuting_generic": commuting_generic,
    "random_unital": random_unital,
    "sequential_projective": sequential_projective,
}
PARAMETERS = {family: tuple(inspect.signature(c).parameters) for family, c in _CONSTRUCTORS.items()}
FAMILIES = tuple(_CONSTRUCTORS)


def build_catalog(spec: CatalogSpec) -> KrausSet:
    """Instantiate a catalog family: one call of its constructor with the
    sizes, seed and params of ``spec``, which has checked them all."""
    sizes = {k: getattr(spec, k) for k in ("n", "d", "seed") if getattr(spec, k) is not None}
    return _CONSTRUCTORS[spec.family](**sizes, **spec.params)
