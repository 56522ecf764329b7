"""Dense joint-PMF arithmetic: assembling the full seven-variable law from its
conditional factors, and conditional mutual information."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .markov import DelayedStateJoint

__all__ = [
    "JointPmf",
    "InputPolicy",
    "DmcChannel",
    "JOINT_VARIABLES",
    "check_compatible",
    "assemble_joint",
    "conditional_mutual_information",
]

_PMF_TOL = 1e-10

# Canonical variable order of an assembled joint law.
JOINT_VARIABLES = ("U", "X1", "X2", "S", "Sd1", "Sd2", "Y")


class JointPmf:
    """A dense probability table over an ordered tuple of named finite variables."""

    def __init__(self, variables: Sequence[str], table) -> None:
        table = np.asarray(table, dtype=float)
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        if table.ndim != len(variables):
            raise ValueError(
                f"table has {table.ndim} axes but {len(variables)} variables were named"
            )
        if not np.all(table >= 0):  # written so that NaN fails it too
            raise ValueError("probabilities must be nonnegative numbers")
        total = table.sum()
        if not abs(total - 1.0) <= _PMF_TOL:
            raise ValueError(f"joint table must sum to 1 (got {total!r})")
        self.variables = variables
        self.table = table

    def axes(self, names: Sequence[str]) -> tuple[int, ...]:
        missing = [v for v in names if v not in self.variables]
        if missing:
            raise ValueError(f"unknown variable(s) {missing}; joint has {self.variables}")
        return tuple(self.variables.index(v) for v in names)

    def marginal(self, keep: Sequence[str]) -> "JointPmf":
        """Marginal joint over `keep`, in the order the variables appear here."""
        keep_axes = set(self.axes(keep))
        drop = tuple(i for i in range(self.table.ndim) if i not in keep_axes)
        kept_names = tuple(v for i, v in enumerate(self.variables) if i in keep_axes)
        return JointPmf(kept_names, self.table.sum(axis=drop))

    def __repr__(self) -> str:
        return f"JointPmf(variables={self.variables!r}, shape={self.table.shape})"


def _validate_conditional(table: np.ndarray, name: str, cond_axes: int) -> None:
    """Each slice of the trailing axis, indexed by the leading axes, sums to 1."""
    if table.ndim != cond_axes + 1:
        raise ValueError(f"{name} must have {cond_axes + 1} axes, got {table.ndim}")
    if not np.all(table >= 0):  # written so that NaN fails it too
        raise ValueError(f"{name} entries must be nonnegative numbers")
    sums = table.sum(axis=-1)
    bad = ~(np.abs(sums - 1.0) <= _PMF_TOL)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{name} slice {idx} sums to {sums[idx]!r}, expected 1")


class InputPolicy:
    """Factorized channel-input law of the two cooperating encoders.

    pU[a, u]        P(u | delayed state 1 = a)
    pX1[u, a, x]    P(x1 | u, delayed state 1 = a)
    pX2[u, a, b, x] P(x2 | u, delayed state 1 = a, delayed state 2 = b)
    """

    def __init__(self, pU, pX1, pX2) -> None:
        pU = np.asarray(pU, dtype=float)
        pX1 = np.asarray(pX1, dtype=float)
        pX2 = np.asarray(pX2, dtype=float)
        _validate_conditional(pU, "pU", 1)
        _validate_conditional(pX1, "pX1", 2)
        _validate_conditional(pX2, "pX2", 3)
        k, nu = pU.shape
        if pX1.shape[:2] != (nu, k):
            raise ValueError(f"pX1 leading axes must be ({nu}, {k}), got {pX1.shape[:2]}")
        if pX2.shape[:3] != (nu, k, k):
            raise ValueError(f"pX2 leading axes must be ({nu}, {k}, {k}), got {pX2.shape[:3]}")
        nx1, nx2 = pX1.shape[-1], pX2.shape[-1]
        cap = nx1 * nx2 * k**3 + 2
        if nu > cap:
            raise ValueError(f"auxiliary alphabet size {nu} exceeds the ceiling {cap}")
        self.pU = pU
        self.pX1 = pX1
        self.pX2 = pX2

    @property
    def n_states(self) -> int:
        return self.pU.shape[0]

    @property
    def n_u(self) -> int:
        return self.pU.shape[1]

    @property
    def n_x1(self) -> int:
        return self.pX1.shape[-1]

    @property
    def n_x2(self) -> int:
        return self.pX2.shape[-1]


class DmcChannel:
    """State-selected discrete memoryless two-user channel P(y | x1, x2, s).

    table[x1, x2, s, y] indexed by the two inputs, the state and the output.
    """

    def __init__(self, table) -> None:
        table = np.asarray(table, dtype=float)
        _validate_conditional(table, "channel table", 3)
        self.table = table

    @property
    def n_x1(self) -> int:
        return self.table.shape[0]

    @property
    def n_x2(self) -> int:
        return self.table.shape[1]

    @property
    def n_states(self) -> int:
        return self.table.shape[2]

    @property
    def n_y(self) -> int:
        return self.table.shape[3]


def check_compatible(k: int, policy: InputPolicy, channel: DmcChannel) -> None:
    """Raise ValueError unless the policy and the channel both have the
    chain's k states and agree on the two input alphabets."""
    if policy.n_states != k:
        raise ValueError(f"policy has {policy.n_states} states, the chain {k}")
    if channel.n_states != k:
        raise ValueError(f"channel table has {channel.n_states} states, the chain {k}")
    if (policy.n_x1, policy.n_x2) != (channel.n_x1, channel.n_x2):
        raise ValueError(f"policy pX1, pX2 have {policy.n_x1}, {policy.n_x2} input symbols, "
                         f"the channel table {channel.n_x1}, {channel.n_x2}")


def assemble_joint(
    joint_states: DelayedStateJoint, policy: InputPolicy, channel: DmcChannel
) -> JointPmf:
    """Full joint law over (U, X1, X2, S, Sd1, Sd2, Y).

    P(u,x1,x2,s,a,b,y) = P(a,b,s) P(u|a) P(x1|u,a) P(x2|u,a,b) P(y|x1,x2,s).
    """
    check_compatible(joint_states.k, policy, channel)
    # indices: a,b,c = delayed1, delayed2, state; u; i,j = x1,x2; y
    table = np.einsum(
        "abc,au,uai,uabj,ijcy->uijcaby",
        joint_states.table,
        policy.pU,
        policy.pX1,
        policy.pX2,
        channel.table,
        optimize=True,
    )
    return JointPmf(JOINT_VARIABLES, table)


def _entropy_of_marginal(joint: JointPmf, names: Sequence[str]) -> float:
    """H(names) in bits, marginalizing the rest; 0 log 0 terms contribute 0."""
    if not names:
        return 0.0
    p = joint.marginal(names).table.ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def conditional_mutual_information(
    joint: JointPmf, A: Sequence[str], B: Sequence[str], C: Sequence[str] = ()
) -> float:
    """I(A; B | C) in bits, clamped to 0 against negative rounding residue."""
    A, B, C = tuple(A), tuple(B), tuple(C)
    for left, right in ((A, B), (A, C), (B, C)):
        overlap = set(left) & set(right)
        if overlap:
            raise ValueError(f"variable sets must be disjoint; {sorted(overlap)} repeated")
    joint.axes(A + B + C)
    h_ac = _entropy_of_marginal(joint, A + C)
    h_bc = _entropy_of_marginal(joint, B + C)
    h_abc = _entropy_of_marginal(joint, A + B + C)
    h_c = _entropy_of_marginal(joint, C)
    return max(h_ac + h_bc - h_abc - h_c, 0.0)
