"""Reference Monte Carlo error counts for seeds without a stored reference.

A self-contained replay of fsmac's coding pipeline, written from its
documented behaviour: the same random streams per (seed, trial) and the same
draw order, then a brute-force strong-typicality decoder that scores each
candidate pair separately. It imports nothing from fsmac, so a change to the
program cannot change the reference. `record_references.py` checks that it
reproduces the stored counts.
"""

from __future__ import annotations

import math

import numpy as np


def message_count(n: int, rate: float) -> int:
    return max(1, int(math.floor(2.0 ** (n * rate) + 1e-9)))


def _stationary(K: np.ndarray) -> np.ndarray:
    k = K.shape[0]
    A = K.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.maximum(np.linalg.solve(A, b), 0.0)
    return pi / pi.sum()


def _model_law(K, d1, d2, pU, pX1, pX2, W) -> np.ndarray:
    """P(u, x1, x2, s, s_d1, s_d2, y) of one post-delay position."""
    pi = _stationary(K)
    Kg = np.linalg.matrix_power(K, d1 - d2)
    Kd = np.linalg.matrix_power(K, d2)
    nu, k = pU.shape[1], K.shape[0]
    nx1, nx2, ny = pX1.shape[-1], pX2.shape[-1], W.shape[-1]
    p = np.zeros((nu, nx1, nx2, k, k, k, ny))
    for a in range(k):              # state seen by encoder 1
        for b in range(k):          # state seen by encoder 2
            for c in range(k):      # current state
                pabc = pi[a] * Kg[a, b] * Kd[b, c]
                for u in range(nu):
                    for i in range(nx1):
                        for j in range(nx2):
                            q = pabc * pU[a, u] * pX1[u, a, i] * pX2[u, a, b, j]
                            p[u, i, j, c, a, b, :] = q * W[i, j, c, :]
    return p


def _draw(rng, probs, shape):
    u = rng.random(shape)
    return np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1)


def _books(rng, pU, pX1, pX2, n, counts):
    k, nu = pU.shape
    M0, M1, M2 = counts
    t0 = np.empty((M0, n, k), dtype=np.int64)
    for a in range(k):
        t0[:, :, a] = _draw(rng, pU[a], (M0, n))
    t1 = np.empty((M1, n, nu, k), dtype=np.int64)
    for u in range(nu):
        for a in range(k):
            t1[:, :, u, a] = _draw(rng, pX1[u, a], (M1, n))
    t2 = np.empty((M2, n, nu, k, k), dtype=np.int64)
    for u in range(nu):
        for a in range(k):
            for b in range(k):
                t2[:, :, u, a, b] = _draw(rng, pX2[u, a, b], (M2, n))
    return t0, t1, t2


def _state_path(rng, K, n):
    u = rng.random(n)
    s = np.empty(n, dtype=np.int64)
    s[0] = np.searchsorted(np.cumsum(_stationary(K)), u[0], side="right")
    cum = np.cumsum(K, axis=1)
    for t in range(1, n):
        s[t] = np.searchsorted(cum[s[t - 1]], u[t], side="right")
    return s.clip(0, K.shape[0] - 1)


def _typical_triplets(books, law, s, y, d1, d2, epsilon):
    """Every candidate triplet whose post-delay empirical law is within
    epsilon of the model on positive cells and zero on null cells."""
    t0, t1, t2 = books
    M0, M1, M2 = t0.shape[0], t1.shape[0], t2.shape[0]
    nu, nx1, nx2, k, _, _, ny = law.shape
    n = len(s)
    pos = np.arange(d1, n)
    m = len(pos)
    a, b = s[pos - d1], s[pos - d2]
    n_ctx = k * k * k * ny
    ctx = ((s[pos] * k + a) * k + b) * ny + y[pos]
    n_cells = nu * nx1 * nx2 * n_ctx
    p = law.ravel()
    found = []
    for m0 in range(M0):
        u = t0[m0, pos, a]
        x2 = t2[:, pos, u, a, b]                                  # (M2, m)
        for m1 in range(M1):
            x1 = t1[m1, pos, u, a]                                # (m,)
            cell = ((u * nx1 + x1)[None, :] * nx2 + x2) * n_ctx + ctx[None, :]
            flat = (np.arange(M2)[:, None] * n_cells + cell).ravel()
            emp = np.bincount(flat, minlength=M2 * n_cells).reshape(M2, n_cells) / m
            ok = np.where(p > 0, np.abs(emp - p) <= epsilon, emp == 0.0).all(axis=1)
            found.extend((m0, m1, int(m2)) for m2 in np.flatnonzero(ok))
    return found


def error_count(cfg: dict) -> int:
    """Block errors of a `simulate` config with a single blocklength."""
    K = np.asarray(cfg["chain"]["transition"], dtype=float)
    W = np.asarray(cfg["channel"]["table"], dtype=float)
    pol = cfg["policy"]
    pU, pX1, pX2 = (np.asarray(pol[name], dtype=float) for name in ("pU", "pX1", "pX2"))
    d1, d2 = cfg["delays"]["d1"], cfg["delays"]["d2"]
    (n,) = cfg["sim"]["n_list"]
    epsilon, trials, seed = cfg["sim"]["epsilon"], cfg["sim"]["trials"], cfg["seed"]
    rates = cfg["rates"]
    conf = cfg.get("conferencing")
    if conf is None:
        counts = tuple(message_count(n, rates[r]) for r in ("r0", "r1", "r2"))
    else:
        # message splitting: cells of each private message go over the links
        M1, M2 = message_count(n, rates["r1"]), message_count(n, rates["r2"])
        idx1 = message_count(n, rates["r1"] - min(rates["r1"], conf["c12"]))
        idx2 = message_count(n, rates["r2"] - min(rates["r2"], conf["c21"]))
        cells1, cells2 = -(-M1 // idx1), -(-M2 // idx2)
        counts = (cells1 * cells2, idx1, idx2)
    law = _model_law(K, d1, d2, pU, pX1, pX2, W)
    errors = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))
        books = _books(rng, pU, pX1, pX2, n, counts)
        if conf is None:
            sent = tuple(int(rng.integers(c)) if c > 1 else 0 for c in counts)
        else:
            m1 = int(rng.integers(M1)) if M1 > 1 else 0
            m2 = int(rng.integers(M2)) if M2 > 1 else 0
            sent = ((m1 // idx1) * cells2 + m2 // idx2, m1 % idx1, m2 % idx2)
        s = _state_path(rng, K, n)
        x1 = np.zeros(n, dtype=np.int64)
        x2 = np.zeros(n, dtype=np.int64)
        pos = np.arange(d1, n)
        a, b = s[pos - d1], s[pos - d2]
        u = books[0][sent[0], pos, a]
        x1[pos] = books[1][sent[1], pos, u, a]
        x2[pos] = books[2][sent[2], pos, u, a, b]
        cum = np.cumsum(W[x1, x2, s], axis=1)
        y = np.minimum((rng.random(n)[:, None] > cum).sum(axis=1), W.shape[-1] - 1)
        found = _typical_triplets(books, law, s, y, d1, d2, epsilon) if d1 < n else []
        if found != [sent]:
            errors += 1
    return errors
