"""Reference code that tests compare the package against.

Nothing in ``src/`` calls these: each is an independent route to a number
or property that the package computes, or guarantees, another way.
"""

from itertools import combinations

from qkzpsi.qkz import label_text


def _add_vertical_strip(p, a, k):
    """All partitions (length <= k) obtained from p by adding a vertical a-strip."""
    p = tuple(p) + (0,) * (k - len(p))
    out = []
    for rows in combinations(range(k), a):
        q = list(p)
        for r in rows:
            q[r] += 1
        if all(q[i] >= q[i + 1] for i in range(k - 1)):
            out.append(tuple(q))
    return out


def tensor_multiplicity(lam, m, k):
    """Multiplicity of the weight lam in the product of column reps omega_{m_i}.

    Iterated Pieri rule for elementary symmetric functions: tensoring with a
    column of height a adds a vertical a-strip in all possible ways.  It
    counts the tableaux that ``combinatorics.enumerate_tableaux`` lists.
    """
    lam = tuple(lam) + (0,) * (k - len(lam))
    state = {(0,) * k: 1}
    for a in m:
        new = {}
        for p, mult in state.items():
            for q in _add_vertical_strip(p, a, k):
                new[q] = new.get(q, 0) + mult
        state = new
    return state.get(lam, 0)


def degree_witness(psi):
    """None if every non-zero entry of psi is homogeneous of degree
    sum lam_a (lam_a - 1)/2, else the first label (in basis order) that is
    not, with its degree (None when the entry is inhomogeneous)."""
    want = psi.expected_degree()
    for lab in psi.basis:
        p = psi.entries[lab]
        if not p.is_zero() and p.homogeneous_degree() != want:
            return f"label {label_text(lab)} has degree {p.homogeneous_degree()}, want {want}"
    return None
