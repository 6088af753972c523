import numpy as np
import pytest

import netgen
from sdpse.errors import ValidationError
from sdpse.measurements import state_to_X
from sdpse.sdpmat import build_matrix_set, count_variables, realify


def dense(mats, kind, node, far=None):
    """Dense coefficient matrix of one location, built from its table row."""
    _, p, q, c = mats.terms(mats.rows_of([(kind, node, far)]))
    D = np.zeros((mats.dim, mats.dim))
    D[p, q] = c
    return D


def random_complex_entries(n, rng, k=6):
    out = []
    for _ in range(k):
        a, b = rng.integers(0, n, size=2)
        out.append((int(a), int(b), complex(rng.normal(), rng.normal())))
    return out


def realified_dense(n, entries, factor=1.0):
    """Dense matrix of realify's terms for factor * v, repeats summed."""
    a, b, v = (np.array(x) for x in zip(*entries))
    p, q, c = realify(a, b, factor * v, n)
    A = np.zeros((2 * n, 2 * n))
    np.add.at(A, (p, q), c)
    return A


@pytest.mark.parametrize("seed", range(5))
def test_realify_active_matches_complex_form(seed):
    rng = np.random.default_rng(seed)
    n = 7
    entries = random_complex_entries(n, rng)
    A = realified_dense(n, entries)
    C = np.zeros((n, n), dtype=complex)
    for a, b, v in entries:
        C[a, b] += v
    for _ in range(20):
        V = rng.normal(size=n) + 1j * rng.normal(size=n)
        X = np.concatenate([V.real, V.imag])
        assert X @ A @ X == pytest.approx((np.conj(V) @ C @ V).real, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_realify_reactive_matches_complex_form(seed):
    rng = np.random.default_rng(100 + seed)
    n = 7
    entries = random_complex_entries(n, rng)
    A = realified_dense(n, entries, factor=1j)
    C = np.zeros((n, n), dtype=complex)
    for a, b, v in entries:
        C[a, b] += v
    for _ in range(20):
        V = rng.normal(size=n) + 1j * rng.normal(size=n)
        X = np.concatenate([V.real, V.imag])
        assert X @ A @ X == pytest.approx(-(np.conj(V) @ C @ V).imag, abs=1e-12)


def loop_terms(n, complex_entries):
    """Loop form of realify for one location: terms accumulated per position
    in entry order, exact zeros dropped, sorted by (p, q)."""
    acc = {}
    for a, b, v in complex_entries:
        vr, vi = v.real / 2.0, v.imag / 2.0
        for key, c in (
            ((a, b), vr), ((b, a), vr), ((n + a, n + b), vr), ((n + b, n + a), vr),
            ((b, n + a), vi), ((a, n + b), -vi), ((n + a, b), vi), ((n + b, a), -vi),
        ):
            acc[key] = acc.get(key, 0.0) + c
    return sorted((p, q, c) for (p, q), c in acc.items() if c != 0.0)


@pytest.mark.parametrize(
    "doc",
    [netgen.tree_doc(12, seed=4, meshed_extra=2), netgen.multiphase_feeder_doc()],
)
def test_table_matches_loop_reference(doc):
    model = netgen.model_from(doc)
    mats = build_matrix_set(model)
    n = model.n_nodes
    expected = {}
    for k in range(n):
        entries = [(k, j, model.ybus[k, j]) for j in np.nonzero(model.ybus[k])[0]]
        expected[("P_inj", k, None)] = loop_terms(n, entries)
        expected[("Q_inj", k, None)] = loop_terms(n, [(a, b, 1j * v) for a, b, v in entries])
        expected[("Vmag", k, None)] = [(k, k, 1.0), (n + k, n + k, 1.0)]
    for (l, m), pd in mats.pairs.items():
        entries = [(l, l, -(pd.series + pd.shunt_at_from)), (l, m, pd.series)]
        expected[("P_flow", l, m)] = loop_terms(n, entries)
        expected[("Q_flow", l, m)] = loop_terms(n, [(a, b, 1j * v) for a, b, v in entries])
    assert set(expected) == set(mats.index)
    for loc, terms in expected.items():
        _, p, q, c = mats.terms(mats.rows_of([loc]))
        assert list(zip(p.tolist(), q.tolist(), c.tolist())) == terms, loc


def test_matrices_are_symmetric():
    model = netgen.model_from(netgen.tree_doc(8, seed=2))
    mats = build_matrix_set(model)
    assert len(mats.index) == 3 * model.n_nodes + 2 * len(mats.pairs)
    for loc in mats.index:
        D = dense(mats, *loc)
        assert np.allclose(D, D.T, atol=1e-14)


def test_dot_quad_and_dense_agree():
    rng = np.random.default_rng(0)
    model = netgen.model_from(netgen.chain_doc(5))
    mats = build_matrix_set(model)
    X = rng.normal(size=mats.dim)
    W = np.outer(X, X)
    D = dense(mats, "P_inj", 2)
    (value,) = mats.values(mats.rows_of([("P_inj", 2, None)]), W)
    assert value == pytest.approx(X @ D @ X)
    assert value == pytest.approx(float(np.sum(D * W)))


def test_dimension_mismatch_rejected():
    mats = build_matrix_set(netgen.model_from(netgen.chain_doc(2)))
    rows = mats.rows_of([("Vmag", 0, None)])
    with pytest.raises(ValidationError, match="dimension"):
        mats.values(rows, np.eye(3))
    with pytest.raises(ValidationError, match="dimension"):
        mats.values(rows, np.zeros((mats.dim, mats.dim + 1)))


def test_unknown_location_rejected():
    mats = build_matrix_set(netgen.model_from(netgen.chain_doc(3)))
    with pytest.raises(ValidationError, match="no P_flow location at node 0 -> 2"):
        mats.rows_of([("P_flow", 0, 2)])


def check_network_identities(model, mats, tol=1e-12):
    """Structural identities tying injections, flows, and magnitudes.

    At every node the injection matrix equals minus the sum of the incident
    flow matrices; on every zero-shunt pair the loss and voltage-drop
    combinations vanish identically.
    """
    n = model.n_nodes
    for k in range(n):
        accP, accQ = dense(mats, "P_inj", k), dense(mats, "Q_inj", k)
        scale = max(np.max(np.abs(accP)), 1.0)
        for m in sorted(m for l, m in mats.pairs if l == k):
            accP = accP + dense(mats, "P_flow", k, m)
            accQ = accQ + dense(mats, "Q_flow", k, m)
        assert np.max(np.abs(accP)) <= tol * scale
        assert np.max(np.abs(accQ)) <= tol * scale
    for (l, m), pd in mats.pairs.items():
        if l > m:
            continue
        if pd.shunt_at_from != 0 or mats.pairs[(m, l)].shunt_at_from != 0:
            continue
        y = model.ybus[l, m]
        scale = max(abs(y) ** 2, abs(y), 1.0)
        p_lm, p_ml = dense(mats, "P_flow", l, m), dense(mats, "P_flow", m, l)
        q_lm, q_ml = dense(mats, "Q_flow", l, m), dense(mats, "Q_flow", m, l)
        loss = y.imag * (p_lm + p_ml) + y.real * (q_lm + q_ml)
        assert np.max(np.abs(loss)) <= tol * scale
        drop = (
            y.real * (p_lm - p_ml)
            - y.imag * (q_lm - q_ml)
            - abs(y) ** 2 * (dense(mats, "Vmag", l) - dense(mats, "Vmag", m))
        )
        assert np.max(np.abs(drop)) <= tol * scale


def test_identities_on_small_networks():
    for doc in (netgen.chain_doc(5), netgen.tree_doc(10, seed=4, meshed_extra=2)):
        model = netgen.model_from(doc)
        check_network_identities(model, build_matrix_set(model))


def test_eval_matches_complex_oracle():
    model = netgen.model_from(netgen.tree_doc(9, seed=11, meshed_extra=1))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=5)
    X = state_to_X(V)
    for k in range(model.n_nodes):
        s = netgen.injection_oracle(V, model.ybus, k)
        assert X @ dense(mats, "P_inj", k) @ X == pytest.approx(s.real, abs=1e-12)
        assert X @ dense(mats, "Q_inj", k) @ X == pytest.approx(s.imag, abs=1e-12)
        assert X @ dense(mats, "Vmag", k) @ X == pytest.approx(abs(V[k]) ** 2)
    for (l, m), pd in mats.pairs.items():
        s = netgen.flow_oracle(V, l, m, pd.series, pd.shunt_at_from)
        assert X @ dense(mats, "P_flow", l, m) @ X == pytest.approx(s.real, abs=1e-12)
        assert X @ dense(mats, "Q_flow", l, m) @ X == pytest.approx(s.imag, abs=1e-12)


def test_parallel_branches_aggregate():
    doc = netgen.chain_doc(2)
    doc["branches"].append(
        {"id": "par", "from": {"bus": "b0", "phase": "A"},
         "to": {"bus": "b1", "phase": "A"}, "r": 0.01, "x": 0.03}
    )
    model = netgen.model_from(doc)
    mats = build_matrix_set(model)
    assert len(mats.pairs) == 2  # one per direction
    total = sum(br.series_admittance for br in model.branches)
    assert mats.pairs[(0, 1)].series == pytest.approx(total)
    # The flow matrix reflects the aggregate of both circuits.
    V = netgen.random_state(model, seed=1)
    s = netgen.flow_oracle(V, 0, 1, total, 0j)
    X = state_to_X(V)
    assert X @ dense(mats, "P_flow", 0, 1) @ X == pytest.approx(s.real, abs=1e-12)


def test_count_variables_reference_values():
    c = count_variables(41, 40)
    assert c["total_sym"] == 3403
    assert c["distinct"] == 283
    assert c["max_measurements"] == 283
    assert c["independent"] == 121
    assert count_variables(117, 457)["distinct"] == 2179


def test_count_variables_rejects_bad_input():
    with pytest.raises(ValidationError):
        count_variables(0, 3)
    with pytest.raises(ValidationError):
        count_variables(4, -1)
