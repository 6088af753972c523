import json

import numpy as np
import pytest

import netgen
from sdpse.errors import ValidationError
from sdpse.network import (
    load_network,
    parse_network,
    restrict,
)


def test_chain_parses_with_expected_shape():
    model = netgen.model_from(netgen.chain_doc(6))
    assert model.n_nodes == 6
    assert model.n_closed_branches == 5
    assert model.feeder_head == "b0"
    assert model.ybus.shape == (6, 6)


def test_ybus_symmetric_and_zero_row_sums_without_shunt():
    model = netgen.model_from(netgen.tree_doc(15, seed=3))
    y = model.ybus
    assert np.allclose(y, y.T)
    assert np.max(np.abs(y.sum(axis=1))) < 1e-12


def test_ybus_row_sums_equal_shunt_with_charging():
    doc = netgen.chain_doc(3)
    doc["branches"][0]["shunt_b"] = 0.04
    model = netgen.model_from(doc)
    # Row sums pick up exactly the per-end shunt of each incident branch.
    sums = model.ybus.sum(axis=1)
    assert sums[0] == pytest.approx(0.02j)
    assert sums[1] == pytest.approx(0.02j)
    assert sums[2] == pytest.approx(0.0)


def test_multiphase_feeder_dimensions():
    model = netgen.model_from(netgen.multiphase_feeder_doc())
    assert model.n_nodes == 38
    assert len(model.branches) == 107


def test_ohm_to_per_unit_conversion():
    doc = {
        "base_mva": 10.0,
        "buses": [
            {"id": "a", "phases": ["A"], "feeder_head": True, "base_kV": 12.47},
            {"id": "b", "phases": ["A"], "base_kV": 12.47},
        ],
        "branches": [
            {"id": "l", "from": {"bus": "a", "phase": "A"},
             "to": {"bus": "b", "phase": "A"}, "r": 1.0, "x": 2.0}
        ],
    }
    model = parse_network(doc)
    z_base = 12.47**2 / 10.0
    z = model.branches[0].impedance
    assert z.real == pytest.approx(1.0 / z_base)
    assert z.imag == pytest.approx(2.0 / z_base)


def test_default_bases_pass_through():
    model = netgen.model_from(netgen.chain_doc(2))
    br = netgen.chain_doc(2)["branches"][0]
    assert model.branches[0].impedance == pytest.approx(complex(br["r"], br["x"]))


def test_open_switch_excluded_from_ybus():
    doc = netgen.chain_doc(3)
    doc["branches"].append(
        {"id": "sw", "from": {"bus": "b0", "phase": "A"},
         "to": {"bus": "b2", "phase": "A"}, "r": 0.01, "x": 0.01,
         "is_switch": True, "closed": False}
    )
    model = parse_network(doc)
    assert model.ybus[0, 2] == 0
    assert model.n_closed_branches == 2
    doc["branches"][-1]["closed"] = True
    model2 = parse_network(doc)
    assert model2.ybus[0, 2] != 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["buses"][0].update(color="red"),
        lambda d: d["branches"][0].update(length=3),
        lambda d: d["branches"][0]["from"].update(kv=1),
    ],
)
def test_unknown_keys_rejected(mutate):
    doc = netgen.chain_doc(3)
    mutate(doc)
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_network(doc)


def test_duplicate_bus_rejected():
    doc = netgen.chain_doc(3)
    doc["buses"].append({"id": "b1", "phases": ["A"]})
    with pytest.raises(ValidationError, match="duplicate bus"):
        parse_network(doc)


def test_duplicate_branch_rejected():
    doc = netgen.chain_doc(3)
    doc["branches"][1]["id"] = doc["branches"][0]["id"]
    with pytest.raises(ValidationError, match="duplicate branch"):
        parse_network(doc)


def test_feeder_head_required_and_unique():
    doc = netgen.chain_doc(3)
    doc["buses"][0].pop("feeder_head")
    with pytest.raises(ValidationError, match="feeder_head"):
        parse_network(doc)
    doc["buses"][0]["feeder_head"] = True
    doc["buses"][1]["feeder_head"] = True
    with pytest.raises(ValidationError, match="feeder_head"):
        parse_network(doc)


def test_disconnected_network_rejected():
    doc = netgen.chain_doc(4)
    del doc["branches"][1]
    with pytest.raises(ValidationError, match="disconnected"):
        parse_network(doc)


def test_zero_impedance_closed_branch_rejected():
    doc = netgen.chain_doc(2)
    doc["branches"][0]["r"] = 0.0
    doc["branches"][0]["x"] = 0.0
    with pytest.raises(ValidationError, match="zero impedance"):
        parse_network(doc)


def test_branch_to_missing_phase_rejected():
    doc = netgen.chain_doc(2)
    doc["branches"][0]["to"]["phase"] = "B"
    with pytest.raises(ValidationError, match="no phase"):
        parse_network(doc)


def test_self_loop_rejected():
    doc = netgen.chain_doc(2)
    doc["branches"][0]["to"] = dict(doc["branches"][0]["from"])
    with pytest.raises(ValidationError, match="same node"):
        parse_network(doc)


def test_bad_phase_letter_rejected():
    doc = netgen.chain_doc(2)
    doc["buses"][0]["phases"] = ["D"]
    with pytest.raises(ValidationError, match="phases"):
        parse_network(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["buses"][1].update(phases=1), "bus 'b1': phases must be an array"),
        (lambda d: d["buses"][1].update(phases="A"), "bus 'b1': phases must be an array"),
        (lambda d: d["buses"][1].update(phases=[["A"]]), "bus 'b1': phases must be an array"),
        (lambda d: d["branches"][0]["to"].update(phase=["A"]),
         "branch 'l0' to: phase must be a phase name"),
        (lambda d: d["branches"][0]["from"].update(phase=1),
         "branch 'l0' from: phase must be a phase name"),
    ],
    ids=["phases-number", "phases-text", "phases-nested", "endpoint-list", "endpoint-number"],
)
def test_wrongly_typed_phase_rejected(edit, message):
    doc = netgen.chain_doc(4)
    edit(doc)
    with pytest.raises(ValidationError, match=message):
        parse_network(doc)


def test_load_network_invalid_json(tmp_path):
    p = tmp_path / "net.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_network(str(p))


def test_load_network_roundtrip(tmp_path):
    doc = netgen.chain_doc(4)
    p = tmp_path / "net.json"
    p.write_text(json.dumps(doc))
    model = load_network(str(p))
    assert model.n_nodes == 4


def test_adjacency_symmetric():
    model = netgen.model_from(netgen.tree_doc(12, seed=7, meshed_extra=2))
    g = model.bus_graph.toarray()
    assert np.array_equal(g, g.T)
    assert model.bus_graph.has_sorted_indices
    # The bus pairs of the nonzero off-diagonal Ybus entries.
    pos = {b.id: i for i, b in enumerate(model.buses)}
    bus_of = np.array([pos[nd.bus] for nd in model.nodes])
    rows, cols = np.nonzero(model.ybus)
    want = np.zeros_like(g)
    want[bus_of[rows], bus_of[cols]] = 1.0
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(g, want)


@pytest.mark.parametrize(
    "doc",
    [netgen.tree_doc(30, seed=4, meshed_extra=5), netgen.multiphase_feeder_doc()],
    ids=["meshed-tree", "multiphase"],
)
def test_node_graph_is_offdiagonal_ybus_pattern(doc):
    model = netgen.model_from(doc)
    g = model.node_graph
    assert g.has_sorted_indices
    dense = g.toarray()
    assert np.array_equal(dense, dense.T)
    pattern = (model.ybus != 0).astype(float)
    np.fill_diagonal(pattern, 0.0)
    assert np.array_equal(dense, pattern)


def test_neighbors_are_sorted_python_ints():
    model = netgen.model_from(netgen.multiphase_feeder_doc())
    for k in range(model.n_nodes):
        nbrs = model.neighbors(k)
        assert all(type(j) is int for j in nbrs)
        want = [j for j in np.flatnonzero(model.ybus[k]) if j != k]
        assert nbrs == want


def test_phase_node_cut_off_while_its_bus_stays_connected():
    doc = netgen.multiphase_feeder_doc()
    cut = {"bus": "675", "phase": "C"}
    doc["branches"] = [
        br for br in doc["branches"] if cut not in (br["from"], br["to"])
    ]
    with pytest.raises(ValidationError) as err:
        parse_network(doc)
    assert str(err.value) == (
        "disconnected graph: 1 node(s) unreachable from the feeder head, "
        "e.g. [('675', 'C')]"
    )


def test_restrict_keeps_internal_branches_only():
    model = netgen.model_from(netgen.chain_doc(6))
    sub, node_map = restrict(model, ["b2", "b3", "b4"], head="b2")
    assert sub.n_nodes == 3
    assert sub.n_closed_branches == 2
    assert sub.feeder_head == "b2"
    # The sub-model admittance equals the corresponding block of the full
    # matrix up to the boundary diagonals (which lose the cut branches).
    old = [model.node_of(f"b{i}", "A") for i in (2, 3, 4)]
    for i, oi in enumerate(old):
        for j, oj in enumerate(old):
            if i != j:
                assert sub.ybus[i, j] == pytest.approx(model.ybus[oi, oj])
    assert node_map[old[1]] == 1


def test_restrict_unknown_bus_rejected():
    model = netgen.model_from(netgen.chain_doc(3))
    with pytest.raises(ValidationError, match="unknown buses"):
        restrict(model, ["b1", "zz"])
