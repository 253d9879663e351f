import numpy as np
import pytest
from conftest import make_model, random_tree, reference_tree_lstm

from treecomment import autodiff as ad
from treecomment.encoder import encoder_gradient_check
from treecomment.trees import Node, TokenTypeTree


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def leaf_tree(node_type="string", tokens=("alpha", "beta")):
    return TokenTypeTree(nodes=(Node(0, node_type, tokens, ()),), grammar="wikisql")


def subtree(tree, root):
    """The subtree under node ``root``, renumbered in preorder."""
    order = []

    def visit(v):
        order.append(v)
        for c in tree.node(v).children:
            visit(c)

    visit(root)
    new = {old: i for i, old in enumerate(order)}
    return TokenTypeTree(nodes=tuple(
        Node(new[v], tree.node(v).type, tree.node(v).tokens,
             tuple(new[c] for c in tree.node(v).children)) for v in order),
        grammar=tree.grammar)


def typed_reference(tree, store, vocab, hidden_size, tied=False):
    """Every node's (h, c) by a per-node numpy composition that reads the
    typed parameters by name, node after node; independent of the batch
    plan and of the autodiff ops."""
    def p(name):
        return store[name].data

    h: dict = {}
    c: dict = {}
    for node in reversed(tree.nodes):
        ids = [vocab.id_of(t.lower()) for t in node.tokens]
        phi = p("enc.embed")[ids].mean(axis=0) if ids else np.zeros(hidden_size)
        kids = [(slot, tree.node(cid)) for slot, cid in enumerate(node.children, start=1)]

        def act(gate, w_type, u_name):
            total = p(f"enc.{gate}.W[type={w_type}]") @ phi + p(f"enc.{gate}.b[type={w_type}]")
            for slot, kid in kids:
                total = total + p(u_name(slot, kid.type)) @ h[kid.id]
            return total

        def gate_u(gate):
            return lambda slot, t: f"enc.{gate}.U[slot={slot}][type={t}]"

        i = sigmoid(act("i", node.type, gate_u("i")))
        o = sigmoid(act("o", node.type, gate_u("o")))
        u = np.tanh(act("u", node.type, gate_u("u")))
        cell = i * u
        for k, kid_k in kids:
            k_part = "" if tied else f"[k={k}]"
            forget = sigmoid(act("f", kid_k.type,
                                 lambda slot, t: f"enc.f.U[slot={slot}]{k_part}[type={t}]"))
            cell = cell + forget * c[kid_k.id]
        h[node.id] = o * np.tanh(cell)
        c[node.id] = cell
    return np.array([h[v] for v in range(len(tree))]), np.array([c[v] for v in range(len(tree))])


class TestEmbedNode:
    def test_single_token_is_its_row(self):
        _, encoder, _ = make_model()
        table = encoder.embed
        out = encoder.embed_nodes([("alpha",)])
        assert np.array_equal(out.data[0], table.data[encoder.vocab.id_of("alpha")])

    def test_empty_token_list_is_zero(self):
        _, encoder, _ = make_model()
        assert np.array_equal(encoder.embed_nodes([()]).data[0],
                              np.zeros(encoder.config.hidden_size))

    def test_two_tokens_average(self):
        _, encoder, _ = make_model()
        table = encoder.embed.data
        v = encoder.vocab
        out = encoder.embed_nodes([("alpha", "beta")])
        want = (table[v.id_of("alpha")] + table[v.id_of("beta")]) / 2.0
        assert np.allclose(out.data[0], want, atol=1e-15)

    def test_unknown_token_falls_back_to_unk(self):
        _, encoder, _ = make_model()
        table = encoder.embed.data
        out = encoder.embed_nodes([("neverseen",)])
        assert np.array_equal(out.data[0], table[3])


class TestEncodeTree:
    def test_all_zero_parameters_give_zero_states(self):
        store, encoder, _ = make_model()
        tree = random_tree(np.random.default_rng(0))
        encoder.encode(tree)
        for _, p in store.items():
            p.data[...] = 0.0
        out = encoder.encode(tree)
        assert np.array_equal(out.hidden.data, np.zeros_like(out.hidden.data))
        assert np.array_equal(out.cell.data, np.zeros_like(out.cell.data))

    def test_leaf_matches_single_cell_oracle(self):
        store, encoder, _ = make_model(seed=4)
        tree = leaf_tree()
        out = encoder.encode(tree)
        phi = encoder.embed_nodes([("alpha", "beta")]).data[0]

        def gate(g):
            return store[f"enc.{g}.W[type=string]"].data @ phi + \
                store[f"enc.{g}.b[type=string]"].data

        i, o, u = sigmoid(gate("i")), sigmoid(gate("o")), np.tanh(gate("u"))
        cell = i * u
        assert np.allclose(out.cell.data[0], cell, atol=1e-12)
        assert np.allclose(out.hidden.data[0], o * np.tanh(cell), atol=1e-12)

    def test_hidden_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(31)
        _, encoder, _ = make_model(seed=8)
        for _ in range(10):
            out = encoder.encode(random_tree(rng))
            assert np.all(np.abs(out.hidden.data) < 1.0)

    def test_type_change_changes_root_hidden(self):
        rng = np.random.default_rng(5)
        _, encoder, _ = make_model(seed=2)
        tree = random_tree(rng, max_depth=2)
        target = int(rng.integers(len(tree)))
        alt_type = "agg_op" if tree.node(target).type != "agg_op" else "cmp_op"
        nodes = list(tree.nodes)
        nodes[target] = Node(target, alt_type, nodes[target].tokens,
                             nodes[target].children)
        variant = TokenTypeTree(nodes=tuple(nodes), grammar=tree.grammar)
        a = encoder.encode(tree).root_hidden.data
        b = encoder.encode(variant).root_hidden.data
        assert np.linalg.norm(a - b) > 1e-8

    def test_swapping_children_changes_output(self):
        _, encoder, _ = make_model(seed=3)
        kids = (Node(1, "column_name", ("alpha",), ()),
                Node(2, "column_name", ("beta",), ()))
        tree = TokenTypeTree(nodes=(Node(0, "stmt", (), (1, 2)), *kids),
                             grammar="wikisql")
        swapped = TokenTypeTree(
            nodes=(Node(0, "stmt", (), (1, 2)),
                   Node(1, "column_name", ("beta",), ()),
                   Node(2, "column_name", ("alpha",), ())),
            grammar="wikisql")
        a = encoder.encode(tree).root_hidden.data
        b = encoder.encode(swapped).root_hidden.data
        assert np.linalg.norm(a - b) > 1e-8

    def test_independent_of_id_labelling(self):
        # same structure/types/tokens, ids assigned preorder vs level order
        preorder = TokenTypeTree(nodes=(
            Node(0, "stmt", ("SELECT",), (1, 3)),
            Node(1, "agg_op", ("alpha",), (2,)),
            Node(2, "column_name", ("beta",), ()),
            Node(3, "cond_expr", (), (4,)),
            Node(4, "string", ("gamma",), ()),
        ), grammar="wikisql")
        levelorder = TokenTypeTree(nodes=(
            Node(0, "stmt", ("SELECT",), (1, 2)),
            Node(1, "agg_op", ("alpha",), (3,)),
            Node(2, "cond_expr", (), (4,)),
            Node(3, "column_name", ("beta",), ()),
            Node(4, "string", ("gamma",), ()),
        ), grammar="wikisql")
        _, encoder, _ = make_model(seed=6)
        a = encoder.encode(preorder).root_hidden.data
        b = encoder.encode(levelorder).root_hidden.data
        assert np.array_equal(a, b)

    def test_deterministic(self):
        _, encoder, _ = make_model(seed=1)
        tree = random_tree(np.random.default_rng(2))
        a = encoder.encode(tree).root_hidden.data
        b = encoder.encode(tree).root_hidden.data
        assert np.array_equal(a, b)

    def test_arity_error(self):
        _, encoder, _ = make_model()
        nodes = [Node(0, "stmt", (), tuple(range(1, 6)))]
        nodes += [Node(i, "string", ("alpha",), ()) for i in range(1, 6)]
        tree = TokenTypeTree(nodes=tuple(nodes), grammar="wikisql")
        with pytest.raises(ValueError, match="arity"):
            encoder.encode(tree)

    def test_unknown_type_error(self):
        _, encoder, _ = make_model()
        tree = TokenTypeTree(nodes=(Node(0, "mystery", (), ()),), grammar="")
        with pytest.raises(KeyError, match="mystery"):
            encoder.encode(tree)


class TestUntypedAblation:
    def test_matches_type_blind_reference(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            store, encoder, _ = make_model(seed=seed, untyped=True)
            tree = random_tree(rng)
            got = encoder.encode(tree).root_hidden.data
            want = reference_tree_lstm(tree, store, encoder.vocab,
                                       encoder.config.hidden_size)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_type_change_is_invisible_bitwise(self):
        _, encoder, _ = make_model(seed=9, untyped=True)
        base = TokenTypeTree(nodes=(Node(0, "stmt", ("alpha",), (1,)),
                                    Node(1, "string", ("beta",), ())),
                             grammar="wikisql")
        variant = TokenTypeTree(nodes=(Node(0, "agg_op", ("alpha",), (1,)),
                                       Node(1, "cmp_op", ("beta",), ())),
                                grammar="wikisql")
        a = encoder.encode(base).root_hidden.data
        b = encoder.encode(variant).root_hidden.data
        assert np.array_equal(a, b)


class TestGradients:
    def test_one_node_tree(self):
        _, encoder, _ = make_model(seed=11)
        err = encoder_gradient_check(encoder, [leaf_tree()], epsilon=1e-3, order=4)
        assert err < 1e-4

    def test_golden_sql_tree(self):
        from treecomment.parsers import parse_sql
        _, encoder, _ = make_model(seed=12)
        tree = parse_sql("SELECT MAX(Capacity) FROM table WHERE Stadium = 'Otkrytie Arena'")
        err = encoder_gradient_check(encoder, [tree], epsilon=1e-3, order=4)
        assert err < 1e-4

    def test_zero_params_output_bias_grad_is_zero(self):
        # h = o * tanh(c); with every parameter zero, c = 0, so dh/db_o = 0
        store, encoder, _ = make_model(seed=13)
        tree = leaf_tree()
        encoder.encode(tree)
        for _, p in store.items():
            p.data[...] = 0.0
        store.zero_grads()
        ad.sumall(encoder.encode(tree).root_hidden).backward()
        assert np.array_equal(store["enc.o.b[type=string]"].grad,
                              np.zeros(encoder.config.hidden_size))

    def test_hidden_matrix_rows_align_with_ids(self):
        _, encoder, _ = make_model(seed=14)
        tree = random_tree(np.random.default_rng(3))
        out = encoder.encode(tree)
        assert out.hidden.shape == (len(tree), encoder.config.hidden_size)
        for node in tree.nodes:
            alone = encoder.encode(subtree(tree, node.id)).root_hidden.data
            assert np.allclose(out.hidden.data[node.id], alone, rtol=0.0, atol=1e-12)
        assert np.array_equal(out.root_hidden.data, out.hidden.data[tree.root])


class TestBatch:
    """``encode_batch`` runs one op over the trees of a batch; each tree's
    rows must equal what it gets alone, and the typed per-node reference."""

    @pytest.mark.parametrize("tied", [False, True])
    def test_typed_states_equal_per_node_reference(self, tied):
        rng = np.random.default_rng(41)
        store, encoder, _ = make_model(seed=15)
        encoder.config.tie_forget_slots = tied
        trees = [random_tree(rng, max_depth=4) for _ in range(6)]
        for tree, out in zip(trees, encoder.encode_batch(trees)):
            h, c = typed_reference(tree, store, encoder.vocab, encoder.config.hidden_size,
                                   tied=tied)
            assert np.allclose(out.hidden.data, h, rtol=0.0, atol=1e-12)
            assert np.allclose(out.cell.data, c, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("untyped", [False, True])
    def test_tree_in_a_batch_equals_tree_alone(self, untyped):
        rng = np.random.default_rng(43)
        store, encoder, _ = make_model(seed=16, untyped=untyped)
        trees = [random_tree(rng, max_depth=4) for _ in range(5)]

        def probe(out):
            # every node's state counts, with its own weight
            weights = np.linspace(0.5, 1.5, out.hidden.size).reshape(out.hidden.shape)
            return ad.add(ad.sumall(ad.mul(ad.tanh(out.hidden), ad.constant(weights))),
                          ad.sumall(ad.tanh(out.cell)))

        for k, tree in enumerate(trees):
            store.zero_grads()
            batched = encoder.encode_batch(trees)[k]
            probe(batched).backward()
            grads = {name: t.grad.copy() for name, t in store.items()}
            store.zero_grads()
            alone = encoder.encode(tree)
            probe(alone).backward()
            for got, want in ((batched.hidden, alone.hidden), (batched.cell, alone.cell)):
                assert np.allclose(got.data, want.data, rtol=0.0, atol=1e-12)
            for name, t in store.items():
                assert np.allclose(grads[name], t.grad, rtol=0.0, atol=1e-12), name

    def test_errors_before_any_parameter(self):
        store, encoder, _ = make_model()
        built = store.names()  # the embeddings and the decoder's weights
        good = random_tree(np.random.default_rng(4))
        wide = TokenTypeTree(nodes=(Node(0, "stmt", (), tuple(range(1, 6))),
                                    *(Node(i, "string", ("alpha",), ()) for i in range(1, 6))),
                             grammar="wikisql")
        with pytest.raises(ValueError, match="arity"):
            encoder.encode_batch([good, wide])
        assert store.names() == built

    def test_empty_batch(self):
        _, encoder, _ = make_model()
        assert encoder.encode_batch([]) == []


class TestEncoderTape:
    def test_batch_records_two_ops_plus_three_views_per_tree(self, monkeypatch):
        # the token means and the forest op, then per tree its hidden and
        # cell rows and its root row, whatever the tree count or size
        rng = np.random.default_rng(47)
        _, encoder, _ = make_model(seed=17)
        calls = []
        result = ad._result
        monkeypatch.setattr(ad, "_result", lambda *a, **k: calls.append(1) or result(*a, **k))
        for count, depth in ((1, 1), (3, 4), (10, 3)):
            trees = [random_tree(rng, max_depth=depth) for _ in range(count)]
            calls.clear()
            encoder.encode_batch(trees)
            assert len(calls) == 2 + 3 * count
