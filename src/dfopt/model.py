"""Core domain model: catalogs, purchase decision trees, forests, evaluation.

A purchase decision tree maps an assortment (subset of the n products) to a
purchase option by walking from the root: a split node tests one product and
the walk goes left when that product is offered, right otherwise.  Leaves name
the purchased option; option 0 is the no-purchase option with revenue 0.  A
decision forest is a probability distribution over such trees, one tree per
customer type, and the expected revenue of an assortment is the
probability-weighted revenue of the options the trees select.

All types here are immutable after construction and evaluation is pure, so
everything in this module is safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import DomainError, SizeGuardError, ValidationError

Number = Union[int, float, Fraction]

NO_PURCHASE = 0

#: Exhaustive enumeration refuses instances with more products than this.
BRUTE_FORCE_MAX_PRODUCTS = 25


@dataclass(frozen=True)
class Split:
    """Internal node: tests whether ``product`` is offered."""

    product: int
    left: int
    right: int


@dataclass(frozen=True)
class Leaf:
    """Terminal node carrying the purchase option (0 = no purchase)."""

    option: int


Node = Union[Split, Leaf]


class PurchaseTree:
    """A rooted binary purchase decision tree stored in an id-indexed arena.

    Node ids are arbitrary integers (the arena is a mapping), so trees can
    carry externally meaningful numberings.  Construction validates the
    structure and rejects trees where a product appears on two splits of the
    same root-to-leaf path; such splits would be unreachable.

    Derived index sets are precomputed once:

    - ``split_ids`` / ``leaf_ids``: node ids in ascending order.
    - ``depth[s]``: split depth, root split = 1; ``max_depth``.
    - ``left_leaves[s]`` / ``right_leaves[s]``: leaves under each branch.
    - ``left_splits[l]`` / ``right_splits[l]``: splits a leaf lies left/right
      of, ordered root-first.
    - ``products``: products appearing on any split; ``product_left_leaves`` /
      ``product_right_leaves`` aggregate branch leaves per product.
    - ``leaf_in_products[l]`` / ``leaf_out_products[l]``: products that must
      be offered / not offered for the leaf to be reached.
    """

    __slots__ = (
        "nodes",
        "root",
        "split_ids",
        "leaf_ids",
        "depth",
        "max_depth",
        "splits_at_depth",
        "left_leaves",
        "right_leaves",
        "left_splits",
        "right_splits",
        "products",
        "product_left_leaves",
        "product_right_leaves",
        "leaf_in_products",
        "leaf_out_products",
    )

    def __init__(self, nodes: Mapping[int, Node], root: int):
        nodes = dict(nodes)
        if root not in nodes:
            raise ValidationError(f"root id {root} not in arena")
        for nid, node in nodes.items():
            if not isinstance(nid, int):
                raise ValidationError(f"node id {nid!r} is not an integer")
            if isinstance(node, Split):
                if node.product < 1:
                    raise ValidationError(f"split {nid}: product id {node.product} < 1")
                for child in (node.left, node.right):
                    if child not in nodes:
                        raise ValidationError(f"split {nid}: missing child {child}")
            elif isinstance(node, Leaf):
                if node.option < 0:
                    raise ValidationError(f"leaf {nid}: option {node.option} < 0")
            else:
                raise ValidationError(f"node {nid}: unknown node type {type(node)!r}")

        parents: dict[int, int] = {}
        for nid, node in nodes.items():
            if isinstance(node, Split):
                if node.left == node.right:
                    raise ValidationError(f"split {nid}: identical children")
                for child in (node.left, node.right):
                    if child == root:
                        raise ValidationError("root has a parent")
                    if child in parents:
                        raise ValidationError(f"node {child} has two parents")
                    parents[child] = nid

        self.nodes = nodes
        self.root = root

        depth: dict[int, int] = {}
        left_splits: dict[int, tuple[int, ...]] = {}
        right_splits: dict[int, tuple[int, ...]] = {}
        left_leaves: dict[int, list[int]] = {}
        right_leaves: dict[int, list[int]] = {}
        splits: list[int] = []
        leaves: list[int] = []

        # Iterative DFS carrying the path (split id, went_left) and the set of
        # ancestor products, which also enforces the no-repeat assumption.
        stack: list[tuple[int, tuple[tuple[int, bool], ...], frozenset[int]]] = [
            (root, (), frozenset())
        ]
        visited: set[int] = set()
        while stack:
            nid, path, anc = stack.pop()
            if nid in visited:
                raise ValidationError(f"node {nid} reachable twice (cycle or DAG)")
            visited.add(nid)
            node = nodes[nid]
            depth[nid] = len(path) + 1
            if isinstance(node, Leaf):
                leaves.append(nid)
                left_splits[nid] = tuple(s for s, went_left in path if went_left)
                right_splits[nid] = tuple(s for s, went_left in path if not went_left)
                for s, went_left in path:
                    (left_leaves if went_left else right_leaves)[s].append(nid)
            else:
                if node.product in anc:
                    raise ValidationError(
                        f"product {node.product} repeats on the path to split {nid}"
                    )
                splits.append(nid)
                left_leaves[nid] = []
                right_leaves[nid] = []
                anc2 = anc | {node.product}
                stack.append((node.right, path + ((nid, False),), anc2))
                stack.append((node.left, path + ((nid, True),), anc2))
        if len(visited) != len(nodes):
            orphans = sorted(set(nodes) - visited)
            raise ValidationError(f"unreachable nodes in arena: {orphans}")

        self.split_ids = tuple(sorted(splits))
        self.leaf_ids = tuple(sorted(leaves))
        self.depth = depth
        self.max_depth = max((depth[s] for s in splits), default=0)
        by_depth: dict[int, list[int]] = {}
        for s in self.split_ids:
            by_depth.setdefault(depth[s], []).append(s)
        self.splits_at_depth = {d: tuple(v) for d, v in sorted(by_depth.items())}
        self.left_leaves = {s: tuple(sorted(v)) for s, v in left_leaves.items()}
        self.right_leaves = {s: tuple(sorted(v)) for s, v in right_leaves.items()}
        self.left_splits = left_splits
        self.right_splits = right_splits

        prod_left: dict[int, list[int]] = {}
        prod_right: dict[int, list[int]] = {}
        for s in self.split_ids:
            p = nodes[s].product
            prod_left.setdefault(p, []).extend(self.left_leaves[s])
            prod_right.setdefault(p, []).extend(self.right_leaves[s])
        self.products = tuple(sorted(prod_left))
        self.product_left_leaves = {p: tuple(sorted(v)) for p, v in prod_left.items()}
        self.product_right_leaves = {p: tuple(sorted(v)) for p, v in prod_right.items()}
        self.leaf_in_products = {
            l: tuple(sorted(nodes[s].product for s in left_splits[l]))
            for l in self.leaf_ids
        }
        self.leaf_out_products = {
            l: tuple(sorted(nodes[s].product for s in right_splits[l]))
            for l in self.leaf_ids
        }

    def split_product(self, s: int) -> int:
        return self.nodes[s].product

    def leaf_option(self, l: int) -> int:
        return self.nodes[l].option

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PurchaseTree(root={self.root}, splits={len(self.split_ids)}, "
            f"leaves={len(self.leaf_ids)})"
        )


@dataclass(frozen=True)
class ProductCatalog:
    """Product universe: ``n`` products with nonnegative marginal revenues."""

    n: int
    revenues: tuple[Number, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("catalog needs at least one product")
        if len(self.revenues) != self.n:
            raise ValidationError(
                f"expected {self.n} revenues, got {len(self.revenues)}"
            )
        for i, r in enumerate(self.revenues, start=1):
            if r < 0:
                raise ValidationError(f"revenue of product {i} is negative")

    def revenue_of(self, option: int) -> Number:
        """Marginal revenue of an option; the no-purchase option yields 0."""
        if option == NO_PURCHASE:
            return 0
        return self.revenues[option - 1]

    def leaf_revenue(self, tree: PurchaseTree, leaf: int) -> Number:
        return self.revenue_of(tree.leaf_option(leaf))


@dataclass(frozen=True)
class DecisionForest:
    """Probability distribution over purchase decision trees."""

    trees: tuple[PurchaseTree, ...]
    weights: tuple[Number, ...]

    def __post_init__(self):
        if not self.trees:
            raise ValidationError("forest needs at least one tree")
        if len(self.weights) != len(self.trees):
            raise ValidationError("one weight per tree required")
        for w in self.weights:
            if w < 0:
                raise ValidationError("tree weights must be nonnegative")
        if abs(float(sum(self.weights)) - 1.0) > 1e-12:
            raise ValidationError("tree weights must sum to 1")


class AssortmentVector:
    """Per-product inclusion levels in [0, 1]; binary vectors are assortments."""

    __slots__ = ("values", "is_binary")

    def __init__(self, values: Sequence[Number]):
        vals = tuple(values)
        for i, v in enumerate(vals, start=1):
            if not (0 <= v <= 1):
                raise DomainError(f"x_{i} = {v} outside [0, 1]")
        self.values = vals
        self.is_binary = all(v == 0 or v == 1 for v in vals)

    @classmethod
    def from_set(cls, n: int, included: Iterable[int]) -> "AssortmentVector":
        inc = set(included)
        bad = [i for i in inc if not 1 <= i <= n]
        if bad:
            raise DomainError(f"product ids out of range: {sorted(bad)}")
        return cls(tuple(1 if i in inc else 0 for i in range(1, n + 1)))

    def support(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.values, start=1) if v == 1)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, AssortmentVector) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AssortmentVector({list(self.values)!r})"


def as_values(x) -> tuple[Number, ...]:
    """Accept an AssortmentVector or a plain sequence of levels."""
    if isinstance(x, AssortmentVector):
        return x.values
    return tuple(x)


def validate_instance(catalog: ProductCatalog, forest: DecisionForest) -> None:
    """Check cross-references: every product/option id fits the catalog."""
    for t, tree in enumerate(forest.trees):
        for s in tree.split_ids:
            if tree.split_product(s) > catalog.n:
                raise ValidationError(
                    f"tree {t}: split product {tree.split_product(s)} > n={catalog.n}"
                )
        for l in tree.leaf_ids:
            if tree.leaf_option(l) > catalog.n:
                raise ValidationError(
                    f"tree {t}: leaf option {tree.leaf_option(l)} > n={catalog.n}"
                )


def _check_binary(vals) -> None:
    for v in vals:
        if v != 0 and v != 1:
            raise DomainError(f"traverse requires binary levels, got x={v!r}")


def _walk(tree: PurchaseTree, vals) -> tuple[int, int]:
    """``traverse`` without the check on ``vals``, for callers that made it."""
    node_id = tree.root
    while True:
        node = tree.nodes[node_id]
        if isinstance(node, Leaf):
            return node.option, node_id
        node_id = node.left if vals[node.product - 1] == 1 else node.right


def traverse(tree: PurchaseTree, x) -> tuple[int, int]:
    """Walk a binary assortment down the tree.

    Returns ``(option, leaf_id)`` for the unique leaf reached by going left at
    a split exactly when its product is offered.  Requires binary levels.
    """
    vals = as_values(x)
    _check_binary(vals)
    return _walk(tree, vals)


def choice_probability(forest: DecisionForest, option: int, x) -> Number:
    """Probability that a random customer picks ``option`` from assortment x."""
    vals = as_values(x)
    if option != NO_PURCHASE:
        if not 1 <= option <= len(vals):
            raise DomainError(f"option {option} out of range")
        if vals[option - 1] != 1:
            raise DomainError(f"option {option} is not offered")
    _check_binary(vals)
    total = 0
    for tree, w in zip(forest.trees, forest.weights):
        picked, _ = _walk(tree, vals)
        if picked == option:
            total += w
    return total


def expected_revenue(catalog: ProductCatalog, forest: DecisionForest, x) -> Number:
    """Expected per-customer revenue of a binary assortment.

    The sum runs over the trees in order from ``total = 0``; the heuristics'
    incremental move scores repeat exactly this sum, so keep the two alike.
    """
    vals = as_values(x)
    _check_binary(vals)
    total = 0
    for tree, w in zip(forest.trees, forest.weights):
        option, _ = _walk(tree, vals)
        total += w * catalog.revenue_of(option)
    return total


def check_cardinality(n: int, cardinality: int | None) -> None:
    """Refuse a cardinality limit outside 0..n; ``None`` means no limit."""
    if cardinality is not None and not 0 <= cardinality <= n:
        raise DomainError(f"cardinality {cardinality} out of range 0..{n}")


def _leaf_masks(catalog, tree, n):
    """Per-leaf (must-have mask, must-not-have mask, revenue).

    Bit layout puts product 1 at the most significant of n bits so that an
    ascending integer scan enumerates assortment vectors in lexicographic
    order.
    """
    rows = []
    for l in tree.leaf_ids:
        in_mask = 0
        for p in tree.leaf_in_products[l]:
            in_mask |= 1 << (n - p)
        out_mask = 0
        for p in tree.leaf_out_products[l]:
            out_mask |= 1 << (n - p)
        rows.append((in_mask, out_mask, catalog.leaf_revenue(tree, l)))
    return rows


def brute_force_optimal(
    catalog: ProductCatalog,
    forest: DecisionForest,
    cardinality: int | None = None,
) -> tuple[AssortmentVector, Number]:
    """Exhaustive optimum over all assortments.

    Ties are broken toward the lexicographically smallest binary vector.
    Refuses instances with n > BRUTE_FORCE_MAX_PRODUCTS.
    """
    n = catalog.n
    if n > BRUTE_FORCE_MAX_PRODUCTS:
        raise SizeGuardError(
            f"n={n} exceeds exhaustive-search guard ({BRUTE_FORCE_MAX_PRODUCTS})"
        )
    check_cardinality(n, cardinality)
    per_tree = [_leaf_masks(catalog, tree, n) for tree in forest.trees]
    weights = forest.weights

    best_mask = None
    best_value = None
    for mask in range(1 << n):
        if cardinality is not None and mask.bit_count() != cardinality:
            continue
        value = 0
        for rows, w in zip(per_tree, weights):
            for in_mask, out_mask, rev in rows:
                if (mask & in_mask) == in_mask and not (mask & out_mask):
                    value += w * rev
                    break
        if best_value is None or value > best_value:
            best_value = value
            best_mask = mask
    if best_mask is None:
        raise DomainError("no assortment satisfies the cardinality constraint")
    vals = tuple((best_mask >> (n - i)) & 1 for i in range(1, n + 1))
    return AssortmentVector(vals), best_value


# ---------------------------------------------------------------------------
# Canonical JSON instance format
# ---------------------------------------------------------------------------
#
# {"n": int,
#  "revenues": ["97", ...],                       # decimal or "p/q" strings
#  "trees": [{"nodes": [{"split": {"product": i, "left": id, "right": id}}
#                       | {"leaf": {"option": j}}, ...],
#             "root": id}, ...],                  # ids are list positions
#  "lambda": [..]}                                # floats, or "p/q" strings
#
# Serialization is canonical (fixed key order, 2-space indent), so identical
# instances round-trip to identical bytes.


def _fraction_str(q: Fraction) -> str:
    """Exact decimal expansion when terminating, else "p/q"."""
    den = q.denominator
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{q.numerator}/{q.denominator}"
    k = max(twos, fives)
    scaled = q.numerator * 10**k // den
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    if k == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def _number_to_json(v: Number, as_string: bool):
    if isinstance(v, bool):
        raise ValidationError("booleans are not numbers here")
    if isinstance(v, int):
        return str(v) if as_string else v
    if isinstance(v, Fraction):
        return _fraction_str(v)
    if isinstance(v, float):
        return repr(v) if as_string else v
    raise ValidationError(f"cannot serialize number {v!r}")


def _number_from_json(v) -> Number:
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        if "/" in v:
            return Fraction(v)
        if "." in v or "e" in v or "E" in v:
            return Fraction(v)
        return int(v)
    raise ValidationError(f"cannot parse number {v!r}")


def _tree_to_obj(tree: PurchaseTree) -> dict:
    order = sorted(tree.nodes)
    pos = {nid: i for i, nid in enumerate(order)}
    out = []
    for nid in order:
        node = tree.nodes[nid]
        if isinstance(node, Split):
            out.append(
                {
                    "split": {
                        "product": node.product,
                        "left": pos[node.left],
                        "right": pos[node.right],
                    }
                }
            )
        else:
            out.append({"leaf": {"option": node.option}})
    return {"nodes": out, "root": pos[tree.root]}


def _tree_from_obj(obj) -> PurchaseTree:
    nodes: dict[int, Node] = {}
    for i, entry in enumerate(obj["nodes"]):
        if "split" in entry:
            s = entry["split"]
            nodes[i] = Split(int(s["product"]), int(s["left"]), int(s["right"]))
        elif "leaf" in entry:
            nodes[i] = Leaf(int(entry["leaf"]["option"]))
        else:
            raise ValidationError(f"node {i}: neither split nor leaf")
    return PurchaseTree(nodes, int(obj["root"]))


def instance_to_json(catalog: ProductCatalog, forest: DecisionForest) -> str:
    obj = {
        "n": catalog.n,
        "revenues": [_number_to_json(r, as_string=True) for r in catalog.revenues],
        "trees": [_tree_to_obj(t) for t in forest.trees],
        "lambda": [_number_to_json(w, as_string=False) for w in forest.weights],
    }
    return json.dumps(obj, indent=2) + "\n"


def instance_from_json(text: str) -> tuple[ProductCatalog, DecisionForest]:
    obj = json.loads(text)
    catalog = ProductCatalog(
        n=int(obj["n"]),
        revenues=tuple(_number_from_json(r) for r in obj["revenues"]),
    )
    forest = DecisionForest(
        trees=tuple(_tree_from_obj(t) for t in obj["trees"]),
        weights=tuple(_number_from_json(w) for w in obj["lambda"]),
    )
    validate_instance(catalog, forest)
    return catalog, forest
