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
import math
import numbers
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
    carry externally meaningful numberings.  Construction checks the arena in
    one walk from the root.  Each node reached has an integer id in the arena
    and is a ``Split`` with an integer product >= 1 or a ``Leaf`` with an
    integer option >= 0 (a bool is not an integer, a numpy integer is); no
    product repeats on a path (such a split would be unreachable).  A node
    reached twice means a cycle, a second parent, identical children or a
    child that is the root; a node never reached is an orphan.

    Derived index sets are precomputed once:

    - ``split_ids`` / ``leaf_ids``: node ids in ascending order.
    - ``depth[s]``: split depth, root split = 1.
    - ``path[l]``: the root-first ``(split, went_left)`` pairs leading to leaf
      l; the leaf is reached exactly when the products of its left splits
      are offered and those of its right splits are not.

    ``arrays()`` gives the same tree as dense per-node lists, built on first
    use, for walks that read every node by position.

    The tree knows no capacity-row granularity; ``formulations.capacity_rows``
    groups the leaves of each branch into rows from the paths alone.
    """

    __slots__ = (
        "nodes",
        "root",
        "split_ids",
        "leaf_ids",
        "depth",
        "path",
        "_arrays",
    )

    def __init__(self, nodes: Mapping[int, Node], root: int):
        if root not in nodes:
            raise ValidationError(f"root id {root} not in arena")
        self.nodes = nodes = dict(nodes)
        self.root = root
        depth: dict[int, int] = {}
        paths: dict[int, tuple[tuple[int, bool], ...]] = {}
        splits: list[int] = []
        leaves: list[int] = []

        # Iterative DFS carrying the path (split id, went_left) and the set of
        # ancestor products; each node is checked when the walk reaches it.
        stack: list[tuple[int, tuple[tuple[int, bool], ...], frozenset[int]]] = [
            (root, (), frozenset())
        ]
        while stack:
            nid, path, anc = stack.pop()
            if nid not in nodes:
                raise ValidationError(f"split {path[-1][0]}: missing child {nid}")
            if type(nid) is not int and not _is_integer(nid):
                raise ValidationError(f"node id {nid!r} is not an integer")
            if nid in depth:
                raise ValidationError(f"node {nid} reached twice (cycle or DAG)")
            depth[nid] = len(path) + 1
            node = nodes[nid]
            if isinstance(node, Leaf):
                if type(node.option) is not int and not _is_integer(node.option):
                    raise ValidationError(
                        f"leaf {nid}: option {node.option!r} is not an integer"
                    )
                if node.option < 0:
                    raise ValidationError(f"leaf {nid}: option {node.option} < 0")
                leaves.append(nid)
                paths[nid] = path
            elif isinstance(node, Split):
                if type(node.product) is not int and not _is_integer(node.product):
                    raise ValidationError(
                        f"split {nid}: product {node.product!r} is not an integer"
                    )
                if node.product < 1:
                    raise ValidationError(f"split {nid}: product id {node.product} < 1")
                if node.product in anc:
                    raise ValidationError(
                        f"product {node.product} repeats on the path to split {nid}"
                    )
                splits.append(nid)
                anc2 = anc | {node.product}
                stack.append((node.right, path + ((nid, False),), anc2))
                stack.append((node.left, path + ((nid, True),), anc2))
            else:
                raise ValidationError(f"node {nid}: unknown node type {type(node)!r}")
        if len(depth) != len(nodes):
            orphans = [nid for nid in nodes if nid not in depth]
            raise ValidationError(f"unreachable nodes in arena: {orphans}")

        self.split_ids = tuple(sorted(splits))
        self.leaf_ids = tuple(sorted(leaves))
        self.depth = depth
        self.path = paths
        self._arrays = None

    def arrays(self) -> tuple[list[int], list[int], list[int], list[int], int]:
        """``(product, left, right, option, root)`` indexed by node position.

        Position k is the k-th node id in ascending order.  ``product[k]`` is
        0 at a leaf (products are >= 1), ``option[k]`` is the leaf's option
        and ``left[k]`` / ``right[k]`` the children's positions (0 at a
        leaf).  Built on first use and kept, so building a tree costs nothing
        more for callers that never walk it this way; threads that build it
        at once build equal arrays.
        """
        if self._arrays is None:
            order = sorted(self.nodes)
            pos = {nid: k for k, nid in enumerate(order)}
            product, left, right, option = ([0] * len(order) for _ in range(4))
            for k, nid in enumerate(order):
                node = self.nodes[nid]
                if isinstance(node, Leaf):
                    option[k] = node.option
                else:
                    product[k] = node.product
                    left[k] = pos[node.left]
                    right[k] = pos[node.right]
            self._arrays = (product, left, right, option, pos[self.root])
        return self._arrays

    def split_product(self, s: int) -> int:
        return self.nodes[s].product

    def leaf_option(self, l: int) -> int:
        return self.nodes[l].option

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PurchaseTree(root={self.root}, splits={len(self.split_ids)}, "
            f"leaves={len(self.leaf_ids)})"
        )


def _is_integer(v) -> bool:
    """An int or a numpy integer, but not a bool."""
    # plain ints skip the ABC test, which costs several times more
    if type(v) is int:
        return True
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_nonnegative(v, what: str) -> None:
    # NaN passes every comparison test, so non-finite floats are refused first
    if isinstance(v, bool) or (isinstance(v, float) and not math.isfinite(v)):
        raise ValidationError(f"{what} is not a finite number: {v!r}")
    if v < 0:
        raise ValidationError(f"{what} is negative")


@dataclass(frozen=True)
class ProductCatalog:
    """Product universe: ``n`` products with nonnegative marginal revenues."""

    n: int
    revenues: tuple[Number, ...]

    def __post_init__(self):
        if not _is_integer(self.n):
            raise ValidationError(f"catalog size n={self.n!r} is not an integer")
        if self.n < 1:
            raise ValidationError("catalog needs at least one product")
        if len(self.revenues) != self.n:
            raise ValidationError(
                f"expected {self.n} revenues, got {len(self.revenues)}"
            )
        for i, r in enumerate(self.revenues, start=1):
            _check_nonnegative(r, f"revenue of product {i}")

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
        for t, w in enumerate(self.weights):
            _check_nonnegative(w, f"weight of tree {t}")
        if abs(float(sum(self.weights)) - 1.0) > 1e-12:
            raise ValidationError("tree weights must sum to 1")


class AssortmentVector:
    """Per-product inclusion levels in [0, 1]; binary vectors are assortments."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Number]):
        vals = tuple(values)
        for i, v in enumerate(vals, start=1):
            if not (0 <= v <= 1):
                raise DomainError(f"x_{i} = {v} outside [0, 1]")
        self.values = vals

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
    a split exactly when its product is offered.  Requires binary levels.  An
    x too short for a product the walk tests raises DomainError; a too-long x
    is caught only by callers that hold a catalog.
    """
    vals = as_values(x)
    _check_binary(vals)
    try:
        return _walk(tree, vals)
    except IndexError:
        raise DomainError(
            f"assortment has {len(vals)} levels, too few for the tree"
        ) from None


def expected_revenue(catalog: ProductCatalog, forest: DecisionForest, x) -> Number:
    """Expected per-customer revenue of a binary assortment.

    The sum runs over the trees in order from ``total = 0``; the heuristics'
    incremental move scores repeat exactly this sum, so keep the two alike.
    """
    vals = as_values(x)
    check_size(catalog, vals)
    _check_binary(vals)
    total = 0
    for tree, w in zip(forest.trees, forest.weights):
        option, _ = _walk(tree, vals)
        total += w * catalog.revenue_of(option)
    return total


def check_size(catalog: ProductCatalog, vals) -> None:
    """Refuse an assortment that does not have one level per product."""
    if len(vals) != catalog.n:
        raise DomainError(f"assortment has {len(vals)} levels for n={catalog.n}")


def check_cardinality(n: int, cardinality: int | None) -> None:
    """Refuse a cardinality limit that is not an integer in 0..n.

    ``None`` means no limit; a bool is not a count.
    """
    if cardinality is None:
        return
    if not _is_integer(cardinality):
        raise DomainError(f"cardinality must be an integer, got {cardinality!r}")
    if not 0 <= cardinality <= n:
        raise DomainError(f"cardinality {cardinality} out of range 0..{n}")


def _leaf_masks(catalog, tree, n):
    """Per-leaf (must-have mask, must-not-have mask, revenue).

    Bit layout puts product 1 at the most significant of n bits so that an
    ascending integer scan enumerates assortment vectors in lexicographic
    order.
    """
    rows = []
    for l in tree.leaf_ids:
        in_mask = out_mask = 0
        for s, went_left in tree.path[l]:
            bit = 1 << (n - tree.split_product(s))
            if went_left:
                in_mask |= bit
            else:
                out_mask |= bit
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
    if isinstance(v, bool):
        raise ValidationError("booleans are not numbers here")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        if "/" in v:
            return Fraction(v)
        if "." in v or "e" in v or "E" in v:
            return Fraction(v)
        return int(v)
    raise ValidationError(f"cannot parse number {v!r}")


def _json_integer(value):
    """A JSON number with an integral value as an int; anything else as is."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _integer_from_json(name: str, value) -> int:
    """An instance's integer field: an int, or an integral number such as 4.0."""
    value = _json_integer(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value


def _tree_to_obj(tree: PurchaseTree) -> dict:
    product, left, right, option, root = tree.arrays()
    out = [
        {"split": {"product": p, "left": l, "right": r}} if p  # products are >= 1
        else {"leaf": {"option": o}}
        for p, l, r, o in zip(product, left, right, option)
    ]
    return {"nodes": out, "root": root}


def _tree_from_obj(obj) -> PurchaseTree:
    nodes: dict[int, Node] = {}
    for i, entry in enumerate(obj["nodes"]):
        if "split" in entry:
            s = entry["split"]
            nodes[i] = Split(
                *(_integer_from_json(k, s[k]) for k in ("product", "left", "right"))
            )
        elif "leaf" in entry:
            nodes[i] = Leaf(_integer_from_json("option", entry["leaf"]["option"]))
        else:
            raise ValidationError(f"node {i}: neither split nor leaf")
    return PurchaseTree(nodes, _integer_from_json("root", obj["root"]))


def instance_to_json(catalog: ProductCatalog, forest: DecisionForest) -> str:
    obj = {
        "n": catalog.n,
        "revenues": [_number_to_json(r, as_string=True) for r in catalog.revenues],
        "trees": [_tree_to_obj(t) for t in forest.trees],
        "lambda": [_number_to_json(w, as_string=False) for w in forest.weights],
    }
    return json.dumps(obj, indent=2) + "\n"


def instance_from_json(text: str) -> tuple[ProductCatalog, DecisionForest]:
    """Parse an instance; malformed content raises ``ValidationError``."""
    obj = json.loads(text)
    try:
        catalog = ProductCatalog(
            n=_integer_from_json("n", obj["n"]),
            revenues=tuple(_number_from_json(r) for r in obj["revenues"]),
        )
        forest = DecisionForest(
            trees=tuple(_tree_from_obj(t) for t in obj["trees"]),
            weights=tuple(_number_from_json(w) for w in obj["lambda"]),
        )
    except KeyError as exc:
        raise ValidationError(f"instance is missing the key {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed instance: {exc}") from None
    validate_instance(catalog, forest)
    return catalog, forest
