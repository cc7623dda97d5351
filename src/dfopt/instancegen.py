"""Synthetic instance generators and the 3-CNF reduction.

Three tree families are supported:

- T1: balanced depth-d trees; one product per depth level, the d products
  drawn without replacement, so products repeat heavily across splits.
- T2: balanced depth-d trees; each split draws its product independently,
  excluding only the products on its ancestor splits.
- T3: unbalanced trees grown by L-1 uniform leaf expansions.

Leaf options are always drawn uniformly from the products known to be offered
when the leaf is reached, plus the no-purchase option, so traversal never
returns an option outside the assortment.  Tree weights are uniform on the
probability simplex (normalized exponential draws) and revenues are uniform
integers.

Reproducibility: all randomness flows through one numpy PCG64 generator per
instance, and the draws are the contract.  Per tree: the split products (T1:
a partial Fisher-Yates pass; T2: one per split in heap order; T3: per
expansion, the leaf among the expandable ones left to right, then its
product), then one option per leaf in ascending id; then the weights and the
revenues.  A choice among k items is one ``rng.integers(0, k)`` draw.  A
split's product is the rank-j product not on its ancestor splits, found by
stepping over the sorted ancestors instead of listing the allowed products.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError
from .model import (
    DecisionForest,
    Leaf,
    Node,
    ProductCatalog,
    PurchaseTree,
    Split,
    _json_integer,
)


def _check_integer(name: str, value, least: int) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class TreeShape:
    """Shape selector: kind in {"t1", "t2", "t3"} with depth or leaf count."""

    kind: str
    depth: int | None = None
    leaves: int | None = None

    def __post_init__(self):
        if self.kind in ("t1", "t2"):
            _check_integer(f"{self.kind} depth", self.depth, 1)
        elif self.kind == "t3":
            _check_integer("t3 leaves", self.leaves, 2)
        else:
            raise ConfigError(f"unknown tree shape {self.kind!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    num_trees: int
    shape: TreeShape
    revenue_range: tuple[int, int] = (1, 100)
    seed: int = 0

    def __post_init__(self):
        _check_integer("n", self.n, 1)
        _check_integer("num_trees", self.num_trees, 1)
        _check_integer("seed", self.seed, 0)
        lo, hi = self.revenue_range
        _check_integer("revenue_range", lo, 0)
        _check_integer("revenue_range", hi, 0)
        if lo > hi:
            raise ConfigError(f"empty revenue range {self.revenue_range}")
        if self.shape.kind in ("t1", "t2") and self.n < self.shape.depth:
            raise ConfigError(
                f"{self.shape.kind} depth {self.shape.depth} needs n >= depth"
            )
        # no product repeats on a path, so a tree has at most 2**n leaves
        if self.shape.kind == "t3" and (self.shape.leaves - 1).bit_length() > self.n:
            raise ConfigError(
                f"cannot grow to {self.shape.leaves} leaves with n={self.n} products"
            )

    @classmethod
    def from_obj(cls, obj: dict) -> "GeneratorConfig":
        """Parse a config object; malformed content raises ``ConfigError``."""
        try:
            shape_obj = obj["shape"]
            shape = TreeShape(
                kind=str(shape_obj["type"]).lower(),
                depth=_json_integer(shape_obj.get("depth")),
                leaves=_json_integer(shape_obj.get("leaves")),
            )
            rr = obj.get("revenue_range", [1, 100])
            return cls(
                n=_json_integer(obj["n"]),
                num_trees=_json_integer(obj["num_trees"]),
                shape=shape,
                revenue_range=(_json_integer(rr[0]), _json_integer(rr[1])),
                seed=_json_integer(obj.get("seed", 0)),
            )
        except KeyError as exc:
            raise ConfigError(f"generator config is missing the key {exc}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed generator config: {exc}") from None


def sample_without_replacement(rng, pool: list[int], k: int) -> list[int]:
    """First k entries of a partial Fisher-Yates shuffle of ``pool`` (copied)."""
    pool = list(pool)
    if k > len(pool):
        raise ConfigError(f"cannot draw {k} items from {len(pool)}")
    for i in range(k):
        j = int(rng.integers(i, len(pool)))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def _choice(rng, seq):
    return seq[int(rng.integers(0, len(seq)))]


def _draw_product(rng, n: int, ancestors: tuple[int, ...]) -> int:
    """``_choice`` among the products 1..n not in the sorted ``ancestors``."""
    p = int(rng.integers(0, n - len(ancestors))) + 1
    for a in ancestors:
        if a > p:
            break
        p += 1
    return p


_PLACEHOLDER = Leaf(option=0)


def assign_leaf_options(tree_nodes: dict[int, Node], root: int, rng) -> PurchaseTree:
    """Fill placeholder leaves with options consistent with their path.

    A leaf's candidate set is the products on splits the leaf lies left of,
    plus the no-purchase option; leaves with no left splits get option 0.
    Leaves are visited in ascending node id so draws are reproducible.  An
    arena that is not a tree raises ``PurchaseTree``'s ``ValidationError``.
    """
    offered: dict[int, list[int]] = {}
    stack, visits = [(root, [])], len(tree_nodes)  # a tree's walk visits each once
    while stack:
        nid, products = stack.pop()
        visits -= 1
        node = tree_nodes.get(nid) if visits >= 0 and isinstance(nid, int) else None
        if isinstance(node, Split):
            stack += [(node.left, products + [node.product]), (node.right, products)]
        elif isinstance(node, Leaf) and node.option >= 0:
            offered[nid] = products
        else:  # not a tree of splits and leaves: raise the arena's own error
            PurchaseTree(tree_nodes, root)
    filled = dict(tree_nodes)
    for l in sorted(offered):
        filled[l] = Leaf(_choice(rng, sorted(offered[l]) + [0]))
    return PurchaseTree(filled, root)


def _gen_balanced_tree(config: GeneratorConfig, rng, per_level: bool) -> PurchaseTree:
    """Perfect tree with heap ids: node k has children 2k, 2k+1; root 1."""
    d = config.shape.depth
    nodes: dict[int, Node] = {}
    if per_level:
        levels = sample_without_replacement(rng, list(range(1, config.n + 1)), d)
        for k in range(1, 1 << d):  # heap id k sits at depth bit_length(k)
            nodes[k] = Split(levels[k.bit_length() - 1], 2 * k, 2 * k + 1)
    else:
        for k in range(1, 1 << d):  # its ancestors are k >> 1, k >> 2, ..., 1
            anc = tuple(sorted(nodes[k >> i].product for i in range(1, k.bit_length())))
            nodes[k] = Split(_draw_product(rng, config.n, anc), 2 * k, 2 * k + 1)
    nodes.update(dict.fromkeys(range(1 << d, 2 << d), _PLACEHOLDER))
    return assign_leaf_options(nodes, 1, rng)


def _gen_t3_tree(config: GeneratorConfig, rng) -> PurchaseTree:
    n, target = config.n, config.shape.leaves
    nodes: dict[int, Node] = {0: _PLACEHOLDER}
    ancestors: dict[int, tuple[int, ...]] = {0: ()}
    leaf_list: list[int] = [0]
    while len(leaf_list) < target:
        if n >= target - 1:  # an open leaf has depth < target - 1: all expandable
            pos = int(rng.integers(0, len(leaf_list)))
        else:
            # not empty: all leaves at depth n would be 2**n >= target leaves
            expandable = [l for l in leaf_list if len(ancestors[l]) < n]
            pos = leaf_list.index(_choice(rng, expandable))
        leaf = leaf_list[pos]
        anc = ancestors.pop(leaf)
        product = _draw_product(rng, n, anc)
        left_id, right_id = len(nodes), len(nodes) + 1  # ids are 0..len - 1
        nodes[leaf] = Split(product, left_id, right_id)
        nodes[left_id] = nodes[right_id] = _PLACEHOLDER
        ancestors[left_id] = ancestors[right_id] = tuple(sorted(anc + (product,)))
        leaf_list[pos : pos + 1] = [left_id, right_id]
    return assign_leaf_options(nodes, 0, rng)


def gen_lambda(num_trees: int, rng) -> tuple[float, ...]:
    """Uniform draw from the probability simplex via normalized exponentials."""
    if num_trees < 1:
        raise ConfigError("num_trees must be >= 1")
    draws = rng.exponential(1.0, size=num_trees)
    total = float(draws.sum())
    return tuple(float(v) / total for v in draws)


def gen_revenues(n: int, revenue_range: tuple[int, int], rng) -> tuple[int, ...]:
    lo, hi = revenue_range
    return tuple(int(v) for v in rng.integers(lo, hi + 1, size=n))


def generate_instance(config: GeneratorConfig) -> tuple[ProductCatalog, DecisionForest]:
    """Forest plus revenues from one seeded stream (trees, weights, revenues)."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    kind = config.shape.kind
    trees = tuple(
        _gen_t3_tree(config, rng)
        if kind == "t3"
        else _gen_balanced_tree(config, rng, per_level=kind == "t1")
        for _ in range(config.num_trees)
    )
    forest = DecisionForest(trees=trees, weights=gen_lambda(config.num_trees, rng))
    revenues = gen_revenues(config.n, config.revenue_range, rng)
    return ProductCatalog(n=config.n, revenues=revenues), forest


# ---------------------------------------------------------------------------
# MAX-3SAT reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cnf3Formula:
    """3-CNF formula: clauses are triples of signed literals over distinct vars."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...] = field(default=())

    def __post_init__(self):
        if self.num_vars < 1:
            raise DomainError("formula needs at least one variable")
        if not self.clauses:
            raise DomainError("formula needs at least one clause")
        for m, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise DomainError(f"clause {m} does not have 3 literals")
            vars_ = [abs(lit) for lit in clause]
            if len(set(vars_)) != 3:
                raise DomainError(f"clause {m} repeats a variable")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise DomainError(f"clause {m}: literal {lit} out of range")

    def satisfied_count(self, assignment: Iterable[bool]) -> int:
        truth = list(assignment)
        count = 0
        for clause in self.clauses:
            for lit in clause:
                val = truth[abs(lit) - 1]
                if (lit > 0 and val) or (lit < 0 and not val):
                    count += 1
                    break
        return count


def _clause_tree(clause: tuple[int, int, int], signal_product: int) -> PurchaseTree:
    """One tree per clause: buying the signal product encodes satisfaction.

    The root tests the signal product (right child: no purchase).  Below it,
    a chain of three splits tests the clause variables; the branch on which
    the literal evaluates true leads to a leaf buying the signal product, the
    other branch falls through to the next literal, and the final
    fall-through leaf is a no-purchase.

    Node ids: root 0, its no-purchase leaf 1; literal k tests at split
    2 + 2k with its satisfying leaf at 3 + 2k, and the final fall-through
    leaf is 8.
    """
    nodes: dict[int, Node] = {0: Split(signal_product, left=2, right=1), 1: Leaf(0)}
    for k, lit in enumerate(clause):
        split, sat, cont = 2 + 2 * k, 3 + 2 * k, 4 + 2 * k
        left, right = (sat, cont) if lit > 0 else (cont, sat)
        nodes[split] = Split(abs(lit), left, right)
        nodes[sat] = Leaf(signal_product)
    nodes[8] = Leaf(0)
    return PurchaseTree(nodes, root=0)


def max3sat_to_instance(
    formula: Cnf3Formula,
) -> tuple[ProductCatalog, DecisionForest]:
    """Assortment instance whose optimum is (max satisfiable clauses)/M.

    Products 1..K mirror the variables (revenue 0); product K+1 has revenue 1
    and must be offered for any revenue to accrue.  With K+1 offered, the
    expected revenue of an assortment equals the fraction of clauses the
    induced assignment satisfies; weights are exact rationals 1/M so the
    correspondence is exact.
    """
    k = formula.num_vars
    m = len(formula.clauses)
    catalog = ProductCatalog(n=k + 1, revenues=tuple([0] * k + [1]))
    trees = tuple(_clause_tree(c, k + 1) for c in formula.clauses)
    weights = tuple(Fraction(1, m) for _ in range(m))
    return catalog, DecisionForest(trees=trees, weights=weights)


def _dimacs_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise DomainError(f"bad DIMACS token {tok!r}, not an integer") from None


def parse_dimacs(text: str) -> Cnf3Formula:
    """Parse DIMACS CNF; every clause must have exactly three literals."""
    num_vars = None
    clauses: list[tuple[int, int, int]] = []
    pending: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise DomainError(f"bad DIMACS header: {line!r}")
            num_vars = _dimacs_int(parts[2])
            continue
        for tok in line.split():
            lit = _dimacs_int(tok)
            if lit == 0:
                if len(pending) != 3:
                    raise DomainError(f"clause with {len(pending)} literals")
                clauses.append((pending[0], pending[1], pending[2]))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise DomainError("unterminated clause at end of file")
    if num_vars is None:
        raise DomainError("missing DIMACS header")
    return Cnf3Formula(num_vars=num_vars, clauses=tuple(clauses))


def random_formula(rng, num_vars: int, num_clauses: int) -> Cnf3Formula:
    """Random 3-CNF: distinct variables per clause, independent random signs."""
    if num_vars < 3:
        raise ConfigError("need at least 3 variables")
    clauses = []
    for _ in range(num_clauses):
        vars_ = sample_without_replacement(rng, list(range(1, num_vars + 1)), 3)
        lits = tuple(
            v if int(rng.integers(0, 2)) == 1 else -v for v in sorted(vars_)
        )
        clauses.append(lits)
    return Cnf3Formula(num_vars=num_vars, clauses=tuple(clauses))
