"""Rooted concept hierarchies: exact counting, exhaustive enumeration,
uniform sampling, and Newick/JSON serialization.

Concepts are dense integer ids 0..K-1 into a :class:`Catalog` of display
names. A hierarchy is a rooted tree whose leaves are the concepts (each
exactly once) and whose internal nodes have at least two children. Child
order carries no meaning, so a :class:`Tree` is canonical when it is built:
its children are stored in order of their smallest descendant leaf id.
Equal unordered hierarchies therefore compare equal, hash alike and print
alike, however their children were listed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import TreeParseError

DEFAULT_ENUMERATION_CAP = 7
_SAMPLING_CAP = 10  # Bell numbers explode beyond this

_FORBIDDEN_NAME_CHARS = set("(),[]\"'")
_TOO_DEEP = "tree nested deeper than the parser's recursion limit"


@dataclass(frozen=True)
class Catalog:
    """The concept catalog: position in ``names`` is the concept id."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("catalog must contain at least one concept")
        seen = set()
        for name in self.names:
            # names are written one per line
            if not isinstance(name, str) or not name or name != name.strip() or "\n" in name or "\r" in name:
                raise ValueError(f"bad concept name {name!r}")
            if _FORBIDDEN_NAME_CHARS & set(name):
                raise ValueError(f"concept name {name!r} contains reserved characters")
            if name in seen:
                raise ValueError(f"duplicate concept name {name!r}")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise TreeParseError(f"unknown concept name {name!r}") from None

    def name_of(self, concept_id: int) -> str:
        return self.names[concept_id]

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(range(len(self.names)))


@dataclass(frozen=True)
class Tree:
    """Leaf (``concept`` set) or internal node (>= 2 ``children``).

    The children are stored sorted by their smallest leaf id (a stable
    sort), whatever order they were given in."""

    concept: int | None = None
    children: tuple["Tree", ...] = ()

    def __post_init__(self) -> None:
        if self.concept is None:
            if len(self.children) < 2:
                raise ValueError("internal nodes need at least 2 children")
            object.__setattr__(self, "children", tuple(sorted(self.children, key=Tree.min_leaf)))
        else:
            if self.children:
                raise ValueError("a leaf cannot have children")
            if self.concept < 0:
                raise ValueError("concept ids are nonnegative")
        # leaf ids once per node, kept outside the fields that equality and
        # hashing read
        leaves = (self.concept,) if self.is_leaf else tuple(
            cid for child in self.children for cid in child.leaf_ids()
        )
        object.__setattr__(self, "_leaf_ids", leaves)

    @property
    def is_leaf(self) -> bool:
        return self.concept is not None

    def leaf_ids(self) -> tuple[int, ...]:
        """Leaf concept ids in left-to-right order."""
        return self._leaf_ids

    def min_leaf(self) -> int:
        return self._leaf_ids[0]  # children are sorted by it, so it leads

    def height(self) -> int:
        """Edge count of the longest root-to-leaf path; 0 for a single leaf."""
        if self.is_leaf:
            return 0
        return 1 + max(child.height() for child in self.children)

    def subtrees(self) -> Iterator["Tree"]:
        """Preorder traversal of all nodes including self."""
        yield self
        for child in self.children:
            yield from child.subtrees()

    def internal_nodes(self) -> Iterator["Tree"]:
        for node in self.subtrees():
            if not node.is_leaf:
                yield node


def leaf(concept_id: int) -> Tree:
    return Tree(concept=concept_id)


def internal(children: Sequence[Tree]) -> Tree:
    return Tree(children=tuple(children))


def validate_tree(tree: Tree, catalog_size: int) -> None:
    """Check the leaf bijection: each of 0..catalog_size-1 appears exactly once.

    Arity >= 2 is already enforced at construction time.
    """
    leaves = tree.leaf_ids()
    if sorted(leaves) != list(range(catalog_size)):
        raise ValueError(
            f"tree leaves {sorted(leaves)} do not cover concepts 0..{catalog_size - 1} exactly once"
        )


def count_hierarchies(k: int) -> int:
    """Exact number of concept hierarchies over k labeled concepts.

    Computed by the recurrence
    L(K+1) = C(K, K-1) L(K) L(1) + 2 * sum_{i=0}^{K-2} C(K, i) L(i+1) L(K-i)
    with L(1) = L(2) = 1, exact integer arithmetic throughout.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _count(k)


_COUNTS = [0, 1, 1]  # _COUNTS[k] is L(k), grown bottom-up: no k is too deep for the stack


def _count(k: int) -> int:
    while len(_COUNTS) <= k:
        big, c = len(_COUNTS) - 1, _COUNTS  # recurrence advances from `big` concepts to big + 1
        total = math.comb(big, big - 1) * c[big] * c[1]
        total += 2 * sum(math.comb(big, i) * c[i + 1] * c[big - i] for i in range(big - 1))
        c.append(total)
    return _COUNTS[k]


def _set_partitions(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of items into nonempty blocks, each exactly once."""
    if len(items) == 1:
        yield ((items[0],),)
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + ((first,) + part[i],) + part[i + 1 :]
        yield ((first,),) + part


def _trees_over(ids: tuple[int, ...], memo: dict) -> tuple[Tree, ...]:
    if ids in memo:
        return memo[ids]
    if len(ids) == 1:
        result = (leaf(ids[0]),)
    else:  # each partition is built once and a Tree is canonical when built: no duplicates
        result = tuple(
            Tree(children=combo)
            for part in _set_partitions(ids) if len(part) >= 2
            for combo in itertools.product(*(_trees_over(block, memo) for block in part))
        )
    memo[ids] = result
    return result


def _distinct_ids(concepts: Sequence[int]) -> tuple[int, ...]:
    """The concept ids sorted; a ValueError unless there is at least one and no id repeats."""
    ids = tuple(sorted(concepts))
    if not ids:
        raise ValueError("need at least one concept")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate concept ids")
    return ids


def enumerate_hierarchies(
    concepts: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Tree]:
    """All distinct hierarchies with the given concepts as leaves.

    Built recursively: a tree over a set S is a single leaf (|S| = 1) or an
    internal node whose children are trees over the blocks of a partition of
    S into >= 2 blocks. Refuses sets above ``cap`` (combinatorial blow-up:
    39208 trees at 7, 660032 at 8).
    """
    ids = _distinct_ids(concepts)
    if len(ids) > cap:
        raise ValueError(
            f"refusing to enumerate {count_hierarchies(len(ids))} hierarchies over "
            f"{len(ids)} concepts (cap {cap}); raise the cap explicitly if you mean it"
        )
    return list(_trees_over(ids, {}))


def sample_hierarchy(concepts: Sequence[int], rng) -> Tree:
    """Draw one hierarchy uniformly at random over the given concepts.

    Samples the root partition with probability proportional to the number
    of hierarchies it roots (product of per-block counts), then recurses;
    this matches uniform choice over ``enumerate_hierarchies`` without
    materializing the list, so it also works at sizes above the enumeration
    cap.
    """
    ids = _distinct_ids(concepts)
    if len(ids) > _SAMPLING_CAP:
        raise ValueError(f"sampling supported up to {_SAMPLING_CAP} concepts")
    return _sample(ids, rng)


def _sample(ids: tuple[int, ...], rng) -> Tree:
    if len(ids) == 1:
        return leaf(ids[0])
    parts = [p for p in _set_partitions(ids) if len(p) >= 2]
    weights = [math.prod(_count(len(block)) for block in p) for p in parts]
    total = sum(weights)
    draw = int(rng.integers(0, total))
    acc = 0
    for part, w in zip(parts, weights):
        acc += w
        if draw < acc:
            return Tree(children=tuple(_sample(block, rng) for block in part))
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# serialization


def tree_to_text(tree: Tree, catalog: Catalog) -> str:
    """Newick-style parenthesized form using concept names, e.g. ((walk,run),still)."""
    if tree.is_leaf:
        return catalog.name_of(tree.concept)
    return "(" + ",".join(tree_to_text(c, catalog) for c in tree.children) + ")"


def parse_tree(text: str, catalog: Catalog) -> Tree:
    """Parse the Newick-style form back into a tree.

    Rejects malformed text, unknown concept names, single-child groups, and
    trees whose leaves are not exactly the catalog.
    """
    try:
        node, pos = _parse_node(text, 0, catalog)
    except RecursionError:
        raise TreeParseError(_TOO_DEEP) from None
    if text[pos:].strip():
        raise TreeParseError(f"trailing characters after tree: {text[pos:]!r}")
    return _covering(node, catalog)


def _covering(node: Tree, catalog: Catalog) -> Tree:
    """``node``, once its leaves are checked to be exactly the catalog."""
    seen = node.leaf_ids()
    if len(set(seen)) != len(seen):
        raise TreeParseError("duplicate concept in tree")
    missing = set(catalog.ids) - set(seen)
    if missing:
        names = ", ".join(catalog.name_of(i) for i in sorted(missing))
        raise TreeParseError(f"tree does not cover concepts: {names}")
    return node


def _parse_node(text: str, pos: int, catalog: Catalog) -> tuple[Tree, int]:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        raise TreeParseError("unexpected end of input")
    if text[pos] == "(":
        children = []
        pos += 1
        while True:
            child, pos = _parse_node(text, pos, catalog)
            children.append(child)
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                raise TreeParseError("unbalanced parentheses")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                pos += 1
                break
            raise TreeParseError(f"unexpected character {text[pos]!r} at {pos}")
        if len(children) < 2:
            raise TreeParseError("groups need at least 2 children")
        return Tree(children=tuple(children)), pos
    end = pos
    while end < len(text) and text[end] not in "(),":
        end += 1
    name = text[pos:end].strip()
    if not name:
        raise TreeParseError(f"expected a concept name at position {pos}")
    return leaf(catalog.id_of(name)), end


def tree_to_json(tree: Tree, catalog: Catalog):
    """Nested-array JSON form: a leaf is a name, an internal node an array."""
    if tree.is_leaf:
        return catalog.name_of(tree.concept)
    return [tree_to_json(c, catalog) for c in tree.children]


def tree_from_json(obj, catalog: Catalog) -> Tree:
    try:
        return _covering(_tree_from_json(obj, catalog), catalog)
    except RecursionError:
        raise TreeParseError(_TOO_DEEP) from None


def _tree_from_json(obj, catalog: Catalog) -> Tree:
    if isinstance(obj, str):
        return leaf(catalog.id_of(obj))
    if isinstance(obj, list):
        if len(obj) < 2:
            raise TreeParseError("groups need at least 2 children")
        return Tree(children=tuple(_tree_from_json(o, catalog) for o in obj))
    raise TreeParseError(f"expected name or array, got {type(obj).__name__}")
