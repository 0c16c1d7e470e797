"""Exact maximum-weight matching on integer weights.

`max_weight_matching(n, edges)` takes vertices 0..n-1 and edges (i, j, w)
with `int` weights and returns `mate`, where mate[v] is v's partner or -1.
It is Edmonds' O(n^3) primal-dual blossom algorithm (Edmonds 1965; survey
in Galil 1986, ACM Computing Surveys 18(1)). Vertex duals are doubled, so
every dual move is an integer. Everything lives in lists scanned in index
order (the scan queue is a stack), so ties resolve the same way every run.

Every run is one stage loop (`_primal_dual`), and needs at most a stage
per free vertex with positive dual. A cold run starts every vertex free at
the largest weight, so with no positive weight it matches nothing; a warm
run starts from a given matching and vertex duals, checked. Only a warm
run imports `warmstart`, which checks its start and builds the edge
gadget's.

Before it returns, the answer is certified by weak duality for the matching
LP with odd-set constraints: a symmetric matching on the given edges,
nonnegative vertex and blossom duals, nonnegative slack on every edge, and
sum u + sum z(B) floor(|B|/2) equal to the matching's weight. A failed
check raises `InternalError`, also under `python -O`.

`max_weight_degree_subgraph(slots, edges, extra, mandatory, start)` builds
the 2-vertex edge gadget for degree-constrained subgraphs (Shiloach 1981;
Gabow 1983) on which both the general b-matching engine and the minimum
path/cycle systems run, matches it, and reads the selected edges back.
Only `matching._lp_optimum`'s whole-game b-matching, of a game with an
LP gap, starts warm, from its LP optimum; every other run is cold.
"""

from __future__ import annotations

from .errors import InternalError, PreconditionError


def max_weight_matching(n: int, edges: list[tuple[int, int, int]], start=None) -> list[int]:
    """mate[v] = v's partner in a maximum-weight matching, or -1.

    By default every vertex starts free at the largest weight, and the
    stages grow only from free vertices with positive dual, so with no
    positive weight mate is all -1. `start` = (matched, dual) starts the stages warm, with no blossoms,
    from matched[v], the index in `edges` of v's matched edge or -1, and
    doubled vertex duals `dual`. The start must be a symmetric matching with
    nonnegative int duals, even at every free vertex (so that the S-S slacks
    stay even), nonnegative slack on every edge and none on a matched one;
    InternalError otherwise, also under `python -O`.
    """
    for (i, j, w) in edges:
        if i == j or not (0 <= i < n and 0 <= j < n) or type(w) is not int:
            raise PreconditionError(f"edge {(i, j, w)} is not an int-weighted edge on {n} vertices")
    if start is not None:
        from .warmstart import _check_start

        _check_start(n, edges, *start)
    matched, dual, blossoms, _ = _primal_dual(n, edges, start)
    _certify(n, edges, matched, dual, blossoms)
    return [-1 if k < 0 else edges[k][0] + edges[k][1] - v for v, k in enumerate(matched)]


_END = object()  # tags the gadget's end nodes, so no caller node equals one


def max_weight_degree_subgraph(slots, edges, extra, mandatory, start=None):
    """The edges that one maximum-weight matching of the edge gadget selects,
    and the gadget's profit: the mate's weight minus the coverage bonuses.

    `slots[v]` lists v's (node, price) pairs, `edges` lists (u, v, w) with
    w even, `extra` lists more (node, node, profit) gadget edges, none
    between slots of two vertices, and every optimum covers `mandatory`.
    An edge whose ends both have two or more slots gets two mandatory end
    nodes, joined at 0 and each to its vertex's slots at w/2 minus the
    slot's price; it is selected iff its ends are not matched together.
    Any other edge joins the slots of its ends directly at w minus both
    prices and is selected iff a slot of u is mated to a slot of v: a
    one-slot end takes at most one of them (Gabow 1983). Each mandatory
    end of a gadget edge adds a bonus of 1 + sum |profit|. Nodes are
    numbered in order of first appearance, `extra` first, so ties break
    the same way for the same input.

    `start` = (y, used) starts the matching warm, for a gadget with no
    `extra` and no `mandatory` nodes, from integer prices y on the scale of
    the weights and a b-matching `used` of (u, v) pairs with y(u) + y(v) at
    most w on it and at least w off it: an optimal LP dual and a
    complementary-slack b-matching. Each used edge takes the next slot at
    each end. In the engine's doubled units a slot starts at 2 (y - price),
    and the one-slot end of a used direct edge adds 2 (w - y(u) - y(v)) if
    that is positive; an end node starts where its slot edges are tight,
    and both ends of an unused edge add its surplus y(u) + y(v) - w, so its
    end-to-end edge is tight too.
    """
    profits, mandatory, joins = list(extra), set(mandatory), []
    for k, (u, v, w) in enumerate(edges):
        if len(slots[u]) > 1 and len(slots[v]) > 1:
            end_u, end_v = (_END, k, 0), (_END, k, 1)
            mandatory |= {end_u, end_v}
            profits.append((end_u, end_v, 0))
            for end, p in ((end_u, u), (end_v, v)):
                profits += [(end, slot, w // 2 - price) for (slot, price) in slots[p]]
            joins.append((True, [(end_u, end_v)]))  # mated iff the edge is unused
        else:
            profits += [(a, b, w - pa - pb) for (a, pa) in slots[u] for (b, pb) in slots[v]]
            joins.append((False, [(a, b) for (a, _) in slots[u] for (b, _) in slots[v]]))

    bonus = 1 + sum(abs(c) for (_, _, c) in profits)
    index: dict = {}  # gadget node -> vertex number, in order of appearance
    gadget = [
        (index.setdefault(a, len(index)), index.setdefault(b, len(index)),
         c + bonus * ((a in mandatory) + (b in mandatory)))
        for (a, b, c) in profits
    ]
    if start is None:
        mate = max_weight_matching(len(index), gadget)
    else:
        from .warmstart import _gadget_start

        start = _gadget_start(slots, edges, joins, gadget, index, bonus, *start)
        mate = max_weight_matching(len(index), gadget, start)
    if any(mate[index[a]] == -1 for a in mandatory):
        raise InternalError("edge gadget matching leaves a mandatory node uncovered")
    selected = [
        (u, v) for (u, v, _), (gadgeted, pairs) in zip(edges, joins)
        if any(mate[index[a]] == index[b] for (a, b) in pairs) is not gadgeted
    ]
    profit = sum(c for (a, b, _), (_, _, c) in zip(gadget, profits) if mate[a] == b)
    return selected, profit


def _certify(n, edges, matched, dual, blossoms) -> None:
    """Raise InternalError unless `matched` (the edge index at each vertex,
    or -1) is a matching whose weight the duals prove maximum."""
    weight2 = 0
    for v, k in enumerate(matched):
        if k == -1:
            continue
        i, j, w = edges[k]
        if v not in (i, j) or matched[i + j - v] != k:
            raise InternalError(f"blossom mate at vertex {v} is not a matching edge")
        if v == i:
            weight2 += 2 * w
    if len(dual) != n or any(u < 0 for u in dual):
        raise InternalError("blossom vertex duals are negative or missing")
    holders: list[dict[int, int]] = [{} for _ in range(n)]
    objective2 = sum(dual)
    for b, (z, members) in enumerate(blossoms):
        members = set(members)
        if z < 0 or not all(0 <= v < n for v in members):
            raise InternalError("blossom dual is negative or its set is not a vertex set")
        objective2 += 2 * z * (len(members) // 2)
        for v in members:
            holders[v][b] = z
    for (i, j, w) in edges:
        shared = holders[i].keys() & holders[j].keys()
        if dual[i] + dual[j] - 2 * w + 2 * sum(holders[i][b] for b in shared) < 0:
            raise InternalError(f"blossom duals leave edge {(i, j)} with negative slack")
    if objective2 != weight2:
        raise InternalError(f"blossom dual objective {objective2}/2 differs from matching weight {weight2}/2")


def _primal_dual(n, edges, start=None):
    """Run the stages from `start` (see `max_weight_matching`), by default
    every vertex free at the largest weight (0 if none is positive); return
    the matched edge at each vertex (or -1), the doubled vertex duals, (z,
    vertices) of every blossom left and the number of stages run.

    A stage grows alternating trees from its roots, the free vertices with
    positive dual, and moves the duals until one event ends it: an
    augmenting path along tight edges, to another root or to a free vertex
    at dual 0; or an S-vertex whose dual reaches 0, since delta1 is the
    least S-vertex dual. If a root is among those, it just stops being one;
    else the first such S-vertex v takes its root's place as the free
    vertex, by a flip of the even path from the root to v. Each event leaves
    one free vertex with positive dual fewer, and the run ends at the first
    stage with no root. From the default start the free vertices share the
    least dual of all, so the first root to reach 0 takes every root with
    it and ends the run.
    """
    m = len(edges)
    # Edge k has endpoints 2k (at its first vertex) and 2k + 1; p ^ 1 is the
    # other endpoint of the same edge.
    end = [v for (i, j, _) in edges for v in (i, j)]
    w2 = [2 * w for (_, _, w) in edges]
    far: list[list[int]] = [[] for _ in range(n)]
    for p, v in enumerate(end):
        far[v].append(p ^ 1)
    top = max([0] + [w for (_, _, w) in edges])

    # Ids 0..n-1 are vertices, n..2n-1 are blossoms.
    matched, dual = start or ([-1] * n, [top] * n)
    dual = list(dual) + [0] * n
    # Far endpoint of the matched edge.
    mate = [-1 if k < 0 else 2 * k + (end[2 * k] == v) for v, k in enumerate(matched)]
    top_of = list(range(n))  # outermost blossom holding each vertex
    parent = [-1] * (2 * n)
    kids: list = [None] * (2 * n)  # sub-blossoms in cycle order, base first
    links: list = [None] * (2 * n)  # links[b][i]: endpoint in kids[i] of its edge to kids[i+1]
    base = list(range(n)) + [-1] * n
    spare = list(range(2 * n - 1, n - 1, -1))
    # Per stage: label 1 = S (outer), 2 = T (inner); `via` is the endpoint
    # whose vertex is the tree predecessor. A vertex inside a T-blossom has
    # label 2 once an S-vertex reaches it over a tight edge.
    label = [0] * (2 * n)
    via = [-1] * (2 * n)
    best = [-1] * (2 * n)  # least-slack edge to an S-blossom (or from one, at a free vertex)
    best_list: list = [None] * (2 * n)  # per S-blossom: least-slack edge to each other S-blossom
    tight = [False] * m
    queue: list[int] = []

    def slack(k):
        return dual[end[2 * k]] + dual[end[2 * k + 1]] - w2[k]

    def leaves(b):
        out, stack = [], [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(kids[t])
        return out

    def assign(w, t, p):
        """Label w's blossom t via endpoint p; a T-blossom's base mate gets S."""
        while True:
            b = top_of[w]
            label[w] = label[b] = t
            via[w] = via[b] = p
            best[w] = best[b] = -1
            if t == 1:
                queue.extend(leaves(b))
                return
            q = mate[base[b]]
            w, t, p = end[q], 1, q ^ 1

    def common_base(v, w):
        """Walk up both trees from v and w in turn; the base of the first
        blossom met twice, or -1 if the roots differ (an augmenting path)."""
        path, found = [], -1
        while v != -1:
            b = top_of[v]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] = 5
            v = -1 if via[b] == -1 else end[via[top_of[end[via[b]]]]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def shrink(root, k):
        """Make the cycle closed by S-S edge k below `root` one S-blossom."""
        b = spare.pop()
        start, v_side, w_side = top_of[root], top_of[end[2 * k]], top_of[end[2 * k + 1]]
        base[b], parent[start] = root, b
        cycle, ends = [], []
        while v_side != start:
            parent[v_side] = b
            cycle.append(v_side)
            ends.append(via[v_side])
            v_side = top_of[end[via[v_side]]]
        cycle, ends = [start] + cycle[::-1], ends[::-1] + [2 * k]
        while w_side != start:
            parent[w_side] = b
            cycle.append(w_side)
            ends.append(via[w_side] ^ 1)
            w_side = top_of[end[via[w_side]]]
        kids[b], links[b] = cycle, ends
        label[b], via[b], dual[b] = 1, via[start], 0
        for v in leaves(b):
            if label[top_of[v]] == 2:
                queue.append(v)
            top_of[v] = b
        # S-S slacks all fall at the same rate, so one least-slack edge per
        # neighbouring S-blossom stays least until the neighbour changes.
        toward: dict[int, tuple[int, int]] = {}
        for c in cycle:
            candidates = best_list[c]
            if candidates is None:
                candidates = [p >> 1 for v in leaves(c) for p in far[v]]
            for e in candidates:
                other = top_of[end[2 * e]]
                if other == b:
                    other = top_of[end[2 * e + 1]]
                if other != b and label[other] == 1:
                    s = slack(e)
                    if other not in toward or s < toward[other][0]:
                        toward[other] = (s, e)
            best_list[c], best[c] = None, -1
        best_list[b] = [e for (_, e) in toward.values()]
        best[b] = min(toward.values())[1] if toward else -1

    def walk(b, entry):
        """Index of sub-blossom `entry` in b, step and link offset of the even path to the base."""
        j = kids[b].index(entry)
        if j & 1:
            return j - len(kids[b]), 1, 0
        return j, -1, 1

    def expand(b, end_stage):
        """Dissolve blossom b into its sub-blossoms (and, at the end of a
        stage, their zero-dual sub-blossoms too)."""
        todo, gone = [b], []
        while todo:
            gone.append(todo.pop())
            for s in kids[gone[-1]]:
                parent[s] = -1
                if end_stage and s >= n and dual[s] == 0:
                    todo.append(s)
                else:
                    for v in leaves(s):
                        top_of[v] = s
        if not end_stage and label[b] == 2:
            # Relabel the even path from the entry to the base T, S, ..., T.
            cycle, ends = kids[b], links[b]
            entry = top_of[end[via[b] ^ 1]]
            j, step, off = walk(b, entry)
            p = via[b]
            while j != 0:
                assign(end[p ^ 1], 2, p)
                tight[ends[j - off] >> 1] = True
                j += step
                p = ends[j - off] ^ off
                tight[p >> 1] = True
                j += step
            c = cycle[j]
            label[end[p ^ 1]] = label[c] = 2
            via[end[p ^ 1]] = via[c] = p
            best[c] = -1
            # Off the path, a sub-blossom that an S-vertex already reaches
            # becomes T through that vertex; the rest stay free.
            j += step
            while cycle[j] != entry:
                c = cycle[j]
                j += step
                if label[c] == 1:
                    continue
                for v in leaves(c):
                    if label[v] != 0:
                        assign(v, 2, via[v])
                        break
        for c in gone:
            label[c] = via[c] = base[c] = best[c] = -1
            kids[c] = links[c] = best_list[c] = None
            spare.append(c)

    def flip(b, v):
        """Swap matched and unmatched edges on the even path from v to the
        base of b, and likewise inside the sub-blossoms on it; v becomes
        the base. The sub-blossoms are disjoint, so their order is free."""
        todo = [(b, v)]
        while todo:
            b, v = todo.pop()
            t = v
            while parent[t] != b:
                t = parent[t]
            if t >= n:
                todo.append((t, v))
            cycle, ends = kids[b], links[b]
            j, step, off = walk(b, t)
            i = j % len(cycle)
            while j != 0:
                j += step
                p = ends[j - off] ^ off
                if cycle[j] >= n:
                    todo.append((cycle[j], end[p]))
                j += step
                if cycle[j] >= n:
                    todo.append((cycle[j], end[p ^ 1]))
                mate[end[p]], mate[end[p ^ 1]] = p ^ 1, p
            kids[b], links[b], base[b] = cycle[i:] + cycle[:i], ends[i:] + ends[:i], v

    def rematch(s, p):
        """Mate s over endpoint p (-1: leave s free) and swap matched and
        unmatched edges on the tree path from s up to its root."""
        while True:
            bs = top_of[s]
            if bs >= n:
                flip(bs, s)
            mate[s] = p
            if via[bs] == -1:
                break
            bt = top_of[end[via[bs]]]
            s, j = end[via[bt]], end[via[bt] ^ 1]
            if bt >= n:
                flip(bt, j)
            mate[j] = via[bt]
            p = via[bt] ^ 1

    stages = 0
    for _ in range(n):
        label[:] = [0] * (2 * n)
        best[:] = [-1] * (2 * n)
        best_list[n:] = [None] * n
        tight[:] = [False] * m
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and label[top_of[v]] == 0 and dual[v] > 0:
                assign(v, 1, -1)
        if not queue:
            break
        stages += 1
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                for p in far[v]:
                    k, w = p >> 1, end[p]
                    bv, bw = top_of[v], top_of[w]
                    if bv == bw:
                        continue
                    if not tight[k]:
                        s = dual[v] + dual[w] - w2[k]
                        if s <= 0:
                            tight[k] = True
                    if tight[k]:
                        if label[bw] == 0 and mate[base[bw]] != -1:
                            assign(w, 2, p ^ 1)
                        elif label[bw] == 1 and (root := common_base(v, w)) != -1:
                            shrink(root, k)
                        elif label[bw] < 2:
                            # To another tree, or to a free vertex at dual 0.
                            if label[bw] == 0:
                                via[bw] = -1
                            rematch(end[2 * k], 2 * k + 1)
                            rematch(end[2 * k + 1], 2 * k)
                            augmented = True
                            break
                        elif label[w] == 0:
                            label[w], via[w] = 2, p ^ 1
                    elif label[bw] == 1 or label[w] == 0:
                        # Least slack per S-blossom toward S, per unreached vertex from S.
                        x = bv if label[bw] == 1 else w
                        if best[x] == -1 or s < slack(best[x]):
                            best[x] = k
            if augmented:
                break
            # Stuck: the largest dual move that keeps every slack and S-vertex dual >= 0.
            delta = min(dual[v] for v in range(n) if label[top_of[v]] == 1)
            kind, at = 1, -1
            for v in range(n):
                if label[top_of[v]] == 0 and best[v] != -1 and slack(best[v]) < delta:
                    delta, kind, at = slack(best[v]), 2, best[v]
            for b in range(2 * n):
                if parent[b] == -1 and label[b] == 1 and best[b] != -1 and slack(best[b]) >> 1 < delta:
                    delta, kind, at = slack(best[b]) >> 1, 3, best[b]
            for b in range(n, 2 * n):
                if base[b] >= 0 and parent[b] == -1 and label[b] == 2 and dual[b] < delta:
                    delta, kind, at = dual[b], 4, b
            if delta:
                move = (0, -delta, delta)  # by label: free, S, T
                for v in range(n):
                    dual[v] += move[label[top_of[v]]]
                for b in range(n, 2 * n):
                    if base[b] >= 0 and parent[b] == -1:
                        dual[b] -= move[label[b]]
            if kind == 1:
                # A root first; else the first S-vertex at 0 takes its root's place.
                zero = [v for v in range(n) if dual[v] == 0 and label[top_of[v]] == 1]
                v = min(zero, key=lambda v: mate[v] != -1)
                if mate[v] != -1:
                    rematch(v, -1)
                break
            if kind == 4:
                expand(at, False)
            else:
                tight[at] = True
                queue.append(end[2 * at] if label[top_of[end[2 * at]]] == 1 else end[2 * at + 1])
        for b in range(n, 2 * n):
            if parent[b] == -1 and base[b] >= 0 and label[b] == 1 and dual[b] == 0:
                expand(b, True)

    matched = [-1 if p == -1 else p >> 1 for p in mate]
    blossoms = [(dual[b], leaves(b)) for b in range(n, 2 * n) if base[b] >= 0]
    return matched, dual[:n], blossoms, stages
