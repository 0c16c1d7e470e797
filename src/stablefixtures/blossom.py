"""Exact maximum-weight matching on integer weights.

`max_weight_matching(n, edges)` takes vertices 0..n-1 and edges (i, j, w)
with `int` weights and returns `mate`, where mate[v] is v's partner or -1.
It is Edmonds' O(n^3) primal-dual blossom algorithm (Edmonds 1965; survey
in Galil 1986, ACM Computing Surveys 18(1)). Vertex duals are doubled, so
every dual move is an integer. Everything lives in lists scanned in index
order (the scan queue is a stack), so ties resolve the same way every run.

Before it returns, the answer is certified by weak duality for the matching
LP with odd-set constraints: a symmetric matching on the given edges,
nonnegative vertex and blossom duals, nonnegative slack on every edge, and
sum u + sum z(B) floor(|B|/2) equal to the matching's weight. A failed
check raises `InternalError`, also under `python -O`.

`max_weight_degree_subgraph(slots, edges, extra, mandatory)` builds the
2-vertex edge gadget for degree-constrained subgraphs (Shiloach 1981;
Gabow 1983) on which both the general b-matching engine and the minimum
path/cycle systems run, matches it, and reads the selected edges back.
"""

from __future__ import annotations

from .errors import InternalError, PreconditionError


def max_weight_matching(n: int, edges: list[tuple[int, int, int]]) -> list[int]:
    """mate[v] = v's partner in a maximum-weight matching, or -1."""
    for (i, j, w) in edges:
        if i == j or not (0 <= i < n and 0 <= j < n) or type(w) is not int:
            raise PreconditionError(f"edge {(i, j, w)} is not an int-weighted edge on {n} vertices")
    matched, dual, blossoms = _primal_dual(n, edges)
    _certify(n, edges, matched, dual, blossoms)
    return [-1 if k < 0 else edges[k][0] + edges[k][1] - v for v, k in enumerate(matched)]


_END = object()  # tags the gadget's end nodes, so no caller node equals one


def max_weight_degree_subgraph(slots, edges, extra, mandatory):
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
    mate = max_weight_matching(len(index), gadget)
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


def _primal_dual(n, edges):
    """Run the stages; return the matched edge at each vertex (or -1), the
    doubled vertex duals and (z, vertices) of every blossom left."""
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
    dual = [top] * n + [0] * n
    mate = [-1] * n  # far endpoint of the matched edge
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

    def augment(k):
        """Augment along the path through S-S edge k between two roots."""
        for (s, p) in ((end[2 * k], 2 * k + 1), (end[2 * k + 1], 2 * k)):
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

    for _stage in range(n):
        label[:] = [0] * (2 * n)
        best[:] = [-1] * (2 * n)
        best_list[n:] = [None] * n
        tight[:] = [False] * m
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and label[top_of[v]] == 0:
                assign(v, 1, -1)
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
                        if label[bw] == 0:
                            assign(w, 2, p ^ 1)
                        elif label[bw] == 1:
                            root = common_base(v, w)
                            if root == -1:
                                augment(k)
                                augmented = True
                                break
                            shrink(root, k)
                        elif label[w] == 0:
                            label[w], via[w] = 2, p ^ 1
                    elif label[bw] == 1 or label[w] == 0:
                        # Least slack per S-blossom toward S, per unreached vertex from S.
                        x = bv if label[bw] == 1 else w
                        if best[x] == -1 or s < slack(best[x]):
                            best[x] = k
            if augmented:
                break
            # Stuck: the largest dual move that keeps every slack >= 0.
            delta, kind, at = min(dual[:n]), 1, -1
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
                break
            if kind == 4:
                expand(at, False)
            else:
                tight[at] = True
                queue.append(end[2 * at] if label[top_of[end[2 * at]]] == 1 else end[2 * at + 1])
        if not augmented:
            break
        for b in range(n, 2 * n):
            if parent[b] == -1 and base[b] >= 0 and label[b] == 1 and dual[b] == 0:
                expand(b, True)

    matched = [-1 if p == -1 else p >> 1 for p in mate]
    blossoms = [(dual[b], leaves(b)) for b in range(n, 2 * n) if base[b] >= 0]
    return matched, dual[:n], blossoms
