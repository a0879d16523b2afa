"""Maximum-cardinality maximum-weight matching (Edmonds' blossom method).

This is NetworkX 3.6.1's ``max_weight_matching(G, maxcardinality=True)``
(after Galil, "Efficient algorithms for finding maximum matching in
graphs", ACM Computing Surveys, 1986) ported onto integer vertices
``0 .. n-1`` and integer edge ids. The port changes the representation,
not the algorithm: every loop visits vertices, neighbours, blossoms and
least-slack edges in the order NetworkX does (neighbours in edge
insertion order, top-level blossoms after the vertices in creation
order), so ties between equal-weight matchings break the same way and
the matched pairs are those NetworkX returns for a graph built by
adding the same edges in the same order.

What differs from NetworkX:

* vertex duals, blossom membership and mates are lists, and each edge
  has one "allowable" flag indexed by its id instead of two tuple keys;
* at the start of each stage, a single vertex that is its own top-level
  blossom gets its S label, label edge, best edge and queue slot inline
  rather than through a call of ``assignLabel(v, 1, None)`` (whose entry
  ``assert`` holds trivially there, as the labels were just cleared);
  the state and the queue order are the same, and a single base inside
  a blossom still goes through ``assignLabel``;
* the optimality certificate (NetworkX's ``verifyOptimum``) is
  :func:`verify_optimum`, which raises :class:`MatchingError` instead of
  asserting, so it also runs under ``python -O``, and which builds each
  vertex's blossom chain once instead of once per incident edge.

The internal consistency ``assert`` statements of the original are
kept.

Original code: Copyright (c) 2004-2025, NetworkX Developers (Aric
Hagberg, Dan Schult, Pieter Swart). All rights reserved. Redistributed
under the 3-clause BSD license:

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    * Redistributions of source code must retain the above copyright
      notice, this list of conditions and the following disclaimer.

    * Redistributions in binary form must reproduce the above copyright
      notice, this list of conditions and the following disclaimer in the
      documentation and/or other materials provided with the
      distribution.

    * Neither the name of the NetworkX Developers nor the names of its
      contributors may be used to endorse or promote products derived
      from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import MatchingError

#: One edge: ``(u, v, weight)`` with distinct vertex ids and an integer weight.
Edge = Tuple[int, int, int]


class Blossom:
    """A non-trivial blossom or sub-blossom.

    ``childs`` lists the sub-blossoms (vertex ids or blossoms), starting
    with the base and going round the blossom. ``edges[i] = (v, w)``
    connects a vertex ``v`` of ``childs[i]`` to a vertex ``w`` of
    ``childs[i + 1]`` (wrapping). ``mybestedges`` holds, for a top-level
    S-blossom, the least-slack edges to neighbouring S-blossoms as
    ``(v, w, edge id)``, or None when not computed yet.
    """

    __slots__ = ("childs", "edges", "mybestedges")

    def __init__(self) -> None:
        self.childs: List[Union[int, "Blossom"]] = []
        self.edges: List[Tuple[int, int]] = []
        self.mybestedges: Optional[List[Tuple[int, int, int]]] = None

    def leaves(self):
        """Yield the blossom's vertices."""
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, Blossom):
                stack.extend(t.childs)
            else:
                yield t


Node = Union[int, Blossom]


class NoNode:
    """Dummy value which is different from any vertex."""


def max_weight_matching(vertex_count: int, edges: Sequence[Edge]) -> List[int]:
    """Ids of the edges of a maximum-weight maximum-cardinality matching.

    Parameters
    ----------
    vertex_count:
        Number of vertices; vertices are ``0 .. vertex_count - 1``, in
        the order NetworkX would list the nodes of the same graph.
    edges:
        ``(u, v, weight)`` per edge id, in insertion order; ``u != v``,
        each unordered vertex pair at most once, integer weights.

    Returns
    -------
    The matched edge ids, ascending. Among all matchings of maximum
    cardinality the result has maximum total weight.

    Raises
    ------
    MatchingError
        If the optimality certificate (:func:`verify_optimum`) fails.
    """
    gnodes = range(vertex_count)
    if not edges:
        return []

    # neighbours[v] lists (w, edge id) in edge insertion order, which is
    # the order NetworkX's adjacency dicts yield them.
    neighbours: List[List[Tuple[int, int]]] = [[] for _ in gnodes]
    edge_of: Dict[Tuple[int, int], int] = {}
    weight2: List[int] = []
    maxweight = 0
    for k, (i, j, wt) in enumerate(edges):
        neighbours[i].append((j, k))
        neighbours[j].append((i, k))
        edge_of[i, j] = edge_of[j, i] = k
        weight2.append(2 * wt)
        if wt > maxweight:
            maxweight = wt

    # If v is a matched vertex, mate[v] is its partner vertex, else -1.
    mate: List[int] = [-1] * vertex_count

    # If b is a top-level blossom (vertex id or Blossom),
    # label.get(b) is None if b is unlabeled (free),
    #                 1 if b is an S-blossom,
    #                 2 if b is a T-blossom.
    # If v is a vertex inside a T-blossom, label[v] is 2 iff v is reachable
    # from an S-vertex outside the blossom.
    label: Dict[Node, Optional[int]] = {}

    # If b is a labeled top-level blossom, labeledge[b] = (v, w) is the edge
    # through which b obtained its label such that w is a vertex in b, or
    # None if b's base vertex is single. If w is a vertex inside a
    # T-blossom and label[w] == 2, labeledge[w] = (v, w) is an edge through
    # which w is reachable from outside the blossom.
    labeledge: Dict[Node, Optional[Tuple[int, int]]] = {}

    # inblossom[v] is the top-level blossom to which vertex v belongs.
    inblossom: List[Node] = list(gnodes)

    # blossomparent[b] is the immediate parent (sub-)blossom of b, or None
    # if b is top-level. Keys: the vertices, then live blossoms by creation.
    blossomparent: Dict[Node, Optional[Blossom]] = dict.fromkeys(gnodes)

    # blossombase[b] is the base VERTEX of (sub-)blossom b.
    blossombase: Dict[Node, int] = dict(zip(gnodes, gnodes))

    # If w is a free vertex (or an unreached vertex inside a T-blossom),
    # bestedge[w] = (v, w, k) is the least-slack edge from an S-vertex,
    # or None if there is no such edge. If b is a (possibly trivial)
    # top-level S-blossom, bestedge[b] = (v, w, k) is the least-slack edge
    # to a different S-blossom (v inside b), or None if there is no such
    # edge.
    bestedge: Dict[Node, Optional[Tuple[int, int, int]]] = {}

    # dualvar[v] = 2 * u(v), where u(v) is v's variable in the dual problem.
    dualvar: List[int] = [maxweight] * vertex_count

    # blossomdual[b] = z(b), b's variable in the dual problem. Keys: live
    # blossoms by creation.
    blossomdual: Dict[Blossom, int] = {}

    # allow[k] is True when edge k is known to have zero slack.
    allow: List[bool] = []

    # Queue of newly discovered S-vertices.
    queue: List[int] = []

    # Return 2 * slack of edge (v, w, k) (does not work inside blossoms).
    def slack(v, w, k):
        return dualvar[v] + dualvar[w] - weight2[k]

    # Assign label t to the top-level blossom containing vertex w,
    # coming through an edge from vertex v.
    def assignLabel(w, t, v):
        b = inblossom[w]
        assert label.get(w) is None and label.get(b) is None
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            # b became an S-vertex/blossom; add it(s vertices) to the queue.
            if isinstance(b, Blossom):
                queue.extend(b.leaves())
            else:
                queue.append(b)
        elif t == 2:
            # b became a T-vertex/blossom; assign label S to its mate.
            base = blossombase[b]
            assignLabel(mate[base], 1, base)

    # Trace back from vertices v and w to discover either a new blossom
    # or an augmenting path. Return the base vertex of the new blossom,
    # or NoNode if an augmenting path was found.
    def scanBlossom(v, w):
        path = []
        base = NoNode
        while v is not NoNode:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                # The base of blossom b is single; stop tracing this path.
                assert mate[blossombase[b]] < 0
                v = NoNode
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                # b is a T-blossom; trace one more step back.
                v = labeledge[b][0]
            # Swap v and w so that we alternate between both paths.
            if w is not NoNode:
                v, w = w, v
        # Remove breadcrumbs.
        for b in path:
            label[b] = 1
        return base

    # Construct a new blossom with given base, through S-vertices v and w.
    # Label the new blossom as S; set its dual variable to zero;
    # relabel its T-vertices to S and add them to the queue.
    def addBlossom(base, v, w):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        # Trace back from v to base.
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            v = labeledge[bv][0]
            bv = inblossom[v]
        # Add base sub-blossom; reverse lists.
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        # Relabel vertices.
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                # This T-vertex now turns into an S-vertex because it becomes
                # part of an S-blossom; add it to the queue.
                queue.append(v)
            inblossom[v] = b
        # Compute b.mybestedges.
        bestedgeto = {}
        for bv in path:
            if isinstance(bv, Blossom):
                if bv.mybestedges is not None:
                    # Walk this subblossom's least-slack edges.
                    nblist = bv.mybestedges
                    # The sub-blossom won't need this data again.
                    bv.mybestedges = None
                else:
                    # This subblossom does not have a list of least-slack
                    # edges; get the information from the vertices.
                    nblist = [
                        (v, w, k) for v in bv.leaves() for w, k in neighbours[v]
                    ]
            else:
                nblist = [(bv, w, k) for w, k in neighbours[bv]]
            for edge in nblist:
                (i, j, k) = edge
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label.get(bj) == 1
                    and (
                        (bj not in bestedgeto)
                        or slack(i, j, k) < slack(*bestedgeto[bj])
                    )
                ):
                    bestedgeto[bj] = edge
            # Forget about least-slack edge of the subblossom.
            bestedge[bv] = None
        b.mybestedges = list(bestedgeto.values())
        # Select bestedge[b].
        mybestedge = None
        bestedge[b] = None
        for edge in b.mybestedges:
            kslack = slack(*edge)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = edge
                mybestslack = kslack
        bestedge[b] = mybestedge

    # Expand the given top-level blossom.
    def expandBlossom(b, endstage):
        # A trampoline keeps the recursion over sub-blossoms off the call
        # stack: each generator yields the sub-blossoms to recurse into.
        def _recurse(b, endstage):
            # Convert sub-blossoms into top-level blossoms.
            for s in b.childs:
                blossomparent[s] = None
                if isinstance(s, Blossom):
                    if endstage and blossomdual[s] == 0:
                        # Recursively expand this sub-blossom.
                        yield s
                    else:
                        for v in s.leaves():
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # If we expand a T-blossom during a stage, its sub-blossoms must be
            # relabeled.
            if (not endstage) and label.get(b) == 2:
                # Start at the sub-blossom through which the expanding
                # blossom obtained its label, and relabel sub-blossoms until
                # we reach the base.
                entrychild = inblossom[labeledge[b][1]]
                # Decide in which direction we will go round the blossom.
                j = b.childs.index(entrychild)
                if j & 1:
                    # Start index is odd; go forward and wrap.
                    j -= len(b.childs)
                    jstep = 1
                else:
                    # Start index is even; go backward.
                    jstep = -1
                # Move along the blossom until we get to the base.
                v, w = labeledge[b]
                while j != 0:
                    # Relabel the T-sub-blossom.
                    if jstep == 1:
                        p, q = b.edges[j]
                    else:
                        q, p = b.edges[j - 1]
                    label[w] = None
                    label[q] = None
                    assignLabel(w, 2, v)
                    # Step to the next S-sub-blossom and note its forward edge.
                    allow[edge_of[p, q]] = True
                    j += jstep
                    if jstep == 1:
                        v, w = b.edges[j]
                    else:
                        w, v = b.edges[j - 1]
                    # Step to the next T-sub-blossom.
                    allow[edge_of[v, w]] = True
                    j += jstep
                # Relabel the base T-sub-blossom WITHOUT stepping through to
                # its mate (so don't call assignLabel).
                bw = b.childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                # Continue along the blossom until we get back to entrychild.
                j += jstep
                while b.childs[j] != entrychild:
                    # Examine the vertices of the sub-blossom to see whether
                    # it is reachable from a neighboring S-vertex outside the
                    # expanding blossom.
                    bv = b.childs[j]
                    if label.get(bv) == 1:
                        # This sub-blossom just got label S through one of its
                        # neighbors; leave it be.
                        j += jstep
                        continue
                    if isinstance(bv, Blossom):
                        for v in bv.leaves():
                            if label.get(v):
                                break
                    else:
                        v = bv
                    # If the sub-blossom contains a reachable vertex, assign
                    # label T to the sub-blossom.
                    if label.get(v):
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = None
                        label[mate[blossombase[bv]]] = None
                        assignLabel(v, 2, labeledge[v][0])
                    j += jstep
            # Remove the expanded blossom entirely.
            label.pop(b, None)
            labeledge.pop(b, None)
            bestedge.pop(b, None)
            del blossomparent[b]
            del blossombase[b]
            del blossomdual[b]

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path through blossom b
    # between vertex v and the base vertex. Keep blossom bookkeeping
    # consistent.
    def augmentBlossom(b, v):
        # Trampolined like expandBlossom: each generator yields the
        # (sub-blossom, vertex) arguments to recurse with.
        def _recurse(b, v):
            # Bubble up through the blossom tree from vertex v to an immediate
            # sub-blossom of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            # Recursively deal with the first sub-blossom.
            if isinstance(t, Blossom):
                yield (t, v)
            # Decide in which direction we will go round the blossom.
            i = j = b.childs.index(t)
            if i & 1:
                # Start index is odd; go forward and wrap.
                j -= len(b.childs)
                jstep = 1
            else:
                # Start index is even; go backward.
                jstep = -1
            # Move along the blossom until we get to the base.
            while j != 0:
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = b.childs[j]
                if jstep == 1:
                    w, x = b.edges[j]
                else:
                    x, w = b.edges[j - 1]
                if isinstance(t, Blossom):
                    yield (t, w)
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = b.childs[j]
                if isinstance(t, Blossom):
                    yield (t, x)
                # Match the edge connecting those sub-blossoms.
                mate[w] = x
                mate[x] = w
            # Rotate the list of sub-blossoms to put the new base at the front.
            b.childs = b.childs[i:] + b.childs[:i]
            b.edges = b.edges[i:] + b.edges[:i]
            blossombase[b] = blossombase[b.childs[0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path between two
    # single vertices. The augmenting path runs through S-vertices v and w.
    def augmentMatching(v, w):
        for s, j in ((v, w), (w, v)):
            # Match vertex s to vertex j. Then trace back from s
            # until we find a single vertex, swapping matched and unmatched
            # edges as we go.
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and mate[blossombase[bs]] < 0) or (
                    labeledge[bs][0] == mate[blossombase[bs]]
                )
                # Augment through the S-blossom from s to base.
                if isinstance(bs, Blossom):
                    augmentBlossom(bs, s)
                mate[s] = j
                # Trace one step back.
                if labeledge[bs] is None:
                    # Reached single vertex; stop.
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                # Trace one more step back.
                s, j = labeledge[bt]
                # Augment through the T-blossom from j to base.
                assert blossombase[bt] == t
                if isinstance(bt, Blossom):
                    augmentBlossom(bt, j)
                mate[j] = s

    # Main loop: continue until no further improvement is possible.
    while 1:
        # Each iteration of this loop is a "stage".
        # A stage finds an augmenting path and uses that to improve
        # the matching.

        # Remove labels from top-level blossoms/vertices.
        label.clear()
        labeledge.clear()

        # Forget all about least-slack edges.
        bestedge.clear()
        for b in blossomdual:
            b.mybestedges = None

        # Loss of labeling means that we can not be sure that currently
        # allowable edges remain allowable throughout this stage.
        allow[:] = [False] * len(edges)

        queue[:] = []

        # Label single blossoms/vertices with S and put them in the queue.
        # A single vertex that is its own top-level blossom is labelled
        # inline, exactly as assignLabel(v, 1, None) would label it.
        for v in gnodes:
            if mate[v] < 0:
                b = inblossom[v]
                if isinstance(b, Blossom):
                    if label.get(b) is None:
                        assignLabel(v, 1, None)
                else:
                    label[v] = 1
                    labeledge[v] = None
                    bestedge[v] = None
                    queue.append(v)

        # Loop until we succeed in augmenting the matching.
        augmented = 0
        while 1:
            # Each iteration of this loop is a "substage".
            # A substage tries to find an augmenting path;
            # if found, the path is used to improve the matching and
            # the stage ends. If there is no augmenting path, the
            # primal-dual method is used to pump some slack out of
            # the dual variables.

            # Continue labeling until all vertices which are reachable
            # through an alternating path have got a label.
            while queue and not augmented:
                # Take an S vertex from the queue.
                v = queue.pop()
                assert label[inblossom[v]] == 1

                # Scan its neighbors:
                for w, k in neighbours[v]:
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        # this edge is internal to a blossom; ignore it
                        continue
                    if not allow[k]:
                        kslack = dualvar[v] + dualvar[w] - weight2[k]
                        if kslack <= 0:
                            # edge k has zero slack => it is allowable
                            allow[k] = True
                    if allow[k]:
                        if label.get(bw) is None:
                            # (C1) w is a free vertex;
                            # label w with T and label its mate with S (R12).
                            assignLabel(w, 2, v)
                        elif label.get(bw) == 1:
                            # (C2) w is an S-vertex (not in the same blossom);
                            # follow back-links to discover either an
                            # augmenting path or a new blossom.
                            base = scanBlossom(v, w)
                            if base is not NoNode:
                                # Found a new blossom; add it to the blossom
                                # bookkeeping and turn it into an S-blossom.
                                addBlossom(base, v, w)
                            else:
                                # Found an augmenting path; augment the
                                # matching and end this stage.
                                augmentMatching(v, w)
                                augmented = 1
                                break
                        elif label.get(w) is None:
                            # w is inside a T-blossom, but w itself has not
                            # yet been reached from outside the blossom;
                            # mark it as reached (we need this to relabel
                            # during T-blossom expansion).
                            assert label[bw] == 2
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label.get(bw) == 1:
                        # keep track of the least-slack non-allowable edge to
                        # a different S-blossom.
                        if bestedge.get(bv) is None or kslack < slack(*bestedge[bv]):
                            bestedge[bv] = (v, w, k)
                    elif label.get(w) is None:
                        # w is a free vertex (or an unreached vertex inside
                        # a T-blossom) but we can not reach it yet;
                        # keep track of the least-slack edge that reaches w.
                        if bestedge.get(w) is None or kslack < slack(*bestedge[w]):
                            bestedge[w] = (v, w, k)

            if augmented:
                break

            # There is no augmenting path under these constraints;
            # compute delta and reduce slack in the optimization problem.
            # (Note that our vertex dual variables, edge slacks and delta's
            # are pre-multiplied by two.)
            deltatype = -1
            delta = deltaedge = deltablossom = None

            # Compute delta2: the minimum slack on any edge between
            # an S-vertex and a free vertex.
            for v in gnodes:
                if label.get(inblossom[v]) is None and bestedge.get(v) is not None:
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            # Compute delta3: half the minimum slack on any edge between
            # a pair of S-blossoms.
            for b in blossomparent:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 1
                    and bestedge.get(b) is not None
                ):
                    kslack = slack(*bestedge[b])
                    assert (kslack % 2) == 0
                    d = kslack // 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            # Compute delta4: minimum z variable of any T-blossom.
            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # No further improvement possible; max-cardinality optimum
                # reached. Do a final delta update to make the optimum
                # verifiable.
                deltatype = 1
                delta = max(0, min(dualvar))

            # Update dual variables according to delta.
            for v in gnodes:
                t = label.get(inblossom[v])
                if t == 1:
                    # S-vertex: 2*u = 2*u - 2*delta
                    dualvar[v] -= delta
                elif t == 2:
                    # T-vertex: 2*u = 2*u + 2*delta
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label.get(b) == 1:
                        # top-level S-blossom: z = z + 2*delta
                        blossomdual[b] += delta
                    elif label.get(b) == 2:
                        # top-level T-blossom: z = z - 2*delta
                        blossomdual[b] -= delta

            # Take action at the point where minimum delta occurred.
            if deltatype == 1:
                # No further improvement possible; optimum reached.
                break
            elif deltatype == 2:
                # Use the least-slack edge to continue the search.
                (v, w, k) = deltaedge
                assert label[inblossom[v]] == 1
                allow[k] = True
                queue.append(v)
            elif deltatype == 3:
                # Use the least-slack edge to continue the search.
                (v, w, k) = deltaedge
                allow[k] = True
                assert label[inblossom[v]] == 1
                queue.append(v)
            elif deltatype == 4:
                # Expand the least-z blossom.
                expandBlossom(deltablossom, False)

            # End of a this substage.

        # Paranoia check that the matching is symmetric.
        for v in gnodes:
            if mate[v] >= 0:
                assert mate[mate[v]] == v

        # Stop when no more augmenting path can be found.
        if not augmented:
            break

        # End of a stage; expand all S-blossoms which have zero dual.
        for b in list(blossomdual.keys()):
            if b not in blossomdual:
                continue  # already expanded
            if blossomparent[b] is None and label.get(b) == 1 and blossomdual[b] == 0:
                expandBlossom(b, True)

    verify_optimum(edges, mate, dualvar, blossomparent, blossomdual)
    return [k for k, (i, j, _) in enumerate(edges) if mate[i] == j]


def verify_optimum(
    edges: Sequence[Edge],
    mate: Sequence[int],
    dualvar: Sequence[int],
    blossomparent: Mapping[Node, Optional[Blossom]],
    blossomdual: Mapping[Blossom, int],
) -> None:
    """Check the primal-dual optimality certificate of a matching.

    The conditions are NetworkX's ``verifyOptimum`` for
    ``maxcardinality=True``; duals are pre-multiplied by two.

    Parameters
    ----------
    edges:
        ``(u, v, weight)`` per edge id.
    mate:
        Partner of each vertex, or -1 for a single vertex.
    dualvar:
        Twice the dual variable of each vertex.
    blossomparent:
        Parent blossom of each vertex and live blossom (None at top level).
    blossomdual:
        Dual variable of each live blossom.

    Raises
    ------
    MatchingError
        If a condition fails: after shifting every vertex dual by the
        smallest non-negative offset that makes them all non-negative,
        (0) blossom duals are non-negative and every edge has
        non-negative slack, (1) matched edges have zero slack and
        ``mate`` is symmetric, (2) single vertices have zero dual, and
        (3) blossoms with positive dual are full.
    """
    # Vertices may have negative dual; find a constant non-negative number
    # to add to all vertex duals (which makes them all non-negative).
    vdualoffset = max(0, -min(dualvar))
    if min(blossomdual.values(), default=0) < 0:
        raise MatchingError("matching certificate: negative blossom dual")
    # Top-down blossom chain of each vertex, built once: the blossoms
    # enclosing it, outermost first.
    chains = []
    for v in range(len(dualvar)):
        chain = []
        parent = blossomparent[v]
        while parent is not None:
            chain.append(parent)
            parent = blossomparent[parent]
        chain.reverse()
        chains.append(chain)
    # 0. all edges have non-negative slack and
    # 1. all matched edges have zero slack;
    for k, (i, j, wt) in enumerate(edges):
        s = dualvar[i] + dualvar[j] - 2 * wt
        for bi, bj in zip(chains[i], chains[j]):
            if bi is not bj:
                break
            s += 2 * blossomdual[bi]
        if s < 0:
            raise MatchingError(f"matching certificate: edge {k} has negative slack {s}")
        if mate[i] == j or mate[j] == i:
            if mate[i] != j or mate[j] != i:
                raise MatchingError(f"matching certificate: mate of edge {k} is asymmetric")
            if s != 0:
                raise MatchingError(f"matching certificate: matched edge {k} has slack {s}")
    # 2. all single vertices have zero dual value;
    for v, partner in enumerate(mate):
        if partner < 0 and dualvar[v] + vdualoffset != 0:
            raise MatchingError(f"matching certificate: single vertex {v} has non-zero dual")
    # 3. all blossoms with positive dual value are full.
    for b, dual in blossomdual.items():
        if dual > 0:
            if len(b.edges) % 2 != 1 or any(
                mate[i] != j or mate[j] != i for i, j in b.edges[1::2]
            ):
                raise MatchingError(
                    "matching certificate: a blossom with positive dual is not full"
                )


__all__ = ["Blossom", "Edge", "max_weight_matching", "verify_optimum"]
