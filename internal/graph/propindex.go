package graph

import "sort"

// This file holds the graph's lazily-built read caches: the label+property
// value index consulted by the Cypher matcher's equality pushdown, and bulk
// node/edge pointer snapshots that let hot scan loops acquire the graph
// lock once per scan instead of once per element.
//
// All caches are built on first use under the write lock and invalidated
// incrementally by mutation: a node mutation (AddNode, SetNodeProp,
// AddNodeLabels, RemoveNode) drops only the postings and label snapshots of
// the labels the node carries — plus the allPtrs snapshot, which spans every
// label — and an edge mutation (AddEdge, SetEdgeProp, RemoveEdge) drops only
// the ordered edge postings of the edge's types. Node-only mutations never
// touch edge postings and vice versa. Returned slices are shared read-only
// snapshots: callers must not modify them, and a concurrent writer only ever
// swaps in fresh slices, never mutates a published one.

// invalidateNodeLabelsLocked drops the lazily-built node caches touched by a
// mutation of a node carrying the given labels: the equality and ordered
// postings under those labels, those labels' pointer snapshots, and always
// the all-nodes snapshot. Callers must hold the write lock.
func (g *Graph) invalidateNodeLabelsLocked(labels []string) {
	g.allPtrs = nil
	if len(labels) == 0 {
		return
	}
	for _, l := range labels {
		delete(g.labelPtrs, l)
		for k := range g.propIndex {
			if k.label == l {
				delete(g.propIndex, k)
			}
		}
		for k := range g.ordNodeIdx {
			if k.label == l {
				delete(g.ordNodeIdx, k)
			}
		}
	}
}

// invalidateEdgeLabelsLocked drops the ordered edge postings under the given
// edge types. Callers must hold the write lock.
func (g *Graph) invalidateEdgeLabelsLocked(labels []string) {
	if len(g.ordEdgeIdx) == 0 {
		return
	}
	for _, l := range labels {
		for k := range g.ordEdgeIdx {
			if k.label == l {
				delete(g.ordEdgeIdx, k)
			}
		}
	}
}

// propKey names one posting map: a node label or edge type, and a property
// key. A struct key probes the map without building a joined string.
type propKey struct{ label, key string }

// LabelPropNodes returns the nodes carrying the label whose property key
// equals v, in label-bucket (insertion) order. The posting map for the
// (label, key) pair is built lazily on first use; subsequent lookups are a
// map probe that allocates nothing. The returned slice is a shared
// read-only snapshot.
func (g *Graph) LabelPropNodes(label, key string, v Value) []*Node {
	if v.IsNull() {
		return nil // null never equals anything, including stored nulls
	}
	var buf [32]byte
	sk := v.AppendSortKey(buf[:0])
	pk := propKey{label, key}
	g.idxLookups.Add(1)
	g.mu.RLock()
	if idx := g.propIndex[pk]; idx != nil {
		ns := idx[string(sk)]
		g.mu.RUnlock()
		return ns
	}
	g.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	idx := g.propIndex[pk]
	if idx == nil {
		idx = make(map[string][]*Node)
		for _, id := range g.nodesByLabel[label] {
			n := g.nodes[id]
			if n == nil {
				continue
			}
			pv, ok := n.Props[key]
			if !ok || pv.IsNull() {
				continue
			}
			k := pv.SortKey()
			idx[k] = append(idx[k], n)
		}
		if g.propIndex == nil {
			g.propIndex = make(map[propKey]map[string][]*Node)
		}
		g.propIndex[pk] = idx
		g.idxBuilds.Add(1)
	}
	return idx[string(sk)]
}

// LabelNodes returns the nodes carrying the label in insertion order as a
// shared read-only snapshot (the pointer analogue of NodesWithLabel).
func (g *Graph) LabelNodes(label string) []*Node {
	g.mu.RLock()
	if ns, ok := g.labelPtrs[label]; ok {
		g.mu.RUnlock()
		return ns
	}
	g.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	if ns, ok := g.labelPtrs[label]; ok {
		return ns
	}
	ids := g.nodesByLabel[label]
	ns := make([]*Node, 0, len(ids))
	for _, id := range ids {
		if n := g.nodes[id]; n != nil {
			ns = append(ns, n)
		}
	}
	if g.labelPtrs == nil {
		g.labelPtrs = make(map[string][]*Node)
	}
	g.labelPtrs[label] = ns
	return ns
}

// AllNodes returns every node in ascending ID order as a shared read-only
// snapshot.
func (g *Graph) AllNodes() []*Node {
	g.mu.RLock()
	if g.allPtrs != nil {
		ns := g.allPtrs
		g.mu.RUnlock()
		return ns
	}
	g.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.allPtrs == nil {
		ns := make([]*Node, 0, len(g.nodes))
		for _, n := range g.nodes {
			ns = append(ns, n)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
		g.allPtrs = ns
	}
	return g.allPtrs
}

// OutEdgePtrs returns the edges leaving the node. The slice is freshly
// allocated under one lock acquisition and owned by the caller.
func (g *Graph) OutEdgePtrs(node ID) []*Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := g.out[node]
	es := make([]*Edge, 0, len(ids))
	for _, id := range ids {
		if e := g.edges[id]; e != nil {
			es = append(es, e)
		}
	}
	return es
}

// InEdgePtrs returns the edges entering the node; see OutEdgePtrs.
func (g *Graph) InEdgePtrs(node ID) []*Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := g.in[node]
	es := make([]*Edge, 0, len(ids))
	for _, id := range ids {
		if e := g.edges[id]; e != nil {
			es = append(es, e)
		}
	}
	return es
}

// PropIndexStats reports how many (label, key) posting maps have been
// built, how many lookups they served, and how many are currently live.
func (g *Graph) PropIndexStats() (builds, lookups, live int) {
	g.mu.RLock()
	live = len(g.propIndex)
	g.mu.RUnlock()
	return int(g.idxBuilds.Load()), int(g.idxLookups.Load()), live
}
