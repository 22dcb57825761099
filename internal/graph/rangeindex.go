package graph

import "sort"

// This file holds the ordered (range) property indexes: per (label, key)
// for nodes and per (type, key) for edges, each a posting list sorted by
// value SortKey. Because SortKey is monotone with numeric order (and plain
// lexicographic for strings), inequality and prefix predicates become
// binary-searched contiguous segments of the sorted keys. The equality
// posting maps in propindex.go are the point-lookup projection of the same
// data; the ordered index adds the sorted key sequence on top.
//
// Order contract: every seek but LabelPropOrdered returns its matches in
// bucket-insertion order (the same order a plain label/type scan would
// enumerate them), NOT value order. A range seek therefore yields a
// subsequence of the full scan, so executors that re-filter candidates
// produce byte-identical row order with and without the index.
// LabelPropOrdered hands out the posting's key-order slice itself.
//
// Like the equality caches, ordered postings are built lazily under the
// write lock and invalidated by mutation — but invalidation is incremental:
// a node mutation drops only the postings of the labels the node carries,
// and an edge mutation drops only the postings of the edge's types (see
// invalidateNodeLabelsLocked / invalidateEdgeLabelsLocked in propindex.go).

// Bound is one end of a seek interval over value sort keys. The zero value
// is an unbounded end.
type Bound struct {
	SortKey   string
	Inclusive bool
	Set       bool // false = this end is unbounded
}

// ValueBound returns a bound at v's sort key.
func ValueBound(v Value, inclusive bool) Bound {
	return Bound{SortKey: v.SortKey(), Inclusive: inclusive, Set: true}
}

// RawBound returns a bound at an explicit sort key (kind-band fences,
// prefix successors).
func RawBound(sortKey string, inclusive bool) Bound {
	return Bound{SortKey: sortKey, Inclusive: inclusive, Set: true}
}

// ordEntry pairs an indexed item with its position in the label/type
// bucket, so range segments can be restored to bucket-insertion order.
type ordEntry[T any] struct {
	pos  int
	item T
}

// ordPosting is one (label, key) or (type, key) ordered index, never
// mutated once built: the distinct value sort keys ascending, and every
// item with a non-null value in key order, bucket order within a key; key
// i's items are items[offs[i]:offs[i+1]], pos their bucket positions.
type ordPosting[T any] struct {
	keys  []string
	offs  []int // len(keys)+1 offsets into items
	items []T
	pos   []int32
}

func buildOrdPosting[T any](items []T, keyOf func(T) (string, bool)) *ordPosting[T] {
	byKey := map[string][]int32{}
	for pos, it := range items {
		if sk, ok := keyOf(it); ok {
			byKey[sk] = append(byKey[sk], int32(pos))
		}
	}
	p := &ordPosting[T]{keys: make([]string, 0, len(byKey)), offs: make([]int, 1, len(byKey)+1)}
	for k := range byKey {
		p.keys = append(p.keys, k)
	}
	sort.Strings(p.keys)
	for _, k := range p.keys {
		for _, pos := range byKey[k] {
			p.items = append(p.items, items[pos])
			p.pos = append(p.pos, pos)
		}
		p.offs = append(p.offs, len(p.items))
	}
	return p
}

// segment resolves lo/hi to a half-open index range over p.keys.
func (p *ordPosting[T]) segment(lo, hi Bound) (int, int) {
	i := 0
	if lo.Set {
		if lo.Inclusive {
			i = sort.SearchStrings(p.keys, lo.SortKey)
		} else {
			i = sort.Search(len(p.keys), func(k int) bool { return p.keys[k] > lo.SortKey })
		}
	}
	j := len(p.keys)
	if hi.Set {
		if hi.Inclusive {
			j = sort.Search(len(p.keys), func(k int) bool { return p.keys[k] > hi.SortKey })
		} else {
			j = sort.SearchStrings(p.keys, hi.SortKey)
		}
	}
	if j < i {
		j = i
	}
	return i, j
}

// count returns how many entries fall inside [lo, hi] without
// materializing them.
func (p *ordPosting[T]) count(lo, hi Bound) int {
	i, j := p.segment(lo, hi)
	return p.offs[j] - p.offs[i]
}

// gather appends the entries inside [lo, hi] to ents.
func (p *ordPosting[T]) gather(ents []ordEntry[T], lo, hi Bound) []ordEntry[T] {
	i, j := p.segment(lo, hi)
	for k := p.offs[i]; k < p.offs[j]; k++ {
		ents = append(ents, ordEntry[T]{pos: int(p.pos[k]), item: p.items[k]})
	}
	return ents
}

// scan returns the entries inside [lo, hi] restored to bucket-insertion
// order. The slice is freshly allocated and owned by the caller.
func (p *ordPosting[T]) scan(lo, hi Bound) []T {
	return inBucketOrder(p.gather(nil, lo, hi))
}

// inBucketOrder sorts entries back into bucket-insertion order and returns
// their items in a fresh slice.
func inBucketOrder[T any](ents []ordEntry[T]) []T {
	sort.Slice(ents, func(a, b int) bool { return ents[a].pos < ents[b].pos })
	out := make([]T, len(ents))
	for k, e := range ents {
		out[k] = e.item
	}
	return out
}

// ordNodePosting returns (building if needed) the ordered index for one
// (label, key) pair.
func (g *Graph) ordNodePosting(label, key string) *ordPosting[*Node] {
	ik := propKey{label, key}
	g.mu.RLock()
	if p := g.ordNodeIdx[ik]; p != nil {
		g.mu.RUnlock()
		return p
	}
	g.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	if p := g.ordNodeIdx[ik]; p != nil {
		return p
	}
	ids := g.nodesByLabel[label]
	ns := make([]*Node, 0, len(ids))
	for _, id := range ids {
		if n := g.nodes[id]; n != nil {
			ns = append(ns, n)
		}
	}
	p := buildOrdPosting(ns, func(n *Node) (string, bool) {
		v, ok := n.Props[key]
		if !ok || v.IsNull() {
			return "", false
		}
		return v.SortKey(), true
	})
	if g.ordNodeIdx == nil {
		g.ordNodeIdx = make(map[propKey]*ordPosting[*Node])
	}
	g.ordNodeIdx[ik] = p
	g.ordBuilds.Add(1)
	return p
}

// ordEdgePosting returns (building if needed) the ordered index for one
// (type, key) pair.
func (g *Graph) ordEdgePosting(typ, key string) *ordPosting[*Edge] {
	ik := propKey{typ, key}
	g.mu.RLock()
	if p := g.ordEdgeIdx[ik]; p != nil {
		g.mu.RUnlock()
		return p
	}
	g.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	if p := g.ordEdgeIdx[ik]; p != nil {
		return p
	}
	ids := g.edgesByType[typ]
	es := make([]*Edge, 0, len(ids))
	for _, id := range ids {
		if e := g.edges[id]; e != nil {
			es = append(es, e)
		}
	}
	p := buildOrdPosting(es, func(e *Edge) (string, bool) {
		v, ok := e.Props[key]
		if !ok || v.IsNull() {
			return "", false
		}
		return v.SortKey(), true
	})
	if g.ordEdgeIdx == nil {
		g.ordEdgeIdx = make(map[propKey]*ordPosting[*Edge])
	}
	g.ordEdgeIdx[ik] = p
	g.ordEdges.Add(1)
	return p
}

// LabelPropRange returns the nodes carrying the label whose property key
// falls inside [lo, hi], in label-bucket (insertion) order. The slice is
// freshly allocated and owned by the caller.
func (g *Graph) LabelPropRange(label, key string, lo, hi Bound) []*Node {
	p := g.ordNodePosting(label, key)
	out := p.scan(lo, hi)
	g.ordSeeks.Add(1)
	g.ordRows.Add(int64(len(out)))
	return out
}

// LabelPropOrdered returns the nodes carrying the label whose property key
// is not null, in ascending sort-key order, bucket order within one key: the
// posting's own shared read-only slice, neither copied nor sorted.
func (g *Graph) LabelPropOrdered(label, key string) []*Node {
	ns := g.ordNodePosting(label, key).items
	g.ordSeeks.Add(1)
	g.ordRows.Add(int64(len(ns)))
	return ns[:len(ns):len(ns)]
}

// LabelPropIn returns the nodes carrying the label whose property key
// equals any of vs, in label-bucket (insertion) order: the union of the
// equality seeks, served from the ordered posting because its entries keep
// their bucket positions. vs must have distinct sort keys; a null matches
// nothing. The slice is freshly allocated and owned by the caller.
func (g *Graph) LabelPropIn(label, key string, vs []Value) []*Node {
	p := g.ordNodePosting(label, key)
	var ents []ordEntry[*Node]
	for _, v := range vs {
		if v.IsNull() {
			continue
		}
		b := ValueBound(v, true)
		ents = p.gather(ents, b, b)
	}
	out := inBucketOrder(ents)
	g.ordSeeks.Add(1)
	g.ordRows.Add(int64(len(out)))
	return out
}

// LabelPropRangeCount returns how many nodes LabelPropRange would yield,
// without materializing or sorting them (the planner's selectivity probe).
func (g *Graph) LabelPropRangeCount(label, key string, lo, hi Bound) int {
	return g.ordNodePosting(label, key).count(lo, hi)
}

// TypePropRange returns the edges carrying the type whose property key
// falls inside [lo, hi], in type-bucket (insertion) order. The slice is
// freshly allocated and owned by the caller.
func (g *Graph) TypePropRange(typ, key string, lo, hi Bound) []*Edge {
	p := g.ordEdgePosting(typ, key)
	out := p.scan(lo, hi)
	g.ordSeeks.Add(1)
	g.ordRows.Add(int64(len(out)))
	return out
}

// TypePropRangeCount returns how many edges TypePropRange would yield.
func (g *Graph) TypePropRangeCount(typ, key string, lo, hi Bound) int {
	return g.ordEdgePosting(typ, key).count(lo, hi)
}

// TypePropEdges returns the edges carrying the type whose property key
// equals v, in type-bucket (insertion) order — the edge analogue of
// LabelPropNodes, served from the same ordered posting (equality is the
// degenerate closed interval [v, v]).
func (g *Graph) TypePropEdges(typ, key string, v Value) []*Edge {
	if v.IsNull() {
		return nil // null never equals anything, including stored nulls
	}
	b := ValueBound(v, true)
	return g.TypePropRange(typ, key, b, b)
}

// IndexStats snapshots every index counter: the node equality posting maps
// (builds/lookups/live, also available via PropIndexStats) and the ordered
// node/edge indexes (builds, seeks, rows returned, live posting lists).
type IndexStats struct {
	EqBuilds, EqLookups, EqLive int
	OrdNodeBuilds               int
	OrdEdgeBuilds               int
	OrdSeeks, OrdRows           int
	OrdNodeLive, OrdEdgeLive    int
}

// IndexStats reports the combined equality and ordered index counters.
func (g *Graph) IndexStats() IndexStats {
	g.mu.RLock()
	eqLive := len(g.propIndex)
	nodeLive := len(g.ordNodeIdx)
	edgeLive := len(g.ordEdgeIdx)
	g.mu.RUnlock()
	return IndexStats{
		EqBuilds:      int(g.idxBuilds.Load()),
		EqLookups:     int(g.idxLookups.Load()),
		EqLive:        eqLive,
		OrdNodeBuilds: int(g.ordBuilds.Load()),
		OrdEdgeBuilds: int(g.ordEdges.Load()),
		OrdSeeks:      int(g.ordSeeks.Load()),
		OrdRows:       int(g.ordRows.Load()),
		OrdNodeLive:   nodeLive,
		OrdEdgeLive:   edgeLive,
	}
}
