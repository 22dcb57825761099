package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ID identifies a node or an edge within one Graph. Node and edge ID spaces
// are independent.
type ID int64

// Node is a vertex with one or more labels and a property map.
type Node struct {
	ID     ID
	Labels []string
	Props  Props
}

// HasLabel reports whether the node carries the given label.
func (n *Node) HasLabel(label string) bool {
	for _, l := range n.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// Prop returns the value of the named property (null when absent).
func (n *Node) Prop(key string) Value {
	if v, ok := n.Props[key]; ok {
		return v
	}
	return Null
}

// Edge is a directed relationship between two nodes. Edges may carry
// several labels; the first label is the primary relationship type, which
// is what single-type pattern matching (Cypher-style) binds to.
type Edge struct {
	ID     ID
	From   ID
	To     ID
	Labels []string
	Props  Props
}

// Type returns the primary relationship type (first label), or "" for an
// unlabeled edge.
func (e *Edge) Type() string {
	if len(e.Labels) == 0 {
		return ""
	}
	return e.Labels[0]
}

// HasLabel reports whether the edge carries the given label.
func (e *Edge) HasLabel(label string) bool {
	for _, l := range e.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// Prop returns the value of the named property (null when absent).
func (e *Edge) Prop(key string) Value {
	if v, ok := e.Props[key]; ok {
		return v
	}
	return Null
}

// Graph is an in-memory property graph. It is safe for concurrent readers;
// writers must not run concurrently with readers or other writers unless
// they use the locked mutation API (all exported mutators lock).
//
// Writes are organized into epochs (see mvcc.go): every mutation — a single
// exported mutator call or a whole Batch — commits as one epoch, bumping
// the generation counter and invalidating the per-epoch snapshot view.
type Graph struct {
	mu sync.RWMutex

	name string

	nodes map[ID]*Node
	edges map[ID]*Edge

	nextNodeID atomic.Int64
	nextEdgeID atomic.Int64

	// MVCC epoch machinery (mvcc.go). commitMu serializes writers and
	// ordered delta delivery; epoch counts committed write epochs; snap
	// caches the frozen per-epoch snapshot view; frozen marks a snapshot
	// view itself (mutators panic). subs are OnCommit subscribers.
	commitMu sync.Mutex
	epoch    atomic.Uint64
	snap     *Graph
	frozen   bool
	subMu    sync.RWMutex
	subs     map[int]func(*Delta)
	nextSub  int

	// Adjacency: nodeID -> edge IDs.
	out map[ID][]ID
	in  map[ID][]ID

	// Indexes.
	nodesByLabel map[string][]ID
	edgesByType  map[string][]ID

	// Lazily-built read caches (see propindex.go and rangeindex.go).
	// Invalidation is incremental: a node mutation drops the postings of the
	// labels the node carries (plus allPtrs), an edge mutation drops the
	// ordered postings of the edge's types; see invalidateNodeLabelsLocked
	// and invalidateEdgeLabelsLocked in propindex.go.
	propIndex  map[propKey]map[string][]*Node // (label, key) -> value SortKey -> nodes
	labelPtrs  map[string][]*Node             // label -> nodes, insertion order
	allPtrs    []*Node                        // all nodes, ascending ID
	ordNodeIdx map[propKey]*ordPosting[*Node] // (label, key) -> sorted posting
	ordEdgeIdx map[propKey]*ordPosting[*Edge] // (type, key) -> sorted posting

	idxBuilds  atomic.Int64 // equality posting-map constructions (stats)
	idxLookups atomic.Int64 // LabelPropNodes calls (stats)
	ordBuilds  atomic.Int64 // ordered node posting constructions (stats)
	ordEdges   atomic.Int64 // ordered edge posting constructions (stats)
	ordSeeks   atomic.Int64 // range seeks served (stats)
	ordRows    atomic.Int64 // rows returned by range seeks (stats)
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{
		name:         name,
		nodes:        make(map[ID]*Node),
		edges:        make(map[ID]*Edge),
		out:          make(map[ID][]ID),
		in:           make(map[ID][]ID),
		nodesByLabel: make(map[string][]ID),
		edgesByType:  make(map[string][]ID),
	}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// AddNode inserts a node with the given labels and properties and returns
// it. Labels are stored in the given order; duplicates are removed.
func (g *Graph) AddNode(labels []string, props Props) *Node {
	d := g.beginWrite()
	n := g.newNode(labels, props)
	g.insertNodeLocked(n, d)
	g.endWrite(d)
	return n
}

// newNode builds a node struct with a freshly reserved ID; it does not
// publish it. ID reservation is atomic so batches can allocate without the
// graph lock.
func (g *Graph) newNode(labels []string, props Props) *Node {
	id := ID(g.nextNodeID.Add(1) - 1)
	n := &Node{ID: id, Labels: dedupe(labels), Props: props.Clone()}
	if n.Props == nil {
		n.Props = Props{}
	}
	return n
}

// insertNodeLocked publishes a prebuilt node and records it in d (nil ok).
func (g *Graph) insertNodeLocked(n *Node, d *Delta) {
	g.invalidateNodeLabelsLocked(n.Labels)
	g.nodes[n.ID] = n
	for _, l := range n.Labels {
		g.nodesByLabel[l] = append(g.nodesByLabel[l], n.ID)
	}
	if d != nil {
		d.noteNode(n.Labels, true, propKeys(n.Props)...)
		d.Nodes = append(d.Nodes, n.ID)
		d.Ops = append(d.Ops, Op{Kind: OpAddNode, Node: n})
	}
}

// AddEdge inserts a directed edge from -> to with the given labels and
// properties. It returns an error when either endpoint does not exist or
// no label is provided.
func (g *Graph) AddEdge(from, to ID, labels []string, props Props) (*Edge, error) {
	labels = dedupe(labels)
	if len(labels) == 0 {
		return nil, fmt.Errorf("graph %q: AddEdge: edge requires at least one label", g.name)
	}
	d := g.beginWrite()
	if _, ok := g.nodes[from]; !ok {
		g.abortWrite()
		return nil, fmt.Errorf("graph %q: AddEdge: source node %d does not exist", g.name, from)
	}
	if _, ok := g.nodes[to]; !ok {
		g.abortWrite()
		return nil, fmt.Errorf("graph %q: AddEdge: target node %d does not exist", g.name, to)
	}
	e := g.newEdge(from, to, labels, props)
	g.insertEdgeLocked(e, d)
	g.endWrite(d)
	return e, nil
}

// newEdge builds an edge struct with a freshly reserved ID; labels must
// already be deduped and non-empty. It does not publish the edge.
func (g *Graph) newEdge(from, to ID, labels []string, props Props) *Edge {
	id := ID(g.nextEdgeID.Add(1) - 1)
	e := &Edge{ID: id, From: from, To: to, Labels: labels, Props: props.Clone()}
	if e.Props == nil {
		e.Props = Props{}
	}
	return e
}

// insertEdgeLocked publishes a prebuilt edge and records it in d (nil ok).
// Endpoints must exist.
func (g *Graph) insertEdgeLocked(e *Edge, d *Delta) {
	g.invalidateEdgeLabelsLocked(e.Labels)
	g.edges[e.ID] = e
	g.out[e.From] = append(g.out[e.From], e.ID)
	g.in[e.To] = append(g.in[e.To], e.ID)
	for _, l := range e.Labels {
		g.edgesByType[l] = append(g.edgesByType[l], e.ID)
	}
	if d != nil {
		d.noteEdge(e.Labels, true, propKeys(e.Props)...)
		d.Edges = append(d.Edges, e.ID)
		d.Ops = append(d.Ops, Op{Kind: OpAddEdge, Edge: e})
	}
}

// MustAddEdge is AddEdge that panics on error; intended for generators and
// tests where endpoints are known valid.
func (g *Graph) MustAddEdge(from, to ID, labels []string, props Props) *Edge {
	e, err := g.AddEdge(from, to, labels, props)
	if err != nil {
		panic(err)
	}
	return e
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id ID) *Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes[id]
}

// Edge returns the edge with the given ID, or nil.
func (g *Graph) Edge(id ID) *Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges[id]
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]ID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sortIDs(ids)
	return ids
}

// Edges returns all edge IDs in ascending order.
func (g *Graph) Edges() []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]ID, 0, len(g.edges))
	for id := range g.edges {
		ids = append(ids, id)
	}
	sortIDs(ids)
	return ids
}

// NodesWithLabel returns the IDs of all nodes carrying the label, in
// insertion order.
func (g *Graph) NodesWithLabel(label string) []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := g.nodesByLabel[label]
	out := make([]ID, len(ids))
	copy(out, ids)
	return out
}

// EdgesWithType returns the IDs of all edges carrying the label, in
// insertion order.
func (g *Graph) EdgesWithType(label string) []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := g.edgesByType[label]
	out := make([]ID, len(ids))
	copy(out, ids)
	return out
}

// OutEdges returns the IDs of edges leaving the node.
func (g *Graph) OutEdges(node ID) []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := g.out[node]
	out := make([]ID, len(ids))
	copy(out, ids)
	return out
}

// InEdges returns the IDs of edges entering the node.
func (g *Graph) InEdges(node ID) []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := g.in[node]
	out := make([]ID, len(ids))
	copy(out, ids)
	return out
}

// OutDegree returns the number of edges leaving the node.
func (g *Graph) OutDegree(node ID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.out[node])
}

// InDegree returns the number of edges entering the node.
func (g *Graph) InDegree(node ID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.in[node])
}

// SetNodeProp sets (or with a null value, deletes) one property of a node.
//
// The update is copy-on-write: a fresh Node with the updated property map is
// swapped into the graph and the published struct is never mutated. Readers
// holding the old pointer (cache snapshots taken before the write) keep
// seeing a consistent pre-write view; readers that re-fetch — or scan a
// cache rebuilt after the invalidation below — see the new version. Callers
// that need read-your-writes must therefore re-fetch the node by ID.
func (g *Graph) SetNodeProp(id ID, key string, v Value) error {
	d := g.beginWrite()
	if err := g.setNodePropLocked(id, key, v, d); err != nil {
		g.abortWrite()
		return err
	}
	g.endWrite(d)
	return nil
}

func (g *Graph) setNodePropLocked(id ID, key string, v Value, d *Delta) error {
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("graph %q: SetNodeProp: node %d does not exist", g.name, id)
	}
	g.invalidateNodeLabelsLocked(n.Labels)
	props := n.Props.Clone()
	if v.IsNull() {
		delete(props, key)
	} else {
		props[key] = v
	}
	g.nodes[id] = &Node{ID: n.ID, Labels: n.Labels, Props: props}
	if d != nil {
		d.noteNode(n.Labels, false, key)
		d.Nodes = append(d.Nodes, id)
		d.Ops = append(d.Ops, Op{Kind: OpSetNodeProp, ID: id, Key: key, Value: v})
	}
	return nil
}

// SetEdgeProp sets (or with a null value, deletes) one property of an edge.
// Copy-on-write like SetNodeProp: the published Edge struct is never
// mutated, a fresh one is swapped in.
func (g *Graph) SetEdgeProp(id ID, key string, v Value) error {
	d := g.beginWrite()
	if err := g.setEdgePropLocked(id, key, v, d); err != nil {
		g.abortWrite()
		return err
	}
	g.endWrite(d)
	return nil
}

func (g *Graph) setEdgePropLocked(id ID, key string, v Value, d *Delta) error {
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("graph %q: SetEdgeProp: edge %d does not exist", g.name, id)
	}
	g.invalidateEdgeLabelsLocked(e.Labels)
	props := e.Props.Clone()
	if v.IsNull() {
		delete(props, key)
	} else {
		props[key] = v
	}
	g.edges[id] = &Edge{ID: e.ID, From: e.From, To: e.To, Labels: e.Labels, Props: props}
	if d != nil {
		d.noteEdge(e.Labels, false, key)
		d.Edges = append(d.Edges, id)
		d.Ops = append(d.Ops, Op{Kind: OpSetEdgeProp, ID: id, Key: key, Value: v})
	}
	return nil
}

// AddNodeLabels adds labels to an existing node, updating the label index.
// Labels already present are ignored. Copy-on-write like SetNodeProp: the
// label slice of the published struct is never appended to in place.
func (g *Graph) AddNodeLabels(id ID, labels ...string) error {
	d := g.beginWrite()
	if err := g.addNodeLabelsLocked(id, labels, d); err != nil {
		g.abortWrite()
		return err
	}
	g.endWrite(d)
	return nil
}

func (g *Graph) addNodeLabelsLocked(id ID, labels []string, d *Delta) error {
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("graph %q: AddNodeLabels: node %d does not exist", g.name, id)
	}
	nl := append(make([]string, 0, len(n.Labels)+len(labels)), n.Labels...)
	added := false
	for _, l := range labels {
		if l == "" || hasString(nl, l) {
			continue
		}
		nl = append(nl, l)
		g.nodesByLabel[l] = append(g.nodesByLabel[l], id)
		added = true
	}
	if added {
		// Invalidate under every label the node now carries: postings for
		// the old labels hold the superseded struct, and the new labels'
		// postings (if built) are missing the node entirely.
		g.invalidateNodeLabelsLocked(nl)
		// The property map is shared with the old version; safe because no
		// mutator writes a published Props map in place.
		g.nodes[id] = &Node{ID: n.ID, Labels: nl, Props: n.Props}
	}
	if d != nil && added {
		// Membership changed under both the old and the new labels.
		d.noteNode(nl, true)
		d.Nodes = append(d.Nodes, id)
		d.Ops = append(d.Ops, Op{Kind: OpAddLabels, ID: id, Labels: labels})
	}
	return nil
}

func hasString(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// RemoveEdge deletes an edge. Removing a missing edge is a no-op.
func (g *Graph) RemoveEdge(id ID) {
	d := g.beginWrite()
	if _, ok := g.edges[id]; !ok {
		g.abortWrite()
		return
	}
	g.removeEdgeLocked(id, d)
	g.endWrite(d)
}

func (g *Graph) removeEdgeLocked(id ID, d *Delta) {
	e, ok := g.edges[id]
	if !ok {
		return
	}
	g.invalidateEdgeLabelsLocked(e.Labels)
	delete(g.edges, id)
	g.out[e.From] = removeID(g.out[e.From], id)
	g.in[e.To] = removeID(g.in[e.To], id)
	for _, l := range e.Labels {
		g.edgesByType[l] = removeID(g.edgesByType[l], id)
	}
	if d != nil {
		d.noteEdge(e.Labels, true)
		d.Edges = append(d.Edges, id)
		d.Ops = append(d.Ops, Op{Kind: OpRemoveEdge, ID: id, Edge: e})
	}
}

// RemoveNode deletes a node together with all incident edges. Removing a
// missing node is a no-op.
func (g *Graph) RemoveNode(id ID) {
	d := g.beginWrite()
	if _, ok := g.nodes[id]; !ok {
		g.abortWrite()
		return
	}
	g.removeNodeLocked(id, d)
	g.endWrite(d)
}

func (g *Graph) removeNodeLocked(id ID, d *Delta) {
	n, ok := g.nodes[id]
	if !ok {
		return
	}
	g.invalidateNodeLabelsLocked(n.Labels)
	for _, eid := range append(append([]ID(nil), g.out[id]...), g.in[id]...) {
		g.removeEdgeLocked(eid, d)
	}
	delete(g.out, id)
	delete(g.in, id)
	delete(g.nodes, id)
	for _, l := range n.Labels {
		g.nodesByLabel[l] = removeID(g.nodesByLabel[l], id)
	}
	if d != nil {
		d.noteNode(n.Labels, true)
		d.Nodes = append(d.Nodes, id)
		d.Ops = append(d.Ops, Op{Kind: OpRemoveNode, ID: id, Node: n})
	}
}

// NodeLabels returns the sorted set of node labels present in the graph.
func (g *Graph) NodeLabels() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.nodesByLabel))
	for l, ids := range g.nodesByLabel {
		if len(ids) > 0 {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// EdgeTypes returns the sorted set of edge labels present in the graph.
func (g *Graph) EdgeTypes() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.edgesByType))
	for l, ids := range g.edgesByType {
		if len(ids) > 0 {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// ForEachNode calls fn for every node in ascending ID order. The node set
// is snapshotted under a single read lock, so a writer interleaving with
// the iteration can never expose a torn view (a node present in the ID
// list but already deleted from the map). fn must not mutate the graph.
func (g *Graph) ForEachNode(fn func(*Node)) {
	for _, n := range g.AllNodes() {
		fn(n)
	}
}

// ForEachEdge calls fn for every edge in ascending ID order. Like
// ForEachNode, the edge set is snapshotted under one read lock. fn must
// not mutate the graph.
func (g *Graph) ForEachEdge(fn func(*Edge)) {
	g.mu.RLock()
	es := make([]*Edge, 0, len(g.edges))
	for _, e := range g.edges {
		es = append(es, e)
	}
	g.mu.RUnlock()
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	for _, e := range es {
		fn(e)
	}
}

func dedupe(labels []string) []string {
	seen := make(map[string]bool, len(labels))
	out := make([]string, 0, len(labels))
	for _, l := range labels {
		if l == "" || seen[l] {
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	return out
}

// removeID deletes id from an ID list, preserving order. The removal is
// copy-on-write: the published slice is never written in place, so epoch
// snapshot views (which share slice headers with the live graph) keep
// seeing their frozen contents. Appends remain safe to share because a
// snapshot's header length never grows.
func removeID(ids []ID, id ID) []ID {
	for i, x := range ids {
		if x == id {
			out := make([]ID, 0, len(ids)-1)
			out = append(out, ids[:i]...)
			return append(out, ids[i+1:]...)
		}
	}
	return ids
}

// propKeys returns the keys of a property map in unspecified order.
func propKeys(p Props) []string {
	if len(p) == 0 {
		return nil
	}
	out := make([]string, 0, len(p))
	for k := range p {
		out = append(out, k)
	}
	return out
}

func sortIDs(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
