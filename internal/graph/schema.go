package graph

import (
	"fmt"
	"sort"
	"strings"
)

// PropStat summarizes one property key as observed on one label.
type PropStat struct {
	Key      string
	Count    int          // elements of the label carrying the key
	Kinds    map[Kind]int // histogram of observed kinds
	Distinct int          // number of distinct values observed
	Samples  []string     // up to a few sample display values
}

// DominantKind returns the most frequent kind for the property.
func (p *PropStat) DominantKind() Kind {
	best, bestN := KindNull, -1
	for k, n := range p.Kinds {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best
}

// LabelSchema describes one node label or edge type.
type LabelSchema struct {
	Label string
	Count int
	Props map[string]*PropStat
}

// PropKeys returns the sorted property keys of the label.
func (ls *LabelSchema) PropKeys() []string {
	keys := make([]string, 0, len(ls.Props))
	for k := range ls.Props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EndpointStat counts how often an edge type connects a (source label,
// target label) pair.
type EndpointStat struct {
	FromLabel string
	ToLabel   string
	Count     int
}

// EdgeSchema describes one edge type including its endpoint label profile.
type EdgeSchema struct {
	LabelSchema
	Endpoints []EndpointStat // sorted by count desc, then labels
}

// DominantEndpoints returns the most frequent (from, to) label pair for the
// edge type, or ("", "") when the type has no edges.
func (es *EdgeSchema) DominantEndpoints() (string, string) {
	if len(es.Endpoints) == 0 {
		return "", ""
	}
	return es.Endpoints[0].FromLabel, es.Endpoints[0].ToLabel
}

// Schema is an extracted structural summary of a graph: per-label node and
// edge statistics. It is the "information about the property graph" the
// paper feeds into the Cypher-translation prompt (§3.2).
type Schema struct {
	GraphName  string
	NodeTotal  int
	EdgeTotal  int
	NodeLabels map[string]*LabelSchema
	EdgeLabels map[string]*EdgeSchema
}

const maxSamples = 3

// ExtractSchema scans the graph and produces its schema summary.
func ExtractSchema(g *Graph) *Schema {
	s := &Schema{
		GraphName:  g.Name(),
		NodeLabels: make(map[string]*LabelSchema),
		EdgeLabels: make(map[string]*EdgeSchema),
	}
	distinct := make(map[propKey]map[string]bool) // (label, key) -> value sort keys
	var kb []byte

	observe := func(ls *LabelSchema, label string, props Props) {
		ls.Count++
		for k, v := range props {
			ps := ls.Props[k]
			if ps == nil {
				ps = &PropStat{Key: k, Kinds: make(map[Kind]int)}
				ls.Props[k] = ps
			}
			ps.Count++
			ps.Kinds[v.Kind()]++
			dk := propKey{label, k}
			set := distinct[dk]
			if set == nil {
				set = make(map[string]bool)
				distinct[dk] = set
			}
			kb = v.AppendSortKey(kb[:0])
			if !set[string(kb)] {
				set[string(kb)] = true
				ps.Distinct++
				if len(ps.Samples) < maxSamples {
					ps.Samples = append(ps.Samples, v.Display())
				}
			}
		}
	}

	g.ForEachNode(func(n *Node) {
		s.NodeTotal++
		for _, l := range n.Labels {
			ls := s.NodeLabels[l]
			if ls == nil {
				ls = &LabelSchema{Label: l, Props: make(map[string]*PropStat)}
				s.NodeLabels[l] = ls
			}
			observe(ls, "n:"+l, n.Props)
		}
	})

	endpoints := make(map[string]map[[2]string]int)
	g.ForEachEdge(func(e *Edge) {
		s.EdgeTotal++
		from, to := g.Node(e.From), g.Node(e.To)
		for _, l := range e.Labels {
			es := s.EdgeLabels[l]
			if es == nil {
				es = &EdgeSchema{LabelSchema: LabelSchema{Label: l, Props: make(map[string]*PropStat)}}
				s.EdgeLabels[l] = es
			}
			observe(&es.LabelSchema, "e:"+l, e.Props)
			eps := endpoints[l]
			if eps == nil {
				eps = make(map[[2]string]int)
				endpoints[l] = eps
			}
			for _, fl := range labelsOrAnon(from) {
				for _, tl := range labelsOrAnon(to) {
					eps[[2]string{fl, tl}]++
				}
			}
		}
	})

	for l, eps := range endpoints {
		es := s.EdgeLabels[l]
		for pair, n := range eps {
			es.Endpoints = append(es.Endpoints, EndpointStat{FromLabel: pair[0], ToLabel: pair[1], Count: n})
		}
		sort.Slice(es.Endpoints, func(i, j int) bool {
			a, b := es.Endpoints[i], es.Endpoints[j]
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			if a.FromLabel != b.FromLabel {
				return a.FromLabel < b.FromLabel
			}
			return a.ToLabel < b.ToLabel
		})
	}
	return s
}

func labelsOrAnon(n *Node) []string {
	if n == nil || len(n.Labels) == 0 {
		return []string{""}
	}
	return n.Labels
}

// NodeLabelNames returns the sorted node labels of the schema.
func (s *Schema) NodeLabelNames() []string {
	out := make([]string, 0, len(s.NodeLabels))
	for l := range s.NodeLabels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// EdgeLabelNames returns the sorted edge labels of the schema.
func (s *Schema) EdgeLabelNames() []string {
	out := make([]string, 0, len(s.EdgeLabels))
	for l := range s.EdgeLabels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// HasNodeProp reports whether the schema has seen property key on the node
// label.
func (s *Schema) HasNodeProp(label, key string) bool {
	ls := s.NodeLabels[label]
	if ls == nil {
		return false
	}
	_, ok := ls.Props[key]
	return ok
}

// HasEdgeProp reports whether the schema has seen property key on the edge
// label.
func (s *Schema) HasEdgeProp(label, key string) bool {
	es := s.EdgeLabels[label]
	if es == nil {
		return false
	}
	_, ok := es.Props[key]
	return ok
}

// Describe renders a compact human/LLM-readable schema description, used by
// the Cypher-translation prompt.
func (s *Schema) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Graph %s: %d nodes, %d edges.\n", s.GraphName, s.NodeTotal, s.EdgeTotal)
	b.WriteString("Node labels:\n")
	for _, l := range s.NodeLabelNames() {
		ls := s.NodeLabels[l]
		fmt.Fprintf(&b, "  %s (%d nodes): properties %s\n", l, ls.Count, describeProps(ls))
	}
	b.WriteString("Edge labels:\n")
	for _, l := range s.EdgeLabelNames() {
		es := s.EdgeLabels[l]
		from, to := es.DominantEndpoints()
		fmt.Fprintf(&b, "  %s (%d edges, (:%s)-[:%s]->(:%s)): properties %s\n",
			l, es.Count, from, l, to, describeProps(&es.LabelSchema))
	}
	return b.String()
}

func describeProps(ls *LabelSchema) string {
	if len(ls.Props) == 0 {
		return "(none)"
	}
	keys := ls.PropKeys()
	parts := make([]string, len(keys))
	for i, k := range keys {
		ps := ls.Props[k]
		parts[i] = fmt.Sprintf("%s:%s", k, ps.DominantKind())
	}
	return strings.Join(parts, ", ")
}
