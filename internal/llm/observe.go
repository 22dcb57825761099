package llm

import (
	"regexp"
	"strings"

	"github.com/graphrules/graphrules/internal/graph"
)

// observed is the partial schema a simulated model reconstructs from the
// encoded-graph text inside its prompt window. It deliberately contains
// only what the window shows: nodes outside the window are unknown, so
// edges pointing at them have unresolved endpoint labels — exactly the
// context-limit effect the paper's windowing trades against.
type observed struct {
	nodeLabels map[int64][]string   // node id -> labels (any sighting)
	described  map[int64]bool       // ids whose full node line is in-window
	labels     map[string]*labelObs // node label -> stats
	edgeTypes  map[string]*edgeObs  // edge type -> stats
	edgeLines  []edgeLine           // raw edge sightings
}

type labelObs struct {
	count int
	props map[string]*propObs
	// incomingBy counts how many of the label's nodes have at least one
	// incoming edge of each type (from incident "incoming" lines).
	incomingBy map[string]int
	outgoingBy map[string]int
}

type propObs struct {
	count    int
	kinds    map[graph.Kind]int
	distinct map[string]bool
	samples  []graph.Value
}

type edgeObs struct {
	count     int
	fromLabel map[string]int // resolved source labels
	toLabel   map[string]int
	resolved  int // edges with both endpoints visible
	selfLoops int
	props     map[string]*propObs
}

type edgeLine struct {
	typ      string
	from, to int64
	props    string
}

var (
	reNodeLine = regexp.MustCompile(`Node (\d+) with labels ([A-Za-z0-9_, ]+?) (?:has no properties|has properties \((.*?)\))\.`)
	reOutEdge  = regexp.MustCompile(`Node (\d+) has edge ([A-Za-z0-9_]+) to node (\d+)(?: \(([A-Za-z0-9_, ]+)\))?(?: with properties \((.*?)\))?\.`)
	reInEdge   = regexp.MustCompile(`Node (\d+) has incoming edge ([A-Za-z0-9_]+) from node (\d+)(?: \(([A-Za-z0-9_, ]+)\))?\.`)
	reAdjEdge  = regexp.MustCompile(`Node (\d+)(?: \(([A-Za-z0-9_, ]+)\))? is connected by ([A-Za-z0-9_]+) to node (\d+)(?: \(([A-Za-z0-9_, ]+)\))?(?: with properties \((.*?)\))?\.`)
	reTriplet  = regexp.MustCompile(`\(node (\d+): ([A-Za-z0-9_,]+) (?:has no properties|has properties \((.*?)\))\)`)
	reTripEdge = regexp.MustCompile(`\) ([A-Za-z0-9_]+) \(node (\d+):`)
)

const maxPropSamples = 8

// observe re-parses the encoded graph text of one prompt window.
func observe(text string) *observed {
	o := &observed{
		nodeLabels: map[int64][]string{},
		described:  map[int64]bool{},
		labels:     map[string]*labelObs{},
		edgeTypes:  map[string]*edgeObs{},
	}
	// Node descriptions (incident + adjacency encodings).
	for _, m := range reNodeLine.FindAllStringSubmatch(text, -1) {
		o.addNode(parseInt(m[1]), splitLabels(m[2]), m[3])
	}
	// Triplet-encoding node descriptions.
	for _, m := range reTriplet.FindAllStringSubmatch(text, -1) {
		o.addNode(parseInt(m[1]), strings.Split(m[2], ","), m[3])
	}
	// Outgoing edges (with inline neighbour labels).
	for _, m := range reOutEdge.FindAllStringSubmatch(text, -1) {
		to := parseInt(m[3])
		o.registerLabels(to, m[4])
		o.edgeLines = append(o.edgeLines, edgeLine{typ: m[2], from: parseInt(m[1]), to: to, props: m[5]})
	}
	for _, m := range reAdjEdge.FindAllStringSubmatch(text, -1) {
		from, to := parseInt(m[1]), parseInt(m[4])
		o.registerLabels(from, m[2])
		o.registerLabels(to, m[5])
		o.edgeLines = append(o.edgeLines, edgeLine{typ: m[3], from: from, to: to, props: m[6]})
	}
	// Incoming edges: (to has incoming T from from).
	incoming := map[int64]map[string]bool{}
	outgoing := map[int64]map[string]bool{}
	for _, m := range reInEdge.FindAllStringSubmatch(text, -1) {
		to, typ, from := parseInt(m[1]), m[2], parseInt(m[3])
		o.registerLabels(from, m[4])
		set := incoming[to]
		if set == nil {
			set = map[string]bool{}
			incoming[to] = set
		}
		set[typ] = true
		// Incoming lines witness the same edges as some node's outgoing
		// lines; they feed only the incoming-by-type statistics so that
		// parallel edges in outgoing lines keep their multiplicity.
		_ = from
	}
	// Triplet edges (endpoint ids only, via adjacency of matches).
	for _, m := range reTripEdge.FindAllStringSubmatch(text, -1) {
		o.edgeLines = append(o.edgeLines, edgeLine{typ: m[1], to: parseInt(m[2]), from: -1})
	}

	for _, el := range o.edgeLines {
		eo := o.edgeTypes[el.typ]
		if eo == nil {
			eo = &edgeObs{fromLabel: map[string]int{}, toLabel: map[string]int{}, props: map[string]*propObs{}}
			o.edgeTypes[el.typ] = eo
		}
		eo.count++
		fromLabels, fromOK := o.nodeLabels[el.from]
		toLabels, toOK := o.nodeLabels[el.to]
		if fromOK && toOK {
			eo.resolved++
			for _, l := range fromLabels {
				eo.fromLabel[l]++
			}
			for _, l := range toLabels {
				eo.toLabel[l]++
			}
			if el.from == el.to {
				eo.selfLoops++
			}
		}
		if el.props != "" {
			observeProps(eo.props, el.props)
		}
		if fromOK {
			set := outgoing[el.from]
			if set == nil {
				set = map[string]bool{}
				outgoing[el.from] = set
			}
			set[el.typ] = true
		}
		if toOK {
			set := incoming[el.to]
			if set == nil {
				set = map[string]bool{}
				incoming[el.to] = set
			}
			set[el.typ] = true
		}
	}

	// Fold incoming/outgoing per label, over fully described nodes only
	// (label sightings from edge lines carry no property/degree context).
	for id := range o.described {
		for _, l := range o.nodeLabels[id] {
			lo := o.labels[l]
			if lo == nil {
				continue
			}
			for typ := range incoming[id] {
				lo.incomingBy[typ]++
			}
			for typ := range outgoing[id] {
				lo.outgoingBy[typ]++
			}
		}
	}
	return o
}

// registerLabels records label knowledge about a node gleaned from an edge
// line's inline annotation, without counting the node as described.
func (o *observed) registerLabels(id int64, labelsText string) {
	if id < 0 || labelsText == "" {
		return
	}
	if _, known := o.nodeLabels[id]; known {
		return
	}
	var clean []string
	for _, l := range splitLabels(labelsText) {
		l = strings.TrimSpace(l)
		if l != "" {
			clean = append(clean, l)
		}
	}
	o.nodeLabels[id] = clean
}

func (o *observed) addNode(id int64, labels []string, propsText string) {
	var clean []string
	for _, l := range labels {
		l = strings.TrimSpace(l)
		if l != "" {
			clean = append(clean, l)
		}
	}
	if o.described[id] {
		return // overlap regions show nodes twice
	}
	o.described[id] = true
	o.nodeLabels[id] = clean
	for _, l := range clean {
		lo := o.labels[l]
		if lo == nil {
			lo = &labelObs{props: map[string]*propObs{}, incomingBy: map[string]int{}, outgoingBy: map[string]int{}}
			o.labels[l] = lo
		}
		lo.count++
		if propsText != "" {
			observeProps(lo.props, propsText)
		}
	}
}

func observeProps(dst map[string]*propObs, propsText string) {
	var buf [64]byte
	kb := buf[:0]
	for _, part := range splitTopLevel(propsText) {
		i := strings.Index(part, ": ")
		if i < 0 {
			continue
		}
		key := strings.TrimSpace(part[:i])
		val, ok := graph.ParseLiteral(part[i+2:])
		if !ok {
			continue
		}
		po := dst[key]
		if po == nil {
			po = &propObs{kinds: map[graph.Kind]int{}, distinct: map[string]bool{}}
			dst[key] = po
		}
		po.count++
		po.kinds[val.Kind()]++
		kb = val.AppendSortKey(kb[:0])
		if !po.distinct[string(kb)] {
			po.distinct[string(kb)] = true
			if len(po.samples) < maxPropSamples {
				po.samples = append(po.samples, val)
			}
		}
	}
}

func (p *propObs) onlyKind() (graph.Kind, bool) {
	if len(p.kinds) != 1 {
		return graph.KindNull, false
	}
	for k := range p.kinds {
		return k, true
	}
	return graph.KindNull, false
}

func splitLabels(s string) []string { return strings.Split(s, ", ") }

func parseInt(s string) int64 {
	var n int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// splitTopLevel splits "k: v, k2: v2" on commas outside quotes/brackets.
func splitTopLevel(s string) []string {
	var parts []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '[':
			depth++
		case c == ']':
			depth--
		case c == ',' && depth == 0:
			parts = append(parts, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	return parts
}
