package storage

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/graphrules/graphrules/internal/graph"
)

// jsonGraph is the JSON interchange shape.
type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID     int64          `json:"id"`
	Labels []string       `json:"labels"`
	Props  map[string]any `json:"props,omitempty"`
}

type jsonEdge struct {
	ID     int64          `json:"id"`
	From   int64          `json:"from"`
	To     int64          `json:"to"`
	Labels []string       `json:"labels"`
	Props  map[string]any `json:"props,omitempty"`
}

// WriteJSON serializes the graph as indented JSON.
func WriteJSON(w io.Writer, g *graph.Graph) error {
	jg := jsonGraph{Name: g.Name()}
	g.ForEachNode(func(n *graph.Node) {
		jg.Nodes = append(jg.Nodes, jsonNode{ID: int64(n.ID), Labels: n.Labels, Props: propsToAny(n.Props)})
	})
	g.ForEachEdge(func(e *graph.Edge) {
		jg.Edges = append(jg.Edges, jsonEdge{
			ID: int64(e.ID), From: int64(e.From), To: int64(e.To),
			Labels: e.Labels, Props: propsToAny(e.Props),
		})
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
}

// ReadJSON deserializes a graph from the JSON interchange format. As with
// snapshots, IDs are reassigned densely; topology is preserved. Numbers
// are decoded via json.Number, so int64 values survive beyond float64's
// 2^53 integer range.
func ReadJSON(r io.Reader) (*graph.Graph, error) {
	var jg jsonGraph
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("storage: bad json graph: %w", err)
	}
	g := graph.New(jg.Name)
	idMap := make(map[int64]graph.ID, len(jg.Nodes))
	for _, jn := range jg.Nodes {
		props, err := anyToProps(jn.Props)
		if err != nil {
			return nil, err
		}
		n := g.AddNode(jn.Labels, props)
		idMap[jn.ID] = n.ID
	}
	for _, je := range jg.Edges {
		props, err := anyToProps(je.Props)
		if err != nil {
			return nil, err
		}
		from, ok1 := idMap[je.From]
		to, ok2 := idMap[je.To]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("storage: json edge %d references unknown node", je.ID)
		}
		if _, err := g.AddEdge(from, to, je.Labels, props); err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
	}
	return g, nil
}

func propsToAny(p graph.Props) map[string]any {
	if len(p) == 0 {
		return nil
	}
	out := make(map[string]any, len(p))
	for k, v := range p {
		out[k] = valueToAny(v)
	}
	return out
}

func valueToAny(v graph.Value) any {
	switch v.Kind() {
	case graph.KindBool:
		return v.Bool()
	case graph.KindInt:
		return v.Int()
	case graph.KindFloat:
		return v.Float()
	case graph.KindString:
		return v.Str()
	case graph.KindList:
		out := make([]any, len(v.List()))
		for i, e := range v.List() {
			out[i] = valueToAny(e)
		}
		return out
	default:
		return nil
	}
}

func anyToProps(m map[string]any) (graph.Props, error) {
	if len(m) == 0 {
		return nil, nil
	}
	p := make(graph.Props, len(m))
	for k, raw := range m {
		v, err := anyToValue(raw)
		if err != nil {
			return nil, fmt.Errorf("storage: property %q: %w", k, err)
		}
		p[k] = v
	}
	return p, nil
}

func anyToValue(raw any) (graph.Value, error) {
	switch x := raw.(type) {
	case nil:
		return graph.Null, nil
	case bool:
		return graph.NewBool(x), nil
	case string:
		return graph.NewString(x), nil
	case json.Number:
		// ReadJSON decodes with UseNumber: integral spellings stay
		// int64-exact, everything else is a float.
		if i, err := x.Int64(); err == nil {
			return graph.NewInt(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return graph.Null, fmt.Errorf("bad number %q", x.String())
		}
		return graph.NewFloat(f), nil
	case float64:
		// JSON numbers arrive as float64; keep integers integral.
		if x == float64(int64(x)) {
			return graph.NewInt(int64(x)), nil
		}
		return graph.NewFloat(x), nil
	case []any:
		elems := make([]graph.Value, len(x))
		for i, e := range x {
			v, err := anyToValue(e)
			if err != nil {
				return graph.Null, err
			}
			elems[i] = v
		}
		return graph.NewList(elems...), nil
	default:
		return graph.Null, fmt.Errorf("unsupported JSON value %T", raw)
	}
}
