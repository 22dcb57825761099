package storage

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/graph"
)

func sampleGraph() *graph.Graph {
	g := graph.New("sample")
	a := g.AddNode([]string{"User", "Admin"}, graph.Props{
		"id":   graph.NewInt(1),
		"name": graph.NewString("alice, \"the\" admin"),
		"pi":   graph.NewFloat(3.25),
		"ok":   graph.NewBool(true),
		"tags": graph.NewList(graph.NewString("a"), graph.NewInt(2)),
	})
	b := g.AddNode([]string{"Tweet"}, nil)
	g.MustAddEdge(a.ID, b.ID, []string{"POSTS"}, graph.Props{"at": graph.NewInt(7)})
	g.MustAddEdge(b.ID, b.ID, []string{"SELF"}, nil)
	return g
}

// equalGraphs compares two graphs structurally via their schema description
// plus full node/edge walks.
func equalGraphs(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.Name() != b.Name() {
		t.Errorf("names differ: %q vs %q", a.Name(), b.Name())
	}
	if a.NodeCount() != b.NodeCount() || a.EdgeCount() != b.EdgeCount() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", a.NodeCount(), a.EdgeCount(), b.NodeCount(), b.EdgeCount())
	}
	sa, sb := graph.ExtractSchema(a), graph.ExtractSchema(b)
	if sa.Describe() != sb.Describe() {
		t.Errorf("schemas differ:\n%s\nvs\n%s", sa.Describe(), sb.Describe())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := sampleGraph()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, g, got)
	// Props survive bit-exactly.
	n := got.Node(got.NodesWithLabel("User")[0])
	if n.Prop("name").Str() != `alice, "the" admin` || n.Prop("pi").Float() != 3.25 {
		t.Errorf("props lost: %v", n.Props)
	}
	if n.Prop("tags").List()[1].Int() != 2 {
		t.Error("list prop lost")
	}
}

func TestSnapshotErrors(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadSnapshot(strings.NewReader("")); err == nil {
		t.Error("empty should fail")
	}
	// Truncated stream.
	g := sampleGraph()
	var buf bytes.Buffer
	WriteSnapshot(&buf, g)
	for _, cut := range []int{5, 10, buf.Len() / 2} {
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncated snapshot at %d should fail", cut)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := sampleGraph()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, g, got)
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestSnapshotDataset(t *testing.T) {
	g := datasets.Cybersecurity(datasets.DefaultOptions())
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, g, got)
}

func TestJSONRoundTrip(t *testing.T) {
	g := sampleGraph()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, g, got)
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("bad json should fail")
	}
}

func TestJSONIntegerPreservation(t *testing.T) {
	g := graph.New("ints")
	g.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(42), "f": graph.NewFloat(1.5)})
	var buf bytes.Buffer
	WriteJSON(&buf, g)
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := got.Node(got.Nodes()[0])
	if n.Prop("i").Kind() != graph.KindInt {
		t.Error("integers must stay integral through JSON")
	}
	if n.Prop("f").Kind() != graph.KindFloat {
		t.Error("floats must stay floats through JSON")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := sampleGraph()
	var nodes, edges bytes.Buffer
	if err := WriteNodesCSV(&nodes, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgesCSV(&edges, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("sample", &nodes, &edges)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, g, got)
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("id,labels,props\nbad,A,{}\n"), strings.NewReader("id,from,to,labels,props\n")); err == nil {
		t.Error("bad node id should fail")
	}
	if _, err := ReadCSV("x",
		strings.NewReader("id,labels,props\n0,A,{}\n"),
		strings.NewReader("id,from,to,labels,props\n0,0,99,R,{}\n")); err == nil {
		t.Error("unknown endpoint should fail")
	}
}

func TestWALReplay(t *testing.T) {
	g, buf := loggedGraph("w")
	a := g.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(1)})
	b := g.AddNode([]string{"Tweet"}, nil)
	e, err := g.AddEdge(a.ID, b.ID, []string{"POSTS"}, graph.Props{"at": graph.NewInt(9)})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProp(a.ID, "name", graph.NewString("x")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdgeProp(e.ID, "at", graph.NewInt(10)); err != nil {
		t.Fatal(err)
	}
	c := g.AddNode([]string{"Temp"}, nil)
	g.RemoveNode(c.ID)
	// 7 mutations, each its own epoch and so its own frame.
	if n := len(frameEnds(t, buf.Bytes())); n != 7 {
		t.Errorf("wal frames = %d", n)
	}

	replayed := recoverWhole(t, "w", buf.Bytes())
	equalGraphs(t, g, replayed)
	rn := replayed.Node(replayed.NodesWithLabel("User")[0])
	if rn.Prop("name").Str() != "x" {
		t.Error("replayed prop wrong")
	}
	re := replayed.Edge(replayed.EdgesWithType("POSTS")[0])
	if re.Prop("at").Int() != 10 {
		t.Error("replayed edge prop wrong")
	}
}

// TestWALReplayErrors: a frame that passes its CRC but does not decode or
// apply is an error, not a torn tail.
func TestWALReplayErrors(t *testing.T) {
	epoch := func(ops ...graph.Op) *graph.Delta { return &graph.Delta{Epoch: 1, Ops: ops} }
	bad := map[string][]byte{
		"unknown endpoint": logOf(t, epoch(graph.Op{Kind: graph.OpAddEdge,
			Edge: &graph.Edge{From: 1, To: 2, Labels: []string{"R"}}})),
		"unknown node": logOf(t, epoch(graph.Op{Kind: graph.OpSetNodeProp,
			ID: 5, Key: "x", Value: graph.NewInt(1)})),
		"unknown op":        appendFrame(nil, []byte{1, 99}),
		"truncated payload": appendFrame(nil, []byte{1, byte(graph.OpAddNode), 0x80}),
	}
	for name, data := range bad {
		if _, _, err := RecoverReplay("x", bytes.NewReader(data)); err == nil {
			t.Errorf("%s: recovery should fail", name)
		}
	}
	if err := NewGroupWAL(&bytes.Buffer{}, 0).Append(epoch(graph.Op{Kind: 99})); err == nil {
		t.Error("appending an unknown op should fail")
	}
}

// Property: any graph of random scalar props survives a snapshot round
// trip with identical schema.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(ids []int8, names []string) bool {
		g := graph.New("q")
		var nodes []graph.ID
		for i, id := range ids {
			name := ""
			if i < len(names) {
				name = names[i]
			}
			n := g.AddNode([]string{"N"}, graph.Props{
				"id":   graph.NewInt(int64(id)),
				"name": graph.NewString(name),
			})
			nodes = append(nodes, n.ID)
		}
		for i := 1; i < len(nodes); i++ {
			g.MustAddEdge(nodes[i-1], nodes[i], []string{"R"}, nil)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			return false
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			return false
		}
		return got.NodeCount() == g.NodeCount() && got.EdgeCount() == g.EdgeCount() &&
			graph.ExtractSchema(got).Describe() == graph.ExtractSchema(g).Describe()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
