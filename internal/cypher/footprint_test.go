package cypher

import (
	"strings"
	"sync"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

func fp(t *testing.T, src string) *Footprint {
	t.Helper()
	f, err := FootprintOf(src)
	if err != nil {
		t.Fatalf("FootprintOf(%q): %v", src, err)
	}
	return f
}

func TestFootprintExtraction(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{
			"MATCH (p:Person) RETURN count(p) AS n",
			"nodes:[Person] edges:[] keys:[]",
		},
		{
			"MATCH (p:Person) WHERE p.age > 30 RETURN p.name",
			"nodes:[Person] edges:[] keys:[age name]",
		},
		{
			"MATCH (a:User)-[r:MEMBER_OF]->(g:Group) RETURN count(r) AS n",
			"nodes:[Group User] edges:[MEMBER_OF] keys:[]",
		},
		{
			// Unlabeled node widens the node side only.
			"MATCH (n) RETURN count(n) AS n",
			"nodes:any edges:[] keys:[]",
		},
		{
			// Untyped rel widens the edge side.
			"MATCH (a:User)-[r]->(b:User) RETURN count(r) AS n",
			"nodes:[User] edges:any keys:[]",
		},
		{
			// Inline props are key reads.
			"MATCH (p:Person {id: 1}) RETURN count(p) AS n",
			"nodes:[Person] edges:[] keys:[id]",
		},
		{
			// keys() widens the key set.
			"MATCH (p:Person) RETURN keys(p) AS k",
			"nodes:[Person] edges:[] keys:all",
		},
		{
			// Label predicate in WHERE reads that label's membership.
			"MATCH (n:User) WHERE n:Admin RETURN count(n) AS n",
			"nodes:[Admin User] edges:[] keys:[]",
		},
		{
			// Pattern predicate contributes its pattern; the bound-var
			// reference (u) is syntactically unlabeled, so the node side
			// conservatively widens (scope analysis could tighten this).
			"MATCH (u:User) WHERE (u)-[:OWNS]->(:Device) RETURN count(u) AS n",
			"nodes:any edges:[OWNS] keys:[]",
		},
		{
			"CREATE (n:X) RETURN n",
			"nodes:any edges:any keys:all mutates",
		},
	}
	for _, c := range cases {
		if got := fp(t, c.src).String(); got != c.want {
			t.Errorf("footprint(%q)\n got %s\nwant %s", c.src, got, c.want)
		}
	}
}

// deltaFor applies mutate to a fresh graph (after setup) and returns the
// delta of the LAST committed epoch.
func deltaFor(t *testing.T, setup, mutate func(g *graph.Graph)) *graph.Delta {
	t.Helper()
	g := graph.New("d")
	if setup != nil {
		setup(g)
	}
	var last *graph.Delta
	defer g.OnCommit(func(d *graph.Delta) { last = d })()
	mutate(g)
	if last == nil {
		t.Fatal("mutation committed no epoch")
	}
	return last
}

func TestFootprintIntersects(t *testing.T) {
	addPerson := func(g *graph.Graph) { g.AddNode([]string{"Person"}, graph.Props{"age": graph.NewInt(1)}) }

	personCount := fp(t, "MATCH (p:Person) RETURN count(p) AS n")
	personAge := fp(t, "MATCH (p:Person) WHERE p.age > 30 RETURN count(p) AS n")
	memberOf := fp(t, "MATCH (a:User)-[r:MEMBER_OF]->(g:Group) RETURN count(r) AS n")

	// Structural node change under the matched label: intersects.
	d := deltaFor(t, nil, addPerson)
	if !personCount.Intersects(d) || !personAge.Intersects(d) {
		t.Error("Person add must intersect Person queries")
	}
	if memberOf.Intersects(d) {
		t.Error("Person add must not intersect MEMBER_OF query")
	}

	// Property change on an unread key: count(p) is label-only, age query
	// reads age — neither reads "city".
	d = deltaFor(t, addPerson, func(g *graph.Graph) {
		_ = g.SetNodeProp(g.Nodes()[0], "city", graph.NewString("x"))
	})
	if personCount.Intersects(d) {
		t.Error("city change must not intersect count-only query")
	}
	if personAge.Intersects(d) {
		t.Error("city change must not intersect age query")
	}

	// Property change on the read key: intersects the age query only.
	d = deltaFor(t, addPerson, func(g *graph.Graph) {
		_ = g.SetNodeProp(g.Nodes()[0], "age", graph.NewInt(50))
	})
	if personCount.Intersects(d) {
		t.Error("age change must not intersect count-only query")
	}
	if !personAge.Intersects(d) {
		t.Error("age change must intersect age query")
	}

	// Edge epoch under a different type: no intersection.
	d = deltaFor(t, func(g *graph.Graph) {
		a := g.AddNode([]string{"User"}, nil)
		b := g.AddNode([]string{"Group"}, nil)
		g.MustAddEdge(a.ID, b.ID, []string{"OWNS"}, nil)
	}, func(g *graph.Graph) {
		g.RemoveEdge(g.Edges()[0])
	})
	if memberOf.Intersects(d) {
		t.Error("OWNS removal must not intersect MEMBER_OF query")
	}

	// Matching edge type: intersects (and the endpoint labels too).
	d = deltaFor(t, func(g *graph.Graph) {
		g.AddNode([]string{"User"}, nil)
		g.AddNode([]string{"Group"}, nil)
	}, func(g *graph.Graph) {
		ids := g.Nodes()
		g.MustAddEdge(ids[0], ids[1], []string{"MEMBER_OF"}, nil)
	})
	if !memberOf.Intersects(d) {
		t.Error("MEMBER_OF add must intersect MEMBER_OF query")
	}

	// AddNodeLabels: a node gaining Person must intersect Person queries
	// (structural under old + new labels).
	d = deltaFor(t, func(g *graph.Graph) {
		g.AddNode([]string{"Other"}, nil)
	}, func(g *graph.Graph) {
		_ = g.AddNodeLabels(g.Nodes()[0], "Person")
	})
	if !personCount.Intersects(d) {
		t.Error("label gain must intersect Person query")
	}

	// Unlabeled-node query intersects any structural node change.
	anyNode := fp(t, "MATCH (n) RETURN count(n) AS n")
	d = deltaFor(t, nil, addPerson)
	if !anyNode.Intersects(d) {
		t.Error("unlabeled query must intersect any node add")
	}

	// Mutating queries intersect everything.
	mut := fp(t, "CREATE (n:Z) RETURN n")
	if !mut.Intersects(&graph.Delta{}) {
		t.Error("mutating query must always intersect")
	}
}

func TestFootprintMerge(t *testing.T) {
	f := fp(t, "MATCH (p:Person) RETURN count(p) AS n")
	f.Merge(fp(t, "MATCH (a:User)-[r:MEMBER_OF]->(g:Group) WHERE r.since > 0 RETURN count(r) AS n"))
	want := "nodes:[Group Person User] edges:[MEMBER_OF] keys:[since]"
	if got := f.String(); got != want {
		t.Errorf("merged footprint %s, want %s", got, want)
	}
}

// TestSnapshotPinStableScan: with WithSnapshotPin, a query result is a
// function of the epoch at execution start — a writer committing between
// two executions changes the result, but the pinned view inside one
// execution is stable even under heavy concurrent commits.
func TestSnapshotPinStableScan(t *testing.T) {
	g := graph.New("pin")
	for i := 0; i < 200; i++ {
		g.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
	}
	ex := NewExecutor(g, WithSnapshotPin(true))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
			ids := g.Nodes()
			g.RemoveNode(ids[len(ids)-1])
		}
	}()

	for iter := 0; iter < 100; iter++ {
		// Both aggregates in ONE query must observe the same epoch: with a
		// live graph a writer could commit between clause evaluations of
		// two queries, but within one pinned execution count parity holds.
		res, err := ex.Run("MATCH (n:N) RETURN count(n) AS n", nil)
		if err != nil {
			t.Fatal(err)
		}
		n := res.Rows[0][res.Column("n")].Val.Int()
		if n < 200 || n > 201 {
			t.Fatalf("count %d outside [200, 201]", n)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotPinMutationsStayLive: CREATE under a pinned executor still
// writes to the live graph and is visible afterwards.
func TestSnapshotPinMutationsStayLive(t *testing.T) {
	g := graph.New("pinmut")
	ex := NewExecutor(g, WithSnapshotPin(true))
	if _, err := ex.Run("CREATE (n:Made {x: 1}) RETURN n", nil); err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 1 {
		t.Fatalf("live graph has %d nodes", g.NodeCount())
	}
	res, err := ex.Run("MATCH (n:Made) RETURN count(n) AS n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][res.Column("n")].Val.Int() != 1 {
		t.Fatal("pinned read does not see earlier committed write")
	}
}

// TestFootprintUnknownWidens: defensive widening renders as wild.
func TestFootprintUnknownWidens(t *testing.T) {
	f := NewFootprint()
	f.widen()
	if !f.Wild() {
		t.Fatal("widen did not wild")
	}
	if !strings.Contains(f.String(), "nodes:any") {
		t.Fatalf("String: %s", f.String())
	}
}
