package metrics

import (
	"math/rand"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/rules"
)

// TestRandomRuleCrossCheckProperty generates random small graphs and random
// rules over their schemas, asserting the dual-path invariant (Cypher
// evaluation == native evaluation) on every combination. This is the
// broadest correctness sweep of the metric layer.
func TestRandomRuleCrossCheckProperty(t *testing.T) {
	labels := []string{"A", "B", "C"}
	keys := []string{"id", "k", "t"}
	edgeTypes := []string{"R", "S"}

	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := graph.New("prop")
		var nodes []graph.ID
		nNodes := 5 + rng.Intn(20)
		for i := 0; i < nNodes; i++ {
			props := graph.Props{}
			for _, k := range keys {
				switch rng.Intn(4) {
				case 0: // absent
				case 1:
					props[k] = graph.NewInt(int64(rng.Intn(5)))
				case 2:
					props[k] = graph.NewString(string(rune('a' + rng.Intn(3))))
				case 3:
					props[k] = graph.NewBool(rng.Intn(2) == 0)
				}
			}
			n := g.AddNode([]string{labels[rng.Intn(len(labels))]}, props)
			nodes = append(nodes, n.ID)
		}
		nEdges := rng.Intn(30)
		for i := 0; i < nEdges; i++ {
			props := graph.Props{}
			if rng.Intn(2) == 0 {
				props["w"] = graph.NewInt(int64(rng.Intn(3)))
			}
			g.MustAddEdge(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))],
				[]string{edgeTypes[rng.Intn(len(edgeTypes))]}, props)
		}

		candidates := []rules.Rule{
			&rules.RequiredProperty{Label: pickS(rng, labels), Key: pickS(rng, keys)},
			&rules.UniqueProperty{Label: pickS(rng, labels), Key: pickS(rng, keys)},
			&rules.ValueDomain{Label: pickS(rng, labels), Key: pickS(rng, keys),
				Allowed: []graph.Value{graph.NewInt(0), graph.NewBool(true), graph.NewString("a")}},
			&rules.PropertyType{Label: pickS(rng, labels), Key: pickS(rng, keys), PropKind: graph.KindInt},
			&rules.EdgeEndpoints{EdgeType: pickS(rng, edgeTypes), FromLabel: pickS(rng, labels), ToLabel: pickS(rng, labels)},
			&rules.MandatoryEdge{Label: pickS(rng, labels), EdgeType: pickS(rng, edgeTypes),
				Incoming: rng.Intn(2) == 0, OtherLabel: pickS(rng, labels)},
			&rules.NoSelfLoop{EdgeType: pickS(rng, edgeTypes)},
			&rules.TemporalOrder{EdgeType: pickS(rng, edgeTypes), FromLabel: pickS(rng, labels),
				ToLabel: pickS(rng, labels), Key: pickS(rng, keys)},
			&rules.UniqueEdgeProp{EdgeType: pickS(rng, edgeTypes), FromLabel: pickS(rng, labels),
				ToLabel: pickS(rng, labels), Key: "w"},
			&rules.PathAssociation{ALabel: pickS(rng, labels), E1: "R", BLabel: pickS(rng, labels),
				E2: "S", CLabel: pickS(rng, labels), ReqE1: "S", ReqLabel: pickS(rng, labels), ReqE2: "R"},
		}
		for _, r := range candidates {
			if err := CrossCheck(g, r); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func pickS(rng *rand.Rand, ss []string) string { return ss[rng.Intn(len(ss))] }

// TestCrossCheckBigInts: ids beyond 2^53, as real Twitter ids are, stay
// distinct on both evaluation paths. Agreement alone would not catch a
// shared rounding, so the counts are also checked against values worked
// out by hand: of the ids {2^53, 2^53+1, 2^53+1, 2^53 as a float, 2^53+3}
// only 2^53+3 is unique (2^53 equals its float), and the timestamp edge
// from 2^53+1 to 2^53 is ordered while 2^53 to 2^53+1 is not.
func TestCrossCheckBigInts(t *testing.T) {
	const p53 = int64(1) << 53
	g := graph.New("bigint")
	var ids []graph.ID
	for _, v := range []graph.Value{graph.NewInt(p53), graph.NewInt(p53 + 1), graph.NewInt(p53 + 1), graph.NewFloat(float64(p53)), graph.NewInt(p53 + 3)} {
		ids = append(ids, g.AddNode([]string{"Tweet"}, graph.Props{"id": v, "ts": v}).ID)
	}
	g.MustAddEdge(ids[1], ids[0], []string{"RETWEETS"}, graph.Props{"w": graph.NewInt(p53 + 1)})
	g.MustAddEdge(ids[0], ids[1], []string{"RETWEETS"}, graph.Props{"w": graph.NewInt(p53)})
	g.MustAddEdge(ids[0], ids[1], []string{"RETWEETS"}, graph.Props{"w": graph.NewInt(p53 + 1)})
	cases := []struct {
		r    rules.Rule
		want rules.Counts
	}{
		{&rules.UniqueProperty{Label: "Tweet", Key: "id"}, rules.Counts{Support: 1, Body: 5, HeadTotal: 5}},
		{&rules.ValueDomain{Label: "Tweet", Key: "id", Allowed: []graph.Value{graph.NewInt(p53 + 1)}},
			rules.Counts{Support: 2, Body: 5, HeadTotal: 5}},
		{&rules.TemporalOrder{EdgeType: "RETWEETS", FromLabel: "Tweet", ToLabel: "Tweet", Key: "ts"},
			rules.Counts{Support: 1, Body: 3, HeadTotal: 3}},
		{&rules.UniqueEdgeProp{EdgeType: "RETWEETS", FromLabel: "Tweet", ToLabel: "Tweet", Key: "w"},
			rules.Counts{Support: 3, Body: 3, HeadTotal: 3}},
	}
	for _, c := range cases {
		if err := CrossCheck(g, c.r); err != nil {
			t.Fatal(err)
		}
		got, err := c.r.CountsNative(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: counts %+v, want %+v", c.r.DedupKey(), got, c.want)
		}
	}
}
