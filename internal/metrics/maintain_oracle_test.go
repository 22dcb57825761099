package metrics

// Differential oracle for incremental metric maintenance: on each of the
// three paper datasets, a seeded randomized mutation stream drives the
// graph through a sequence of epochs while a Maintainer (attached to the
// commit stream) keeps rule scores current. After EVERY epoch the
// maintained scores must equal a full recompute of every rule on the
// post-epoch graph — the delta-scoping optimization must be invisible in
// the results.
//
// Environment knobs (all optional), mirroring the cypher oracle:
//
//	GRAPHRULES_ORACLE_SEED      mutation-stream seed (default 1)
//	GRAPHRULES_METRICS_EPOCHS   epochs per dataset/config (default 10;
//	                            4 under -short)
//	GRAPHRULES_ORACLE_ARTIFACT  file to append failing reproductions to

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/rules"
)

func envInt64M(name string, def int64) int64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// oracleRules is the per-dataset rule set: the same rules the metric
// cross-check suite trusts, so both ends of the differential are anchored.
func oracleRules(dataset string) []rules.Rule {
	switch dataset {
	case "WWC2019":
		return []rules.Rule{
			&rules.RequiredProperty{Label: "Match", Key: "date"},
			&rules.UniqueProperty{Label: "Person", Key: "id"},
			&rules.EdgeEndpoints{EdgeType: "IN_TOURNAMENT", FromLabel: "Match", ToLabel: "Tournament"},
			&rules.UniqueEdgeProp{EdgeType: "SCORED_GOAL", FromLabel: "Person", ToLabel: "Match", Key: "minute"},
			&rules.MandatoryEdge{Label: "Squad", EdgeType: "FOR", OtherLabel: "Tournament"},
			&rules.PathAssociation{ALabel: "Person", E1: "PLAYED_IN", BLabel: "Match", E2: "IN_TOURNAMENT", CLabel: "Tournament",
				ReqE1: "IN_SQUAD", ReqLabel: "Squad", ReqE2: "FOR"},
		}
	case "Cybersecurity":
		return []rules.Rule{
			&rules.ValueDomain{Label: "User", Key: "owned", Allowed: []graph.Value{graph.NewBool(true), graph.NewBool(false)}},
			&rules.ValueFormat{Label: "User", Key: "domain", Pattern: `([a-zA-Z0-9-]+\.)+[a-zA-Z]{2,}`},
			&rules.NoSelfLoop{EdgeType: "FORCE_CHANGE_PASSWORD"},
			&rules.MandatoryEdge{Label: "User", EdgeType: "MEMBER_OF", OtherLabel: "Group"},
			&rules.PropertyType{Label: "User", Key: "owned", PropKind: graph.KindBool},
		}
	case "Twitter":
		return []rules.Rule{
			&rules.RequiredProperty{Label: "Tweet", Key: "text"},
			&rules.UniqueProperty{Label: "Tweet", Key: "id"},
			&rules.NoSelfLoop{EdgeType: "FOLLOWS"},
			&rules.EdgeEndpoints{EdgeType: "POSTS", FromLabel: "User", ToLabel: "Tweet"},
			&rules.MandatoryEdge{Label: "Tweet", EdgeType: "POSTS", OtherLabel: "User", Incoming: true},
		}
	}
	return nil
}

// mutationStream applies one random epoch to g and returns a reproduction
// string for the artifact. Failed individual mutations (e.g. a remove
// racing the random pick) commit no epoch, which is itself a valid case:
// the maintainer must simply see nothing.
type mutationStream struct {
	rng    *rand.Rand
	labels []string
	types  []string
	// keys the datasets' rules actually read, plus a scratch key no rule
	// reads — the latter forces skip-path coverage.
	keys []string
	log  []string
}

func newMutationStream(g *graph.Graph, seed int64) *mutationStream {
	s := &mutationStream{
		rng:  rand.New(rand.NewSource(seed)),
		keys: []string{"id", "date", "minute", "owned", "text", "domain", "zz_scratch"},
	}
	seenL := map[string]bool{}
	for _, id := range g.Nodes() {
		for _, l := range g.Node(id).Labels {
			if !seenL[l] {
				seenL[l] = true
				s.labels = append(s.labels, l)
			}
		}
	}
	seenT := map[string]bool{}
	for _, id := range g.Edges() {
		for _, l := range g.Edge(id).Labels {
			if !seenT[l] {
				seenT[l] = true
				s.types = append(s.types, l)
			}
		}
	}
	return s
}

func (s *mutationStream) randNode(g *graph.Graph) (graph.ID, bool) {
	ids := g.Nodes()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[s.rng.Intn(len(ids))], true
}

func (s *mutationStream) randValue() graph.Value {
	switch s.rng.Intn(4) {
	case 0:
		return graph.NewInt(s.rng.Int63n(1000))
	case 1:
		return graph.NewFloat(float64(s.rng.Intn(100)) / 4)
	case 2:
		return graph.NewBool(s.rng.Intn(2) == 0)
	default:
		return graph.NewString(fmt.Sprintf("v%d", s.rng.Intn(100)))
	}
}

// step applies one epoch-worth of mutation and logs it.
func (s *mutationStream) step(g *graph.Graph, epoch int) {
	op := s.rng.Intn(6)
	switch op {
	case 0: // add node under a random existing label
		l := s.labels[s.rng.Intn(len(s.labels))]
		g.AddNode([]string{l}, graph.Props{"id": graph.NewInt(s.rng.Int63n(1 << 30))})
		s.log = append(s.log, fmt.Sprintf("e%d: add node :%s", epoch, l))
	case 1: // remove a random node (cascades incident edges)
		if id, ok := s.randNode(g); ok {
			g.RemoveNode(id)
			s.log = append(s.log, fmt.Sprintf("e%d: remove node %d", epoch, id))
		}
	case 2: // set a rule-relevant or scratch property
		if id, ok := s.randNode(g); ok {
			k := s.keys[s.rng.Intn(len(s.keys))]
			_ = g.SetNodeProp(id, k, s.randValue())
			s.log = append(s.log, fmt.Sprintf("e%d: set node %d .%s", epoch, id, k))
		}
	case 3: // add an edge of a random existing type
		a, ok1 := s.randNode(g)
		b, ok2 := s.randNode(g)
		if ok1 && ok2 && len(s.types) > 0 {
			tp := s.types[s.rng.Intn(len(s.types))]
			if _, err := g.AddEdge(a, b, []string{tp}, nil); err == nil {
				s.log = append(s.log, fmt.Sprintf("e%d: add edge %d-[:%s]->%d", epoch, a, tp, b))
			}
		}
	case 4: // remove a random edge
		ids := g.Edges()
		if len(ids) > 0 {
			id := ids[s.rng.Intn(len(ids))]
			g.RemoveEdge(id)
			s.log = append(s.log, fmt.Sprintf("e%d: remove edge %d", epoch, id))
		}
	case 5: // batch: several ops in one epoch
		b := g.NewBatch()
		l := s.labels[s.rng.Intn(len(s.labels))]
		n := b.AddNode([]string{l}, graph.Props{"id": graph.NewInt(s.rng.Int63n(1 << 30))})
		b.SetNodeProp(n.ID, "zz_scratch", s.randValue())
		if id, ok := s.randNode(g); ok {
			b.SetNodeProp(id, s.keys[s.rng.Intn(len(s.keys))], s.randValue())
		}
		if _, err := b.Commit(); err != nil {
			s.log = append(s.log, fmt.Sprintf("e%d: batch FAILED: %v", epoch, err))
			return
		}
		s.log = append(s.log, fmt.Sprintf("e%d: batch add :%s + 2 setprops", epoch, l))
	}
}

func writeMetricsOracleArtifact(dataset string, seed int64, detail string, log []string) {
	path := os.Getenv("GRAPHRULES_ORACLE_ARTIFACT")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "metrics-oracle dataset=%s seed=%d\n%s\nstream:\n", dataset, seed, detail)
	for _, l := range log {
		fmt.Fprintf(f, "  %s\n", l)
	}
	fmt.Fprintln(f)
}

func TestMaintainerDifferentialOracle(t *testing.T) {
	seed := envInt64M("GRAPHRULES_ORACLE_SEED", 1)
	epochs := int(envInt64M("GRAPHRULES_METRICS_EPOCHS", 10))
	if testing.Short() && os.Getenv("GRAPHRULES_METRICS_EPOCHS") == "" {
		epochs = 4
	}
	for _, name := range datasets.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gen, err := datasets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := gen(datasets.Options{Seed: 42, ViolationRate: 0.03})
			m := NewMaintainer(g, oracleRules(name))
			defer m.Attach()()
			// Seed differs per dataset so each exercises a different
			// stream (+6 keeps the streams of the original "serial" arm).
			s := newMutationStream(g, seed+int64(len(name))+6)
			for e := 0; e < epochs; e++ {
				s.step(g, e)
				diffs, err := m.Diff(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(diffs) > 0 {
					detail := fmt.Sprintf("after epoch %d: %d mismatches\n%s",
						e, len(diffs), diffs[0])
					writeMetricsOracleArtifact(name, seed, detail, s.log)
					for _, d := range diffs {
						t.Errorf("epoch %d: %s", e, d)
					}
					t.Fatalf("maintained scores diverged (seed=%d, GRAPHRULES_ORACLE_SEED to reproduce)", seed)
				}
			}
			st := m.Stats()
			t.Logf("%s: epochs=%d rescored=%d skipped=%d",
				name, st.Epochs, st.Rescored, st.Skipped)
			if st.Epochs == 0 {
				t.Error("mutation stream committed no epochs")
			}
			if st.Rescored+st.Skipped != st.Epochs*len(oracleRules(name)) {
				t.Errorf("stats don't add up: %+v over %d rules", st, len(oracleRules(name)))
			}
		})
	}
}

// TestMaintainerSkipsAreReal: on a dataset-scale graph, the scratch-key
// epoch (a property no rule reads) must skip every rule — the delta
// scoping has to actually prune, not just stay correct.
func TestMaintainerSkipsAreReal(t *testing.T) {
	g := datasets.Cybersecurity(datasets.Options{Seed: 7, ViolationRate: 0.03})
	m := NewMaintainer(g, oracleRules("Cybersecurity"))
	defer m.Attach()()
	if err := g.SetNodeProp(g.Nodes()[0], "zz_scratch", graph.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Epochs != 1 || st.Rescored != 0 || st.Skipped != len(oracleRules("Cybersecurity")) {
		t.Errorf("scratch-key epoch must skip all rules: %+v", st)
	}
}
