package rules

import (
	"fmt"
	"strconv"

	"github.com/graphrules/graphrules/internal/graph"
)

// ---------- EdgeEndpoints ----------

// EdgeEndpoints requires every edge of a type to connect the stated labels:
// "Every POSTS relationship should connect a User to a Tweet."
type EdgeEndpoints struct {
	EdgeType  string
	FromLabel string
	ToLabel   string
}

// Kind implements Rule.
func (r *EdgeEndpoints) Kind() Kind { return KindEdgeEndpoints }

// Complexity implements Rule.
func (r *EdgeEndpoints) Complexity() Complexity { return Structural }

// NL implements Rule.
func (r *EdgeEndpoints) NL() string {
	return fmt.Sprintf("Every %s relationship should connect a %s node to a %s node.",
		r.EdgeType, r.FromLabel, r.ToLabel)
}

// Formal implements Rule.
func (r *EdgeEndpoints) Formal() string {
	return fmt.Sprintf("∀x,y: %s(x,y) → %s(x) ∧ %s(y)", r.EdgeType, r.FromLabel, r.ToLabel)
}

// DedupKey implements Rule.
func (r *EdgeEndpoints) DedupKey() string {
	return fmt.Sprintf("endpoints:%s:%s->%s", r.EdgeType, r.FromLabel, r.ToLabel)
}

// Queries implements Rule.
func (r *EdgeEndpoints) Queries() QuerySet {
	return QuerySet{
		Support: fmt.Sprintf("MATCH (a)-[r:%s]->(b) WHERE a:%s AND b:%s RETURN count(*) AS n",
			r.EdgeType, r.FromLabel, r.ToLabel),
		Body:      fmt.Sprintf("MATCH (a)-[r:%s]->(b) RETURN count(*) AS n", r.EdgeType),
		HeadTotal: fmt.Sprintf("MATCH (a)-[r:%s]->(b) RETURN count(*) AS n", r.EdgeType),
	}
}

// CountsNative implements Rule.
func (r *EdgeEndpoints) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	for _, id := range g.EdgesWithType(r.EdgeType) {
		c.Body++
		e := g.Edge(id)
		from, to := g.Node(e.From), g.Node(e.To)
		if from != nil && to != nil && from.HasLabel(r.FromLabel) && to.HasLabel(r.ToLabel) {
			c.Support++
		}
	}
	c.HeadTotal = c.Body
	return c, nil
}

// ---------- MandatoryEdge ----------

// MandatoryEdge requires every node of a label to have at least one edge of
// a type: "Every Tweet must be associated with a valid User who posted it."
type MandatoryEdge struct {
	Label      string
	EdgeType   string
	Incoming   bool // true: (other)-[:T]->(x); false: (x)-[:T]->(other)
	OtherLabel string
}

// Kind implements Rule.
func (r *MandatoryEdge) Kind() Kind { return KindMandatoryEdge }

// Complexity implements Rule.
func (r *MandatoryEdge) Complexity() Complexity { return Structural }

// NL implements Rule.
func (r *MandatoryEdge) NL() string {
	if r.Incoming {
		return fmt.Sprintf("Every %s node should have an incoming %s relationship from a %s node.",
			r.Label, r.EdgeType, r.OtherLabel)
	}
	return fmt.Sprintf("Every %s node should have an outgoing %s relationship to a %s node.",
		r.Label, r.EdgeType, r.OtherLabel)
}

// Formal implements Rule.
func (r *MandatoryEdge) Formal() string {
	if r.Incoming {
		return fmt.Sprintf("∀x: %s(x) → ∃y: %s(y) ∧ %s(y,x)", r.Label, r.OtherLabel, r.EdgeType)
	}
	return fmt.Sprintf("∀x: %s(x) → ∃y: %s(y) ∧ %s(x,y)", r.Label, r.OtherLabel, r.EdgeType)
}

// DedupKey implements Rule.
func (r *MandatoryEdge) DedupKey() string {
	dir := "out"
	if r.Incoming {
		dir = "in"
	}
	return fmt.Sprintf("mandatory:%s:%s:%s:%s", r.Label, dir, r.EdgeType, r.OtherLabel)
}

// Queries implements Rule.
func (r *MandatoryEdge) Queries() QuerySet {
	pat := fmt.Sprintf("(x)-[:%s]->(:%s)", r.EdgeType, r.OtherLabel)
	if r.Incoming {
		pat = fmt.Sprintf("(x)<-[:%s]-(:%s)", r.EdgeType, r.OtherLabel)
	}
	return QuerySet{
		Support:   fmt.Sprintf("MATCH (x:%s) WHERE %s RETURN count(*) AS n", r.Label, pat),
		Body:      fmt.Sprintf("MATCH (x:%s) RETURN count(*) AS n", r.Label),
		HeadTotal: fmt.Sprintf("MATCH (x:%s) RETURN count(*) AS n", r.Label),
	}
}

// CountsNative implements Rule.
func (r *MandatoryEdge) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	for _, id := range g.NodesWithLabel(r.Label) {
		c.Body++
		var edges []graph.ID
		if r.Incoming {
			edges = g.InEdges(id)
		} else {
			edges = g.OutEdges(id)
		}
		for _, eid := range edges {
			e := g.Edge(eid)
			if !e.HasLabel(r.EdgeType) {
				continue
			}
			other := e.From
			if !r.Incoming {
				other = e.To
			}
			if on := g.Node(other); on != nil && on.HasLabel(r.OtherLabel) {
				c.Support++
				break
			}
		}
	}
	c.HeadTotal = c.Body
	return c, nil
}

// ---------- NoSelfLoop ----------

// NoSelfLoop forbids self-edges of a type: "Users cannot follow themselves."
type NoSelfLoop struct {
	EdgeType string
}

// Kind implements Rule.
func (r *NoSelfLoop) Kind() Kind { return KindNoSelfLoop }

// Complexity implements Rule.
func (r *NoSelfLoop) Complexity() Complexity { return Structural }

// NL implements Rule.
func (r *NoSelfLoop) NL() string {
	return fmt.Sprintf("A node should not have a %s relationship to itself.", r.EdgeType)
}

// Formal implements Rule.
func (r *NoSelfLoop) Formal() string {
	return fmt.Sprintf("∀x,y: %s(x,y) → x ≠ y", r.EdgeType)
}

// DedupKey implements Rule.
func (r *NoSelfLoop) DedupKey() string { return "noselfloop:" + r.EdgeType }

// Queries implements Rule.
func (r *NoSelfLoop) Queries() QuerySet {
	return QuerySet{
		Support:   fmt.Sprintf("MATCH (a)-[r:%s]->(b) WHERE a <> b RETURN count(*) AS n", r.EdgeType),
		Body:      fmt.Sprintf("MATCH (a)-[r:%s]->(b) RETURN count(*) AS n", r.EdgeType),
		HeadTotal: fmt.Sprintf("MATCH (a)-[r:%s]->(b) RETURN count(*) AS n", r.EdgeType),
	}
}

// CountsNative implements Rule.
func (r *NoSelfLoop) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	for _, id := range g.EdgesWithType(r.EdgeType) {
		c.Body++
		e := g.Edge(id)
		if e.From != e.To {
			c.Support++
		}
	}
	c.HeadTotal = c.Body
	return c, nil
}

// ---------- TemporalOrder ----------

// TemporalOrder requires the source of an edge to be no older than the
// target on a timestamp property: "A retweet can occur only after the
// original tweet has been posted."
type TemporalOrder struct {
	EdgeType  string
	FromLabel string
	ToLabel   string
	Key       string // compared property; rule: from.Key >= to.Key
}

// Kind implements Rule.
func (r *TemporalOrder) Kind() Kind { return KindTemporalOrder }

// Complexity implements Rule.
func (r *TemporalOrder) Complexity() Complexity { return Complex }

// NL implements Rule.
func (r *TemporalOrder) NL() string {
	return fmt.Sprintf("For every %s relationship, the %s of the source %s should not be earlier than the %s of the target %s (the two events cannot be out of order).",
		r.EdgeType, r.Key, r.FromLabel, r.Key, r.ToLabel)
}

// Formal implements Rule.
func (r *TemporalOrder) Formal() string {
	return fmt.Sprintf("∀x,y: %s(x,y) → x.%s ≥ y.%s", r.EdgeType, r.Key, r.Key)
}

// DedupKey implements Rule.
func (r *TemporalOrder) DedupKey() string {
	return fmt.Sprintf("temporal:%s:%s", r.EdgeType, r.Key)
}

// Queries implements Rule.
func (r *TemporalOrder) Queries() QuerySet {
	return QuerySet{
		Support: fmt.Sprintf(
			"MATCH (a:%s)-[r:%s]->(b:%s) WHERE a.%s IS NOT NULL AND b.%s IS NOT NULL AND a.%s >= b.%s RETURN count(*) AS n",
			r.FromLabel, r.EdgeType, r.ToLabel, r.Key, r.Key, r.Key, r.Key),
		Body: fmt.Sprintf(
			"MATCH (a:%s)-[r:%s]->(b:%s) WHERE a.%s IS NOT NULL AND b.%s IS NOT NULL RETURN count(*) AS n",
			r.FromLabel, r.EdgeType, r.ToLabel, r.Key, r.Key),
		HeadTotal: fmt.Sprintf("MATCH (a:%s)-[r:%s]->(b:%s) RETURN count(*) AS n",
			r.FromLabel, r.EdgeType, r.ToLabel),
	}
}

// CountsNative implements Rule.
func (r *TemporalOrder) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	for _, id := range g.EdgesWithType(r.EdgeType) {
		e := g.Edge(id)
		from, to := g.Node(e.From), g.Node(e.To)
		if from == nil || to == nil || !from.HasLabel(r.FromLabel) || !to.HasLabel(r.ToLabel) {
			continue
		}
		c.HeadTotal++
		fv, tv := from.Prop(r.Key), to.Prop(r.Key)
		if fv.IsNull() || tv.IsNull() {
			continue
		}
		c.Body++
		if cv, ok := fv.Compare(tv); ok && cv >= 0 {
			c.Support++
		}
	}
	return c, nil
}

// ---------- UniqueEdgeProp ----------

// UniqueEdgeProp forbids two parallel edges of a type between the same
// endpoints sharing a property value: "No two SCORED_GOAL relationships
// between a Person and a Match should have the same minute property."
type UniqueEdgeProp struct {
	EdgeType  string
	FromLabel string
	ToLabel   string
	Key       string
}

// Kind implements Rule.
func (r *UniqueEdgeProp) Kind() Kind { return KindUniqueEdgeProp }

// Complexity implements Rule.
func (r *UniqueEdgeProp) Complexity() Complexity { return Complex }

// NL implements Rule.
func (r *UniqueEdgeProp) NL() string {
	return fmt.Sprintf("No two %s relationships between the same %s and %s should have the same %s property.",
		r.EdgeType, r.FromLabel, r.ToLabel, r.Key)
}

// Formal implements Rule.
func (r *UniqueEdgeProp) Formal() string {
	return fmt.Sprintf("∀e1,e2 ∈ %s(x,y): e1.%s = e2.%s → e1 = e2", r.EdgeType, r.Key, r.Key)
}

// DedupKey implements Rule.
func (r *UniqueEdgeProp) DedupKey() string {
	return fmt.Sprintf("uniqueedge:%s.%s", r.EdgeType, r.Key)
}

// Queries implements Rule.
func (r *UniqueEdgeProp) Queries() QuerySet {
	return QuerySet{
		Support: fmt.Sprintf(
			"MATCH (a:%s)-[r:%s]->(b:%s) WHERE r.%s IS NOT NULL WITH a, b, r.%s AS v, count(*) AS c WHERE c = 1 RETURN count(*) AS n",
			r.FromLabel, r.EdgeType, r.ToLabel, r.Key, r.Key),
		Body: fmt.Sprintf(
			"MATCH (a:%s)-[r:%s]->(b:%s) WHERE r.%s IS NOT NULL RETURN count(*) AS n",
			r.FromLabel, r.EdgeType, r.ToLabel, r.Key),
		HeadTotal: fmt.Sprintf("MATCH (a:%s)-[r:%s]->(b:%s) RETURN count(*) AS n",
			r.FromLabel, r.EdgeType, r.ToLabel),
	}
}

// CountsNative implements Rule.
func (r *UniqueEdgeProp) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	var groups groupCounter
	var kb []byte
	for _, id := range g.EdgesWithType(r.EdgeType) {
		e := g.Edge(id)
		from, to := g.Node(e.From), g.Node(e.To)
		if from == nil || to == nil || !from.HasLabel(r.FromLabel) || !to.HasLabel(r.ToLabel) {
			continue
		}
		c.HeadTotal++
		v := e.Prop(r.Key)
		if v.IsNull() {
			continue
		}
		c.Body++
		kb = strconv.AppendInt(kb[:0], int64(e.From), 10)
		kb = strconv.AppendInt(append(kb, '|'), int64(e.To), 10)
		kb = v.AppendSortKey(append(kb, '|'))
		groups.add(kb)
	}
	c.Support = groups.singletons()
	return c, nil
}

// ---------- PathAssociation ----------

// PathAssociation is the multi-hop association rule of §4.5: whenever the
// body path (a:A)-[:E1]->(b:B)-[:E2]->(c:C) matches, the association
// (a)-[:ReqE1]->(:ReqLabel)-[:ReqE2]->(c) must also exist. Example: "A
// player should be associated with a squad, and that squad should belong to
// the tournament for which the player has played a match."
type PathAssociation struct {
	ALabel string
	E1     string
	BLabel string
	E2     string
	CLabel string

	ReqE1    string
	ReqLabel string
	ReqE2    string
}

// Kind implements Rule.
func (r *PathAssociation) Kind() Kind { return KindPathAssociation }

// Complexity implements Rule.
func (r *PathAssociation) Complexity() Complexity { return Complex }

// NL implements Rule.
func (r *PathAssociation) NL() string {
	return fmt.Sprintf("Whenever a %s has a %s to a %s that has a %s to a %s, the %s should also be associated through %s with a %s that has a %s to that same %s.",
		r.ALabel, r.E1, r.BLabel, r.E2, r.CLabel, r.ALabel, r.ReqE1, r.ReqLabel, r.ReqE2, r.CLabel)
}

// Formal implements Rule.
func (r *PathAssociation) Formal() string {
	return fmt.Sprintf("∀a,b,c: %s(a) ∧ %s(a,b) ∧ %s(b) ∧ %s(b,c) ∧ %s(c) → ∃d: %s(a,d) ∧ %s(d) ∧ %s(d,c)",
		r.ALabel, r.E1, r.BLabel, r.E2, r.CLabel, r.ReqE1, r.ReqLabel, r.ReqE2)
}

// DedupKey implements Rule.
func (r *PathAssociation) DedupKey() string {
	return fmt.Sprintf("assoc:%s-%s-%s-%s-%s:%s-%s-%s",
		r.ALabel, r.E1, r.BLabel, r.E2, r.CLabel, r.ReqE1, r.ReqLabel, r.ReqE2)
}

// Queries implements Rule.
func (r *PathAssociation) Queries() QuerySet {
	body := fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s)-[:%s]->(c:%s)", r.ALabel, r.E1, r.BLabel, r.E2, r.CLabel)
	req := fmt.Sprintf("(a)-[:%s]->(:%s)-[:%s]->(c)", r.ReqE1, r.ReqLabel, r.ReqE2)
	return QuerySet{
		Support:   fmt.Sprintf("%s WHERE %s RETURN count(*) AS n", body, req),
		Body:      fmt.Sprintf("%s RETURN count(*) AS n", body),
		HeadTotal: fmt.Sprintf("%s RETURN count(*) AS n", body),
	}
}

// CountsNative implements Rule.
func (r *PathAssociation) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	// Precompute, for each A node, the set of C nodes reachable through the
	// required association.
	reqReach := map[graph.ID]map[graph.ID]bool{}
	for _, aid := range g.NodesWithLabel(r.ALabel) {
		for _, e1 := range g.OutEdges(aid) {
			edge1 := g.Edge(e1)
			if !edge1.HasLabel(r.ReqE1) {
				continue
			}
			d := g.Node(edge1.To)
			if d == nil || !d.HasLabel(r.ReqLabel) {
				continue
			}
			for _, e2 := range g.OutEdges(d.ID) {
				edge2 := g.Edge(e2)
				if !edge2.HasLabel(r.ReqE2) {
					continue
				}
				cNode := g.Node(edge2.To)
				if cNode == nil || !cNode.HasLabel(r.CLabel) {
					continue
				}
				set := reqReach[aid]
				if set == nil {
					set = map[graph.ID]bool{}
					reqReach[aid] = set
				}
				set[cNode.ID] = true
			}
		}
	}
	for _, aid := range g.NodesWithLabel(r.ALabel) {
		a := g.Node(aid)
		if !a.HasLabel(r.ALabel) {
			continue
		}
		for _, e1 := range g.OutEdges(aid) {
			edge1 := g.Edge(e1)
			if !edge1.HasLabel(r.E1) {
				continue
			}
			b := g.Node(edge1.To)
			if b == nil || !b.HasLabel(r.BLabel) {
				continue
			}
			for _, e2 := range g.OutEdges(b.ID) {
				edge2 := g.Edge(e2)
				if !edge2.HasLabel(r.E2) {
					continue
				}
				cNode := g.Node(edge2.To)
				if cNode == nil || !cNode.HasLabel(r.CLabel) {
					continue
				}
				c.Body++
				if reqReach[aid][cNode.ID] {
					c.Support++
				}
			}
		}
	}
	c.HeadTotal = c.Body
	return c, nil
}
