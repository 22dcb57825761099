// Package rules models property-graph consistency rules: the schema-level
// and pattern-level constraints the paper's LLM pipeline mines (§3, §4.5).
//
// Every rule renders three ways:
//
//   - NL(): the natural-language statement the LLM emits in step 1;
//   - Queries(): reference Cypher computing the paper's adapted AMIE
//     metrics (§4.2) — support, body-match and head-total counts;
//   - CountsNative(): a direct graph-walk evaluation used to cross-check
//     the Cypher path (the metric layer's core correctness invariant).
//
// Metric semantics (§4.2, adapted to property graphs):
//
//	support    = elements satisfying premise ∧ conclusion (raw count)
//	coverage   = support / head-total  (all facts the head speaks about)
//	confidence = support / body       (facts where the premise holds)
package rules

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"github.com/graphrules/graphrules/internal/graph"
)

// Kind enumerates rule families.
type Kind uint8

const (
	KindRequiredProperty Kind = iota
	KindUniqueProperty
	KindValueDomain
	KindValueFormat
	KindPropertyType
	KindEdgeEndpoints
	KindMandatoryEdge
	KindNoSelfLoop
	KindTemporalOrder
	KindUniqueEdgeProp
	KindPathAssociation
)

// String returns the kind's kebab-case name.
func (k Kind) String() string {
	switch k {
	case KindRequiredProperty:
		return "required-property"
	case KindUniqueProperty:
		return "unique-property"
	case KindValueDomain:
		return "value-domain"
	case KindValueFormat:
		return "value-format"
	case KindPropertyType:
		return "property-type"
	case KindEdgeEndpoints:
		return "edge-endpoints"
	case KindMandatoryEdge:
		return "mandatory-edge"
	case KindNoSelfLoop:
		return "no-self-loop"
	case KindTemporalOrder:
		return "temporal-order"
	case KindUniqueEdgeProp:
		return "unique-edge-property"
	case KindPathAssociation:
		return "path-association"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Complexity classifies how structurally involved a rule is; the paper
// observes LLaMA-3 favouring simple schema rules and Mixtral occasionally
// producing complex multi-hop/temporal ones (§4.5).
type Complexity uint8

const (
	// Simple rules constrain one label's schema (keys, uniqueness, types).
	Simple Complexity = iota
	// Structural rules constrain one relationship (endpoints, self-loops,
	// mandatory edges).
	Structural
	// Complex rules span multiple hops or compare values across elements.
	Complex
)

// QuerySet is the reference Cypher for a rule's three metric counts. Every
// query returns a single row with a single integer column named `n`.
type QuerySet struct {
	Support   string // premise ∧ conclusion
	Body      string // premise
	HeadTotal string // head domain
}

// Counts are the raw metric inputs of one rule evaluation.
type Counts struct {
	Support   int64
	Body      int64
	HeadTotal int64
}

// Coverage returns support/headTotal as a percentage (0 when undefined).
func (c Counts) Coverage() float64 {
	if c.HeadTotal == 0 {
		return 0
	}
	return 100 * float64(c.Support) / float64(c.HeadTotal)
}

// Confidence returns support/body as a percentage (0 when undefined).
func (c Counts) Confidence() float64 {
	if c.Body == 0 {
		return 0
	}
	return 100 * float64(c.Support) / float64(c.Body)
}

// Rule is one consistency rule.
type Rule interface {
	// Kind returns the rule family.
	Kind() Kind
	// Complexity classifies the rule per §4.5's simple/complex contrast.
	Complexity() Complexity
	// NL returns the natural-language statement of the rule.
	NL() string
	// Formal returns a GFD/GED-style rendering of the rule.
	Formal() string
	// Queries returns the reference Cypher for the metric counts.
	Queries() QuerySet
	// CountsNative evaluates the rule by direct graph traversal.
	CountsNative(g *graph.Graph) (Counts, error)
	// DedupKey is a canonical identity used to merge duplicate rules mined
	// from different windows.
	DedupKey() string
}

// ---------- RequiredProperty ----------

// RequiredProperty requires every element with a label to carry a property:
// "Each Match node should have a date property."
type RequiredProperty struct {
	Label  string
	Key    string
	OnEdge bool
}

// Kind implements Rule.
func (r *RequiredProperty) Kind() Kind { return KindRequiredProperty }

// Complexity implements Rule.
func (r *RequiredProperty) Complexity() Complexity { return Simple }

// NL implements Rule.
func (r *RequiredProperty) NL() string {
	noun := "node"
	if r.OnEdge {
		noun = "relationship"
	}
	return fmt.Sprintf("Each %s %s should have a %s property.", r.Label, noun, r.Key)
}

// Formal implements Rule.
func (r *RequiredProperty) Formal() string {
	return fmt.Sprintf("∀x: %s(x) → x.%s ≠ ⊥", r.Label, r.Key)
}

// DedupKey implements Rule.
func (r *RequiredProperty) DedupKey() string {
	return fmt.Sprintf("required:%v:%s.%s", r.OnEdge, r.Label, r.Key)
}

// Queries implements Rule.
func (r *RequiredProperty) Queries() QuerySet {
	if r.OnEdge {
		return QuerySet{
			Support:   fmt.Sprintf("MATCH ()-[r:%s]->() WHERE r.%s IS NOT NULL RETURN count(*) AS n", r.Label, r.Key),
			Body:      fmt.Sprintf("MATCH ()-[r:%s]->() RETURN count(*) AS n", r.Label),
			HeadTotal: fmt.Sprintf("MATCH ()-[r:%s]->() RETURN count(*) AS n", r.Label),
		}
	}
	return QuerySet{
		Support:   fmt.Sprintf("MATCH (x:%s) WHERE x.%s IS NOT NULL RETURN count(*) AS n", r.Label, r.Key),
		Body:      fmt.Sprintf("MATCH (x:%s) RETURN count(*) AS n", r.Label),
		HeadTotal: fmt.Sprintf("MATCH (x:%s) RETURN count(*) AS n", r.Label),
	}
}

// CountsNative implements Rule.
func (r *RequiredProperty) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	if r.OnEdge {
		for _, id := range g.EdgesWithType(r.Label) {
			c.Body++
			if !g.Edge(id).Prop(r.Key).IsNull() {
				c.Support++
			}
		}
	} else {
		for _, id := range g.NodesWithLabel(r.Label) {
			c.Body++
			if !g.Node(id).Prop(r.Key).IsNull() {
				c.Support++
			}
		}
	}
	c.HeadTotal = c.Body
	return c, nil
}

// ---------- UniqueProperty ----------

// UniqueProperty requires a property to be unique among the nodes of a
// label: "Each Tweet node should have a unique id property."
type UniqueProperty struct {
	Label string
	Key   string
}

// Kind implements Rule.
func (r *UniqueProperty) Kind() Kind { return KindUniqueProperty }

// Complexity implements Rule.
func (r *UniqueProperty) Complexity() Complexity { return Simple }

// NL implements Rule.
func (r *UniqueProperty) NL() string {
	return fmt.Sprintf("Each %s node should have a unique %s property.", r.Label, r.Key)
}

// Formal implements Rule.
func (r *UniqueProperty) Formal() string {
	return fmt.Sprintf("∀x,y: %s(x) ∧ %s(y) ∧ x.%s = y.%s → x = y", r.Label, r.Label, r.Key, r.Key)
}

// DedupKey implements Rule.
func (r *UniqueProperty) DedupKey() string {
	return fmt.Sprintf("unique:%s.%s", r.Label, r.Key)
}

// Queries implements Rule.
func (r *UniqueProperty) Queries() QuerySet {
	return QuerySet{
		Support: fmt.Sprintf(
			"MATCH (x:%s) WHERE x.%s IS NOT NULL WITH x.%s AS v, count(*) AS c WHERE c = 1 RETURN count(*) AS n",
			r.Label, r.Key, r.Key),
		Body:      fmt.Sprintf("MATCH (x:%s) WHERE x.%s IS NOT NULL RETURN count(*) AS n", r.Label, r.Key),
		HeadTotal: fmt.Sprintf("MATCH (x:%s) RETURN count(*) AS n", r.Label),
	}
}

// CountsNative implements Rule.
func (r *UniqueProperty) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	var groups groupCounter
	var kb []byte
	for _, id := range g.NodesWithLabel(r.Label) {
		c.HeadTotal++
		v := g.Node(id).Prop(r.Key)
		if v.IsNull() {
			continue
		}
		c.Body++
		kb = v.AppendSortKey(kb[:0])
		groups.add(kb)
	}
	c.Support = groups.singletons()
	return c, nil
}

// groupCounter counts rows per grouping key, as a uniqueness rule's
// `WITH v, count(*) AS c` does; a repeated key allocates nothing.
type groupCounter struct {
	index  map[string]int
	counts []int64
}

func (gc *groupCounter) add(key []byte) {
	if i, ok := gc.index[string(key)]; ok {
		gc.counts[i]++
		return
	}
	if gc.index == nil {
		gc.index = map[string]int{}
	}
	gc.index[string(key)] = len(gc.counts)
	gc.counts = append(gc.counts, 1)
}

// singletons returns how many keys were added exactly once.
func (gc *groupCounter) singletons() (n int64) {
	for _, c := range gc.counts {
		if c == 1 {
			n++
		}
	}
	return n
}

// ---------- ValueDomain ----------

// ValueDomain restricts a property to an enumerated set of values:
// "The owned property should only be true or false."
type ValueDomain struct {
	Label   string
	Key     string
	Allowed []graph.Value
}

// Kind implements Rule.
func (r *ValueDomain) Kind() Kind { return KindValueDomain }

// Complexity implements Rule.
func (r *ValueDomain) Complexity() Complexity { return Simple }

// NL implements Rule.
func (r *ValueDomain) NL() string {
	parts := make([]string, len(r.Allowed))
	for i, v := range r.Allowed {
		parts[i] = v.String()
	}
	return fmt.Sprintf("The %s property of %s nodes should only be one of %s.",
		r.Key, r.Label, strings.Join(parts, " or "))
}

// Formal implements Rule.
func (r *ValueDomain) Formal() string {
	return fmt.Sprintf("∀x: %s(x) ∧ x.%s ≠ ⊥ → x.%s ∈ %s", r.Label, r.Key, r.Key, r.allowedList())
}

func (r *ValueDomain) allowedList() string {
	parts := make([]string, len(r.Allowed))
	for i, v := range r.Allowed {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// DedupKey implements Rule.
func (r *ValueDomain) DedupKey() string {
	return fmt.Sprintf("domain:%s.%s:%s", r.Label, r.Key, r.allowedList())
}

// Queries implements Rule.
func (r *ValueDomain) Queries() QuerySet {
	list := r.allowedList()
	return QuerySet{
		Support: fmt.Sprintf("MATCH (x:%s) WHERE x.%s IS NOT NULL AND x.%s IN %s RETURN count(*) AS n",
			r.Label, r.Key, r.Key, list),
		Body:      fmt.Sprintf("MATCH (x:%s) WHERE x.%s IS NOT NULL RETURN count(*) AS n", r.Label, r.Key),
		HeadTotal: fmt.Sprintf("MATCH (x:%s) RETURN count(*) AS n", r.Label),
	}
}

// CountsNative implements Rule.
func (r *ValueDomain) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	for _, id := range g.NodesWithLabel(r.Label) {
		c.HeadTotal++
		v := g.Node(id).Prop(r.Key)
		if v.IsNull() {
			continue
		}
		c.Body++
		for _, a := range r.Allowed {
			if v.Equal(a) {
				c.Support++
				break
			}
		}
	}
	return c, nil
}

// ---------- ValueFormat ----------

// ValueFormat requires a string property to match a regular expression:
// "The domain property should be a string value matching domain format."
type ValueFormat struct {
	Label   string
	Key     string
	Pattern string
}

// Kind implements Rule.
func (r *ValueFormat) Kind() Kind { return KindValueFormat }

// Complexity implements Rule.
func (r *ValueFormat) Complexity() Complexity { return Simple }

// NL implements Rule.
func (r *ValueFormat) NL() string {
	return fmt.Sprintf("The %s property of %s nodes should be a string value matching the format %s.",
		r.Key, r.Label, r.Pattern)
}

// Formal implements Rule.
func (r *ValueFormat) Formal() string {
	return fmt.Sprintf("∀x: %s(x) ∧ x.%s ≠ ⊥ → x.%s ≈ /%s/", r.Label, r.Key, r.Key, r.Pattern)
}

// DedupKey implements Rule.
func (r *ValueFormat) DedupKey() string {
	return fmt.Sprintf("format:%s.%s:%s", r.Label, r.Key, r.Pattern)
}

// Queries implements Rule.
func (r *ValueFormat) Queries() QuerySet {
	pat := strings.ReplaceAll(r.Pattern, `\`, `\\`)
	return QuerySet{
		Support: fmt.Sprintf("MATCH (x:%s) WHERE x.%s IS NOT NULL AND x.%s =~ '%s' RETURN count(*) AS n",
			r.Label, r.Key, r.Key, pat),
		Body:      fmt.Sprintf("MATCH (x:%s) WHERE x.%s IS NOT NULL RETURN count(*) AS n", r.Label, r.Key),
		HeadTotal: fmt.Sprintf("MATCH (x:%s) RETURN count(*) AS n", r.Label),
	}
}

// CountsNative implements Rule.
func (r *ValueFormat) CountsNative(g *graph.Graph) (Counts, error) {
	re, err := regexp.Compile("^(?:" + r.Pattern + ")$")
	if err != nil {
		return Counts{}, fmt.Errorf("rules: invalid format pattern %q: %w", r.Pattern, err)
	}
	var c Counts
	for _, id := range g.NodesWithLabel(r.Label) {
		c.HeadTotal++
		v := g.Node(id).Prop(r.Key)
		if v.IsNull() {
			continue
		}
		c.Body++
		if v.Kind() == graph.KindString && re.MatchString(v.Str()) {
			c.Support++
		}
	}
	return c, nil
}

// ---------- PropertyType ----------

// PropertyType requires a property to hold one dynamic type:
// "The followers property of User nodes should be an integer."
type PropertyType struct {
	Label    string
	Key      string
	OnEdge   bool
	PropKind graph.Kind
}

// Kind implements Rule.
func (r *PropertyType) Kind() Kind { return KindPropertyType }

// Complexity implements Rule.
func (r *PropertyType) Complexity() Complexity { return Simple }

// NL implements Rule.
func (r *PropertyType) NL() string {
	noun := "nodes"
	if r.OnEdge {
		noun = "relationships"
	}
	return fmt.Sprintf("The %s property of %s %s should be of type %s.", r.Key, r.Label, noun, r.PropKind)
}

// Formal implements Rule.
func (r *PropertyType) Formal() string {
	return fmt.Sprintf("∀x: %s(x) ∧ x.%s ≠ ⊥ → type(x.%s) = %s", r.Label, r.Key, r.Key, r.PropKind)
}

// DedupKey implements Rule.
func (r *PropertyType) DedupKey() string {
	return fmt.Sprintf("type:%v:%s.%s:%s", r.OnEdge, r.Label, r.Key, r.PropKind)
}

// Queries implements Rule. Cypher has no direct type() test for values in
// our subset, so the reference queries approximate with a kind-specific
// predicate.
func (r *PropertyType) Queries() QuerySet {
	var pred string
	ref := "x." + r.Key
	switch r.PropKind {
	case graph.KindBool:
		pred = ref + " IN [true, false]"
	case graph.KindString:
		pred = ref + " =~ '(?s).*'"
	default:
		// Numeric kinds: a self-comparison only holds for comparable
		// numerics of the value itself; toString round-trip covers int.
		pred = "toString(toInteger(" + ref + ")) = toString(" + ref + ")"
	}
	var body, total string
	if r.OnEdge {
		body = fmt.Sprintf("MATCH ()-[x:%s]->() WHERE x.%s IS NOT NULL RETURN count(*) AS n", r.Label, r.Key)
		total = fmt.Sprintf("MATCH ()-[x:%s]->() RETURN count(*) AS n", r.Label)
		return QuerySet{
			Support: fmt.Sprintf("MATCH ()-[x:%s]->() WHERE x.%s IS NOT NULL AND %s RETURN count(*) AS n",
				r.Label, r.Key, pred),
			Body:      body,
			HeadTotal: total,
		}
	}
	body = fmt.Sprintf("MATCH (x:%s) WHERE x.%s IS NOT NULL RETURN count(*) AS n", r.Label, r.Key)
	total = fmt.Sprintf("MATCH (x:%s) RETURN count(*) AS n", r.Label)
	return QuerySet{
		Support: fmt.Sprintf("MATCH (x:%s) WHERE x.%s IS NOT NULL AND %s RETURN count(*) AS n",
			r.Label, r.Key, pred),
		Body:      body,
		HeadTotal: total,
	}
}

// CountsNative implements Rule.
func (r *PropertyType) CountsNative(g *graph.Graph) (Counts, error) {
	var c Counts
	check := func(p graph.Value) {
		if p.IsNull() {
			return
		}
		c.Body++
		k := p.Kind()
		if k == r.PropKind || (r.PropKind == graph.KindInt && k == graph.KindFloat) {
			c.Support++
		}
	}
	if r.OnEdge {
		for _, id := range g.EdgesWithType(r.Label) {
			c.HeadTotal++
			check(g.Edge(id).Prop(r.Key))
		}
	} else {
		for _, id := range g.NodesWithLabel(r.Label) {
			c.HeadTotal++
			check(g.Node(id).Prop(r.Key))
		}
	}
	return c, nil
}

// SortRules orders rules deterministically by dedup key.
func SortRules(rs []Rule) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].DedupKey() < rs[j].DedupKey() })
}

// Dedupe removes duplicate rules (same DedupKey), preserving first
// occurrences in order.
func Dedupe(rs []Rule) []Rule {
	seen := map[string]bool{}
	out := rs[:0:0]
	for _, r := range rs {
		k := r.DedupKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}
