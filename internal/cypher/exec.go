package cypher

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graphrules/graphrules/internal/graph"
)

// Stats counts the side effects and work of one execution.
type Stats struct {
	NodesCreated  int
	EdgesCreated  int
	NodesDeleted  int
	EdgesDeleted  int
	PropertiesSet int
	LabelsAdded   int
	RowsExamined  int
}

// ClauseTiming is the wall-clock cost of one executed clause.
type ClauseTiming struct {
	Clause   string
	Duration time.Duration
}

// ExecStats instruments one execution of a query: how much of the graph
// the matcher touched and where the time went.
type ExecStats struct {
	// PlanCacheHit is true when Run served the parse from the plan cache.
	PlanCacheHit bool
	// RowsScanned counts candidate nodes and edges examined while
	// matching patterns.
	RowsScanned int
	// IndexSeeks counts node anchors served by the label+property equality
	// index instead of a label scan — equality or IN, inline or in WHERE,
	// on a literal or a $parameter; IndexRows is how many candidates those
	// seeks produced (the scan work the index avoided re-filtering).
	IndexSeeks int
	IndexRows  int
	// RangeSeeks counts node anchors served by the ordered property index
	// (inequality / prefix WHERE conjuncts); RangeRows is how many
	// candidates those seeks produced.
	RangeSeeks int
	RangeRows  int
	// EdgeSeeks counts anchors derived from the ordered edge-property index
	// (a relationship constraint narrowing the endpoint set); EdgeRows is
	// how many candidate nodes those seeks produced.
	EdgeSeeks int
	EdgeRows  int
	// Seeks details every index seek taken, in execution order: the chosen
	// bounds plus estimated vs. actual candidate rows.
	Seeks []SeekInfo
	// Reordered is true when cost-based planning changed part order or
	// orientation; PartOrder lists the chosen execution order (original
	// pattern indices) and PartEst the anchor cardinality estimates, both
	// for the last planned multi-part MATCH.
	Reordered bool
	PartOrder []int
	PartEst   []float64
	// Clauses records one timing per clause, in clause order: the time from
	// the start of execution until that clause's operator flushed
	// (pipeline.go), so the timings are cumulative.
	Clauses []ClauseTiming
}

// SeekKind names the index access behind a SeekInfo.
type SeekKind uint8

const (
	// NodeIndexSeek is an equality or IN seek on the label+property index.
	NodeIndexSeek SeekKind = iota
	// NodeRangeSeek is an inequality or prefix seek on the ordered index.
	NodeRangeSeek
	// EdgeIndexSeek derives node anchors from the ordered edge index.
	EdgeIndexSeek
)

func (k SeekKind) String() string {
	return [...]string{"NodeIndexSeek", "NodeRangeSeek", "EdgeIndexSeek"}[k]
}

// SeekInfo describes one index seek the matcher took for an anchor scan.
type SeekInfo struct {
	Kind   SeekKind
	Var    string // pattern variable the seek anchored ("" for anonymous)
	Label  string // node label, or edge type(s) joined with "|" for EdgeIndexSeek
	Key    string // property key seeked
	Bounds string // predicates seeked, as written: "= $n", "IN [1, 2]", ">= 30 AND < 100"
	Est    int    // estimated candidate rows (index count probe)
	Rows   int    // candidate rows actually enumerated
}

// head renders the seek's kind and predicates, e.g.
// "NodeIndexSeek(u:User.screen_name = $n)".
func (s SeekInfo) head() string {
	return fmt.Sprintf("%s(%s:%s.%s %s)", s.Kind, varOrAnon(s.Var), s.Label, s.Key, s.Bounds)
}

// String renders the seek in Explain-plan style.
func (s SeekInfo) String() string {
	return fmt.Sprintf("%s est=%d rows=%d", s.head(), s.Est, s.Rows)
}

// String renders the stats as a short multi-line report.
func (s ExecStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan cache hit: %v\n", s.PlanCacheHit)
	fmt.Fprintf(&b, "rows scanned: %d\n", s.RowsScanned)
	fmt.Fprintf(&b, "index seeks: %d (%d candidate(s))\n", s.IndexSeeks, s.IndexRows)
	if s.RangeSeeks > 0 {
		fmt.Fprintf(&b, "range seeks: %d (%d candidate(s))\n", s.RangeSeeks, s.RangeRows)
	}
	if s.EdgeSeeks > 0 {
		fmt.Fprintf(&b, "edge seeks: %d (%d candidate(s))\n", s.EdgeSeeks, s.EdgeRows)
	}
	for _, sk := range s.Seeks {
		fmt.Fprintf(&b, "  %s\n", sk)
	}
	if len(s.PartOrder) > 0 {
		fmt.Fprintf(&b, "part order: %v est %v reordered=%v\n", s.PartOrder, s.PartEst, s.Reordered)
	}
	for _, ct := range s.Clauses {
		fmt.Fprintf(&b, "  %-14s %s\n", ct.Clause, ct.Duration.Round(time.Microsecond))
	}
	return b.String()
}

// Result is the outcome of executing a query.
type Result struct {
	Columns []string
	Rows    [][]Datum
	Stats   Stats
	Exec    ExecStats
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// Column returns the index of the named column, or -1.
func (r *Result) Column(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Value returns the scalar value at (row, named column); null when absent.
func (r *Result) Value(row int, col string) graph.Value {
	ci := r.Column(col)
	if ci < 0 || row < 0 || row >= len(r.Rows) {
		return graph.Null
	}
	return r.Rows[row][ci].Scalar()
}

// Int returns the integer at (row, col) or 0. It is lenient — a missing
// column, out-of-range row, NULL or non-numeric value all coerce to 0 —
// which suits display-only callers; correctness-critical callers (metric
// scoring) must use IntErr instead.
func (r *Result) Int(row int, col string) int64 {
	n, err := r.IntErr(row, col)
	if err != nil {
		return 0
	}
	return n
}

// IntErr returns the integer at (row, col), or an error when the column is
// absent, the row is out of range, or the value is NULL or non-numeric.
func (r *Result) IntErr(row int, col string) (int64, error) {
	ci := r.Column(col)
	if ci < 0 {
		return 0, execErrf("result has no column %q (columns: %s)", col, strings.Join(r.Columns, ", "))
	}
	if row < 0 || row >= len(r.Rows) {
		return 0, execErrf("result row %d out of range (%d row(s))", row, len(r.Rows))
	}
	v := r.Rows[row][ci].Scalar()
	switch v.Kind() {
	case graph.KindInt:
		return v.Int(), nil
	case graph.KindFloat:
		return int64(v.Float()), nil
	case graph.KindNull:
		return 0, execErrf("result column %q is NULL, not a count", col)
	default:
		return 0, execErrf("result column %q holds a %s, not a count", col, v.Kind())
	}
}

// FirstInt returns the integer in the first row of the named column (or the
// first column when name is ""), defaulting to 0. Convenient for COUNT
// queries.
func (r *Result) FirstInt(col string) int64 {
	if len(r.Rows) == 0 {
		return 0
	}
	if col == "" {
		if len(r.Columns) == 0 {
			return 0
		}
		col = r.Columns[0]
	}
	return r.Int(0, col)
}

// planCacheLimit is the default bound on cached parses. The cache evicts
// least-recently-used entries beyond the cap, so long-lived services whose
// query sets drift (best-effort mining servers, REPLs) shed stale plans
// instead of pinning the first 4096 texts forever.
const planCacheLimit = 4096

// PlanCacheStats reports the executor's prepared-query cache counters.
type PlanCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Cap       int
}

// planEntry is one cached parse plus its LRU-list position.
type planEntry struct {
	q    *Query
	elem *list.Element // Value is the cache key (query text)
}

// Executor runs parsed queries against a graph. It is safe for concurrent
// use: the plan cache is internally synchronized and each execution builds
// its own evaluation state.
type Executor struct {
	g *graph.Graph

	// noPushdown disables index seeks; it exists for A/B benchmarking and
	// plan debugging. noReorder disables cost-based part ordering (parts
	// then run exactly as written), which also backs the differential
	// oracle's reference configuration.
	noPushdown      bool
	noReorder       bool
	noRangePushdown bool
	snapshotPin     bool // read-only queries run on a pinned epoch snapshot

	// Resource governor configuration (see governor.go): per-query row /
	// memory / deadline budgets, and an optional admission controller
	// gating execution. All zero by default — ungoverned.
	maxRows       int
	memBudget     int64
	queryDeadline time.Duration
	admission     Admission

	// txMu serializes explicit transactions (session.go): an open
	// Session transaction holds it exclusively, and auto-commit mutating
	// queries take it shared, so a transaction's captured write set is
	// exactly its own writes. Read-only queries never touch it.
	txMu sync.RWMutex

	planMu    sync.Mutex
	plans     map[string]*planEntry
	planLRU   *list.List // front = most recently used
	planCap   int        // 0 means planCacheLimit
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewExecutor returns an executor bound to a graph, configured by the
// given functional options (see options.go for the full set).
func NewExecutor(g *graph.Graph, opts ...Option) *Executor {
	ex := &Executor{g: g}
	for _, opt := range opts {
		opt(ex)
	}
	return ex
}

// setPlanCacheCap bounds the plan cache to n entries, evicting
// least-recently-used plans beyond the cap immediately. n <= 0 restores
// the default cap.
func (ex *Executor) setPlanCacheCap(n int) {
	ex.planMu.Lock()
	defer ex.planMu.Unlock()
	ex.planCap = n
	for len(ex.plans) > ex.planCapLocked() {
		ex.evictOldestLocked()
	}
}

// planCapLocked returns the effective cache cap; planMu must be held.
func (ex *Executor) planCapLocked() int {
	if ex.planCap > 0 {
		return ex.planCap
	}
	return planCacheLimit
}

// evictOldestLocked drops the least-recently-used plan; planMu must be
// held and the cache must be non-empty.
func (ex *Executor) evictOldestLocked() {
	oldest := ex.planLRU.Back()
	if oldest == nil {
		return
	}
	ex.planLRU.Remove(oldest)
	delete(ex.plans, oldest.Value.(string))
	ex.evictions.Add(1)
}

// PlanCacheStats returns the plan cache's hit/miss/eviction counters and
// size.
func (ex *Executor) PlanCacheStats() PlanCacheStats {
	ex.planMu.Lock()
	n, cap := len(ex.plans), ex.planCapLocked()
	ex.planMu.Unlock()
	return PlanCacheStats{
		Hits:      ex.hits.Load(),
		Misses:    ex.misses.Load(),
		Evictions: ex.evictions.Load(),
		Entries:   n,
		Cap:       cap,
	}
}

// plan returns the parsed query for src, consulting the LRU plan cache.
// The returned Query is shared and read-only; execution never mutates the
// AST. (The lock is a plain mutex because every hit promotes its entry;
// the critical section is two map/list operations, noise next to query
// execution.)
func (ex *Executor) plan(src string) (q *Query, hit bool, err error) {
	ex.planMu.Lock()
	if e, ok := ex.plans[src]; ok {
		ex.planLRU.MoveToFront(e.elem)
		ex.planMu.Unlock()
		ex.hits.Add(1)
		return e.q, true, nil
	}
	ex.planMu.Unlock()

	// Parse outside the lock; two goroutines racing on the same new text
	// duplicate the parse, which is harmless.
	q, err = Parse(src)
	if err != nil {
		return nil, false, err
	}
	ex.misses.Add(1)
	ex.planMu.Lock()
	if ex.plans == nil {
		ex.plans = make(map[string]*planEntry)
		ex.planLRU = list.New()
	}
	if e, ok := ex.plans[src]; ok {
		// Lost the insert race: adopt the cached plan.
		ex.planLRU.MoveToFront(e.elem)
		q = e.q
	} else {
		ex.plans[src] = &planEntry{q: q, elem: ex.planLRU.PushFront(src)}
		for len(ex.plans) > ex.planCapLocked() {
			ex.evictOldestLocked()
		}
	}
	ex.planMu.Unlock()
	return q, false, nil
}

// Run parses and executes a query string. Parses are served from the plan
// cache when the same query text was run before on this executor.
func (ex *Executor) Run(src string, params map[string]graph.Value) (*Result, error) {
	return ex.RunCtx(context.Background(), src, params)
}

// RunCtx is Run with cancellation: execution checks cctx between clauses
// and periodically inside pattern-matching scans, returning cctx.Err()
// promptly once the context is done.
//
// RunCtx is the materializing shim over the Session/Cursor API
// (session.go): it runs the same execution pipeline with a slice sink and
// returns the fully-collected Result. Callers that want
// incremental row delivery, explicit transactions, or per-session state
// should open a Session instead.
//
// On execution error the returned *Result is non-nil and carries the
// execution stats accumulated up to the failure (rows scanned, seeks), so
// profiling still works for failed queries; its Rows are meaningless and
// callers must check err first.
func (ex *Executor) RunCtx(cctx context.Context, src string, params map[string]graph.Value) (*Result, error) {
	q, hit, err := ex.plan(src)
	if err != nil {
		return nil, err
	}
	res, err := ex.ExecuteCtx(cctx, q, params)
	if res != nil {
		res.Exec.PlanCacheHit = hit
	}
	return res, err
}

// Execute runs a parsed query. The query is treated as read-only, so one
// parsed Query may be executed concurrently.
func (ex *Executor) Execute(q *Query, params map[string]graph.Value) (*Result, error) {
	return ex.ExecuteCtx(context.Background(), q, params)
}

// ExecuteCtx is Execute with cancellation; see RunCtx.
//
// When the executor carries an admission controller (WithAdmission), the
// query first acquires a slot — a full queue or queue timeout rejects it
// with the controller's typed error before it touches the graph. When it
// carries resource budgets (WithMaxRows, WithMemoryBudget,
// WithQueryDeadline), exceeding one kills the query with a typed
// *ResourceExhaustedError carrying the partial ExecStats. A panic anywhere
// in evaluation is recovered into a *PanicError instead of crashing the
// process.
func (ex *Executor) ExecuteCtx(cctx context.Context, q *Query, params map[string]graph.Value) (res *Result, err error) {
	if ex.admission != nil {
		done, aerr := ex.admission.Admit(cctx)
		if aerr != nil {
			return nil, aerr
		}
		defer func() { done(err) }()
	}
	return ex.executeProtected(cctx, q, params, nil)
}

// executeProtected runs a query under the panic-recovery and
// budget-stamping defers but outside admission: ExecuteCtx admits first,
// and a Session's streaming run admits synchronously at Run before handing
// execution to the cursor goroutine (see session.go).
func (ex *Executor) executeProtected(cctx context.Context, q *Query, params map[string]graph.Value, sink *streamSink) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = recoverToError(p)
		}
		finishExhausted(err, res)
	}()
	return ex.executeGoverned(cctx, q, params, sink)
}

// executeGoverned is the body of ExecuteCtx, after admission and under
// its panic-recovery and budget-stamping defers. It runs the query on the
// execution pipeline (pipeline.go): result rows go to sink when one is
// given — a Session's cursor — and to res.Rows otherwise.
func (ex *Executor) executeGoverned(cctx context.Context, q *Query, params map[string]graph.Value, sink *streamSink) (*Result, error) {
	// Under WithSnapshotPin, a read-only query resolves the graph once to
	// the current epoch's frozen snapshot: the whole scan observes exactly
	// one epoch even while writers commit concurrently. Mutating queries
	// stay on the live graph (their writes must publish, and
	// execSet/execDelete need read-your-writes).
	eg := ex.g
	if ex.snapshotPin && !QueryMutates(q) {
		eg = ex.g.Snapshot()
	}
	m := &matcher{g: eg, bud: ex.newBudget()}
	if cctx != nil && cctx != context.Background() {
		m.cctx = cctx
	}
	ctx := newEvalCtx(eg, params, m)
	m.ctx = ctx

	res := &Result{}
	m.exec = &res.Exec
	return res, ex.runPipeline(ctx, q, res, sink)
}

func clauseName(c Clause) string {
	switch cl := c.(type) {
	case *MatchClause:
		if cl.Optional {
			return "OptionalMatch"
		}
		return "Match"
	case *WithClause:
		return "With"
	case *ReturnClause:
		return "Return"
	case *UnwindClause:
		return "Unwind"
	case *CreateClause:
		return "Create"
	case *SetClause:
		return "Set"
	case *DeleteClause:
		if cl.Detach {
			return "DetachDelete"
		}
		return "Delete"
	default:
		return fmt.Sprintf("%T", c)
	}
}

// ---------- MATCH ----------

// patternVars returns the variable names introduced by a pattern list, in
// first-appearance order.
func patternVars(parts []*PatternPart) []string {
	var names []string
	seen := map[string]bool{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			names = append(names, v)
		}
	}
	for _, p := range parts {
		for i, n := range p.Nodes {
			add(n.Var)
			if i < len(p.Rels) {
				add(p.Rels[i].Var)
			}
		}
	}
	return names
}

// matcher performs backtracking pattern matching against the graph.
type matcher struct {
	g     *graph.Graph
	ctx   *evalCtx
	exec  *ExecStats      // optional instrumentation sink
	acc   []access        // the current clause's bound index accesses (sarg.go)
	cctx  context.Context // optional cancellation; nil means never cancelled
	bud   *budget         // optional resource budget; nil means ungoverned
	polls uint64          // pollCtx amortization counter
}

// pollCtx reports the matcher's cancellation state and query deadline,
// actually consulting the context (and clock) only once every 256 calls
// so it can sit inside hot candidate loops without measurable cost.
func (m *matcher) pollCtx() error {
	if m.cctx == nil && m.bud == nil {
		return nil
	}
	m.polls++
	if m.polls&0xff != 0 {
		return nil
	}
	if m.cctx != nil {
		if err := m.cctx.Err(); err != nil {
			return err
		}
	}
	return m.bud.checkDeadline()
}

// matchAll matches every pattern part in sequence (sharing one
// relationship-uniqueness scope, Cypher's per-MATCH semantics) and invokes
// cb for each complete assignment.
//
// Bindings are made in-place on the working row and undone on backtrack, so
// cb receives a transient view: it must clone the row if it retains it.
func (m *matcher) matchAll(parts []*PatternPart, row Row, cb func(Row) error) error {
	used := map[graph.ID]bool{}
	var rec func(i int, r Row) error
	rec = func(i int, r Row) error {
		if i == len(parts) {
			return cb(r)
		}
		return m.matchPart(parts[i], r, used, func(r2 Row) error {
			return rec(i+1, r2)
		})
	}
	return rec(0, row)
}

// exists reports whether the pattern has at least one match from the given
// row (used by pattern predicates in WHERE). The clause's index accesses
// are suspended for the probe: a predicate-local variable could share a
// name with a WHERE-constrained one, and narrowing the probe's anchors
// could then change whether the pattern exists.
func (m *matcher) exists(part *PatternPart, row Row) (bool, error) {
	saved := m.acc
	m.acc = nil
	defer func() { m.acc = saved }()
	found := false
	err := m.matchPart(part, row, map[graph.ID]bool{}, func(Row) error {
		found = true
		return errStopMatching
	})
	if err != nil && !errors.Is(err, errStopMatching) {
		return false, err
	}
	return found, nil
}

// errStopMatching is a sentinel used to abort matching early.
var errStopMatching = &ExecError{Msg: "stop"}

// matchPart matches one path pattern, extending row; used tracks
// relationship uniqueness within the clause.
func (m *matcher) matchPart(part *PatternPart, row Row, used map[graph.ID]bool, cb func(Row) error) error {
	return m.bindNode(part, 0, row, used, cb)
}

func (m *matcher) bindNode(part *PatternPart, i int, row Row, used map[graph.ID]bool, cb func(Row) error) error {
	np := part.Nodes[i]

	proceed := func(n *graph.Node, r Row) error {
		if i == len(part.Rels) {
			return cb(r)
		}
		return m.expandRel(part, i, n, r, used, cb)
	}

	// Bound variable: check constraints and continue.
	if np.Var != "" {
		if d, ok := row[np.Var]; ok {
			if d.Node == nil {
				if d.IsNull() {
					return nil // null from OPTIONAL MATCH never re-matches
				}
				return execErrf("variable `%s` is not a node", np.Var)
			}
			ok, err := m.nodeSatisfies(np, d.Node, row)
			if err != nil || !ok {
				return err
			}
			return proceed(d.Node, row)
		}
	}

	for _, n := range m.anchorCandidates(part) {
		if m.exec != nil {
			m.exec.RowsScanned++
		}
		if err := m.pollCtx(); err != nil {
			return err
		}
		ok, err := m.nodeSatisfies(np, n, row)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if np.Var != "" {
			row[np.Var] = NodeDatum(n)
		}
		err = proceed(n, row)
		if np.Var != "" {
			delete(row, np.Var)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// anchorCandidates enumerates the candidate nodes for the part's unbound
// anchor pattern: the index seek chooseNodeSeek picks for a labeled
// anchor, else its smallest label bucket; for an unlabeled anchor, the
// endpoints of the edge seek chooseEdgeSeek picks, else all nodes. Every
// candidate is re-checked by nodeSatisfies and the WHERE filter, so a seek
// only narrows, never decides; and every seek returns a subsequence of the
// order the fallback scan would enumerate (label-bucket insertion order
// when labeled, ascending ID otherwise), so row order is identical with
// and without pushdown. Index seek stats are recorded; the caller accounts
// the RowsScanned for the slice it walks.
func (m *matcher) anchorCandidates(part *PatternPart) []*graph.Node {
	np := part.Nodes[0]
	if s, ok := chooseNodeSeek(m.g, np, m.acc); ok {
		ns := s.nodes(m.g, s.label)
		if m.exec != nil {
			if s.point() {
				m.exec.IndexSeeks++
				m.exec.IndexRows += len(ns)
			} else {
				m.exec.RangeSeeks++
				m.exec.RangeRows += len(ns)
			}
			m.recordSeek(s.info(np.Var), len(ns))
		}
		return ns
	}
	if len(np.Labels) > 0 {
		_, ns := smallestLabel(m.g, np.Labels)
		return ns
	}
	if ns, ok := m.edgeAnchorCandidates(part); ok {
		return ns
	}
	return m.g.AllNodes()
}

// edgeAnchorCandidates anchors an unlabeled pattern from its first
// relationship when chooseEdgeSeek engages: the ordered edge index
// enumerates the matching edges and the near endpoints become the
// candidate set — deduplicated and sorted ascending by ID, a subsequence
// of the AllNodes order the full scan would use.
func (m *matcher) edgeAnchorCandidates(part *PatternPart) ([]*graph.Node, bool) {
	s, ok := chooseEdgeSeek(m.g, part, m.acc)
	if !ok {
		return nil, false
	}
	rel := s.rel
	var nodes []*graph.Node
	seen := map[graph.ID]bool{}
	add := func(id graph.ID) {
		if seen[id] {
			return
		}
		seen[id] = true
		if n := m.g.Node(id); n != nil {
			nodes = append(nodes, n)
		}
	}
	for i, t := range rel.Types {
		for _, e := range s.picks[i].edges(m.g, t) {
			// The anchor is the near endpoint of the (possibly planner-
			// flipped) relationship; an undirected rel admits both.
			switch rel.Direction {
			case DirOut:
				add(e.From)
			case DirIn:
				add(e.To)
			default:
				add(e.From)
				add(e.To)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	if m.exec != nil {
		m.exec.EdgeSeeks++
		m.exec.EdgeRows += len(nodes)
		m.recordSeek(s.info(), len(nodes))
	}
	return nodes, true
}

// recordSeek appends a seek descriptor with the rows it enumerated to the
// stats, collapsing repeat enumerations of the same seek (later parts
// re-anchor once per outer row).
func (m *matcher) recordSeek(info SeekInfo, rows int) {
	for _, s := range m.exec.Seeks {
		if s.Kind == info.Kind && s.Var == info.Var && s.Label == info.Label &&
			s.Key == info.Key && s.Bounds == info.Bounds {
			return
		}
	}
	info.Rows = rows
	m.exec.Seeks = append(m.exec.Seeks, info)
}

func (m *matcher) nodeSatisfies(np *NodePattern, n *graph.Node, row Row) (bool, error) {
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false, nil
		}
	}
	for k, e := range np.Props {
		want, err := m.ctx.eval(e, row)
		if err != nil {
			return false, err
		}
		if !n.Prop(k).Equal(want.Scalar()) {
			return false, nil
		}
	}
	return true, nil
}

func (m *matcher) edgeSatisfies(rp *RelPattern, e *graph.Edge, row Row) (bool, error) {
	if len(rp.Types) > 0 {
		okType := false
		for _, t := range rp.Types {
			if e.HasLabel(t) {
				okType = true
				break
			}
		}
		if !okType {
			return false, nil
		}
	}
	for k, ex := range rp.Props {
		want, err := m.ctx.eval(ex, row)
		if err != nil {
			return false, err
		}
		if !e.Prop(k).Equal(want.Scalar()) {
			return false, nil
		}
	}
	return true, nil
}

// expandRel matches relationship i of the part from node n, then binds node
// i+1.
func (m *matcher) expandRel(part *PatternPart, i int, n *graph.Node, row Row, used map[graph.ID]bool, cb func(Row) error) error {
	rp := part.Rels[i]
	if rp.IsVarLength() {
		return m.expandVarLength(part, i, n, row, used, cb)
	}

	// Pre-bound relationship variable: verify incidence.
	if rp.Var != "" {
		if d, ok := row[rp.Var]; ok {
			if d.IsNull() {
				return nil
			}
			if d.Edge == nil {
				return execErrf("variable `%s` is not a relationship", rp.Var)
			}
			return m.followEdge(part, i, n, d.Edge, row, used, cb, true)
		}
	}

	tryEdges := func(es []*graph.Edge) error {
		for _, e := range es {
			if m.exec != nil {
				m.exec.RowsScanned++
			}
			if used[e.ID] {
				continue
			}
			if err := m.followEdge(part, i, n, e, row, used, cb, false); err != nil {
				return err
			}
		}
		return nil
	}

	switch rp.Direction {
	case DirOut:
		return tryEdges(m.g.OutEdgePtrs(n.ID))
	case DirIn:
		return tryEdges(m.g.InEdgePtrs(n.ID))
	default:
		if err := tryEdges(m.g.OutEdgePtrs(n.ID)); err != nil {
			return err
		}
		// Self-loops appear in both lists; skip the duplicate pass for them.
		in := m.g.InEdgePtrs(n.ID)
		filtered := in[:0] // InEdgePtrs hands us an owned slice
		for _, e := range in {
			if e.From == e.To {
				continue
			}
			filtered = append(filtered, e)
		}
		return tryEdges(filtered)
	}
}

// followEdge checks edge e against rel i from node n and recurses into node
// i+1. preBound marks a relationship variable bound by an earlier clause.
func (m *matcher) followEdge(part *PatternPart, i int, n *graph.Node, e *graph.Edge, row Row, used map[graph.ID]bool, cb func(Row) error, preBound bool) error {
	rp := part.Rels[i]
	ok, err := m.edgeSatisfies(rp, e, row)
	if err != nil || !ok {
		return err
	}
	// Determine the far endpoint honoring direction.
	var far graph.ID
	switch rp.Direction {
	case DirOut:
		if e.From != n.ID {
			return nil
		}
		far = e.To
	case DirIn:
		if e.To != n.ID {
			return nil
		}
		far = e.From
	default:
		switch n.ID {
		case e.From:
			far = e.To
		case e.To:
			far = e.From
		default:
			return nil
		}
	}
	if used[e.ID] {
		return nil
	}
	if rp.Var != "" && !preBound {
		row[rp.Var] = EdgeDatum(e)
		defer delete(row, rp.Var)
	}
	used[e.ID] = true
	defer delete(used, e.ID)

	// Bind the far node: constrain against pattern i+1.
	np := part.Nodes[i+1]
	farNode := m.g.Node(far)
	if farNode == nil {
		return nil
	}
	if np.Var != "" {
		if d, bound := row[np.Var]; bound {
			if d.Node == nil || d.Node.ID != far {
				return nil
			}
			ok, err := m.nodeSatisfies(np, farNode, row)
			if err != nil || !ok {
				return err
			}
			return m.afterNode(part, i+1, farNode, row, used, cb)
		}
	}
	ok, err = m.nodeSatisfies(np, farNode, row)
	if err != nil || !ok {
		return err
	}
	if np.Var != "" {
		row[np.Var] = NodeDatum(farNode)
		defer delete(row, np.Var)
	}
	return m.afterNode(part, i+1, farNode, row, used, cb)
}

func (m *matcher) afterNode(part *PatternPart, i int, n *graph.Node, row Row, used map[graph.ID]bool, cb func(Row) error) error {
	if i == len(part.Rels) {
		return cb(row)
	}
	return m.expandRel(part, i, n, row, used, cb)
}

// expandVarLength walks paths of length MinHops..MaxHops for rel i. The
// relationship variable (when named) binds to the list of traversed edge
// IDs.
func (m *matcher) expandVarLength(part *PatternPart, i int, start *graph.Node, row Row, used map[graph.ID]bool, cb func(Row) error) error {
	rp := part.Rels[i]
	np := part.Nodes[i+1]

	emit := func(at *graph.Node, path []graph.ID, r Row) error {
		ok, err := m.nodeSatisfies(np, at, r)
		if err != nil || !ok {
			return err
		}
		if np.Var != "" {
			if d, bound := r[np.Var]; bound {
				if d.Node == nil || d.Node.ID != at.ID {
					return nil
				}
			} else {
				r[np.Var] = NodeDatum(at)
				defer delete(r, np.Var)
			}
		}
		if rp.Var != "" {
			ids := make([]graph.Value, len(path))
			for k, id := range path {
				ids[k] = graph.NewInt(int64(id))
			}
			// The path variable may shadow an outer binding; restore it.
			prev, had := r[rp.Var]
			r[rp.Var] = ValDatum(graph.NewList(ids...))
			defer func() {
				if had {
					r[rp.Var] = prev
				} else {
					delete(r, rp.Var)
				}
			}()
		}
		return m.afterNode(part, i+1, at, r, used, cb)
	}

	var walk func(at *graph.Node, depth int, path []graph.ID) error
	walk = func(at *graph.Node, depth int, path []graph.ID) error {
		if depth >= rp.MinHops {
			if err := emit(at, path, row); err != nil {
				return err
			}
		}
		if rp.MaxHops >= 0 && depth == rp.MaxHops {
			return nil
		}
		step := func(es []*graph.Edge, wantOut bool) error {
			for _, e := range es {
				if m.exec != nil {
					m.exec.RowsScanned++
				}
				if used[e.ID] {
					continue
				}
				ok, err := m.edgeSatisfies(rp, e, row)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				var far graph.ID
				if wantOut {
					far = e.To
				} else {
					far = e.From
				}
				farNode := m.g.Node(far)
				if farNode == nil {
					continue
				}
				used[e.ID] = true
				err = walk(farNode, depth+1, append(path, e.ID))
				delete(used, e.ID)
				if err != nil {
					return err
				}
			}
			return nil
		}
		switch rp.Direction {
		case DirOut:
			return step(m.g.OutEdgePtrs(at.ID), true)
		case DirIn:
			return step(m.g.InEdgePtrs(at.ID), false)
		default:
			if err := step(m.g.OutEdgePtrs(at.ID), true); err != nil {
				return err
			}
			return step(m.g.InEdgePtrs(at.ID), false)
		}
	}
	return walk(start, 0, nil)
}

// ---------- CREATE / SET / DELETE ----------

func (ex *Executor) execCreate(ctx *evalCtx, cl *CreateClause, in []Row, st *Stats) ([]Row, error) {
	var out []Row
	for _, row := range in {
		r := row.clone()
		for _, part := range cl.Patterns {
			if err := ex.createPart(ctx, part, r, st); err != nil {
				return nil, err
			}
		}
		out = append(out, r)
	}
	return out, nil
}

func (ex *Executor) createPart(ctx *evalCtx, part *PatternPart, r Row, st *Stats) error {
	getOrCreateNode := func(np *NodePattern) (*graph.Node, error) {
		if np.Var != "" {
			if d, ok := r[np.Var]; ok {
				if d.Node == nil {
					return nil, execErrf("CREATE: variable `%s` is not a node", np.Var)
				}
				if len(np.Labels) > 0 || len(np.Props) > 0 {
					return nil, execErrf("CREATE: cannot add labels or properties to bound variable `%s`", np.Var)
				}
				return d.Node, nil
			}
		}
		props := graph.Props{}
		for k, e := range np.Props {
			d, err := ctx.eval(e, r)
			if err != nil {
				return nil, err
			}
			if !d.IsNull() {
				props[k] = d.Scalar()
			}
		}
		n := ex.g.AddNode(np.Labels, props)
		st.NodesCreated++
		if np.Var != "" {
			r[np.Var] = NodeDatum(n)
		}
		return n, nil
	}

	prev, err := getOrCreateNode(part.Nodes[0])
	if err != nil {
		return err
	}
	for i, rp := range part.Rels {
		if rp.Direction == DirBoth {
			return execErrf("CREATE requires a directed relationship")
		}
		if len(rp.Types) != 1 {
			return execErrf("CREATE requires exactly one relationship type")
		}
		if rp.IsVarLength() {
			return execErrf("CREATE cannot use variable-length relationships")
		}
		next, err := getOrCreateNode(part.Nodes[i+1])
		if err != nil {
			return err
		}
		props := graph.Props{}
		for k, e := range rp.Props {
			d, err := ctx.eval(e, r)
			if err != nil {
				return err
			}
			if !d.IsNull() {
				props[k] = d.Scalar()
			}
		}
		from, to := prev, next
		if rp.Direction == DirIn {
			from, to = next, prev
		}
		edge, err := ex.g.AddEdge(from.ID, to.ID, rp.Types, props)
		if err != nil {
			return err
		}
		st.EdgesCreated++
		if rp.Var != "" {
			r[rp.Var] = EdgeDatum(edge)
		}
		prev = next
	}
	return nil
}

// refreshGraphBindings rebinds every node/edge datum in the row to the
// struct currently published by the graph. SET's copy-on-write mutators
// replace the published structs, so a row bound before a write would
// otherwise keep reading the superseded version.
func refreshGraphBindings(g *graph.Graph, r Row) {
	for k, d := range r {
		switch {
		case d.Node != nil:
			if fresh := g.Node(d.Node.ID); fresh != nil && fresh != d.Node {
				r[k] = NodeDatum(fresh)
			}
		case d.Edge != nil:
			if fresh := g.Edge(d.Edge.ID); fresh != nil && fresh != d.Edge {
				r[k] = EdgeDatum(fresh)
			}
		}
	}
}

func (ex *Executor) execSet(ctx *evalCtx, cl *SetClause, in []Row, st *Stats) ([]Row, error) {
	for _, r := range in {
		for _, item := range cl.Items {
			// Several rows may bind the same entity; an earlier row's write
			// superseded the struct this row captured during MATCH.
			refreshGraphBindings(ex.g, r)
			d, ok := r[item.Target]
			if !ok {
				return nil, execErrf("SET: variable `%s` not defined", item.Target)
			}
			if d.IsNull() {
				continue
			}
			if len(item.Labels) > 0 {
				if d.Node == nil {
					return nil, execErrf("SET: labels require a node")
				}
				if err := ex.g.AddNodeLabels(d.Node.ID, item.Labels...); err != nil {
					return nil, err
				}
				st.LabelsAdded += len(item.Labels)
				continue
			}
			vd, err := ctx.eval(item.Value, r)
			if err != nil {
				return nil, err
			}
			switch {
			case d.Node != nil:
				if err := ex.g.SetNodeProp(d.Node.ID, item.Key, vd.Scalar()); err != nil {
					return nil, err
				}
			case d.Edge != nil:
				if err := ex.g.SetEdgeProp(d.Edge.ID, item.Key, vd.Scalar()); err != nil {
					return nil, err
				}
			default:
				return nil, execErrf("SET: `%s` is not a node or relationship", item.Target)
			}
			st.PropertiesSet++
		}
	}
	// Rebind every row to the final post-write structs so RETURN (and any
	// later clause) observes all writes, matching pre-COW semantics.
	for _, r := range in {
		refreshGraphBindings(ex.g, r)
	}
	return in, nil
}

func (ex *Executor) execDelete(ctx *evalCtx, cl *DeleteClause, in []Row, st *Stats) ([]Row, error) {
	delNodes := map[graph.ID]bool{}
	delEdges := map[graph.ID]bool{}
	for _, r := range in {
		for _, e := range cl.Exprs {
			d, err := ctx.eval(e, r)
			if err != nil {
				return nil, err
			}
			switch {
			case d.Node != nil:
				delNodes[d.Node.ID] = true
			case d.Edge != nil:
				delEdges[d.Edge.ID] = true
			case d.IsNull():
				// deleting null is a no-op
			default:
				return nil, execErrf("DELETE requires nodes or relationships")
			}
		}
	}
	for id := range delEdges {
		ex.g.RemoveEdge(id)
		st.EdgesDeleted++
	}
	for id := range delNodes {
		deg := ex.g.OutDegree(id) + ex.g.InDegree(id)
		if deg > 0 && !cl.Detach {
			return nil, execErrf("cannot DELETE node %d with relationships; use DETACH DELETE", id)
		}
		st.EdgesDeleted += deg
		ex.g.RemoveNode(id)
		st.NodesDeleted++
	}
	return in, nil
}
