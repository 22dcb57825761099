package cypher

import (
	"context"
	"strings"
	"testing"
)

// TestStarOverNoRows: RETURN * takes its columns from the variables the
// preceding clauses bind, so it succeeds with zero rows — through Run and
// through a Session alike.
func TestStarOverNoRows(t *testing.T) {
	ex := NewExecutor(socialGraph())
	for _, q := range []string{
		`MATCH (x:Nope) RETURN *`,
		`UNWIND [] AS x RETURN *`,
	} {
		res, err := ex.Run(q, nil)
		if err != nil {
			t.Fatalf("Run %q: %v", q, err)
		}
		if strings.Join(res.Columns, ",") != "x" || len(res.Rows) != 0 {
			t.Errorf("Run %q: columns=%v rows=%d, want [x] and none", q, res.Columns, len(res.Rows))
		}

		s := ex.OpenSession()
		c, err := s.Run(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("Session %q: %v", q, err)
		}
		cols := c.Columns()
		rows, err := drain(c)
		s.Close()
		if err != nil || strings.Join(cols, ",") != "x" || len(rows) != 0 {
			t.Errorf("Session %q: columns=%v rows=%d err=%v, want [x] and none", q, cols, len(rows), err)
		}
	}
}

// TestLimitAcrossWithStopsScan: a LIMIT behind a WITH and a second MATCH
// stops the first MATCH's scan as soon as it is satisfied.
func TestLimitAcrossWithStopsScan(t *testing.T) {
	ex := NewExecutor(chainGraph(10000))
	res, err := ex.Run(`MATCH (p:Person) WITH p MATCH (p)-[:NEXT]->(q) RETURN q.idx LIMIT 1`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Val.Int() != 1 {
		t.Fatalf("rows = %v, want [[1]]", res.Rows)
	}
	if res.Exec.RowsScanned > 100 {
		t.Fatalf("RowsScanned = %d: LIMIT 1 should stop the scan of 10,000 Persons", res.Exec.RowsScanned)
	}
}

// TestClauseCountBounded: operators nest one per clause, so a query with
// more clauses than the depth bound is refused with an error rather than
// run on an unbounded stack.
func TestClauseCountBounded(t *testing.T) {
	q := strings.Repeat("MATCH (a) ", 2*maxExprDepth) + "RETURN count(*) AS n"
	if _, err := NewExecutor(socialGraph()).Run(q, nil); err == nil || !strings.Contains(err.Error(), "clauses") {
		t.Fatalf("err = %v, want a clause-count error", err)
	}
}
