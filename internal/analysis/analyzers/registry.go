package analyzers

import "github.com/graphrules/graphrules/internal/analysis"

// All returns the full graphrulesvet suite: the four engine-invariant
// analyzers plus the curated stock-lite passes, in stable name order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		CopyLocks,
		CtxFlow,
		FrozenWrite,
		LockOrder,
		LoopClosure,
		Nilness,
		TypedErr,
		UnusedWrite,
	}
}

// Custom returns only the four engine-invariant analyzers.
func Custom() []*analysis.Analyzer {
	return []*analysis.Analyzer{CtxFlow, FrozenWrite, LockOrder, TypedErr}
}
