package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/graphrules/graphrules"
	"github.com/graphrules/graphrules/internal/correction"
	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/embedding"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/lint"
	"github.com/graphrules/graphrules/internal/llm"
	imetrics "github.com/graphrules/graphrules/internal/metrics"
	"github.com/graphrules/graphrules/internal/prompt"
	"github.com/graphrules/graphrules/internal/rules"
	"github.com/graphrules/graphrules/internal/textenc"
	"github.com/graphrules/graphrules/internal/vectorstore"
)

func twitter() *graph.Graph {
	return datasets.Twitter(datasets.Options{Seed: datasetSeed, ViolationRate: datasets.DefaultOptions().ViolationRate})
}

// ---------- mine_swa / mine_rag ----------

// mineWorkload times graphrules.Mine end to end: Llama-3 simulation,
// zero-shot, sliding windows or RAG.
type mineWorkload struct {
	cfg  *config
	rag  bool
	g    *graph.Graph
	want string // fingerprint of the set-up run; every later run must equal it
}

func (m *mineWorkload) mine(model llm.Model, enc textenc.Encoder) (*graphrules.MiningResult, error) {
	c := graphrules.MiningConfig{Model: model, Encoder: enc}
	if m.rag {
		c.Method = graphrules.RAG
	}
	return graphrules.MineCtx(m.cfg.ctx, m.g, c)
}

func (m *mineWorkload) model() *llm.SimModel { return llm.NewSim(llm.LLaMA3(), m.cfg.seed) }

func (m *mineWorkload) setup() error {
	m.g = twitter()
	res, err := m.mine(m.model(), nil)
	if err != nil {
		return err
	}
	m.want = fingerprint(res)
	if m.cfg.seed == goldenSeed {
		golden := goldenSWA
		if m.rag {
			golden = goldenRAG
		}
		if got := aggregateCells(res); got != golden {
			return fmt.Errorf("aggregates %q differ from the EXPERIMENTS.md cells %q", got, golden)
		}
	}
	return nil
}

func (m *mineWorkload) run(stop func(int) bool, win *window) {
	start := time.Now()
	for i := 0; !stop(i); i++ {
		t0 := time.Now()
		res, err := m.mine(m.model(), nil)
		win.ops = append(win.ops, time.Since(t0))
		win.elapsed = time.Since(start)
		win.attempted++
		if err != nil {
			win.fail("run %d: %v", i, err)
		} else if fingerprint(res) != m.want {
			win.fail("run %d: result differs from the set-up run", i)
		}
	}
}

func (m *mineWorkload) pid() int                                 { return os.Getpid() }
func (m *mineWorkload) finish(*window, map[string]float64) error { return nil }
func (m *mineWorkload) close()                                   { m.g = nil }

// tracedModel times every completion, split by prompt template. It unwraps
// to the simulated model so mining's rule-budget lookup still reaches it.
type tracedModel struct {
	inner  llm.Model
	tr     *tracer
	parent int
	texts  []string // rule-generation answers, for the rules.ParseNL replay
	others int      // completions that were not rule generation: the translations
}

func (t *tracedModel) Name() string      { return t.inner.Name() }
func (t *tracedModel) Unwrap() llm.Model { return t.inner }
func (t *tracedModel) Complete(p string) (llm.Response, error) {
	return t.CompleteCtx(context.Background(), p)
}

func (t *tracedModel) CompleteCtx(ctx context.Context, p string) (resp llm.Response, err error) {
	name := "llm.translate"
	if prompt.IsRuleGeneration(p) {
		name = "llm.rulegen"
	}
	t.tr.do(name, t.parent, 1, func() { resp, err = llm.CompleteCtx(ctx, t.inner, p) })
	if name == "llm.rulegen" {
		t.texts = append(t.texts, resp.Text)
	} else {
		t.others++
	}
	return resp, err
}

// tracedEncoder times Encode and keeps the encoding for the stage replays.
type tracedEncoder struct {
	inner  textenc.Encoder
	tr     *tracer
	parent int
	enc    *textenc.Encoding
}

func (t *tracedEncoder) Name() string { return t.inner.Name() }
func (t *tracedEncoder) Encode(g *graph.Graph) *textenc.Encoding {
	t.tr.do("textenc.encode", t.parent, 1, func() { t.enc = t.inner.Encode(g) })
	return t.enc
}

// trace runs one Mine with the model and encoder wrapped, then calls every
// remaining stage directly on that run's own inputs and outputs. The stage
// times plus mining.residual_ms add up to the traced Mine wall.
func (m *mineWorkload) trace(tr *tracer, win *window, layers map[string]float64) error {

	root := tr.start("mining.Mine", 0, 1)
	model := &tracedModel{inner: m.model(), tr: tr, parent: root}
	encoder := &tracedEncoder{inner: textenc.IncidentEncoder{}, tr: tr, parent: root}
	var before, after runtime.MemStats
	gc0, cpu0 := gcCPU()
	runtime.ReadMemStats(&before)
	res, err := m.mine(model, encoder)
	wall := tr.end(root)
	runtime.ReadMemStats(&after)
	gc1, cpu1 := gcCPU()
	if err != nil {
		return err
	}
	if fingerprint(res) != m.want {
		return fmt.Errorf("traced run differs from the untraced set-up run")
	}

	replay := tr.start("replay", 0, 2)
	stage := func(name string, fn func()) { tr.do(name, replay, 2, fn) }
	enc := encoder.enc
	windows := res.Windows
	if m.rag {
		var chunks []textenc.Window
		stage("textenc.window", func() { chunks, err = textenc.Chunks(enc, 400) })
		if err != nil {
			return err
		}
		windows = len(chunks)
		embedder := embedding.MustNewHashing(embedding.DefaultDim)
		store, err := vectorstore.New(embedding.DefaultDim)
		if err != nil {
			return err
		}
		vecs := make([][]float32, len(chunks))
		stage("embedding.embed", func() {
			for i, ch := range chunks {
				vecs[i] = embedder.Embed(ch.Text)
			}
		})
		stage("vectorstore.add", func() {
			for i, ch := range chunks {
				if _, err = store.Add(ch.Text, vecs[i], nil); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		query := embedder.Embed(prompt.RuleGeneration(prompt.ZeroShot, ""))
		stage("vectorstore.search", func() { _, err = store.Search(query, 8, nil) })
		if err != nil {
			return err
		}
	} else {
		stage("textenc.window", func() {
			if _, err = textenc.SlidingWindows(enc, textenc.DefaultWindowTokens, textenc.DefaultOverlapTokens); err == nil {
				_, err = textenc.BrokenBlocks(enc, textenc.DefaultWindowTokens, textenc.DefaultOverlapTokens)
			}
		})
		if err != nil {
			return err
		}
	}
	stage("rules.parsenl", func() {
		for _, text := range model.texts {
			for _, nl := range llm.ParseRuleLines(text) {
				rules.ParseNL(nl)
			}
		}
	})
	var schema *graph.Schema
	stage("graph.schema", func() { schema = graph.ExtractSchema(m.g); schema.Describe() })
	var finals []rules.QuerySet
	var entries []lint.RuleSetEntry
	diagnostics := 0
	for _, mr := range res.Rules {
		finals = append(finals, mr.Final)
		entries = append(entries, lint.RuleSetEntry{Name: mr.NL, Support: mr.Final.Support, Body: mr.Final.Body, Head: mr.Final.HeadTotal})
		diagnostics += len(mr.Lint)
	}
	stage("correction.analyze_fix", func() {
		for _, mr := range res.Rules {
			rep := correction.Analyze(mr.Generated, schema)
			correction.Fix(mr.Generated, mr.Rule, rep.Category)
		}
	})
	stage("lint.ruleset", func() { lint.RuleSetLint(entries) })
	stage("metrics.score", func() {
		imetrics.EvaluateQuerySetsCtx(m.cfg.ctx, m.g, finals, imetrics.EvalOptions{Workers: 1})
	})
	tr.end(replay)

	self := tr.selfByName()
	stages := time.Duration(0)
	for name, d := range self {
		if name == "mining.Mine" || name == "replay" {
			continue
		}
		layers[name+"_ms"] = ms(d)
		stages += d
	}
	layers["mining.wall_ms"] = ms(wall)
	layers["mining.residual_ms"] = ms(wall - stages)
	layers["textenc.tokens"] = float64(enc.TokenCount())
	layers["textenc.windows"] = float64(windows)
	layers["llm.rulegen_calls"] = float64(len(model.texts))
	layers["llm.translate_calls"] = float64(model.others)
	layers["lint.diagnostics"] = float64(diagnostics)
	layers["metrics.queries"] = float64(3 * len(finals))
	layers["mining.allocs_per_op"] = float64(after.Mallocs - before.Mallocs)
	layers["mining.bytes_per_op"] = float64(after.TotalAlloc - before.TotalAlloc)
	if cpu1 > cpu0 {
		layers["mining.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	layers["trace.overhead_ratio"] = ms(wall)/ms(medianDur(win.ops)) - 1
	return nil
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// aggregateCells renders a run's aggregate as the EXPERIMENTS.md table does.
func aggregateCells(res *graphrules.MiningResult) string {
	a := res.Aggregate
	return fmt.Sprintf("%d %.0f %.2f %.2f", a.Rules, a.MeanSupport, a.MeanCoverage, a.MeanConfidence)
}

// fingerprint renders everything deterministic about a mining result, so two
// runs can be compared for identity (wall-clock fields are left out).
func fingerprint(res *graphrules.MiningResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v|%d|%d|%v|%v|%d/%d\n", res.Aggregate, res.Windows, res.BrokenPatterns,
		res.MiningSeconds, res.TranslationSeconds, res.CypherCorrect, res.CypherTotal)
	for _, mr := range res.Rules {
		fmt.Fprintf(&b, "%s|%+v|%+v|%v|%v|%+v|%d|%v\n", mr.NL, mr.Generated, mr.Final, mr.Category,
			mr.Corrected, mr.Score.Counts, len(mr.Lint), mr.EvalErr)
	}
	return b.String()
}

// ---------- score ----------

// scoreWorkload times rule checking alone: the final query sets of one
// mine_swa run, evaluated serially through metrics.EvaluateQuerySetsCtx. The
// run is always the goldenSeed one, so every -seed checks the same rules and
// does the same work; the seed only orders them.
type scoreWorkload struct {
	cfg    *config
	g      *graph.Graph
	finals []rules.QuerySet
	want   []rules.Counts
}

func (s *scoreWorkload) evaluate() ([]rules.Counts, []error) {
	return imetrics.EvaluateQuerySetsCtx(s.cfg.ctx, s.g, s.finals, imetrics.EvalOptions{Workers: 1})
}

func (s *scoreWorkload) setup() error {
	s.g = twitter()
	res, err := graphrules.MineCtx(s.cfg.ctx, s.g, graphrules.MiningConfig{Model: llm.NewSim(llm.LLaMA3(), goldenSeed)})
	if err != nil {
		return err
	}
	for _, mr := range res.Rules {
		if mr.EvalErr == nil {
			s.finals = append(s.finals, mr.Final)
			s.want = append(s.want, mr.Score.Counts)
		}
	}
	if len(s.finals) == 0 {
		return fmt.Errorf("the set-up mining run scored no rule")
	}
	rand.New(rand.NewSource(s.cfg.seed)).Shuffle(len(s.finals), func(i, j int) {
		s.finals[i], s.finals[j] = s.finals[j], s.finals[i]
		s.want[i], s.want[j] = s.want[j], s.want[i]
	})
	s.evaluate() // warm-up: lazy property indexes
	return nil
}

func (s *scoreWorkload) run(stop func(int) bool, win *window) {
	start := time.Now()
	for i := 0; !stop(i); i++ {
		t0 := time.Now()
		counts, errs := s.evaluate()
		win.ops = append(win.ops, time.Since(t0))
		win.elapsed = time.Since(start)
		win.attempted++
		for j := range counts {
			if errs[j] != nil || counts[j] != s.want[j] {
				win.fail("op %d query set %d: counts %+v err %v, want %+v", i, j, counts[j], errs[j], s.want[j])
				break
			}
		}
	}
}

func (s *scoreWorkload) pid() int                                 { return os.Getpid() }
func (s *scoreWorkload) finish(*window, map[string]float64) error { return nil }
func (s *scoreWorkload) close()                                   { s.g = nil }

// trace times one whole evaluation, then replays every query of the sets
// layer by layer.
func (s *scoreWorkload) trace(tr *tracer, win *window, layers map[string]float64) error {
	layers["metrics.score_ms"] = ms(tr.do("metrics.score", 0, 1, func() { s.evaluate() }))
	layers["metrics.queries"] = float64(3 * len(s.finals))
	rp := newReplayer(s.cfg, tr, s.g)
	defer rp.close()
	op := 1
	for _, qs := range s.finals {
		for _, text := range []string{qs.Support, qs.Body, qs.HeadTotal} {
			op++
			if err := rp.request(op, text, nil, nil); err != nil {
				return err
			}
		}
	}
	rp.report(layers)
	return nil
}
