package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestP99NeedsThousandSamples(t *testing.T) {
	ds := make([]time.Duration, minP99Samples)
	for i := range ds {
		ds[i] = time.Duration(len(ds)-i) * time.Millisecond // 1000ms .. 1ms, unsorted
	}
	if _, ok := p99(ds[1:]); ok {
		t.Fatalf("p99 reported for %d samples", len(ds)-1)
	}
	got, ok := p99(ds)
	if !ok || got != 990*time.Millisecond {
		t.Fatalf("p99 of 1..1000ms = %v, %v; want 990ms (nearest rank)", got, ok)
	}

	out := map[string]metric{}
	latencyMetrics(out, "op", ds[1:])
	if _, has := out["op_p99_ms"]; has || out["op_p50_ms"] != (metric{500, "ms"}) {
		t.Fatalf("999 samples: %v; want the median 500ms alone", out)
	}
	latencyMetrics(out, "op", ds)
	if out["op_p99_ms"] != (metric{990, "ms"}) || out["op_p50_ms"] != (metric{500.5, "ms"}) {
		t.Fatalf("1000 samples: %v", out)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50},  // overlaps span 2: 20..30 counts once
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // outlives its parent: clipped to 90..100
		{ID: 5, Parent: 3, StartNS: 25, EndNS: 45},  // a grandchild takes nothing from span 1
		{ID: 6, StartNS: 200, EndNS: 260},           // another root
	}
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNamesAndNests(t *testing.T) {
	tr := newTracer()
	root := tr.start("request", 0, 7)
	tr.do("layer", root, 7, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	self := tr.selfByName()
	if self["layer"] < 2*time.Millisecond || self["request"] < 0 || self["request"] > self["layer"] {
		t.Fatalf("self times %v", self)
	}
	if s := tr.spans[1]; s.Parent != root || s.OpID != 7 || s.EndNS < s.StartNS {
		t.Fatalf("child span %+v", s)
	}
}

func TestKeyGenIsDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []int {
		k, out := newKeyGen(seed), make([]int, 2000)
		for i := range out {
			out[i] = k.next()
			if out[i] < 0 || out[i] >= pointUsers {
				t.Fatalf("key %d outside the %d users", out[i], pointUsers)
			}
		}
		return out
	}
	a := draw(42)
	if !reflect.DeepEqual(a, draw(42)) {
		t.Fatal("the same seed gave two key sequences")
	}
	if reflect.DeepEqual(a, draw(43)) {
		t.Fatal("two seeds gave the same key sequence")
	}
	hot := 0
	for _, k := range a {
		if k < 10 {
			hot++
		}
	}
	if hot < len(a)/4 {
		t.Fatalf("only %d of %d draws hit the ten hottest keys: not Zipf-like", hot, len(a))
	}
}

func reportWith(values map[string]float64) *report {
	res := &result{EndToEnd: map[string]metric{}}
	for k, v := range values {
		res.EndToEnd[k] = metric{Value: v}
	}
	return &report{Workloads: map[string]*result{"bolt_point": res}}
}

func TestCompareVerdicts(t *testing.T) {
	base := reportWith(map[string]float64{"op_p50_ms": 1.00, "ops_per_s": 1000, "records_per_s": 2.0, "fail_ratio": 0, "peak_rss_mb": 0, recoveredRatio: 0.97})
	other := reportWith(map[string]float64{"op_p50_ms": 1.19, "ops_per_s": 780, "fail_ratio": 0.0001, "read_p50_ms": 3, "peak_rss_mb": 90, recoveredRatio: 0.93})
	want := map[string]string{
		"op_p50_ms":     verdictOK,         // 19% slower, bound 20%
		"ops_per_s":     verdictRegressed,  // 22% fewer, bound 20%, higher is better
		"records_per_s": verdictUnresolved, // missing in other
		"read_p50_ms":   verdictUnresolved, // missing in base
		"fail_ratio":    verdictRegressed,  // absolute bound 0
		"peak_rss_mb":   verdictUnresolved, // no ratio to a base of 0
		recoveredRatio:  verdictOK,         // 0.04 lower, absolute bound 0.05
	}
	got := map[string]string{}
	for _, r := range compareReports(base, other) {
		got[r.metric] = r.verdict
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts %v, want %v", got, want)
	}
	for _, r := range compareReports(base, base) {
		if r.verdict == verdictRegressed {
			t.Fatalf("a report regressed against itself: %+v", r)
		}
	}
	for _, d := range judgedMetrics() {
		if d.Name == recoveredRatio && (judge(d, 0.97, 0.91) != verdictRegressed || judge(d, 0.97, 1) != verdictOK) {
			t.Errorf("%s is not judged at an absolute 0.05, higher is better", d.Name)
		}
	}
	if v := judge(judged{metricDecl: metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.10}}, 1.0, 1.11); v != verdictRegressed {
		t.Fatalf("11%% slower with a 10%% bound: %s", v)
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", reportWith(map[string]float64{"op_p50_ms": 1.0, "fail_ratio": 0}))
	b := write("b.json", reportWith(map[string]float64{"op_p50_ms": 1.5, "fail_ratio": 0}))
	quick := reportWith(map[string]float64{"op_p50_ms": 1.0})
	quick.Quick = true
	q := write("q.json", quick)

	var out, errOut bytes.Buffer
	if code := realMain([]string{"-compare", a, a}, &out, &errOut); code != 0 {
		t.Fatalf("a against itself: exit %d, %s", code, errOut.String())
	}
	out.Reset()
	if code := realMain([]string{"-compare", a, b}, &out, &errOut); code != 1 {
		t.Fatalf("a 50%% regression: exit %d", code)
	}
	if s := out.String(); !strings.Contains(s, "1.5000 of 1") || !strings.Contains(s, verdictRegressed) {
		t.Fatalf("the row lacks the ratio with its base or the verdict:\n%s", s)
	}
	if code := realMain([]string{"-compare", a, q}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "-quick") {
		t.Fatalf("a -quick report was not refused: exit %d, %s", code, errOut.String())
	}
}

// benchmarkJSON mirrors the BENCHMARK.json schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBenchmarkJSONMatches(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Fatalf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if w.clients < 1 || w.clients > 2 {
			t.Errorf("%s: %d clients; closed loops here never exceed the 2 CPUs", w.name, w.clients)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	hasSetup := false
	for _, d := range doc.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound > declOf("setup_s").Bound {
			t.Errorf("%s: bound %v above setup_s's, which the driver contract wants largest", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// TestDriverInvocationParses pins the command line the automated driver
// uses: <command> --workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>.
func TestDriverInvocationParses(t *testing.T) {
	var errOut bytes.Buffer
	o, err := parseFlags([]string{"--workload", "bolt_rw", "--seed", "7", "--seconds", "10", "--trace", "0"}, &errOut)
	if err != nil {
		t.Fatalf("%v %s", err, errOut.String())
	}
	if len(o.specs) != 1 || o.specs[0].name != "bolt_rw" || o.seed != 7 || o.seconds != 10 || o.trace || o.quick {
		t.Fatalf("parsed %+v", o)
	}
	if o, err = parseFlags(nil, &errOut); err != nil || o.seconds != float64(readBenchmarkJSON(t).RunSeconds) || !o.trace || len(o.specs) != len(workloads) {
		t.Fatalf("defaults %+v, %v; want run_seconds, traced, every workload", o, err)
	}
	if o, err = parseFlags([]string{"-trace=false", "--trace", "1", "-workloads", "score,bolt_scan"}, &errOut); err != nil || !o.trace || len(o.specs) != 2 {
		t.Fatalf("parsed %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"--workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}} {
		if _, err := parseFlags(bad, &errOut); err == nil {
			t.Errorf("%v was accepted", bad)
		}
	}
}

// TestFillersCannotRegressAlone: the driver line carries every end_to_end
// metric from every workload. A slot the workload does not declare repeats
// one it does declare, of the same unit and direction and with a bound no
// wider, so the filler can only regress after the metric it repeats.
func TestFillersCannotRegressAlone(t *testing.T) {
	for _, spec := range workloads {
		res := &result{attempted: 9, EndToEnd: map[string]metric{failRatio: {0, "ratio"}}}
		for i, name := range spec.e2e {
			if declOf(name).Name == "" {
				t.Fatalf("%s declares %s, which BENCHMARK.json does not have", spec.name, name)
			}
			res.EndToEnd[name] = metric{float64(i + 1), declOf(name).Unit}
		}
		got := driverLine(spec, res, false)["metrics"].(map[string]metric)
		if len(got) != len(endToEnd) {
			t.Fatalf("%s: %d metrics, %d declared", spec.name, len(got), len(endToEnd))
		}
		for _, slot := range endToEnd {
			if m := got[slot.Name]; m.Value == 0 || m.Unit != slot.Unit {
				t.Errorf("%s: %s = %+v, want a non-zero value in %s", spec.name, slot.Name, m, slot.Unit)
			}
			if slices.Contains(spec.e2e, slot.Name) {
				if got[slot.Name] != res.EndToEnd[slot.Name] {
					t.Errorf("%s: measured %s was replaced", spec.name, slot.Name)
				}
				continue
			}
			src := declOf(fillerFor(spec, slot))
			if !slices.Contains(spec.e2e, src.Name) || src.Unit != slot.Unit || src.Better != slot.Better || src.Bound > slot.Bound {
				t.Errorf("%s: slot %+v is filled from %+v", spec.name, slot, src)
			}
			if got[slot.Name] != res.EndToEnd[src.Name] {
				t.Errorf("%s: slot %s = %+v, want %s unchanged", spec.name, slot.Name, got[slot.Name], src.Name)
			}
		}
	}
	spec, _ := findSpec("bolt_rw")
	res := &result{attempted: 9, failed: 1}
	if line := driverLine(spec, res, false); line["correct"] != false || line["failed"] != 1 || line["attempted"] != 9 {
		t.Errorf("a failed operation left the line correct: %v", line)
	}
}

// TestQuickSmoke runs one in-process and one graphd workload end to end at
// 1/20 scale and checks that every declared name comes out with its unit.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches graphd")
	}
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-quick", "-workloads", "bolt_point,mine_rag", "-seed", "42", "-out", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, raw := range lines[len(lines)-2:] {
		var line struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("driver line %q: %v", raw, err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(perLayer) {
			t.Fatalf("driver line %+v", line)
		}
		for _, d := range perLayer {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("layer metric %s: %+v, want unit %s", d.Name, m, d.Unit)
			}
		}
	}

	rep, err := readReport(filepath.Join(dir, "BENCH.json"))
	if err == nil || !strings.Contains(err.Error(), "-quick") {
		t.Fatalf("BENCH.json of a -quick run was read for comparison: %v, %v", rep, err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc report
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Quick || doc.Seed != 42 || doc.GOMAXPROCS["bench"] < 1 || doc.GOMAXPROCS["graphd"] < 1 {
		t.Fatalf("header %+v", doc)
	}
	units := map[string]string{failRatio: "ratio"}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, name := range []string{"bolt_point", "mine_rag"} {
		res := doc.Workloads[name]
		spec, _ := findSpec(name)
		if res == nil {
			t.Fatalf("BENCH.json lacks %s", name)
		}
		for _, m := range append(spec.e2e, failRatio) {
			if got, ok := res.EndToEnd[m]; !ok || got.Unit != units[m] {
				t.Errorf("%s: end-to-end %s = %+v, want unit %s", name, m, got, units[m])
			}
		}
		if _, has := res.Informational["op_p99_ms"]; has && res.Samples["op"] < minP99Samples {
			t.Errorf("%s: p99 reported from %d samples", name, res.Samples["op"])
		}
		for _, d := range endToEnd {
			if m := driverLine(spec, res, false)["metrics"].(map[string]metric)[d.Name]; m.Value == 0 || m.Unit != d.Unit {
				t.Errorf("%s: driver metric %s = %+v", name, d.Name, m)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, name+".trace.json")); err != nil {
			t.Error(err)
		}
	}
	if r := doc.Workloads["bolt_point"].Layers["cypher.plan_cache_hit_ratio"].Value; r < 0.9 {
		t.Errorf("bolt_point plan cache hit ratio %v", r)
	}
	if n := doc.Workloads["mine_rag"].Layers["llm.rulegen_calls"].Value; n != 1 {
		t.Errorf("mine_rag made %v rule-generation calls, want 1", n)
	}
}
