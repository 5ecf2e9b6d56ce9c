package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs the whole harness on a tiny stand-in cell (treiber at
// two threads, a 2,000-record warm store, the minimum of invocations):
// set-up, the checked closed loop, a traced run, the result shapes, and
// a forced wrong expectation showing up as failures.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs")
	}
	h, err := newBench("..", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(h.work)
	var log bytes.Buffer
	h.filler, h.setups, h.log = 2000, 1, &log
	w := treiberCell("treiber-t2", 2, 1, "stand-in")

	r, err := h.runUntraced(w)
	if err != nil {
		t.Fatal(err)
	}
	if !r.result.Correct || r.result.Failed != 0 || r.result.Attempted != 4 || r.samples != 3 {
		t.Errorf("untraced: %+v, %d samples\n%s", r.result, r.samples, log.String())
	}
	if len(r.result.Metrics) != len(endToEnd) {
		t.Errorf("untraced: metrics %v", r.result.Metrics)
	}
	for _, d := range endToEnd {
		if v := r.result.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("untraced: %s = %+v", d.Name, v)
		}
	}
	if r.pins["core.executions"] == 0 || r.pins["core.states_popped"] == 0 {
		t.Errorf("untraced: pins %v", r.pins)
	}
	line, _ := json.Marshal(r.result)
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result line %s: %v", line, err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}

	out := t.TempDir()
	r, err = h.runTraced(w, out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.result.Correct || r.samples == 0 {
		t.Errorf("traced: %+v\n%s", r.result, log.String())
	}
	if len(r.result.Metrics) != len(perLayer) {
		t.Errorf("traced: %d metrics, want %d", len(r.result.Metrics), len(perLayer))
	}
	for _, n := range []string{"core.run_s", "core.states_popped", "mm.consistent_calls", "graph.build_rels_ns", "process.cpu_s"} {
		if r.result.Metrics[n].Value <= 0 {
			t.Errorf("traced: %s = %v", n, r.result.Metrics[n])
		}
	}
	if got, want := r.pins["core.states_popped"], int64(r.result.Metrics["core.states_popped"].Value); got != want {
		t.Errorf("traced: pin %d, metric %d", got, want)
	}
	var spans []span
	data, err := os.ReadFile(filepath.Join(out, "trace-treiber-t2.json"))
	if err == nil {
		err = json.Unmarshal(data, &spans)
	}
	if err != nil || len(spans) == 0 {
		t.Errorf("trace file: %d spans, %v", len(spans), err)
	}

	// Take treiber out of the cells expected to verify: every invocation
	// now reports a verdict the expectations do not have.
	h.exp.OK = nil
	ls := h.closedLoop(w, 0, 1)
	if ls.attempted == 0 || ls.failed != ls.attempted {
		t.Errorf("wrong expectation: %d of %d invocations failed", ls.failed, ls.attempted)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the contract's limits and to
// the tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" || len(bj.Command) == 0 {
		t.Errorf("paths %v, command %v", bj.Paths, bj.Command)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", n, len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bj.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got, want []metricDef, limit int) {
		if len(got) == 0 || len(got) > limit || len(got) != len(want) {
			t.Fatalf("%d %s metrics, the program has %d (limit %d)", len(got), kind, len(want), limit)
		}
		for i, d := range got {
			name(d.Name)
			if d != want[i] {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json and %+v in the program", kind, i, d, want[i])
			}
			if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd, 16)
	check("per-layer", bj.PerLayer, perLayer, 128)
	setup := false
	for _, d := range bj.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
}

func TestExpectedVerdicts(t *testing.T) {
	x, err := loadExpected("expected_verdicts.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := x.suiteCells(); got != 144 {
		t.Errorf("the expectations describe %d suite cells, the suite has 144", got)
	}
	if len(x.StudyCases) != 5 {
		t.Errorf("%d study cases, want 5", len(x.StudyCases))
	}
	for _, c := range []struct{ cell, model, want string }{
		{"client/mutex/mcs/t2-i1", "tso", "ok"},
		{"structs/treiber/t3-i1", "wmm", "ok"},
		{"structs/treiber/bounded/t2-i1", "sc", "ok"},
		{"litmus/SB/weak", "tso", "ALLOWED"},
		{"litmus/SB/strong", "wmm", "forbidden"},
		{"litmus/MP/weak", "tso", "forbidden"},
		{"client/mutex/dpdkmcs-buggy/t2-i1", "wmm", ""},
		{"litmus/unknown/weak", "sc", ""},
	} {
		if got := x.verdict(c.cell, c.model); got != c.want {
			t.Errorf("%s under %s: %q, want %q", c.cell, c.model, got, c.want)
		}
	}
}

// TestQuartiles pins the rule to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	file := func(verdicts []float64, failed int, popped int64) *resultsFile {
		wr := &workloadResults{Pins: map[string]int64{"core.states_popped": popped}}
		for i, v := range verdicts {
			wr.Runs = append(wr.Runs, runRecord{Seed: int64(i), Attempted: 10, Failed: failed, Samples: 9,
				Metrics: pack(endToEnd, sample{"verdict_s": v, "setup_s": 2})})
		}
		return &resultsFile{Schema: resultsSchema, EndToEnd: endToEnd, Workloads: map[string]*workloadResults{"w": wr}}
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.8, 1.2, 0.9, 1.1, 0.7, 1.3, 1.0, 1.0, 0.85, 1.15}
	for _, c := range []struct {
		name string
		a, b *resultsFile
		exit int
		mark string
	}{
		{"same", file(steady, 0, 100), file(steady, 0, 100), 0, "ok"},
		{"within the bound", file(steady, 0, 100), file(scaled(1.05), 0, 100), 0, "ok"},
		{"slower", file(steady, 0, 100), file(scaled(1.3), 0, 100), 1, "REGRESSED"},
		{"noisy", file(noisy, 0, 100), file(noisy, 0, 100), 0, "unresolved"},
		{"noisy but all faster", file(noisy, 0, 100), file(scaled(0.5), 0, 100), 0, "ok"},
		{"a failure", file(steady, 0, 100), file(steady, 1, 100), 1, "REGRESSED"},
		{"a pin moved", file(steady, 0, 100), file(steady, 0, 101), 1, "REGRESSED"},
	} {
		var out bytes.Buffer
		if got := compareResults(&out, c.a, c.b); got != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.exit, out.String())
		}
		row := regexp.MustCompile(`(?m)^w +verdict_s .* (\S+)$`).FindStringSubmatch(out.String())
		wantRow := c.mark
		if c.name == "a failure" || c.name == "a pin moved" {
			wantRow = "ok" // the timing is fine; the regression is reported on its own row
		}
		if row == nil || row[1] != wantRow {
			t.Errorf("%s: verdict_s row %v, want mark %q\n%s", c.name, row, wantRow, out.String())
		}
		if !strings.Contains(out.String(), c.mark) {
			t.Errorf("%s: no %q in\n%s", c.name, c.mark, out.String())
		}
	}
}
