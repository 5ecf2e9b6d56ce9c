// Command benchmark is the repository's benchmark of record: wall time
// from process start to verdict of the vsync tools on five workloads,
// checked against hand-written expectations, plus a traced in-process
// run that attributes each workload's time to the layers. README.md in
// this directory describes the workloads, the metrics and how to read
// them; BENCHMARK.json at the repository root is the contract.
//
// Start it through run.sh, from the root of a checkout:
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh --all [--runs K] [--seed N] [--seconds S] [--out FILE]
//	bash benchmark/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	defaultSeconds = 15
	defaultFiller  = 200_000
	defaultSetups  = 3
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		secs    = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced child processes; 1: per-layer metrics from a traced run")
		all     = flag.Bool("all", false, "run every workload, untraced then traced, and write one results file")
		runs    = flag.Int("runs", 1, "with -all: untraced runs per workload, each with the next seed")
		out     = flag.String("out", "", "with -all: results file (default <out-dir>/results-seed<N>.json)")
		outDir  = flag.String("out-dir", filepath.Join("benchmark", "out"), "directory for trace and results files")
		compare = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
		return 2
	}

	if *compare {
		if flag.NArg() != 2 {
			return fail("usage: -compare A.json B.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *all == (*name != "") {
		return fail("exactly one of -workload NAME, -all or -compare is required")
	}
	w := workloadByName(*name)
	if !*all && w == nil {
		return fail("unknown workload %q", *name)
	}

	h, err := newBench(".", *seed, *secs)
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(h.work)

	if *all {
		path := *out
		if path == "" {
			path = filepath.Join(*outDir, fmt.Sprintf("results-seed%d.json", *seed))
		}
		ok, err := runAll(h, *runs, *outDir, path)
		if err != nil {
			return fail("%v", err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	var r *runReport
	if *trace == 0 {
		r, err = h.runUntraced(w)
	} else {
		r, err = h.runTraced(w, *outDir)
	}
	if err != nil {
		return fail("%v", err)
	}
	r.print(os.Stdout)
	line, err := json.Marshal(r.result)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(line))
	return 0
}

// newBench checks that root is a checkout of the repository and
// prepares the scratch directory under its .bench_build.
func newBench(root string, seed int64, seconds float64) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "vsynccheck")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout of the repository (run from its root): %w", root, err)
	}
	exp, err := loadExpected(filepath.Join(root, "benchmark", "expected_verdicts.json"))
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &bench{root: root, work: work, exp: exp, seed: seed, seconds: seconds,
		filler: defaultFiller, setups: defaultSetups, log: os.Stderr}, nil
}

// runReport is everything one run of one workload found.
type runReport struct {
	workload string
	seed     int64
	result   result
	samples  int              // timed invocations (untraced) or passes (traced) behind the medians
	pins     map[string]int64 // counts that repeated exactly
}

// print lists every metric by name with its unit, one per line.
func (r *runReport) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: attempted %d, failed %d, samples %d\n",
		r.workload, r.seed, r.result.Attempted, r.result.Failed, r.samples)
	for _, n := range slices.Sorted(maps.Keys(r.result.Metrics)) {
		v := r.result.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, v.Value, v.Unit)
	}
	for _, n := range slices.Sorted(maps.Keys(r.pins)) {
		fmt.Fprintf(w, "  pin %-28s %14d\n", n, r.pins[n])
	}
}

// runUntraced is the end-to-end measurement: set up (several times, for
// a steady setup_s), run the correctness pass, then the closed loop.
func (h *bench) runUntraced(w *workload) (*runReport, error) {
	var setupTimes []time.Duration
	for i := 0; i < h.setups; i++ {
		if h.env != nil {
			os.RemoveAll(h.env.dir)
		}
		e, d, err := h.setup()
		if err != nil {
			return nil, err
		}
		h.env = e
		setupTimes = append(setupTimes, d)
	}
	r := &runReport{workload: w.name, seed: h.seed}
	if w.study {
		r.result.Attempted, r.result.Failed = h.studyCases()
	}
	ls := h.closedLoop(w, time.Duration(h.seconds*float64(time.Second)), 3)
	r.result.Attempted += ls.attempted
	r.result.Failed += ls.failed
	r.result.Correct = r.result.Failed == 0
	r.samples = len(ls.wall)
	r.pins = ls.pins
	r.result.Metrics = pack(endToEnd, sample{
		"verdict_s": median(seconds(ls.wall)),
		"setup_s":   median(seconds(setupTimes)),
	})
	return r, nil
}

// runTraced is the per-layer measurement. Half of the time goes to the
// closed loop of child processes (the process layer can only be seen
// from outside), the rest to traced in-process passes; every metric is
// the median over its invocations or passes.
func (h *bench) runTraced(w *workload, outDir string) (*runReport, error) {
	if h.env == nil {
		e, _, err := h.setup()
		if err != nil {
			return nil, err
		}
		h.env = e
	}
	r := &runReport{workload: w.name, seed: h.seed}
	half := time.Duration(h.seconds / 2 * float64(time.Second))
	ls := h.closedLoop(w, half, 3)
	r.result.Attempted, r.result.Failed = ls.attempted, ls.failed

	tr := newTracer(w.name)
	var passes []sample
	deadline := time.Now().Add(half)
	for len(passes) == 0 || time.Now().Before(deadline) {
		r.result.Attempted++
		s, err := w.pass(h, tr)
		if err == nil && len(passes) > 0 {
			for _, n := range w.pinned {
				if s[n] != passes[0][n] {
					err = fmt.Errorf("%s = %v, the first pass reported %v", n, s[n], passes[0][n])
				}
			}
		}
		if err != nil {
			r.result.Failed++
			h.logf("%s: traced pass failed: %v", w.name, err)
			if r.result.Failed >= 3 {
				break
			}
			continue
		}
		passes = append(passes, s)
	}
	r.result.Correct = r.result.Failed == 0
	r.samples = len(passes)

	s := medianOf(passes)
	if len(ls.wall) > 0 {
		startup := make([]float64, len(ls.wall))
		for i := range ls.wall {
			startup[i] = (ls.wall[i] - ls.self[i]).Seconds()
		}
		s["process.startup_s"] = median(startup)
		s["process.cpu_s"] = median(seconds(ls.cpu))
		s["process.peak_rss_mb"] = median(ls.rssMB)
		if len(ls.wall) >= 60 {
			s["process.wall_p90_s"] = percentile(seconds(ls.wall), 0.90)
		}
		s["process.steal_share"] = ls.stealShare
	}
	r.pins = map[string]int64{}
	if len(passes) > 0 {
		for _, n := range w.pinned {
			r.pins[n] = int64(passes[0][n])
		}
	}
	r.result.Metrics = pack(perLayer, s)
	if v := s["trace.overhead_share"]; v > 0.05 {
		h.logf("%s: tracing overhead %.1f%% is above 5%%: treat the layer numbers with care", w.name, 100*v)
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return r, nil
}

// stamp records where and when a results file was produced.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Date       string  `json:"date"`
}

// commitOf reads the checked-out commit from .git without running git;
// a checkout that is not a git repository is "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(root, ".git", rest))
		if err != nil {
			return rest // a packed ref: the branch name is the best we have
		}
		return strings.TrimSpace(string(data))
	}
	return ref
}

// resultsFile is what -all writes and -compare reads.
type resultsFile struct {
	Schema    string                      `json:"schema"`
	Stamp     stamp                       `json:"stamp"`
	EndToEnd  []metricDef                 `json:"end_to_end"`
	PerLayer  []metricDef                 `json:"per_layer"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	Why    string           `json:"why"`
	Runs   []runRecord      `json:"runs"`   // untraced, one per seed
	Layers map[string]value `json:"layers"` // traced run
	Passes int              `json:"passes"` // traced passes behind the layer medians
	Pins   map[string]int64 `json:"pins"`   // counts that repeated exactly, untraced and traced
}

type runRecord struct {
	Seed      int64            `json:"seed"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"samples"`
	Metrics   map[string]value `json:"metrics"`
}

const resultsSchema = "vsync-benchmark/v1"

// runAll runs every workload runs times untraced (seeds seed, seed+1,
// ...) and once traced, prints every metric and writes the results
// file. It reports whether every run was correct.
func runAll(h *bench, runs int, outDir, path string) (bool, error) {
	rf := &resultsFile{
		Schema: resultsSchema,
		Stamp: stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: commitOf(h.root), Seed: h.seed,
			RunSeconds: h.seconds, Date: time.Now().UTC().Format(time.RFC3339)},
		EndToEnd:  endToEnd,
		PerLayer:  perLayer,
		Workloads: map[string]*workloadResults{},
	}
	ok := true
	seed0 := h.seed
	for _, w := range workloads {
		wr := &workloadResults{Why: w.why, Pins: map[string]int64{}}
		rf.Workloads[w.name] = wr
		// A pinned count must be the same in every run of the workload,
		// untraced and traced.
		record := func(r *runReport) {
			r.print(os.Stdout)
			ok = ok && r.result.Correct
			for k, v := range r.pins {
				if old, seen := wr.Pins[k]; seen && old != v {
					h.logf("%s: %s = %d in one run and %d in another", w.name, k, old, v)
					ok = false
				}
				wr.Pins[k] = v
			}
		}
		for i := 0; i < runs; i++ {
			h.seed = seed0 + int64(i)
			r, err := h.runUntraced(w)
			if err != nil {
				return false, err
			}
			record(r)
			wr.Runs = append(wr.Runs, runRecord{Seed: h.seed, Attempted: r.result.Attempted, Failed: r.result.Failed,
				Samples: r.samples, Metrics: r.result.Metrics})
		}
		h.seed = seed0
		r, err := h.runTraced(w, outDir)
		if err != nil {
			return false, err
		}
		record(r)
		wr.Layers, wr.Passes = r.result.Metrics, r.samples
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("results written to %s (nproc %d, %s, commit %s)\n", path, rf.Stamp.NProc, rf.Stamp.Go, rf.Stamp.Commit)
	return ok, nil
}
