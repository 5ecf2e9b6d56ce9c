package vsync_test

import (
	"bufio"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/store"
	"repro/vsync"
)

// matrixConfig is the reduced corpus the tests sweep: two structurally
// different locks at the single ladder rung t=2, every litmus test,
// every model — small enough for -short, wide enough to cover lock
// cells, litmus cells and both decisive verdict polarities.
func matrixConfig(st *vsync.VerdictStore) vsync.MatrixConfig {
	return vsync.MatrixConfig{
		Locks:      []*vsync.Algorithm{locks.ByName("ttas"), locks.ByName("mcs")},
		MaxThreads: 2,
		Store:      st,
	}
}

// verdictMap flattens a matrix result for differential comparison.
func verdictMap(t *testing.T, r *vsync.MatrixResult) map[string]vsync.Verdict {
	t.Helper()
	m := make(map[string]vsync.Verdict, len(r.Cells))
	for _, c := range r.Cells {
		key := fmt.Sprintf("%s|%s|%d", c.Model, c.Program, c.Threads)
		if prev, dup := m[key]; dup && prev != c.Verdict {
			t.Fatalf("duplicate cell %s with diverging verdicts %v / %v", key, prev, c.Verdict)
		}
		m[key] = c.Verdict
	}
	return m
}

// TestMatrixIncremental is the acceptance bar of the verdict store: a
// warm re-run over an unchanged corpus must be served (≥ 90% hits; in
// fact 100%) with the corresponding AMC runs skipped, and store-backed
// verdicts must be differentially identical to a cold run's.
func TestMatrixIncremental(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")

	cold := vsync.VerifyMatrix(matrixConfig(nil))
	if cold.Errors > 0 || cold.Failures > 0 {
		t.Fatalf("cold run failed: %s", cold.Summary())
	}
	if cold.Hits != 0 {
		t.Fatalf("storeless run counted hits: %s", cold.Summary())
	}
	if cold.Misses+cold.Deduped != len(cold.Cells) {
		t.Fatalf("cell accounting does not add up: %d misses + %d deduped != %d cells",
			cold.Misses, cold.Deduped, len(cold.Cells))
	}
	if cold.Deduped == 0 {
		// The corpus contains litmus tests whose weak and strong variants
		// generate identical programs; those must share one AMC run.
		t.Errorf("no identical-key cells deduped within the cold run: %s", cold.Summary())
	}

	st, err := vsync.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	populate := vsync.VerifyMatrix(matrixConfig(st))
	if populate.Hits != 0 || populate.Stored == 0 {
		t.Fatalf("populating run: %s", populate.Summary())
	}
	if populate.Stored != populate.Misses {
		// Every AMC run of this corpus is decisive, and duplicate keys
		// ran once — the log must gain exactly one record per run.
		t.Errorf("stored %d records for %d AMC runs", populate.Stored, populate.Misses)
	}
	if st.Len() != populate.Stored {
		t.Errorf("store indexes %d verdicts, run appended %d", st.Len(), populate.Stored)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Next process": reopen the store and re-run the unchanged corpus.
	st2, err := vsync.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := vsync.VerifyMatrix(matrixConfig(st2))

	if warm.Hits != len(warm.Cells) || warm.Misses != 0 || warm.Deduped != 0 {
		t.Errorf("warm run re-verified cells: %s", warm.Summary())
	}
	if warm.HitRate() < 0.9 {
		t.Errorf("warm hit rate %.2f below the 90%% acceptance bar", warm.HitRate())
	}
	for _, c := range warm.Cells {
		if !c.FromStore {
			t.Errorf("warm cell %s/%s not served from store", c.Model, c.Program)
		}
		if c.Duration != 0 {
			t.Errorf("warm cell %s/%s reports AMC time %v; the run should have been skipped",
				c.Model, c.Program, c.Duration)
		}
	}

	// Differential soundness: the store must change where verdicts come
	// from, never what they are.
	want := verdictMap(t, cold)
	for name, got := range map[string]*vsync.MatrixResult{"populating": populate, "warm": warm} {
		m := verdictMap(t, got)
		if len(m) != len(want) {
			t.Fatalf("%s run covers %d distinct cells, cold run %d", name, len(m), len(want))
		}
		for key, v := range want {
			if m[key] != v {
				t.Errorf("%s run: cell %s verdict %v, cold run %v", name, key, m[key], v)
			}
		}
	}
}

// TestMatrixDetectsFailures: a known-buggy study-case lock must surface
// as a suite failure, not vanish into the store.
func TestMatrixDetectsFailures(t *testing.T) {
	var buggy *vsync.Algorithm
	for _, alg := range locks.All() {
		if alg.Buggy {
			buggy = alg
			break
		}
	}
	if buggy == nil {
		t.Skip("no buggy study-case lock registered")
	}
	st, err := vsync.OpenStore(filepath.Join(t.TempDir(), "verdicts.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := vsync.MatrixConfig{
		Locks:     []*vsync.Algorithm{buggy},
		Models:    []vsync.Model{vsync.ModelWMM},
		NoLitmus:  true,
		NoStructs: true,
		Store:     st,
	}
	first := vsync.VerifyMatrix(cfg)
	if first.Failures == 0 {
		t.Fatalf("buggy lock %s produced no failing cell: %s", buggy.Name, first.Summary())
	}
	if first.Ok() {
		t.Fatalf("buggy suite claims Ok: %s", first.Summary())
	}
	// The failing verdict is decisive and must be served (still as a
	// failure) on the warm pass.
	second := vsync.VerifyMatrix(cfg)
	if second.Misses != 0 {
		t.Errorf("warm pass re-verified the failing cell: %s", second.Summary())
	}
	if second.Failures != first.Failures {
		t.Errorf("failure count changed warm: %d vs %d", second.Failures, first.Failures)
	}
}

// TestMatrixStoreAppendFailure: a failed store append (disk full, I/O
// error — simulated by closing the store under the run) must not taint
// the soundly computed verdicts or the exit status; it is recorded in
// StoreErr so callers can warn that the run is not actually warming
// the store. Only verdict *conflicts* (broken keying) turn cells into
// engine errors.
func TestMatrixStoreAppendFailure(t *testing.T) {
	st, err := vsync.OpenStore(filepath.Join(t.TempDir(), "verdicts.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	res := vsync.VerifyMatrix(matrixConfig(st))
	if res.StoreErr == nil {
		t.Fatal("append failures vanished: StoreErr is nil on a dead store")
	}
	if res.Errors > 0 || res.Failures > 0 || !res.Ok() {
		t.Fatalf("append failure tainted sound verdicts: %s", res.Summary())
	}
	// The verdicts must match a storeless run exactly.
	clean := vsync.VerifyMatrix(matrixConfig(nil))
	got, want := verdictMap(t, res), verdictMap(t, clean)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("cell %s: verdict %v with failing store, %v without", k, got[k], v)
		}
	}
}

// TestMatrixInterruptedIsUndecided: a suite interrupted before any
// cell started leaves every cell undecided — not an engine error, and
// not an AMC run, since none started — so the tools exit undecided.
func TestMatrixInterruptedIsUndecided(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := vsync.VerifyMatrixCtx(ctx, matrixConfig(nil))
	if len(res.Cells) == 0 || res.Errors != 0 || res.Failures != 0 || res.Misses != 0 || res.Undecided != len(res.Cells) {
		t.Fatalf("interrupted suite of %d cells: %d errors, %d failures, %d AMC runs, %d undecided; want every cell undecided and nothing else",
			len(res.Cells), res.Errors, res.Failures, res.Misses, res.Undecided)
	}
}

// TestMatrixStructsCells: the default matrix carries one row per
// verifiable structure workload at every ladder rung within its thread
// range, the cells verify, and a warm re-run serves them from the
// store like any lock cell.
func TestMatrixStructsCells(t *testing.T) {
	st, err := vsync.OpenStore(filepath.Join(t.TempDir(), "verdicts.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := vsync.MatrixConfig{NoLocks: true, NoLitmus: true, MaxThreads: 2, Store: st}
	cold := vsync.VerifyMatrix(cfg)
	if !cold.Ok() || cold.Errors > 0 || cold.Failures > 0 {
		t.Fatalf("structure corpus failed: %s", cold.Summary())
	}
	var verifiable []vsync.Workload
	for _, w := range vsync.Workloads() {
		if !w.Buggy() {
			verifiable = append(verifiable, w)
		}
	}
	const models = 3 // default matrix: sc, tso, wmm
	if want := len(verifiable) * models; len(cold.Cells) != want {
		t.Fatalf("structure slice has %d cells, want %d (%d workloads x %d models)",
			len(cold.Cells), want, len(verifiable), models)
	}
	seen := make(map[string]bool)
	for _, c := range cold.Cells {
		seen[c.Program] = true
		if c.Threads != 2 {
			t.Errorf("cell %s at t=%d, want the single t=2 rung", c.Program, c.Threads)
		}
	}
	for _, w := range verifiable {
		name := vsync.WorkloadProgram(w, nil, 2).Name
		if !seen[name] {
			t.Errorf("workload %s missing from the matrix (no cell named %s)", w.Name(), name)
		}
	}

	warm := vsync.VerifyMatrix(cfg)
	if warm.Misses != 0 || warm.Hits+warm.Deduped != len(warm.Cells) {
		t.Errorf("structure cells not served warm: %s", warm.Summary())
	}
}

// TestRemoteTierMakesMatrixWarm: two shard stores that each verify a
// disjoint half of the corpus against one verdict service leave a
// third, empty store on that service entirely warm — the fleet story:
// CI shards verify halves, and every machine behind the service is
// served the whole corpus without a model-checking run.
func TestRemoteTierMakesMatrixWarm(t *testing.T) {
	var half1, half2 []*vsync.Algorithm
	for i, alg := range vsync.Locks() {
		if alg.Buggy {
			continue
		}
		if i%2 == 0 {
			half1 = append(half1, alg)
		} else {
			half2 = append(half2, alg)
		}
	}
	dir := t.TempDir()
	served, err := store.OpenShared(filepath.Join(dir, "service.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	srv := httptest.NewServer(store.NewHandler(served))
	defer srv.Close()
	open := func(name string) *vsync.VerdictStore {
		st, err := vsync.OpenStoreWith(filepath.Join(dir, name), &vsync.StoreOptions{Remote: srv.URL})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Shard A takes half the locks, shard B the other half plus the
	// litmus and structure corpora — disjoint cells, together the full
	// default matrix. Close pushes what each has not yet pushed.
	stA, stB := open("a.log"), open("b.log")
	ra := vsync.VerifyMatrix(vsync.MatrixConfig{Locks: half1, NoLitmus: true, NoStructs: true, Store: stA})
	rb := vsync.VerifyMatrix(vsync.MatrixConfig{Locks: half2, Store: stB})
	if ra.Errors > 0 || rb.Errors > 0 || ra.StoreErr != nil || rb.StoreErr != nil {
		t.Fatalf("shard passes not clean: %s / %s", ra.Summary(), rb.Summary())
	}
	for _, st := range []*vsync.VerdictStore{stA, stB} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if s := st.Stats(); s.RemotePuts == 0 || s.RemoteFailures != 0 {
			t.Fatalf("shard %s pushed %d verdicts with %d failures", st.Path(), s.RemotePuts, s.RemoteFailures)
		}
	}
	if s := served.Stats(); s.Conflicts != 0 {
		t.Fatalf("the shards' verdicts conflict at the service: %+v", s)
	}

	stC := open("c.log")
	defer stC.Close()
	full := vsync.VerifyMatrix(vsync.MatrixConfig{Store: stC})
	if full.Misses != 0 || full.Hits+full.Deduped != len(full.Cells) {
		t.Fatalf("the service did not make the full matrix warm: %s", full.Summary())
	}
	// What the service served is promoted into the local log, so a
	// cell sharing a key with an earlier one hits locally.
	if s := stC.Stats(); s.RemoteHits == 0 || s.Puts != 0 || s.Appended != s.RemoteHits {
		t.Fatalf("empty local store: %d remote hits, %d puts, %d appended; want every record promoted from the service", s.RemoteHits, s.Puts, s.Appended)
	}
}

// TestLitmusConformanceGolden pins the whole litmus conformance table:
// every built-in litmus test, weak and strong, under SC, TSO, WMM and
// the psc-ablation model RA — the suite's litmus slice, as
// `vsyncsuite -no-locks -no-structs -models sc,tso,wmm,ra -v` prints
// it. testdata/litmus_conformance.txt is the table the standalone
// litmus tool printed for both strengths before the suite absorbed it;
// every one of its 88 labels must come back from VerifyMatrix.
func TestLitmusConformanceGolden(t *testing.T) {
	want := readConformance(t, "testdata/litmus_conformance.txt")
	res := vsync.VerifyMatrix(vsync.MatrixConfig{
		Models:    []vsync.Model{mm.SC, mm.TSO, mm.WMM, mm.RA},
		NoLocks:   true,
		NoStructs: true,
	})
	if len(res.Cells) != len(want) {
		t.Errorf("litmus slice has %d cells, the golden table %d labels", len(res.Cells), len(want))
	}
	for _, c := range res.Cells {
		key := c.Program + "|" + c.Model
		w, ok := want[key]
		if !ok {
			t.Errorf("cell %s under %s is not in the golden table", c.Program, c.Model)
			continue
		}
		if got := c.Verdict.LitmusLabel(); got != w {
			t.Errorf("%s under %s: %s, golden table says %s", c.Program, c.Model, got, w)
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("golden label %s has no cell", key)
	}
}

// readConformance parses the weak and strong conformance tables into
// labels keyed by "litmus/<test>/<strength>|<model>", the cell names
// VerifyMatrix gives the litmus slice.
func readConformance(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	labels := make(map[string]string)
	var strength string
	var models []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.Contains(line, "(weak variants)"):
			strength = "weak"
		case strings.Contains(line, "(strong variants)"):
			strength = "strong"
		case len(fields) == 0 || strings.HasPrefix(line, "---"):
		case fields[0] == "litmus":
			models = fields[1:]
		default:
			if strength == "" || len(fields) != len(models)+1 {
				t.Fatalf("%s: malformed row %q", path, line)
			}
			for i, m := range models {
				labels["litmus/"+fields[0]+"/"+strength+"|"+m] = fields[i+1]
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return labels
}
