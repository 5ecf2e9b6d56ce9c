package store

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
)

// testHash builds a distinct 128-bit hash for epoch/key fabrication.
func testHash(i int) graph.Hash128 { return graph.Hash128{uint64(i) + 1, uint64(i)*7 + 3} }

// These tests drive the store's failure paths through the injected
// failpoints (internal/faultinject): append errors, torn tails from a
// simulated crash mid-append, failed truncations of a torn tail,
// compaction rename failures, and lock acquisition failures. The invariant under every fault is the same —
// no wrong verdict is ever served, and the log heals to a well-formed
// state at the next locked operation.

func TestAppendFaultSurfacesAndRecovers(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "v.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := faultinject.Configure("store.append:err"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), core.OK, "faulted"); err == nil {
		t.Fatal("injected append fault did not surface")
	}
	if _, ok := s.Lookup(testKey(1)); ok {
		t.Fatal("failed append left the verdict in the index")
	}
	faultinject.Reset()
	if err := s.Put(testKey(1), core.OK, "retry"); err != nil {
		t.Fatalf("put after fault cleared: %v", err)
	}
	if v, ok := s.Lookup(testKey(1)); !ok || v != core.OK {
		t.Fatalf("lookup after recovery = (%v, %v)", v, ok)
	}
}

// TestTornAppendHeals: a simulated kill -9 mid-append leaves half a
// record on disk. The next locked operation's tail re-scan must
// truncate the tear, and subsequent appends must extend a well-formed
// log — the torn verdict is lost (it never committed), nothing else.
func TestTornAppendHeals(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "v.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), core.OK, "committed"); err != nil {
		t.Fatal(err)
	}
	clean, _ := os.Stat(path)

	if err := faultinject.Configure("store.append.torn:on=1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(2), core.SafetyViolation, "torn"); err == nil {
		t.Fatal("torn append did not surface as an error")
	}
	faultinject.Reset()
	if torn, _ := os.Stat(path); torn.Size() <= clean.Size() {
		t.Fatalf("no torn bytes landed (size %d -> %d)", clean.Size(), torn.Size())
	}

	// The same session keeps working: the pre-append re-scan heals the
	// tear under the lock before the next record is written.
	if err := s.Put(testKey(3), core.ATViolation, "after-tear"); err != nil {
		t.Fatalf("append after tear: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process sees exactly the committed records and a log that
	// scans clean end to end.
	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Loaded != 2 || st.Corrupted != 0 {
		t.Fatalf("reopened log: %+v, want 2 loaded, 0 corrupted", st)
	}
	if _, ok := s2.Lookup(testKey(2)); ok {
		t.Fatal("the torn (uncommitted) verdict is being served")
	}
	for _, k := range []int{1, 3} {
		if _, ok := s2.Lookup(testKey(k)); !ok {
			t.Fatalf("committed verdict %d lost to the heal", k)
		}
	}
}

// TestFaultTruncateTornTail: a torn tail that cannot be truncated — a
// log with the append-only attribute refuses truncation but not writes —
// fails the next Put rather than appending behind the tear, where the
// next open's scan would stop and truncate the new record away. Once
// truncation works again a retried Put heals the tear and lands.
func TestFaultTruncateTornTail(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "v.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testKey(1), core.OK, "committed"); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure("store.append.torn:on=1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(2), core.SafetyViolation, "torn"); err == nil {
		t.Fatal("torn append did not surface as an error")
	}
	faultinject.Reset()
	torn := readLog(t, path)

	if err := faultinject.Configure("store.truncate:err"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(3), core.ATViolation, "behind-tear"); err == nil {
		t.Fatal("put over a tear that could not be truncated succeeded")
	}
	if !bytes.Equal(readLog(t, path), torn) {
		t.Fatalf("log went from %d to %d bytes: a record landed behind the tear", len(torn), len(readLog(t, path)))
	}
	if _, ok := s.Lookup(testKey(3)); ok {
		t.Fatal("the refused verdict is served")
	}

	faultinject.Reset()
	if err := s.Put(testKey(3), core.ATViolation, "retry"); err != nil {
		t.Fatalf("retried put: %v", err)
	}
	s2, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Loaded != 2 || st.Corrupted != 0 {
		t.Fatalf("reopened log: %+v, want 2 loaded, 0 corrupted", st)
	}
	for k, want := range map[int]core.Verdict{1: core.OK, 3: core.ATViolation} {
		if v, ok := s2.Lookup(testKey(k)); !ok || v != want {
			t.Fatalf("reopened log: verdict %d = (%v, %v), want %v", k, v, ok, want)
		}
	}
	if _, ok := s2.Lookup(testKey(2)); ok {
		t.Fatal("the torn (uncommitted) verdict is being served")
	}
}

// TestCompactRenameFault: a failed compaction rename must leave the
// original log intact and the session serving every verdict — the
// rewrite is an optimization, never a correctness step.
func TestCompactRenameFault(t *testing.T) {
	defer faultinject.Reset()
	oldBudget := staleRetainBytes
	defer func() { staleRetainBytes = oldBudget }()

	path := filepath.Join(t.TempDir(), "v.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.Put(testKey(i), verdictFor(i), "live"); err != nil {
			t.Fatal(err)
		}
	}
	// Foreign-epoch ballast that a tight budget will want dropped.
	for i := 0; i < 8; i++ {
		if err := s.PutRaw(testHash(900+i), testHash(i), core.OK, "foreign"); err != nil {
			t.Fatal(err)
		}
	}
	staleRetainBytes = 64

	if err := faultinject.Configure("store.rename:err"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err == nil {
		t.Fatal("injected rename fault did not surface from Compact")
	}
	faultinject.Reset()
	if tmps, _ := filepath.Glob(path + ".compact"); len(tmps) != 0 {
		t.Fatalf("temp rewrite left behind: %v", tmps)
	}
	for i := 0; i < 4; i++ {
		if v, ok := s.Lookup(testKey(i)); !ok || v != verdictFor(i) {
			t.Fatalf("verdict %d lost after failed compaction: (%v, %v)", i, v, ok)
		}
	}
	// With the fault cleared the same compaction succeeds and the
	// session still serves everything current-epoch.
	if _, err := s.Compact(); err != nil {
		t.Fatalf("compaction after fault cleared: %v", err)
	}
	for i := 0; i < 4; i++ {
		if v, ok := s.Lookup(testKey(i)); !ok || v != verdictFor(i) {
			t.Fatalf("verdict %d lost to compaction: (%v, %v)", i, v, ok)
		}
	}
}

// TestFlockFault: a failing lock acquisition surfaces from every
// locked operation instead of silently proceeding unlocked.
func TestFlockFault(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "v.log")
	s, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := faultinject.Configure("store.flock:err"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), core.OK, "locked-out"); err == nil {
		t.Fatal("put with a failing lock did not surface")
	}
	if _, err := OpenShared(filepath.Join(t.TempDir(), "w.log"), nil); err == nil {
		t.Fatal("open with a failing lock did not surface")
	}
	faultinject.Reset()
	if err := s.Put(testKey(1), core.OK, "recovered"); err != nil {
		t.Fatalf("put after lock fault cleared: %v", err)
	}
}

// flakyService wraps the verdict service with a switchable failure
// mode, standing in for a service outage mid-run.
type flakyService struct {
	h    http.Handler
	down atomic.Bool
}

func (f *flakyService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, "injected outage", http.StatusInternalServerError)
		return
	}
	f.h.ServeHTTP(w, r)
}

// TestRemoteRequeueAfterOutage: PUT batches that fail during a service
// outage are requeued, not dropped — when the service recovers, a
// flush delivers every verdict produced during the outage (PUT is
// idempotent, so the retry is safe), and the accounting shows the
// requeue happened.
func TestRemoteRequeueAfterOutage(t *testing.T) {
	dir := t.TempDir()
	backend, err := OpenShared(filepath.Join(dir, "server.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	flaky := &flakyService{h: NewHandler(backend)}
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	lg := &testLogf{}
	s, err := OpenShared(filepath.Join(dir, "client.log"), &Options{Remote: srv.URL, Logf: lg.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.remote.backoffUnit = time.Millisecond // keep the outage cooldowns fast

	flaky.down.Store(true)
	const n = remoteBatchSize*2 + 5
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), verdictFor(i), "outage"); err != nil {
			t.Fatalf("local put %d during outage: %v", i, err)
		}
	}
	s.Flush()
	st := s.Stats()
	if st.RemotePuts != 0 {
		t.Fatalf("puts acknowledged during outage: %+v", st)
	}
	if st.RemoteRequeued == 0 {
		t.Fatalf("failed batches were not requeued: %+v", st)
	}
	if st.RemoteDropped != 0 {
		t.Fatalf("records dropped below the cap: %+v", st)
	}

	// Recovery: wait out the (shrunken, jittered) cooldown, then flush.
	flaky.down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.Flush()
		if st := s.Stats(); st.RemotePuts == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("outage verdicts never delivered: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if backend.Len() != n {
		t.Fatalf("service store indexes %d verdicts, want %d", backend.Len(), n)
	}
	if logs := lg.joined(); !strings.Contains(logs, "backing off") {
		t.Fatalf("outage not logged with backoff:\n%s", logs)
	}
}

// TestRequeueCapDropsOldest: the pending queue is bounded; a cap-sized
// flood during an outage drops the oldest records and counts them.
func TestRequeueCapDropsOldest(t *testing.T) {
	s := &Session{} // pending-queue accounting needs no open file
	s.pending = make([]WireRecord, remotePendingMax)
	for i := range s.pending {
		s.pending[i].Name = "old"
	}
	s.pending = append([]WireRecord{{Name: "oldest"}}, s.pending...)
	s.capPendingLocked()
	if len(s.pending) != remotePendingMax {
		t.Fatalf("cap not enforced: %d pending", len(s.pending))
	}
	if s.pending[0].Name != "old" {
		t.Fatalf("newest dropped instead of oldest: front is %q", s.pending[0].Name)
	}
	if s.stats.RemoteDropped != 1 {
		t.Fatalf("dropped accounting: %+v", s.stats)
	}
}

// TestBackoffJitterBounds: the jitter keeps every cooldown inside
// [0.5d, 1.5d) — spread enough to desynchronize a fleet, bounded
// enough that the documented 1s..30s envelope stays honest.
func TestBackoffJitterBounds(t *testing.T) {
	for _, d := range []time.Duration{time.Second, 4 * time.Second, 30 * time.Second} {
		lo, hi := d, d
		for i := 0; i < 2000; i++ {
			j := backoffJitter(d)
			if j < d/2 || j >= d+d/2 {
				t.Fatalf("jitter(%v) = %v outside [%v, %v)", d, j, d/2, d+d/2)
			}
			lo, hi = min(lo, j), max(hi, j)
		}
		if hi-lo < d/4 {
			t.Fatalf("jitter(%v) barely spreads: saw [%v, %v]", d, lo, hi)
		}
	}
}

// TestReadyzDrain: /v1/readyz flips to 503 when the handler is told a
// drain started, while /v1/healthz (liveness) stays 200 — the signal a
// load balancer uses to stop routing to a draining vsyncstored.
func TestReadyzDrain(t *testing.T) {
	backend, err := OpenShared(filepath.Join(t.TempDir(), "s.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	h := NewHandler(backend)
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := get("/v1/readyz"); c != http.StatusOK {
		t.Fatalf("readyz before drain: %d", c)
	}
	h.SetReady(false)
	if c := get("/v1/readyz"); c != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", c)
	}
	if c := get("/v1/healthz"); c != http.StatusOK {
		t.Fatalf("healthz during drain: %d (liveness must not flip)", c)
	}
	h.SetReady(true)
	if c := get("/v1/readyz"); c != http.StatusOK {
		t.Fatalf("readyz after drain canceled: %d", c)
	}
}
