package store

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// testLogf collects remote-tier log lines for assertion.
type testLogf struct {
	mu    sync.Mutex
	lines []string
}

func (l *testLogf) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *testLogf) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// serveStore starts a verdict service over a fresh store in dir.
func serveStore(t *testing.T, dir string) (*httptest.Server, *Session) {
	t.Helper()
	backend, err := OpenShared(filepath.Join(dir, "server.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backend.Close() })
	srv := httptest.NewServer(NewHandler(backend))
	t.Cleanup(srv.Close)
	return srv, backend
}

// TestRemoteTieredLookup: a verdict known only to the service is
// served through the remote tier and promoted into the local log, so
// the *next* local session is warm without the network.
func TestRemoteTieredLookup(t *testing.T) {
	dir := t.TempDir()
	srv, backend := serveStore(t, dir)

	// Seed the server's store directly.
	if err := backend.Put(testKey(1), core.SafetyViolation, "seeded"); err != nil {
		t.Fatal(err)
	}

	localPath := filepath.Join(dir, "local.log")
	s, err := OpenShared(localPath, &Options{Remote: srv.URL, Logf: (&testLogf{}).logf})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.Lookup(testKey(1))
	if !ok || v != core.SafetyViolation {
		t.Fatalf("remote lookup = (%v, %v), want (SafetyViolation, true)", v, ok)
	}
	st := s.Stats()
	if st.RemoteHits != 1 || st.Hits != 1 {
		t.Fatalf("stats after remote hit: %+v", st)
	}
	// A second lookup is served from memory, no network.
	srv.Close()
	if v, ok := s.Lookup(testKey(1)); !ok || v != core.SafetyViolation {
		t.Fatalf("promoted lookup = (%v, %v)", v, ok)
	}
	if st := s.Stats(); st.RemoteHits != 1 {
		t.Fatalf("second lookup went remote again: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Promotion persisted: a fresh local-only session is warm.
	s2, err := OpenShared(localPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Lookup(testKey(1)); !ok || v != core.SafetyViolation {
		t.Fatalf("promotion did not persist: (%v, %v)", v, ok)
	}
}

// TestRemotePutBatch: local decisive appends reach the service in
// batches (with Flush draining the remainder), and a second client
// sharing only the remote tier gets them as hits.
func TestRemotePutBatch(t *testing.T) {
	dir := t.TempDir()
	srv, backend := serveStore(t, dir)

	s, err := OpenShared(filepath.Join(dir, "a.log"), &Options{Remote: srv.URL, Logf: (&testLogf{}).logf})
	if err != nil {
		t.Fatal(err)
	}
	const n = remoteBatchSize + 3 // forces one async batch + a Flush remainder
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), verdictFor(i), fmt.Sprintf("p-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if st := s.Stats(); st.RemotePuts != n || st.RemoteFailures != 0 {
		t.Fatalf("after flush: %+v, want %d remote puts", st, n)
	}
	if backend.Len() != n {
		t.Fatalf("service store indexes %d verdicts, want %d", backend.Len(), n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A disjoint client pools the fleet's work via the remote tier.
	b, err := OpenShared(filepath.Join(dir, "b.log"), &Options{Remote: srv.URL, Logf: (&testLogf{}).logf})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < n; i++ {
		if v, ok := b.Lookup(testKey(i)); !ok || v != verdictFor(i) {
			t.Fatalf("fleet lookup %d = (%v, %v), want (%v, true)", i, v, ok, verdictFor(i))
		}
	}
	if st := b.Stats(); st.RemoteHits != n {
		t.Fatalf("disjoint client stats: %+v, want %d remote hits", st, n)
	}
}

// TestRemoteDegradesGracefully is the acceptance bar for the remote
// tier: the service dying mid-run must cost backoff-logged misses, not
// a failed run — every Put and Lookup keeps working local-only, and
// the cooldown keeps the failure count far below the call count.
func TestRemoteDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	srv, _ := serveStore(t, dir)

	lg := &testLogf{}
	s, err := OpenShared(filepath.Join(dir, "local.log"), &Options{
		Remote:        srv.URL,
		RemoteTimeout: 500 * time.Millisecond,
		Logf:          lg.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Put(testKey(0), core.OK, "before"); err != nil {
		t.Fatal(err)
	}

	// Kill the server mid-run.
	srv.Close()

	for i := 1; i < 40; i++ {
		if _, ok := s.Lookup(testKey(i + 1000)); ok {
			t.Fatalf("lookup %d hit with the server down", i)
		}
		if err := s.Put(testKey(i), verdictFor(i), "after"); err != nil {
			t.Fatalf("local put %d failed with the server down: %v", i, err)
		}
	}
	s.Flush()

	st := s.Stats()
	if st.RemoteFailures == 0 {
		t.Fatal("no remote failures recorded with the server down")
	}
	// The backoff cooldown must have short-circuited most probes: 40
	// lookups with the server down may not mean 40 timed-out calls.
	if st.RemoteFailures > 10 {
		t.Fatalf("%d remote failures for 40 probes — backoff is not engaging", st.RemoteFailures)
	}
	if st.Appended != 40 {
		t.Fatalf("local appends suffered: %+v, want 40 appended", st)
	}
	logs := lg.joined()
	if !strings.Contains(logs, "backing off") || !strings.Contains(logs, "local-only") {
		t.Fatalf("degradation not logged with backoff; got:\n%s", logs)
	}
}

// TestServiceStatsCarryOpenCost: /v1/stats says what the service's last
// full scan of its log read and how long it took — in all, and split
// into the read and the two passes — beside the counters.
func TestServiceStatsCarryOpenCost(t *testing.T) {
	path := fillerLog(t, 500)
	backend, err := OpenShared(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	srv := httptest.NewServer(NewHandler(backend))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); st.Loaded != 500 || st.OpenBytes != fi.Size() || st.OpenTime <= 0 {
		t.Fatalf("/v1/stats = %+v, want 500 records loaded from %d bytes in a positive time", st, fi.Size())
	}
	if want := backend.Stats(); st.OpenRead != want.OpenRead || st.OpenCheck != want.OpenCheck || st.OpenIndex != want.OpenIndex ||
		st.OpenCheck <= 0 || st.OpenIndex <= 0 || st.OpenRead+st.OpenCheck+st.OpenIndex > st.OpenTime {
		t.Fatalf("/v1/stats splits the open into read %v, check %v, index %v of %v; the session's split is %v, %v, %v",
			st.OpenRead, st.OpenCheck, st.OpenIndex, st.OpenTime, want.OpenRead, want.OpenCheck, want.OpenIndex)
	}
}
