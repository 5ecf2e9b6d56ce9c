// vsyncstored serves one shared verdict store over HTTP — the remote
// tier behind -remote on the other vsync tools. A fleet of checkers
// (developer machines, CI shards) point at one vsyncstored and pool
// their AMC work: a cell any of them decided is a network GET for all
// of them, and local runs stay sound and complete if the service is
// unreachable (clients degrade to local-only with backoff).
//
// The store file is the same append-only log the tools use locally, so
// it can be seeded from, merged with, or inspected as any other store;
// the server is just another shared session on it, and a local
// vsyncsuite may even run against the same file concurrently.
//
// Usage:
//
//	vsyncstored [-store PATH] [-addr HOST:PORT]
//
// API (JSON):
//
//	GET /v1/verdict?epoch=HEX&key=HEX   one verdict, 404 on miss
//	PUT /v1/verdicts                    idempotent batch ingest
//	GET /v1/stats                       session counters, and what the last full scan of the log cost (OpenBytes, OpenTime)
//	GET /v1/healthz                     liveness (200 for the whole process lifetime)
//	GET /v1/readyz                      routability (503 once a drain starts)
//
// SIGINT/SIGTERM triggers a graceful drain: readyz flips to 503 (so
// load balancers stop routing here), in-flight requests complete,
// pending work is flushed, and the store is closed cleanly. healthz
// stays 200 throughout — draining is not dead, and a restart
// orchestrator must not kill an instance for draining.
//
// Exit status: 0 on clean shutdown (SIGINT/SIGTERM), 2 on usage or
// bind errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/store"
	_ "repro/vsync" // registers vsync's code sources so epochs match client builds
)

func main() {
	var (
		storePath = flag.String("store", ".vsync-store/verdicts.log", "verdict store the service reads and appends")
		addr      = flag.String("addr", "localhost:8372", "listen address")
	)
	flag.Parse()

	s, err := store.OpenShared(*storePath, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsyncstored:", err)
		os.Exit(2)
	}
	defer s.Close()
	st := s.Stats()
	fmt.Printf("vsyncstored: serving %s (%d verdicts, %d foreign-epoch) on http://%s\n",
		s.Path(), st.Loaded, st.Stale, *addr)

	h := store.NewHandler(s)
	srv := &http.Server{Addr: *addr, Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		// ListenAndServe only returns on failure to bind/serve.
		fmt.Fprintln(os.Stderr, "vsyncstored:", err)
		os.Exit(2)
	case <-sig:
		// Graceful drain, in load-balancer order: flip /v1/readyz to 503
		// first so rolling restarts stop routing new clients here, then
		// let in-flight requests complete, then flush anything the
		// session still holds (its own remote tier, when configured)
		// before the deferred Close. healthz stays 200 throughout —
		// draining is not dead.
		fmt.Fprintln(os.Stderr, "vsyncstored: draining (readyz now 503; in-flight requests completing)")
		h.SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "vsyncstored: shutdown:", err)
		}
		<-done
		// Flush anything the session still holds in flight (its own
		// remote tier, when this instance chains to another service)
		// before the deferred Close.
		s.Flush()
	}
}
