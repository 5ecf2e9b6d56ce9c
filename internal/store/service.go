package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/core"
)

// Handler serves a session as the verdict service API consumed by
// remoteTier (cmd/vsyncstored wraps it in a binary). The service is a
// plain epoch-aware key/value view of one shared log:
//
//	GET  /v1/verdict?epoch=HEX&key=HEX  -> 200 WireRecord | 404
//	PUT  /v1/verdicts  ([]WireRecord)   -> 200 {"appended","duplicates","conflicts"}
//	GET  /v1/stats                      -> 200 Stats
//	GET  /v1/healthz                    -> 200 ok
//	GET  /v1/readyz                     -> 200 ready | 503 draining
//
// Records are stored verbatim under the *client's* code epoch — the
// server's own build is irrelevant to what it stores, which is what
// lets one service back a fleet of heterogeneous builds. PUT is
// idempotent (content-addressed dedup) and tolerant: conflicting
// records are counted and kept out, never an error, so one bad client
// cannot wedge the fleet's ingest.
//
// healthz and readyz answer different questions: healthz is liveness
// ("is the process serving HTTP at all") and stays 200 for the whole
// lifetime; readyz is load-balancer routability and flips to 503 the
// moment a graceful drain starts (SetReady(false)), so rolling
// restarts stop steering new clients at an instance that is about to
// stop accepting work while its in-flight requests complete.
type Handler struct {
	mux   *http.ServeMux
	ready atomic.Bool
}

// ServeHTTP makes Handler an http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// SetReady flips the /v1/readyz answer; new handlers start ready.
func (h *Handler) SetReady(ok bool) { h.ready.Store(ok) }

// NewHandler builds the service handler over one shared session.
func NewHandler(s *Session) *Handler {
	h := &Handler{}
	h.ready.Store(true)
	mux := http.NewServeMux()
	h.mux = mux

	mux.HandleFunc("GET /v1/verdict", func(w http.ResponseWriter, r *http.Request) {
		epoch, err1 := parseHashHex(r.URL.Query().Get("epoch"))
		key, err2 := parseHashHex(r.URL.Query().Get("key"))
		if err1 != nil || err2 != nil {
			http.Error(w, "bad epoch/key", http.StatusBadRequest)
			return
		}
		v, name, ok := s.LookupEpoch(epoch, key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, WireRecord{
			Epoch:   hashHex(epoch),
			Key:     hashHex(key),
			Verdict: uint8(v),
			Name:    name,
		})
	})

	mux.HandleFunc("PUT /v1/verdicts", func(w http.ResponseWriter, r *http.Request) {
		var batch []WireRecord
		if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&batch); err != nil {
			http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
			return
		}
		var appended, duplicates, conflicts, rejected int
		for _, rec := range batch {
			epoch, err1 := parseHashHex(rec.Epoch)
			key, err2 := parseHashHex(rec.Key)
			if err1 != nil || err2 != nil || !core.Verdict(rec.Verdict).Decisive() {
				rejected++
				continue
			}
			if prev, ok := s.stored(epoch, key); ok && prev == core.Verdict(rec.Verdict) {
				duplicates++
				continue
			}
			switch err := s.PutRaw(epoch, key, core.Verdict(rec.Verdict), rec.Name); {
			case err == nil:
				appended++
			case errors.Is(err, ErrConflict):
				conflicts++
			default:
				// Disk trouble: the one genuinely server-side failure,
				// and the client should know its batch did not persist.
				http.Error(w, fmt.Sprintf("append failed: %v", err), http.StatusInternalServerError)
				return
			}
		}
		writeJSON(w, map[string]int{
			"appended":   appended,
			"duplicates": duplicates,
			"conflicts":  conflicts,
			"rejected":   rejected,
		})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !h.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready\n"))
	})

	return h
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
