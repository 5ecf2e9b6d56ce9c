// Package store is VSync's persistent verdict store: a disk-backed,
// content-addressed memo of AMC verdicts keyed by what a verification
// problem *is* — memory model, barrier-spec fingerprint and structural
// program fingerprint — rather than by what it is called. Verdicts are
// pure functions of those inputs (AMC is deterministic and exhaustive),
// so a verdict computed once is valid forever: the push-button descent,
// multi-pass ladders, CI runs and the suite orchestrator
// (vsync.VerifyMatrix) all consult the store before spending minutes of
// model checking on a problem some earlier process already decided.
//
// # Sessions and the multi-writer protocol
//
// The store is a fleet asset: any number of processes — simultaneous
// vsyncsuite and vsyncopt invocations, parallel CI runners — share one
// live log through Session handles (OpenShared). The local protocol is
//
//   - appends are record-atomic: each verdict is one O_APPEND write of
//     a self-delimiting record, performed under a short-held advisory
//     lock on a sidecar file (<path>.lock), so concurrent appends can
//     interleave between records but never inside one;
//   - before appending, a session re-scans the log tail it has not yet
//     trusted, so cross-process duplicates become no-ops instead of
//     redundant records, and a torn tail left by a crashed writer is
//     healed (truncated) under the same lock no live writer can hold;
//   - Refresh performs that incremental tail re-scan on demand, so a
//     long-running reader observes verdicts written by concurrent
//     processes without reopening;
//   - rewrites (Compact, the open-time stale-budget compaction) go
//     through an atomic temp-file rename under the sidecar lock; other
//     live sessions notice the inode change at their next locked
//     operation and rescan from scratch.
//
// The sidecar lock survives renames of the data file, which is what
// makes compaction safe against concurrent appenders. On platforms
// without flock the protocol is unenforced (documented on lockFile) and
// simultaneous writers risk interleaving — the pre-session contract.
//
// # On-disk format
//
// A single append-only log of internal/frame records — self-delimiting,
// each individually CRC-checksummed — under the magic "VSYV":
//
//	payload = [1B version][16B code epoch][16B key hash][1B verdict]
//	          [2B name len][name]
//
// Records are content-addressed and order-independent, which makes
// Merge a dedup-union: a record is identified by (code epoch, key
// hash), two stores merge by appending the records the destination has
// not seen, and provenance (the writing build's epoch, the
// human-readable name) rides along unchanged.
//
// The load scan is corruption-tolerant: the first record whose magic,
// length bound or checksum fails ends the trusted prefix, everything
// after it is discarded, and the file is truncated back to the trusted
// length so subsequent appends extend a well-formed log. A torn tail
// write (crash mid-append, disk-full) therefore costs at most the
// records after the tear — never a wrong verdict; that includes a tear
// inside the very first record's magic. Because every append first
// heals the tail under the lock, a good record is never written after
// a tear, so the no-resynchronization scan loses nothing under the
// protocol. A non-empty file that does not start with (a prefix of)
// the record magic was never a store and is refused outright, so a
// mistyped path cannot truncate a user's file.
//
// # In memory
//
// A session's in-memory form is the log itself. The image is, byte for
// byte, the trusted prefix of the file; the index is a flat
// open-addressing table (a power of two of uint32 slots, at most half
// full) holding, per identity, the position of its record in the image.
// A record is found by hashing its key — key words are already uniform,
// the epoch is mixed in — and comparing the 32 identity bytes in place;
// its verdict is one byte read in place, and its name becomes a string
// only when someone asks for it (LookupEpoch). Records are indexed in
// write order and an identity already in the table is left alone, so
// the first record of an identity wins — the order the file keeps —
// without anything to remember about the later ones. Opening is one
// read of exactly the file's size and one pass over it that checksums,
// validates, counts and indexes each record; Put appends its record to
// the file and to the image, Refresh reads the unseen tail of the file
// onto the end of the image and scans only that. A session therefore
// costs the log's size plus 8–16 bytes per indexed record, and opening
// allocates twice (image, table) however many records there are.
// Positions are 32-bit: a log beyond 4 GiB is refused at open, and a
// Put or Merge that would cross the bound fails, rather than wrap.
//
// # Invalidation
//
// Invalidation is by construction rather than by command: change the
// program, the spec or the model and the key changes, so stale entries
// are simply never looked up again. Change any verification-relevant
// *source code* and the code epoch changes: every record carries the
// epoch (see epoch.go) of the binary that wrote it, and lookups serve
// only records matching this build's epoch. Foreign-epoch records are
// retained (a bisect that rebuilds an old epoch flips straight back to
// a warm store) up to a byte budget; beyond it the oldest are
// compacted away, so the log stays bounded however many code commits
// the CI cache survives. Only decisive verdicts (OK, SafetyViolation,
// ATViolation) are stored; Error and Canceled carry no reusable
// information.
//
// # The remote tier
//
// A Session may additionally be backed by a remote verdict service
// (cmd/vsyncstored) via Options.Remote: lookups then go memory → local
// log → remote GET (remote hits are promoted into the local log), and
// decisive local appends are pushed to the service in idempotent
// batches. The remote tier is strictly best-effort — an unreachable
// service degrades the session to local-only with logged
// backoff-and-retry, and never fails a verification run.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/graph"
)

// Key identifies one verification problem. Model is the memory-model
// name; Spec is the BarrierSpec fingerprint (zero for programs without
// a spec, e.g. litmus tests); Prog is the structural program
// fingerprint (vprog.Program.Fingerprint128) — never the program name.
type Key struct {
	Model string
	Spec  graph.Hash128
	Prog  graph.Hash128
}

// Hash returns the 128-bit content address of the key — the value
// records carry on disk and the index hashes.
func (k Key) Hash() graph.Hash128 {
	h := graph.NewHasher128()
	h.String(k.Model)
	h.Word(k.Spec[0])
	h.Word(k.Spec[1])
	h.Word(k.Prog[0])
	h.Word(k.Prog[1])
	return h.Sum()
}

const (
	recordMagic   = 0x56535956 // "VSYV" little-endian
	recordVersion = 2
	headerSize    = frame.HeaderSize
	payloadFixed  = 1 + 16 + 16 + 1 + 2 // version + code epoch + key + verdict + name length
	maxPayload    = payloadFixed + 4096 // name length is bounded; anything bigger is corruption

	// Where a payload keeps its identity (epoch‖key), how long that is,
	// and where that puts it in a record.
	idOff    = 1
	idSize   = 32
	recIDOff = headerSize + idOff

	// remoteBatchSize is how many pending verdicts accumulate before a
	// batched remote PUT is fired; Close/Flush drain the remainder.
	remoteBatchSize = 16

	// remotePendingMax bounds the pending queue: requeued batches from a
	// long service outage accumulate here, and beyond the cap the oldest
	// records are dropped (counted as RemoteDropped) — the local log has
	// them either way, so the loss is only a cold remote cache.
	remotePendingMax = 4096
)

// staleRetainBytes bounds how much foreign-epoch (or foreign-version)
// history one log retains: enough for a dozen-plus full corpora so
// bisects and branch switches flip back to warm stores, small enough
// that the CI cache artifact and the open-time scan stay trivial. A
// variable so tests can shrink it.
var staleRetainBytes = 1 << 20

// maxLogBytes bounds the trusted prefix: the index holds positions in
// it as uint32. A variable so tests can shrink it.
var maxLogBytes int64 = min(math.MaxUint32, math.MaxInt)

// tooBig is the refusal of a log of size bytes, past maxLogBytes.
func (s *Session) tooBig(size int64) error {
	return fmt.Errorf("store: %s: %d bytes is more than the %d a session indexes: compact the log or start a new one", s.path, size, maxLogBytes)
}

// recordID is a record's content address: the code epoch of the build
// that wrote it plus the key hash. Merge dedups on this identity, and
// the index holds every epoch's records so foreign-epoch history is
// queryable (the remote service stores records for every client epoch).
type recordID struct {
	epoch, key graph.Hash128
}

// bytes is the identity as records carry it.
func (id recordID) bytes() (b [idSize]byte) {
	binary.LittleEndian.PutUint64(b[0:], id.epoch[0])
	binary.LittleEndian.PutUint64(b[8:], id.epoch[1])
	binary.LittleEndian.PutUint64(b[16:], id.key[0])
	binary.LittleEndian.PutUint64(b[24:], id.key[1])
	return b
}

// table is the index over a log image: open addressing with linear
// probing over a power of two of slots, at most half of them taken.
// A slot holds the position in the image of an indexed record's
// identity; no identity sits at position 0, which marks a free slot.
// The table owns no bytes — every method is handed the image its
// positions point into.
type table struct {
	slots []uint32
	n     int // slots taken
}

// init empties the table, sized for the given number of records.
func (t *table) init(records int) {
	size := 16
	for size < 2*records {
		size <<= 1
	}
	*t = table{slots: make([]uint32, size)}
}

// find returns the position of the record indexed under id, or 0, and
// the slot that holds it or would.
func (t *table) find(img, id []byte) (pos uint32, slot int) {
	// Key words are outputs of a 128-bit hash, so one of them spreads
	// the keys of one epoch; the epoch word separates the copies of one
	// key a multi-epoch log (vsyncstored's) holds.
	h := (binary.LittleEndian.Uint64(id[16:]) ^ binary.LittleEndian.Uint64(id)) * 0x9e3779b97f4a7c15
	for i := int(h>>32) & (len(t.slots) - 1); ; i = (i + 1) & (len(t.slots) - 1) {
		p := t.slots[i]
		if p == 0 || bytes.Equal(img[p:int(p)+idSize], id) {
			return p, i
		}
	}
}

// insert indexes the record whose identity sits at img[pos:] and
// reports whether it did: an identity is indexed once, by its first
// record.
func (t *table) insert(img []byte, pos int) bool {
	p, i := t.find(img, img[pos:pos+idSize])
	if p != 0 {
		return false
	}
	t.slots[i] = uint32(pos)
	t.n++
	if 2*t.n > len(t.slots) {
		old := t.slots
		t.init(len(old))
		for _, p := range old {
			if p != 0 {
				t.insert(img, int(p))
			}
		}
	}
	return true
}

// Stats is the cumulative accounting of one open session.
type Stats struct {
	Loaded    int // records trusted by the opening scan
	Stale     int // well-formed records from another code epoch or record version: not served, retained up to a budget
	Corrupted int // bytes discarded by scans (torn/corrupt tails, healed)
	Refreshed int // current-epoch records observed by tail re-scans after open (written by concurrent processes)
	Hits      int // Lookup probes answered (local or remote)
	Misses    int // Lookup probes not answered
	Puts      int // Put calls with a decisive verdict
	Appended  int // records actually written (puts minus duplicates, plus merges and remote promotions)
	Conflicts int // decisive verdicts contradicting a stored one (kept out)

	OpenBytes int64         // bytes read by the last full scan (open, or a reopen after the file was replaced)
	OpenTime  time.Duration // what that scan took: read, checksum, validate, index

	RemoteHits     int // lookups served by the remote tier (and promoted locally)
	RemotePuts     int // records acknowledged by batched remote PUTs
	RemoteFailures int // remote calls that failed (degraded to local-only)
	RemoteRequeued int // records of failed PUT batches returned to the pending queue
	RemoteDropped  int // pending records dropped (oldest first) at the requeue cap
}

// Options configures OpenShared beyond the log path.
type Options struct {
	// Remote is the base URL of a vsyncstored verdict service (e.g.
	// "http://stored.internal:8372"); empty means local-only. The
	// remote tier is best-effort: an unreachable service is retried
	// with exponential backoff and never fails a run.
	Remote string
	// RemoteTimeout bounds each remote call (default 2s).
	RemoteTimeout time.Duration
	// Logf receives degradation and retry messages ("remote
	// unreachable, continuing local-only"); nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Session is a shared handle on a verdict log. Any number of sessions —
// across goroutines and across processes — may read and append one log
// concurrently; see the package comment for the protocol. Lookup serves
// from the image (the trusted prefix as of the last scan); call Refresh
// to observe records appended by other processes since.
type Session struct {
	mu    sync.Mutex
	f     *os.File // data log, O_APPEND: every write lands at EOF
	lockf *os.File // sidecar <path>.lock; flocked briefly per append/scan
	fi    os.FileInfo
	path  string
	img   []byte // the file's trusted prefix, byte for byte; everything in it is indexed
	tab   table  // identity → position in img
	stats Stats

	staleBytes int64 // foreign-epoch/version bytes as of the last full scan

	remote   *remoteTier
	pending  []WireRecord
	inflight sync.WaitGroup
}

// OpenShared opens (creating if necessary, including parent
// directories) a shared session on the verdict log at path. Concurrent
// sessions of any number of processes may share the log; opts may be
// nil for a local-only session with defaults.
func OpenShared(path string, opts *Options) (*Session, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	lockf, err := os.OpenFile(path+".lock", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Session{path: path, lockf: lockf}
	if opts != nil && opts.Remote != "" {
		s.remote = newRemoteTier(opts.Remote, opts.RemoteTimeout, opts.Logf)
	}
	err = s.withFileLock(func() error {
		if err := s.openLocked(); err != nil {
			return err
		}
		if s.staleBytes > int64(staleRetainBytes) {
			// Over the retention budget: compact the oldest foreign
			// records away. Compaction is an optimization, not a
			// correctness requirement, so a failure (disk full, exotic
			// filesystem) falls through with the full history retained.
			s.compactLocked()
		}
		return nil
	})
	if err != nil {
		lockf.Close()
		if s.f != nil {
			s.f.Close()
		}
		return nil, err
	}
	return s, nil
}

// withFileLock runs fn holding the cross-process append lock. The lock
// is held briefly (a scan, one record write); blocking is the right
// behavior for contenders.
func (s *Session) withFileLock(fn func() error) error {
	if err := lockFile(s.lockf); err != nil {
		return fmt.Errorf("store: locking %s: %w", s.path, err)
	}
	defer unlockFile(s.lockf)
	return fn()
}

// scan walks data from its start, handing fn every well-formed record —
// its byte span and its payload, which aliases data — and returns the
// trusted byte count and what ended the scan (nil at a clean end). The
// first record that does not frame ends it — a mid-log tear must not
// resynchronize on garbage-controlled framing. The length bound is
// version-agnostic: a checksummed record of an older (shorter) format
// must scan as a stale record to retain, not end the scan as a corrupt
// tail — that would truncate a v1 user's entire history on upgrade.
func scan(data []byte, fn func(off, end int, payload []byte)) (int, error) {
	valid := 0
	for valid < len(data) {
		payload, rest, err := frame.Next(data[valid:], recordMagic, maxPayload)
		if err != nil {
			return valid, err
		}
		end := len(data) - len(rest)
		fn(valid, end, payload)
		valid = end
	}
	return valid, nil
}

// notAStore reports whether a scan that trusted nothing ended because
// the file does not even begin with (a prefix of) the record magic: it
// was never a verdict store. A store whose very first append tore
// mid-record still carries the magic prefix — even if fewer than 4
// bytes of it landed — and heals like any torn tail.
func notAStore(valid int, scanErr error) bool {
	return valid == 0 && errors.Is(scanErr, frame.ErrMagic)
}

// openLocked (re)opens the log from its path and rebuilds image and
// index from a full scan, truncating away any corrupt or torn tail.
// Caller holds mu (or is constructing) and the file lock. Loaded/Stale/
// staleBytes describe the current log and are recomputed; cumulative
// counters (Hits, Puts, ...) are preserved.
func (s *Session) openLocked() error {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	start := time.Now()
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if fi.Size() > maxLogBytes {
		f.Close()
		return s.tooBig(fi.Size())
	}
	if err := s.loadLocked(f, fi.Size()); err != nil {
		return err
	}
	s.fi, s.stats.OpenTime = fi, time.Since(start)
	return nil
}

// loadLocked is the scan under openLocked: one read of the size bytes
// the file was just seen to hold, one pass over them that checksums,
// validates, counts and indexes each record. On success the session
// owns f; a file that is refused is closed.
func (s *Session) loadLocked(f *os.File, size int64) error {
	data := make([]byte, size)
	n, err := io.ReadFull(f, data)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		f.Close()
		return fmt.Errorf("store: reading %s: %w", s.path, err)
	}
	// A file that shrank since it was sized (on a platform without flock
	// a peer can do that) gives fewer bytes than asked for: what arrived
	// is scanned, the zeroes behind it are not.
	data = data[:n]
	var tab table
	tab.init(len(data) / (frame.Overhead + payloadFixed + 16))
	loaded, stale, staleBytes := 0, 0, 0
	cur := currentEpoch()
	valid, scanErr := scan(data, func(off, end int, p []byte) {
		ok := decodable(p)
		if ok && epochOf(p) == cur {
			loaded++
		} else {
			// A well-formed record from another record version or code
			// epoch cannot be served by this build, but it is not
			// garbage: a bisect or branch switch may build the epoch
			// that wrote it again tomorrow, and deleting it would
			// silently destroy minutes of AMC work. Retain it — up to
			// staleRetainBytes, enforced by compactLocked.
			stale++
			staleBytes += end - off
		}
		if ok {
			// First record wins: the log is authoritative in write
			// order, matching Put's conflict stance.
			tab.insert(data, off+recIDOff)
		}
	})
	if notAStore(valid, scanErr) {
		// Refuse loudly instead of truncating a file the caller mistyped
		// the path of.
		f.Close()
		return fmt.Errorf("store: %s is not a verdict store (bad leading magic); refusing to truncate it — delete or move the file if it really is the store", s.path)
	}
	s.f, s.img, s.tab = f, data[:valid], tab
	s.stats.Loaded, s.stats.Stale, s.staleBytes = loaded, stale, int64(staleBytes)
	if corrupt := len(data) - valid; corrupt > 0 {
		if err := f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("store: truncating corrupt tail of %s: %w", s.path, err)
		}
		s.stats.Corrupted += corrupt
	}
	s.stats.OpenBytes = int64(len(data))
	return nil
}

// refreshLocked brings image and index up to date with the on-disk log:
// the unexamined tail is read onto the end of the image and scanned in
// the common case, a full reopen when the file was replaced (another
// process compacted it) or truncated beneath the trusted prefix. A torn
// tail is healed — the caller holds the append lock, so torn bytes can
// only be a crashed writer's leftovers, never a live writer mid-record.
// Caller holds mu and the file lock.
func (s *Session) refreshLocked() error {
	pfi, err := os.Stat(s.path)
	if err != nil || s.fi == nil || !os.SameFile(pfi, s.fi) {
		return s.openLocked()
	}
	base, size := len(s.img), pfi.Size()
	if size < int64(base) {
		return s.openLocked()
	}
	if size == int64(base) {
		return nil
	}
	if size > maxLogBytes {
		return s.tooBig(size)
	}
	img := slices.Grow(s.img, int(size)-base)[:size]
	if _, err := io.ReadFull(io.NewSectionReader(s.f, int64(base), size-int64(base)), img[base:]); err != nil {
		return fmt.Errorf("store: reading tail of %s: %w", s.path, err)
	}
	cur := currentEpoch()
	valid, _ := scan(img[base:], func(off, end int, p []byte) {
		if decodable(p) {
			if !s.tab.insert(img, base+off+recIDOff) {
				return
			}
			if epochOf(p) == cur {
				s.stats.Refreshed++
				return
			}
		}
		s.stats.Stale++
		s.staleBytes += int64(end - off)
	})
	s.img = img[:base+valid]
	if torn := int(size) - len(s.img); torn > 0 {
		if err := s.f.Truncate(int64(len(s.img))); err == nil {
			s.stats.Corrupted += torn
		}
	}
	return nil
}

// Refresh re-scans the log tail, observing records appended by
// concurrent processes since the last scan (or open). It returns how
// many new current-epoch verdicts became visible. Long-running readers
// (the suite orchestrator between cells) call this to share a live
// store with simultaneous writers.
func (s *Session) Refresh() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, fmt.Errorf("store: %s: Refresh after Close", s.path)
	}
	before := s.stats.Refreshed
	err := s.withFileLock(s.refreshLocked)
	return s.stats.Refreshed - before, err
}

// decodable reports whether a checksummed payload is a record this
// build serves. It is false for versions (and their payload shapes)
// this build does not understand; the caller treats those as stale,
// like a foreign code epoch. A record whose verdict byte is not a
// decisive verdict is likewise refused: Put never writes one, so such a
// record is damage that happened to keep a valid CRC (or a forged
// file), and serving it would hand callers a verdict value the checker
// cannot produce.
func decodable(p []byte) bool {
	return len(p) >= payloadFixed && p[0] == recordVersion &&
		decisive(core.Verdict(p[idOff+idSize])) &&
		payloadFixed+int(binary.LittleEndian.Uint16(p[idOff+idSize+1:])) == len(p)
}

// epochOf reads the code epoch out of a decodable payload.
func epochOf(p []byte) graph.Hash128 {
	return graph.Hash128{binary.LittleEndian.Uint64(p[idOff:]), binary.LittleEndian.Uint64(p[idOff+8:])}
}

// lookupLocked probes the index: the stored verdict for id and the
// position of its record's identity in the image. Caller holds mu.
func (s *Session) lookupLocked(id recordID) (v core.Verdict, pos int, ok bool) {
	b := id.bytes()
	p, _ := s.tab.find(s.img, b[:])
	if p == 0 {
		return 0, 0, false
	}
	return core.Verdict(s.img[int(p)+idSize]), int(p), true
}

// encodeRecord builds the full on-disk record for one verdict. One
// allocation holds the payload and, behind it, the framed record.
func encodeRecord(epoch, key graph.Hash128, v core.Verdict, name string) []byte {
	if len(name) > maxPayload-payloadFixed {
		name = name[:maxPayload-payloadFixed]
	}
	plen := payloadFixed + len(name)
	p := make([]byte, plen, 2*plen+frame.Overhead)
	p[0] = recordVersion
	binary.LittleEndian.PutUint64(p[1:], epoch[0])
	binary.LittleEndian.PutUint64(p[9:], epoch[1])
	binary.LittleEndian.PutUint64(p[17:], key[0])
	binary.LittleEndian.PutUint64(p[25:], key[1])
	p[33] = byte(v)
	binary.LittleEndian.PutUint16(p[34:], uint16(len(name)))
	copy(p[payloadFixed:], name)
	return frame.Append(p[plen:], recordMagic, p)
}

// decisive reports whether v carries reusable information worth
// persisting; Error and Canceled do not.
func decisive(v core.Verdict) bool {
	return v == core.OK || v == core.SafetyViolation || v == core.ATViolation
}

// Lookup returns the stored verdict for k, counting the probe. The
// probe goes memory (the indexed local log) first; on a miss with a
// remote tier configured it additionally asks the verdict service, and
// a remote hit is promoted into the local log so the next process is
// warm without the network.
func (s *Session) Lookup(k Key) (core.Verdict, bool) {
	return s.lookupHash(k.Hash())
}

func (s *Session) lookupHash(h graph.Hash128) (core.Verdict, bool) {
	id := recordID{currentEpoch(), h}
	s.mu.Lock()
	if v, _, ok := s.lookupLocked(id); ok {
		s.stats.Hits++
		s.mu.Unlock()
		return v, true
	}
	r := s.remote
	s.mu.Unlock()
	if r != nil {
		if v, name, ok := s.remoteGet(id); ok {
			s.mu.Lock()
			s.stats.Hits++
			s.stats.RemoteHits++
			if s.f != nil {
				// Best-effort promotion; the verdict is served either way.
				s.putLocked(id, v, name, false)
			}
			s.mu.Unlock()
			return v, true
		}
	}
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return 0, false
}

// LookupEpoch returns the stored verdict and name for an explicit
// (epoch, key hash) identity — the remote service's read path, which
// must answer clients of any build, not just this binary's epoch.
func (s *Session) LookupEpoch(epoch, key graph.Hash128) (core.Verdict, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, pos, ok := s.lookupLocked(recordID{epoch, key})
	if !ok {
		s.stats.Misses++
		return 0, "", false
	}
	s.stats.Hits++
	name := s.img[pos+idSize+3:]
	return v, string(name[:binary.LittleEndian.Uint16(s.img[pos+idSize+1:])]), true
}

// ErrConflict marks a Put whose decisive verdict contradicts the one
// already stored for its key. Callers distinguish it (errors.Is) from
// plain append failures: a conflict means the keying broke and neither
// verdict can be trusted; an I/O failure taints nothing — the verdict
// is sound, it just was not persisted.
var ErrConflict = errors.New("verdict conflict")

// Put records a decisive verdict for k, appending one log record; the
// name travels along for human-readable log inspection only. Indecisive
// verdicts (Error, Canceled) are dropped silently — they carry no
// reusable information. Re-putting an already-stored verdict is a
// no-op (including one another process appended concurrently: the
// pre-append tail re-scan catches it); putting a *different* decisive
// verdict for a stored key is refused with an error wrapping
// ErrConflict, because it means the keying broke (a fingerprint
// collision or a nondeterministic checker) and trusting either verdict
// would be unsound.
func (s *Session) Put(k Key, v core.Verdict, name string) error {
	if !decisive(v) {
		return nil
	}
	id := recordID{currentEpoch(), k.Hash()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: %s: Put after Close", s.path)
	}
	s.stats.Puts++
	return s.putLocked(id, v, name, true)
}

// PutRaw records a decisive verdict under an explicit (epoch, key hash)
// identity — the remote service's ingest path, which must store records
// stamped with the *client's* epoch verbatim. It never pushes to a
// remote tier (the service is the remote tier).
func (s *Session) PutRaw(epoch, key graph.Hash128, v core.Verdict, name string) error {
	if !decisive(v) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: %s: Put after Close", s.path)
	}
	s.stats.Puts++
	return s.putLocked(recordID{epoch, key}, v, name, false)
}

// putLocked appends one record under the cross-process lock, after a
// tail re-scan so concurrent processes' appends dedup instead of
// duplicating. Caller holds mu.
func (s *Session) putLocked(id recordID, v core.Verdict, name string, push bool) error {
	// Fast path: the index only ever grows, so an in-memory duplicate
	// or conflict needs no file lock.
	if prev, _, ok := s.lookupLocked(id); ok {
		return s.dupOrConflict(prev, v, name)
	}
	err := s.withFileLock(func() error {
		if err := s.refreshLocked(); err != nil {
			return err
		}
		if prev, _, ok := s.lookupLocked(id); ok {
			return s.dupOrConflict(prev, v, name)
		}
		rec := encodeRecord(id.epoch, id.key, v, name)
		if size := int64(len(s.img) + len(rec)); size > maxLogBytes {
			return s.tooBig(size)
		}
		if err := faultinject.Fire("store.append"); err != nil {
			return fmt.Errorf("store: appending to %s: %w", s.path, err)
		}
		if err := faultinject.Fire("store.append.torn"); err != nil {
			// Crash simulation: half a record lands and the "process" dies
			// before healing — exactly what a kill -9 mid-append leaves.
			// The tear stays on disk; the next locked operation's tail
			// re-scan truncates it.
			s.f.Write(rec[:headerSize+len(rec)/3])
			return fmt.Errorf("store: appending to %s: %w", s.path, err)
		}
		if n, err := s.f.Write(rec); err != nil {
			if n > 0 {
				// Partial append: heal our own torn tail while we still
				// hold the lock.
				s.f.Truncate(int64(len(s.img)))
			}
			return fmt.Errorf("store: appending to %s: %w", s.path, err)
		}
		s.img = append(s.img, rec...)
		s.tab.insert(s.img, len(s.img)-len(rec)+recIDOff)
		s.stats.Appended++
		if id.epoch != currentEpoch() {
			s.stats.Stale++
			s.staleBytes += int64(len(rec))
		}
		return nil
	})
	if err == nil && push {
		s.enqueueRemoteLocked(id, v, name)
	}
	return err
}

// dupOrConflict resolves a put against an already-indexed verdict:
// agreement is a no-op, disagreement is the unsound-rekey sentinel.
func (s *Session) dupOrConflict(prev, v core.Verdict, name string) error {
	if prev == v {
		return nil
	}
	s.stats.Conflicts++
	return fmt.Errorf("store: %w for %s: stored %v, new %v", ErrConflict, name, prev, v)
}

// Len returns the number of indexed records (all epochs).
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.n
}

// Stats returns a snapshot of the session's accounting.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Path returns the log's file path.
func (s *Session) Path() string { return s.path }

// Close flushes the remote tier (best-effort), syncs and closes the
// log, and releases the sidecar lock handle. The Session must not be
// used after (a late Put fails cleanly).
func (s *Session) Close() error {
	s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	if s.lockf != nil {
		s.lockf.Close()
		s.lockf = nil
	}
	return err
}
