package store

import (
	"fmt"
	"io"
	"os"

	"repro/internal/faultinject"
	"repro/internal/frame"
)

// MergeStats accounts one Merge call.
type MergeStats struct {
	Scanned    int // well-formed records found in the source log
	Added      int // records appended to this log
	Duplicates int // records this log already had, same verdict
	Conflicts  int // records contradicting this log's verdict (kept out; destination wins)
	Skipped    int // records of a version this build cannot parse
}

// Merge folds the verdict log at srcPath into this session's log.
// Records are content-addressed — identified by (code epoch, key hash)
// and independent of order — so merge is a dedup-union: every source
// record this log has not seen is appended verbatim, preserving its
// provenance (writing build's epoch, human-readable name, per-cell
// cost once records carry it); records already present are skipped. A
// source record *contradicting* a stored verdict is refused
// (destination wins) and counted — the same unsound-rekey stance as
// Put, except Merge reports rather than fails, because one bad record
// must not block pooling a fleet's corpus. The source is read once,
// unlocked; a torn source tail simply ends its scan. Merging a store
// into itself is a no-op (everything dedups).
func (s *Session) Merge(srcPath string) (MergeStats, error) {
	var ms MergeStats
	data, err := os.ReadFile(srcPath)
	if err != nil {
		return ms, fmt.Errorf("store: merge: %w", err)
	}
	recs, valid, scanErr := scanLog(data)
	if notAStore(valid, scanErr) {
		return ms, fmt.Errorf("store: merge: %s is not a verdict store (bad leading magic)", srcPath)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return ms, fmt.Errorf("store: %s: Merge after Close", s.path)
	}
	err = s.withFileLock(func() error {
		if err := s.refreshLocked(); err != nil {
			return err
		}
		cur := currentEpoch()
		var buf []byte
		type added struct {
			id    recordID
			e     entry
			bytes int
		}
		var adds []added
		for _, r := range recs {
			ms.Scanned++
			if !r.decodable {
				ms.Skipped++
				continue
			}
			if prev, ok := s.index[r.id]; ok {
				if prev.v == r.v {
					ms.Duplicates++
				} else {
					ms.Conflicts++
					s.stats.Conflicts++
				}
				continue
			}
			buf = append(buf, data[r.start:r.end]...)
			adds = append(adds, added{r.id, entry{r.v, r.name}, r.end - r.start})
		}
		if len(buf) == 0 {
			return nil
		}
		// One write: O_APPEND makes the whole batch land contiguously
		// at EOF even against concurrent appenders.
		if _, err := s.f.Write(buf); err != nil {
			// A partial batch is a torn tail of our own making; reopen
			// resyncs scanned/index with whatever actually landed and
			// heals the tear.
			s.openLocked()
			return fmt.Errorf("store: merge append to %s: %w", s.path, err)
		}
		for _, a := range adds {
			s.index[a.id] = a.e
			s.stats.Appended++
			ms.Added++
			if a.id.epoch != cur {
				s.stats.Stale++
				s.staleBytes += int64(a.bytes)
			}
		}
		s.scanned += int64(len(buf))
		return nil
	})
	return ms, err
}

// Compact rewrites the log in place, dropping duplicate records (same
// epoch and key — concurrent appenders race benignly and merge keeps
// first-wins, so dups accumulate) and enforcing the foreign-epoch
// retention budget by dropping the *oldest* stale records first. The
// rewrite is a temp-file write plus atomic rename under the append
// lock; other live sessions detect the inode change at their next
// locked operation and rescan. Returns the number of records dropped.
func (s *Session) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, fmt.Errorf("store: %s: Compact after Close", s.path)
	}
	var dropped int
	err := s.withFileLock(func() error {
		if err := s.refreshLocked(); err != nil {
			return err
		}
		var err error
		dropped, err = s.compactLocked()
		return err
	})
	return dropped, err
}

// compactLocked is the rewrite shared by Compact and the open-time
// budget enforcement. Caller holds mu and the file lock; when anything
// is dropped the log is rewritten and the session reopened on the new
// file, otherwise it is a no-op.
func (s *Session) compactLocked() (int, error) {
	data := make([]byte, s.scanned)
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, s.scanned), data); err != nil {
		return 0, fmt.Errorf("store: compact: reading %s: %w", s.path, err)
	}
	recs, _, _ := scanLog(data)
	cur := currentEpoch()

	type span struct {
		start, end int
		live       bool // current-epoch, this record version
	}
	seen := make(map[recordID]bool, len(recs))
	spans := make([]span, 0, len(recs))
	staleBytes := 0
	dropped := 0
	for _, r := range recs {
		if r.decodable {
			if seen[r.id] {
				dropped++
				continue
			}
			seen[r.id] = true
		}
		live := r.decodable && r.id.epoch == cur
		if !live {
			staleBytes += r.end - r.start
		}
		spans = append(spans, span{r.start, r.end, live})
	}
	// Enforce the retention budget oldest-first: walk stale spans in
	// write order, dropping until the survivors fit.
	if staleBytes > staleRetainBytes {
		for i := range spans {
			if spans[i].live {
				continue
			}
			staleBytes -= spans[i].end - spans[i].start
			spans[i].end = spans[i].start // tombstone
			dropped++
			if staleBytes <= staleRetainBytes {
				break
			}
		}
	}
	if dropped == 0 {
		// Nothing to rewrite; Compact of a tight log is a successful
		// no-op.
		return 0, nil
	}
	var buf []byte
	for _, sp := range spans {
		buf = append(buf, data[sp.start:sp.end]...)
	}
	if err := s.replaceLog(buf); err != nil {
		return 0, err
	}
	return dropped, s.openLocked()
}

// replaceLog atomically replaces the data log with content
// (frame.ReplaceFile). Caller holds mu and the file lock — the lock
// lives on the sidecar file, which the rename does not touch, so
// exclusion holds across the swap. The session's own handle is closed
// before the rename (Windows refuses to rename over an open file; POSIX
// does not care) and the caller reopens via openLocked; when the swap
// fails past that point the original is intact and is reopened here, so
// the session stays usable.
func (s *Session) replaceLog(content []byte) error {
	err := frame.ReplaceFile(s.path, content, func() error {
		s.f.Close()
		s.f = nil
		return faultinject.Fire("store.rename")
	})
	if err != nil && s.f == nil {
		if oerr := s.openLocked(); oerr != nil {
			return fmt.Errorf("store: compact: %v; reopening original: %w", err, oerr)
		}
	}
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}
