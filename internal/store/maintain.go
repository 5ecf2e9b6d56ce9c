package store

import (
	"fmt"
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
// cost once records carry it); records already present — in this log
// or earlier in the source — are skipped. A source record
// *contradicting* a stored verdict is refused (destination wins) and
// counted — the same unsound-rekey stance as Put, except Merge reports
// rather than fails, because one bad record must not block pooling a
// fleet's corpus. The source is read once, unlocked; a torn source tail
// simply ends its scan. Merging a store into itself is a no-op
// (everything dedups).
func (s *Session) Merge(srcPath string) (MergeStats, error) {
	data, err := os.ReadFile(srcPath)
	if err != nil {
		return MergeStats{}, fmt.Errorf("store: merge: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return MergeStats{}, fmt.Errorf("store: %s: Merge after Close", s.path)
	}
	var ms MergeStats
	err = s.withFileLock(func() error {
		if err := s.refreshLocked(); err != nil {
			return err
		}
		// New records go straight onto the image and into the index, so
		// the source dedups against itself as it streams by; the file
		// catches up in one write, and until it has, a reopen undoes
		// everything.
		base, stale, staleBytes := len(s.img), 0, 0
		over := int64(0) // the size the log would first have passed the bound at
		cur := currentEpoch()
		valid, scanErr := scan(data, func(off, end int, p []byte) {
			ms.Scanned++
			if !decodable(p) {
				ms.Skipped++
				return
			}
			if pos, _ := s.tab.find(s.img, p[idOff:idOff+idSize]); pos != 0 {
				if s.img[int(pos)+idSize] == p[idOff+idSize] {
					ms.Duplicates++
				} else {
					ms.Conflicts++
					s.stats.Conflicts++
				}
				return
			}
			if over != 0 {
				return
			}
			if size := int64(len(s.img) + end - off); size > maxLogBytes {
				over = size
				return
			}
			pos := len(s.img) + recIDOff
			s.img = append(s.img, data[off:end]...)
			s.tab.insert(s.img, pos)
			ms.Added++
			if epochOf(p) != cur {
				stale++
				staleBytes += end - off
			}
		})
		var err error
		switch {
		case notAStore(valid, scanErr):
			err = fmt.Errorf("store: merge: %s is not a verdict store (bad leading magic)", srcPath)
		case over != 0:
			err = s.tooBig(over)
		case len(s.img) > base:
			// One write: O_APPEND makes the whole batch land contiguously
			// at EOF even against concurrent appenders.
			if _, werr := s.f.Write(s.img[base:]); werr != nil {
				err = fmt.Errorf("store: merge append to %s: %w", s.path, werr)
			}
		}
		if err != nil {
			// Nothing landed, or a partial batch did — a torn tail of our
			// own making: reopen resyncs image and index with what the
			// file holds and heals the tear.
			ms.Added = 0
			if len(s.img) > base {
				s.openLocked()
			}
			return err
		}
		s.stats.Appended += ms.Added
		s.stats.Stale += stale
		s.staleBytes += int64(staleBytes)
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
// budget enforcement. Caller holds mu and the file lock, and has just
// scanned or refreshed — so the image is the file, and is what gets
// walked. When anything is dropped the log is rewritten and the session
// reopened on the new file, otherwise it is a no-op.
func (s *Session) compactLocked() (int, error) {
	cur := currentEpoch()
	// walk hands fn every record that is not a duplicate — the index
	// holds the first record of each identity, so a decodable record it
	// does not point at is a later copy — and whether it is live
	// (current epoch, this record version). It returns the duplicates.
	walk := func(fn func(off, end int, live bool)) (dups int) {
		scan(s.img, func(off, end int, p []byte) {
			ok := decodable(p)
			if ok {
				if pos, _ := s.tab.find(s.img, p[idOff:idOff+idSize]); int(pos) != off+recIDOff {
					dups++
					return
				}
			}
			fn(off, end, ok && epochOf(p) == cur)
		})
		return dups
	}
	staleBytes := 0
	dropped := walk(func(off, end int, live bool) {
		if !live {
			staleBytes += end - off
		}
	})
	// Enforce the retention budget oldest-first: stale records go, in
	// write order, until the survivors fit.
	excess := staleBytes - staleRetainBytes
	if dropped == 0 && excess <= 0 {
		// Nothing to rewrite; Compact of a tight log is a successful
		// no-op.
		return 0, nil
	}
	buf := make([]byte, 0, len(s.img))
	walk(func(off, end int, live bool) {
		if !live && excess > 0 {
			excess -= end - off
			dropped++
			return
		}
		buf = append(buf, s.img[off:end]...)
	})
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
