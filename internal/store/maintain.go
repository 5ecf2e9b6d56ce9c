package store

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/frame"
)

// Compact rewrites the log in place, dropping duplicate records (same
// epoch and key — concurrent appenders race benignly and the index
// keeps the first, so dups accumulate) and enforcing the foreign-epoch
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
		scan(s.img, nil, func(off, end int, p []byte) {
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
