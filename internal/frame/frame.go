// Package frame is the one record layer under everything the checker
// persists. AMC is stateless — an exploration state is an execution
// graph and everything else is rebuilt by replay — so verdict logs,
// checkpointed frontiers and witnesses are all short lists of framed,
// checksummed byte records. This package owns the three mechanisms they
// share, once. The frame itself,
//
//	[4B magic LE][4B payload length LE][payload][4B IEEE CRC32(payload) LE]
//
// is written by Append and split off by Next, which tells a record cut
// short (ErrTruncated) from one that is damaged (ErrCorrupt) or not a
// record of this kind at all (ErrMagic). Cursor is the sticky-error
// reader over one payload, with the Append* writers of the same
// primitive encodings. ReplaceFile is the crash-safe temp file → fsync
// → rename swap.
//
// Policy stays with the callers: internal/store truncates a torn tail
// and retains records of versions it cannot parse, a checkpoint
// (internal/core) refuses a file with any bad record, and the graph
// codec (internal/graph) is unframed, versioned by its first byte.
// What a magic means and what a payload holds is theirs as well.
//
// The package imports the standard library only. Its sources are part
// of the verdict store's code epoch (the root package's epoch.go lists
// this directory): a bug here mis-frames every record, and fixing it
// must orphan what the buggy build wrote.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	// HeaderSize is the length of what precedes a payload: magic and
	// payload length.
	HeaderSize = 8
	// Overhead is what a frame adds to its payload: header and CRC.
	Overhead = HeaderSize + 4
)

// The three ways Next refuses. They are fixed values — the store's scan
// ends on one of them for every log it opens, so refusing costs no
// formatting — and ErrMagic is a kind of ErrCorrupt.
var (
	// ErrTruncated: the data ends inside the record, and what is there
	// is a proper beginning of one (a torn write).
	ErrTruncated = errors.New("truncated record")
	// ErrCorrupt: the length is out of bounds or the checksum fails.
	ErrCorrupt = errors.New("corrupt record")
	// ErrMagic: the data does not begin with (a prefix of) the magic.
	ErrMagic = fmt.Errorf("%w: bad magic", ErrCorrupt)
)

// Append appends payload to buf as one framed record.
func Append(buf []byte, magic uint32, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// Next splits the first framed record off non-empty data, returning its
// payload (aliasing data) and what follows the record. A payload is
// never empty — its first byte says what it is — nor longer than
// maxPayload. Next never resynchronizes: on an error nothing after the
// start of data can be trusted.
func Next(data []byte, magic uint32, maxPayload int) (payload, rest []byte, err error) {
	if len(data) < HeaderSize {
		var m [4]byte
		binary.LittleEndian.PutUint32(m[:], magic)
		for i := 0; i < len(data) && i < len(m); i++ {
			if data[i] != m[i] {
				return nil, nil, ErrMagic
			}
		}
		return nil, nil, ErrTruncated
	}
	if binary.LittleEndian.Uint32(data) != magic {
		return nil, nil, ErrMagic
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if n < 1 || n > maxPayload {
		return nil, nil, ErrCorrupt
	}
	if n > len(data)-Overhead {
		return nil, nil, ErrTruncated
	}
	payload = data[HeaderSize : HeaderSize+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[HeaderSize+n:]) {
		return nil, nil, ErrCorrupt
	}
	return payload, data[Overhead+n:], nil
}

// ReplaceFile atomically replaces path with content: a temp file in the
// same directory is written and synced, then renamed over the target,
// so a crash at any point leaves either the old complete file or the
// new one, never a torn one. beforeRename, when non-nil, runs between
// the sync and the rename (callers release their own handle on the
// target and fire their failpoint there); if it fails, nothing is
// renamed. On any error the temp file is removed and the target is
// untouched.
func ReplaceFile(path string, content []byte, beforeRename func() error) (err error) {
	tf, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := tf.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, err = tf.Write(content); err == nil {
		err = tf.Chmod(0o644) // CreateTemp's 0600 would lock other users out of a shared store
	}
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil && beforeRename != nil {
		err = beforeRename()
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
