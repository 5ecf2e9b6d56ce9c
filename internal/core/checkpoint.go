package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// Budget bounds one run segment. A zero Budget is unbounded. When any
// limit trips, the run drains cleanly and returns an Undecided result
// carrying a Checkpoint instead of discarding the work: MaxGraphs and
// MaxDuration are per-segment caps (a resumed segment gets a fresh
// allowance — that is what makes "keep resuming until decided" make
// progress under any budget), while MaxMemBytes is an absolute cap on
// the Go heap observed at a sampling cadence.
type Budget struct {
	// MaxDuration caps the wall-clock time of this segment.
	MaxDuration time.Duration
	// MaxGraphs caps the number of states this segment pops.
	MaxGraphs int64
	// MaxMemBytes caps the process heap (runtime.ReadMemStats
	// HeapAlloc, sampled every few thousand pops).
	MaxMemBytes uint64
}

// active reports whether any limit is set.
func (b Budget) active() bool {
	return b.MaxDuration > 0 || b.MaxGraphs > 0 || b.MaxMemBytes > 0
}

// Checkpoint is the resumable remainder of an interrupted exploration:
// every frontier state not yet popped, the visited-set keys, the
// cumulative counters, and the best violation found so far (parallel
// runs continue past violations, so the deterministic-counterexample
// contract must survive segmentation). A Checkpoint is self-contained
// — Resume needs only it, the model, and the program.
//
// Identity fields pin what the checkpoint belongs to. Model and Prog
// are validated by the core explorer itself on resume; Epoch is opaque
// to core — callers that track code identity (the vsync layer stamps
// the store's code-identity epoch here) must validate it before
// resuming, because a frontier produced by different checker code is
// not trustworthy even over the same program.
type Checkpoint struct {
	Model string        // memory model name the run verifies against
	Prog  graph.Hash128 // structural fingerprint of the program
	Epoch graph.Hash128 // code-identity epoch (stamped by the caller)
	// Sym records whether the interrupted run deduplicated on canonical
	// (symmetry-reduced) keys. Resume validates it against the resuming
	// checker's own setting: the two key spaces are incompatible, and a
	// frontier explored under one cannot soundly continue under the
	// other.
	Sym bool

	Popped int64 // states popped across all prior segments
	Stats  Stats // work counters accumulated across all prior segments

	frontier []ExploreState
	visited  []graph.Hash128
	vio      *vioCheckpoint
}

// vioCheckpoint preserves the running minimum of offerViolation across
// segments.
type vioCheckpoint struct {
	verdict Verdict
	message string
	stamp   int
	key     graph.Hash128
	witness *graph.Graph
}

// FrontierLen returns the number of unexplored states the checkpoint
// holds.
func (c *Checkpoint) FrontierLen() int { return len(c.frontier) }

// VisitedLen returns the number of visited-set keys the checkpoint
// holds.
func (c *Checkpoint) VisitedLen() int { return len(c.visited) }

// Checkpoint file format: the store's record framing with a distinct
// magic —
//
//	[4B magic "VSCK"][4B payload len LE][payload][4B CRC32(payload)]
//
// — one record per region, in fixed order: a header, the optional
// violation, the visited keys, one record per frontier state, and a
// trailing END record repeating the counts. A file whose records do
// not parse, whose CRCs do not match, or whose END counts disagree is
// refused ENTIRELY: a partially loaded frontier could silently hide
// the violating branch, so torn or truncated checkpoints fall back to
// a cold run rather than an unsound resume. (The store can truncate
// torn tails because its records are independent facts; checkpoint
// records are jointly one fact.)
const (
	ckptMagic   = "VSCK"
	ckptVersion = 4 // v4: birth-filter counter in Stats (v3: retry-collapse counter; v2: symmetry flag, canonicalization counters)

	ckRecHeader    = 'H'
	ckRecViolation = 'B'
	ckRecVisited   = 'V'
	ckRecState     = 'S'
	ckRecEnd       = 'E'
)

func appendCkptRecord(buf, payload []byte) []byte {
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// nextCkptRecord splits one framed record off data, verifying magic
// and CRC.
func nextCkptRecord(data []byte) (payload, rest []byte, err error) {
	if len(data) < 12 {
		return nil, nil, fmt.Errorf("checkpoint: truncated record header (%d bytes left)", len(data))
	}
	if string(data[:4]) != ckptMagic {
		return nil, nil, fmt.Errorf("checkpoint: bad record magic %q", data[:4])
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if uint64(n) > uint64(len(data)-12) {
		return nil, nil, fmt.Errorf("checkpoint: record of %d bytes exceeds remaining input", n)
	}
	payload = data[8 : 8+n]
	if crc := binary.LittleEndian.Uint32(data[8+n : 12+n]); crc != crc32.ChecksumIEEE(payload) {
		return nil, nil, fmt.Errorf("checkpoint: record CRC mismatch")
	}
	return payload, data[12+n:], nil
}

func appendHash128(buf []byte, h graph.Hash128) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, h[0])
	return binary.LittleEndian.AppendUint64(buf, h[1])
}

func (d *ckptDec) hash128() graph.Hash128 {
	var h graph.Hash128
	if d.err != nil {
		return h
	}
	if len(d.b)-d.off < 16 {
		d.fail("truncated hash")
		return h
	}
	h[0] = binary.LittleEndian.Uint64(d.b[d.off:])
	h[1] = binary.LittleEndian.Uint64(d.b[d.off+8:])
	d.off += 16
	return h
}

// ckptDec is a sticky-error cursor over one record payload.
type ckptDec struct {
	b   []byte
	off int
	err error
}

func (d *ckptDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

func (d *ckptDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated payload")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *ckptDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *ckptDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *ckptDec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string of %d bytes exceeds payload", n)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func appendStats(buf []byte, s Stats) []byte {
	for _, v := range [...]int{s.Popped, s.Pushed, s.Executions, s.Revisits,
		s.Duplicates, s.Wasteful, s.Collapsed, s.Inconsist, s.Filtered, s.Blocked,
		s.Canonicalized, s.CanonFast, s.CanonRefined, s.CanonPruned} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

func (d *ckptDec) stats() Stats {
	return Stats{
		Popped:        int(d.uvarint()),
		Pushed:        int(d.uvarint()),
		Executions:    int(d.uvarint()),
		Revisits:      int(d.uvarint()),
		Duplicates:    int(d.uvarint()),
		Wasteful:      int(d.uvarint()),
		Collapsed:     int(d.uvarint()),
		Inconsist:     int(d.uvarint()),
		Filtered:      int(d.uvarint()),
		Blocked:       int(d.uvarint()),
		Canonicalized: int(d.uvarint()),
		CanonFast:     int(d.uvarint()),
		CanonRefined:  int(d.uvarint()),
		CanonPruned:   int(d.uvarint()),
	}
}

// Encode serializes the checkpoint into the framed record format.
func (c *Checkpoint) Encode() []byte {
	// Header.
	p := []byte{ckRecHeader, ckptVersion}
	p = binary.AppendUvarint(p, uint64(len(c.Model)))
	p = append(p, c.Model...)
	p = appendHash128(p, c.Prog)
	p = appendHash128(p, c.Epoch)
	if c.Sym {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.AppendUvarint(p, uint64(c.Popped))
	p = appendStats(p, c.Stats)
	buf := appendCkptRecord(nil, p)

	// Best violation so far, if any.
	if v := c.vio; v != nil {
		p = []byte{ckRecViolation, byte(v.verdict)}
		p = binary.AppendUvarint(p, uint64(v.stamp))
		p = appendHash128(p, v.key)
		p = binary.AppendUvarint(p, uint64(len(v.message)))
		p = append(p, v.message...)
		p = graph.AppendGraph(p, v.witness)
		buf = appendCkptRecord(buf, p)
	}

	// Visited keys.
	p = []byte{ckRecVisited}
	p = binary.AppendUvarint(p, uint64(len(c.visited)))
	for _, k := range c.visited {
		p = appendHash128(p, k)
	}
	buf = appendCkptRecord(buf, p)

	// Frontier states, one record each, in resume-push order.
	for _, st := range c.frontier {
		p = []byte{ckRecState}
		if st.hasForced {
			p = append(p, 1)
			p = binary.AppendVarint(p, int64(st.forcedR.Thread))
			p = binary.AppendVarint(p, int64(st.forcedR.Index))
			p = binary.AppendVarint(p, int64(st.forcedW.Thread))
			p = binary.AppendVarint(p, int64(st.forcedW.Index))
		} else {
			p = append(p, 0)
		}
		p = graph.AppendGraph(p, st.g)
		buf = appendCkptRecord(buf, p)
	}

	// END: repeat the counts so truncation after a valid record is
	// still detected.
	p = []byte{ckRecEnd}
	p = binary.AppendUvarint(p, uint64(len(c.frontier)))
	p = binary.AppendUvarint(p, uint64(len(c.visited)))
	return appendCkptRecord(buf, p)
}

// DecodeCheckpoint parses a checkpoint file image. Any framing error,
// CRC mismatch, missing END record, or count disagreement rejects the
// whole file: a partial frontier is unsound to resume from.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	c := &Checkpoint{}
	sawHeader, sawEnd := false, false
	for len(data) > 0 {
		payload, rest, err := nextCkptRecord(data)
		if err != nil {
			return nil, err
		}
		data = rest
		if sawEnd {
			return nil, fmt.Errorf("checkpoint: data after END record")
		}
		d := &ckptDec{b: payload}
		switch typ := d.byte(); typ {
		case ckRecHeader:
			if sawHeader {
				return nil, fmt.Errorf("checkpoint: duplicate header")
			}
			sawHeader = true
			if v := d.byte(); d.err == nil && v != ckptVersion {
				return nil, fmt.Errorf("checkpoint: unsupported version %d", v)
			}
			c.Model = d.str()
			c.Prog = d.hash128()
			c.Epoch = d.hash128()
			c.Sym = d.byte() != 0
			c.Popped = int64(d.uvarint())
			c.Stats = d.stats()
		case ckRecViolation:
			if !sawHeader {
				return nil, fmt.Errorf("checkpoint: record before header")
			}
			v := &vioCheckpoint{verdict: Verdict(d.byte())}
			if v.verdict != SafetyViolation && v.verdict != ATViolation {
				return nil, fmt.Errorf("checkpoint: invalid violation verdict %d", v.verdict)
			}
			v.stamp = int(d.uvarint())
			v.key = d.hash128()
			v.message = d.str()
			if d.err == nil {
				g, _, gerr := graph.DecodeGraph(d.b[d.off:])
				if gerr != nil {
					return nil, gerr
				}
				v.witness = g
			}
			c.vio = v
		case ckRecVisited:
			if !sawHeader {
				return nil, fmt.Errorf("checkpoint: record before header")
			}
			n := d.uvarint()
			if d.err == nil && n > uint64(len(d.b)-d.off)/16 {
				return nil, fmt.Errorf("checkpoint: visited count %d exceeds payload", n)
			}
			c.visited = make([]graph.Hash128, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				c.visited = append(c.visited, d.hash128())
			}
		case ckRecState:
			if !sawHeader {
				return nil, fmt.Errorf("checkpoint: record before header")
			}
			st := ExploreState{}
			if d.byte() != 0 {
				st.hasForced = true
				st.forcedR = graph.EventID{Thread: int(d.varint()), Index: int(d.varint())}
				st.forcedW = graph.EventID{Thread: int(d.varint()), Index: int(d.varint())}
			}
			if d.err == nil {
				g, _, gerr := graph.DecodeGraph(d.b[d.off:])
				if gerr != nil {
					return nil, gerr
				}
				st.g = g
			}
			c.frontier = append(c.frontier, st)
		case ckRecEnd:
			if !sawHeader {
				return nil, fmt.Errorf("checkpoint: record before header")
			}
			sawEnd = true
			nf, nv := d.uvarint(), d.uvarint()
			if d.err == nil && (nf != uint64(len(c.frontier)) || nv != uint64(len(c.visited))) {
				return nil, fmt.Errorf("checkpoint: END counts (%d states, %d visited) disagree with records (%d, %d)",
					nf, nv, len(c.frontier), len(c.visited))
			}
		default:
			return nil, fmt.Errorf("checkpoint: unknown record type %q", typ)
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if !sawHeader || !sawEnd {
		return nil, fmt.Errorf("checkpoint: incomplete file (header %v, end %v)", sawHeader, sawEnd)
	}
	return c, nil
}

// WriteCheckpointFile atomically replaces path with the encoded
// checkpoint: write to a temp file in the same directory, sync, then
// rename over the target — a crash at any point leaves either the old
// complete file or the new complete file, never a torn one.
func WriteCheckpointFile(path string, c *Checkpoint) error {
	if err := faultinject.Fire("ckpt.write"); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tf, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint write: %w", err)
	}
	tmp := tf.Name()
	cleanup := func() {
		tf.Close()
		os.Remove(tmp)
	}
	if _, err := tf.Write(c.Encode()); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint write: %w", err)
	}
	if err := tf.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint sync: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint close: %w", err)
	}
	if err := faultinject.Fire("ckpt.rename"); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint rename: %w", err)
	}
	return nil
}

// LoadCheckpointFile reads and decodes a checkpoint file.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}
