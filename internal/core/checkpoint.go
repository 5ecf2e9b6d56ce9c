package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/graph"
)

// Budget bounds one run segment. When any limit trips, the run drains
// cleanly and returns an Undecided result carrying a Checkpoint instead
// of discarding the work: MaxGraphs and MaxDuration are per-segment caps
// (a resumed segment gets a fresh allowance — that is what makes "keep
// resuming until decided" make progress under any budget), while
// MaxMemBytes is an absolute cap on the Go heap observed at a sampling
// cadence. A zero MaxDuration or MaxMemBytes sets no limit.
type Budget struct {
	// MaxDuration caps the wall-clock time of this segment.
	MaxDuration time.Duration
	// MaxGraphs caps the number of states this segment pops; zero means
	// 2,000,000. There is no unbounded setting: a program outside the
	// Bounded-Length principle never finishes.
	MaxGraphs int64
	// MaxMemBytes caps the process heap (runtime.ReadMemStats
	// HeapAlloc, sampled every few thousand pops).
	MaxMemBytes uint64
}

// graphCap returns the number of pops the segment may make: MaxGraphs,
// or the default every caller that sets none gets.
func (b Budget) graphCap() int64 {
	if b.MaxGraphs > 0 {
		return b.MaxGraphs
	}
	return 2_000_000
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

// Checkpoint file format: internal/frame records under the magic
// "VSCK", one per region, in fixed order: a header, the optional
// violation, the visited keys, one record per frontier state, and a
// trailing END record repeating the counts. A file whose records do
// not parse, whose CRCs do not match, or whose END counts disagree is
// refused ENTIRELY: a partially loaded frontier could silently hide
// the violating branch, so torn or truncated checkpoints fall back to
// a cold run rather than an unsound resume. (The store can truncate
// torn tails because its records are independent facts; checkpoint
// records are jointly one fact.)
const (
	ckptMagic   = 0x4b435356 // "VSCK" little-endian
	ckptVersion = 4          // v4: birth-filter counter in Stats (v3: retry-collapse counter; v2: symmetry flag, canonicalization counters)

	ckRecHeader    = 'H'
	ckRecViolation = 'B'
	ckRecVisited   = 'V'
	ckRecState     = 'S'
	ckRecEnd       = 'E'
)

// Encode serializes the checkpoint into the framed record format.
func (c *Checkpoint) Encode() []byte {
	// Header.
	p := []byte{ckRecHeader, ckptVersion}
	p = frame.AppendStr(p, c.Model)
	p = frame.AppendHash128(p, c.Prog)
	p = frame.AppendHash128(p, c.Epoch)
	p = frame.AppendBool(p, c.Sym)
	p = binary.AppendUvarint(p, uint64(c.Popped))
	for _, n := range c.Stats.counters() {
		p = binary.AppendUvarint(p, uint64(*n))
	}
	buf := frame.Append(nil, ckptMagic, p)

	// Best violation so far, if any.
	if v := c.vio; v != nil {
		p = []byte{ckRecViolation, byte(v.verdict)}
		p = binary.AppendUvarint(p, uint64(v.stamp))
		p = frame.AppendHash128(p, v.key)
		p = frame.AppendStr(p, v.message)
		p = graph.AppendGraph(p, v.witness)
		buf = frame.Append(buf, ckptMagic, p)
	}

	// Visited keys.
	p = []byte{ckRecVisited}
	p = binary.AppendUvarint(p, uint64(len(c.visited)))
	for _, k := range c.visited {
		p = frame.AppendHash128(p, k)
	}
	buf = frame.Append(buf, ckptMagic, p)

	// Frontier states, one record each, in resume-push order.
	for _, st := range c.frontier {
		p = frame.AppendBool([]byte{ckRecState}, st.hasForced)
		if st.hasForced {
			p = binary.AppendVarint(p, int64(st.forcedR.Thread))
			p = binary.AppendVarint(p, int64(st.forcedR.Index))
			p = binary.AppendVarint(p, int64(st.forcedW.Thread))
			p = binary.AppendVarint(p, int64(st.forcedW.Index))
		}
		p = graph.AppendGraph(p, st.g)
		buf = frame.Append(buf, ckptMagic, p)
	}

	// END: repeat the counts so truncation after a valid record is
	// still detected.
	p = []byte{ckRecEnd}
	p = binary.AppendUvarint(p, uint64(len(c.frontier)))
	p = binary.AppendUvarint(p, uint64(len(c.visited)))
	return frame.Append(buf, ckptMagic, p)
}

// graphTail decodes the graph that ends a record's payload.
func graphTail(d *frame.Cursor) *graph.Graph {
	rest := d.Rest()
	if d.Err() != nil {
		return nil
	}
	g, n, err := graph.DecodeGraph(rest)
	if err != nil {
		d.Fail("%v", err)
	} else if n != len(rest) {
		d.Fail("%d trailing bytes after graph", len(rest)-n)
	}
	return g
}

// ckptFollows lists, for each record type, the types that may follow it
// (0: the start of the file) — the one order Encode writes.
var ckptFollows = map[byte]string{0: "H", ckRecHeader: "BV", ckRecViolation: "V", ckRecVisited: "SE", ckRecState: "SE", ckRecEnd: ""}

// DecodeCheckpoint parses a checkpoint file image. Any framing error,
// CRC mismatch, record out of order, missing END record, or count
// disagreement rejects the whole file: a partial frontier is unsound to
// resume from.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	c := &Checkpoint{}
	prev := byte(0)
	for len(data) > 0 {
		payload, rest, err := frame.Next(data, ckptMagic, len(data))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		data = rest
		d := frame.NewCursor(payload, "checkpoint")
		typ := d.Byte()
		if !strings.Contains(ckptFollows[prev], string(typ)) {
			d.Fail("record %q after %q", typ, prev)
		}
		prev = typ
		switch typ {
		case ckRecHeader:
			if v := d.Byte(); v != ckptVersion {
				d.Fail("unsupported version %d", v)
			}
			c.Model = d.Str()
			c.Prog = d.Hash128()
			c.Epoch = d.Hash128()
			c.Sym = d.Bool()
			c.Popped = int64(d.Uvarint())
			for _, n := range c.Stats.counters() {
				*n = int(d.Uvarint())
			}
		case ckRecViolation:
			v := &vioCheckpoint{verdict: Verdict(d.Byte())}
			if v.verdict != SafetyViolation && v.verdict != ATViolation {
				d.Fail("invalid violation verdict %d", v.verdict)
			}
			v.stamp = int(d.Uvarint())
			v.key = d.Hash128()
			v.message = d.Str()
			v.witness = graphTail(&d)
			c.vio = v
		case ckRecVisited:
			n := d.Count("visited key")
			c.visited = make([]graph.Hash128, 0, min(n, len(payload)/16))
			for i := 0; i < n; i++ {
				c.visited = append(c.visited, d.Hash128())
			}
		case ckRecState:
			st := ExploreState{hasForced: d.Bool()}
			if st.hasForced {
				st.forcedR = graph.EventID{Thread: int(d.Varint()), Index: int(d.Varint())}
				st.forcedW = graph.EventID{Thread: int(d.Varint()), Index: int(d.Varint())}
			}
			st.g = graphTail(&d)
			c.frontier = append(c.frontier, st)
		case ckRecEnd:
			if nf, nv := d.Uvarint(), d.Uvarint(); nf != uint64(len(c.frontier)) || nv != uint64(len(c.visited)) {
				d.Fail("END counts (%d states, %d visited) disagree with records (%d, %d)",
					nf, nv, len(c.frontier), len(c.visited))
			}
		}
		if err := d.End(); err != nil {
			return nil, err
		}
	}
	if prev != ckRecEnd {
		return nil, fmt.Errorf("checkpoint: incomplete file (no END record)")
	}
	return c, nil
}

// WriteCheckpointFile atomically replaces path with the encoded
// checkpoint (frame.ReplaceFile): a crash at any point leaves either
// the old complete file or the new complete file, never a torn one.
func WriteCheckpointFile(path string, c *Checkpoint) error {
	if err := faultinject.Fire("ckpt.write"); err != nil {
		return err
	}
	err := frame.ReplaceFile(path, c.Encode(), func() error { return faultinject.Fire("ckpt.rename") })
	if err != nil {
		return fmt.Errorf("checkpoint write: %w", err)
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
