package graph

import (
	"encoding/binary"
	"fmt"

	"repro/internal/frame"
)

// Binary graph encoding. Checkpointing an exploration frontier spills
// ExploreState items to disk, and each one is a partial execution
// graph; this encoding captures everything exploration semantics
// depend on — events with their exact addition stamps (the revisit
// restriction is stamp-ordered), rf choices, per-location modification
// orders, and the stamp counter — in a compact varint layout. Derived
// state (memoized relations, extension hints, rf-row ownership) is
// rebuilt, not stored.

// graphEncVersion guards the wire layout of AppendGraph/DecodeGraph.
// Callers embed it in their own framing (a checkpoint record's CRC
// covers the whole payload), so a version bump cleanly invalidates old
// sidecar files instead of mis-decoding them.
const graphEncVersion = 1

// AppendGraph appends the binary encoding of g to buf and returns the
// extended slice. The encoding is self-delimiting: DecodeGraph reports
// how many bytes it consumed.
func AppendGraph(buf []byte, g *Graph) []byte {
	buf = append(buf, graphEncVersion)
	buf = binary.AppendUvarint(buf, uint64(len(g.Threads)))
	buf = binary.AppendUvarint(buf, uint64(len(g.InitVals)))
	for l, v := range g.InitVals {
		buf = binary.AppendUvarint(buf, v)
		buf = frame.AppendStr(buf, g.LocNames[l])
	}
	buf = binary.AppendUvarint(buf, uint64(g.NextStamp))
	for t, evs := range g.Threads {
		buf = binary.AppendUvarint(buf, uint64(len(evs)))
		for i, e := range evs {
			buf = appendEvent(buf, e)
			if e.IsReadLike() {
				rf := g.rfAt(t, i)
				buf = frame.AppendBool(buf, rf.Bottom)
				if !rf.Bottom {
					buf = binary.AppendVarint(buf, int64(rf.W.Thread))
					buf = binary.AppendVarint(buf, int64(rf.W.Index))
				}
			}
		}
	}
	for _, order := range g.Mo {
		buf = binary.AppendUvarint(buf, uint64(len(order)))
		for _, id := range order {
			buf = binary.AppendVarint(buf, int64(id.Thread))
			buf = binary.AppendVarint(buf, int64(id.Index))
		}
	}
	return buf
}

// Event flag bits (first byte of an encoded event).
const (
	evfDegraded = 1 << iota
	evfInAwait
	evfPoint
	evfMsg
)

func appendEvent(buf []byte, e *Event) []byte {
	var flags byte
	if e.Degraded {
		flags |= evfDegraded
	}
	if e.AwaitSeq >= 0 {
		flags |= evfInAwait
	}
	if e.Point != "" {
		flags |= evfPoint
	}
	if e.Msg != "" {
		flags |= evfMsg
	}
	buf = append(buf, flags, byte(e.Kind), byte(e.Mode))
	buf = binary.AppendVarint(buf, int64(e.Loc))
	buf = binary.AppendUvarint(buf, e.Val)
	buf = binary.AppendUvarint(buf, e.RVal)
	buf = binary.AppendUvarint(buf, uint64(e.Stamp))
	if flags&evfInAwait != 0 {
		buf = binary.AppendUvarint(buf, uint64(e.AwaitSeq))
		buf = binary.AppendUvarint(buf, uint64(e.AwaitIter))
	}
	if flags&evfPoint != 0 {
		buf = frame.AppendStr(buf, e.Point)
	}
	if flags&evfMsg != 0 {
		buf = frame.AppendStr(buf, e.Msg)
	}
	return buf
}

// DecodeGraph decodes one graph from the front of data, returning the
// graph, the number of bytes consumed, and any error. The decoded
// graph is fully validated (structural invariants and stamp bounds);
// on error the graph is nil and must not be used.
func DecodeGraph(data []byte) (*Graph, int, error) {
	d := frame.NewCursor(data, "graph decode")
	if v := d.Byte(); d.Err() == nil && v != graphEncVersion {
		return nil, 0, fmt.Errorf("graph decode: unsupported encoding version %d", v)
	}
	nthreads := d.Count("thread")
	nlocs := d.Count("location")
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	initVals := make([]Val, nlocs)
	locNames := make([]string, nlocs)
	for l := 0; l < nlocs; l++ {
		initVals[l] = d.Uvarint()
		locNames[l] = d.Str()
	}
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	g := New(nthreads, initVals, locNames)
	g.NextStamp = int(d.Uvarint())
	for t := 0; t < nthreads; t++ {
		nev := d.Count("event")
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		evs := make([]*Event, 0, nev)
		rfs := make([]rfCell, 0, nev)
		for i := 0; i < nev; i++ {
			e := decodeEvent(&d, EventID{Thread: t, Index: i})
			if d.Err() != nil {
				return nil, 0, d.Err()
			}
			rf := noRF
			if e.IsReadLike() {
				if d.Bool() {
					rf = BottomRF
				} else {
					rf = RF{W: EventID{Thread: int(d.Varint()), Index: int(d.Varint())}}
					if !fitsCell(rf.W) {
						d.Fail("rf source %v of %v is no event id", rf.W, e.ID)
						return nil, 0, d.Err()
					}
				}
			}
			evs = append(evs, e)
			rfs = append(rfs, cellOf(rf))
		}
		g.Threads[t] = evs
		g.rf[t] = rfs
		if t < 64 {
			g.rfOwned |= 1 << uint(t) // freshly allocated rows are private
		}
	}
	for l := 0; l < nlocs; l++ {
		nmo := d.Count("mo entry")
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		order := make([]EventID, nmo)
		for i := range order {
			order[i] = EventID{Thread: int(d.Varint()), Index: int(d.Varint())}
		}
		g.Mo[l] = order
	}
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	if err := validateDecoded(g); err != nil {
		return nil, 0, err
	}
	return g, d.Offset(), nil
}

func decodeEvent(d *frame.Cursor, id EventID) *Event {
	flags := d.Byte()
	e := &Event{
		ID:       id,
		Kind:     Kind(d.Byte()),
		Mode:     Mode(d.Byte()),
		AwaitSeq: -1,
	}
	loc := d.Varint()
	e.Loc = Loc(loc)
	e.Val = d.Uvarint()
	e.RVal = d.Uvarint()
	e.Stamp = int(d.Uvarint())
	e.Degraded = flags&evfDegraded != 0
	if flags&evfInAwait != 0 {
		e.AwaitSeq = int(d.Uvarint())
		e.AwaitIter = int(d.Uvarint())
	}
	if flags&evfPoint != 0 {
		e.Point = d.Str()
	}
	if flags&evfMsg != 0 {
		e.Msg = d.Str()
	}
	if e.Kind > KError {
		d.Fail("unknown event kind %d", e.Kind)
	}
	if e.Mode > SC {
		d.Fail("unknown event mode %d", e.Mode)
	}
	// What appendEvent never writes: one encoding per event.
	if flags >= evfMsg<<1 || int64(e.Loc) != loc || (flags&evfInAwait != 0 && e.AwaitSeq < 0) ||
		(flags&evfPoint != 0 && e.Point == "") || (flags&evfMsg != 0 && e.Msg == "") {
		d.Fail("event %v is not in canonical form", id)
	}
	return e
}

// validateDecoded rejects decoded graphs that passed the syntactic
// decode but are structurally unsound: CRC framing catches media
// corruption, this catches logic corruption (a bug or a forged file)
// before a broken graph can poison an exploration.
func validateDecoded(g *Graph) error {
	// Bounds first: CheckInvariants indexes Mo by event locations, so an
	// out-of-range location must be rejected before the audit runs.
	for _, evs := range g.Threads {
		prev := 0
		for _, e := range evs {
			if e.Loc < 0 || (int(e.Loc) >= len(g.InitVals) && e.Kind != KFence && e.Kind != KError) {
				return fmt.Errorf("graph decode: event %v references location %d of %d", e.ID, e.Loc, len(g.InitVals))
			}
			if e.Stamp <= 0 || e.Stamp >= g.NextStamp {
				return fmt.Errorf("graph decode: event %v stamp %d outside (0,%d)", e.ID, e.Stamp, g.NextStamp)
			}
			if e.Stamp <= prev {
				return fmt.Errorf("graph decode: event %v stamp %d not increasing along po", e.ID, e.Stamp)
			}
			prev = e.Stamp
		}
	}
	if err := g.CheckInvariants(); err != nil {
		return fmt.Errorf("graph decode: %w", err)
	}
	return nil
}
