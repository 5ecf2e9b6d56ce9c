package graph_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

// frontierGraphs returns the encoded graphs of p's frontier after a few
// pops, cut out of the run's checkpoint image: real partial executions
// with ⊥ reads, updates, awaits, barrier points and assertion messages.
func frontierGraphs(f *testing.F, p *vprog.Program) [][]byte {
	c := core.New(mm.WMM)
	c.Budget = core.Budget{MaxGraphs: 8}
	res := c.Run(p)
	if res.Checkpoint == nil {
		return nil // decided within the budget
	}
	var out [][]byte
	data := res.Checkpoint.Encode()
	for len(data) > 0 {
		payload, rest, err := frame.Next(data, 0x4b435356, len(data)) // "VSCK"
		if err != nil {
			f.Fatal(err)
		}
		data = rest
		if payload[0] != 'S' {
			continue
		}
		d := frame.NewCursor(payload[1:], "test")
		if d.Bool() {
			for i := 0; i < 4; i++ {
				d.Varint()
			}
		}
		out = append(out, d.Rest())
	}
	return out
}

// FuzzDecodeGraph: any bytes either fail to decode, or decode to a graph
// that passes CheckInvariants and re-encodes to exactly the bytes that
// were consumed — one encoding per graph, so a checkpoint cannot say the
// same thing two ways.
func FuzzDecodeGraph(f *testing.F) {
	mcs := locks.ByName("mcs")
	dpdk := locks.ByName("dpdkmcs-buggy")
	for _, p := range []*vprog.Program{
		harness.Litmus("SB", false),
		harness.Litmus("IRIW", false),
		harness.Fig1PartialMCS(true),
		harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1),
		harness.MutexClient(dpdk, dpdk.DefaultSpec(), 2, 1),
	} {
		for _, enc := range frontierGraphs(f, p) {
			f.Add(enc)
			f.Add(enc[:len(enc)/2])
			f.Add(append(append([]byte(nil), enc...), 0))
			for _, off := range []int{1, len(enc) / 3, len(enc) - 2} {
				mut := append([]byte(nil), enc...)
				mut[off] ^= 0x01
				f.Add(mut)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0x80, 0x00, 0}) // an overlong thread count

	f.Fuzz(func(t *testing.T, data []byte) {
		g, n, err := graph.DecodeGraph(data)
		if err != nil {
			return
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("decoded graph breaks an invariant: %v", err)
		}
		if enc := graph.AppendGraph(nil, g); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("decoded graph re-encodes to %d bytes that differ from the %d consumed", len(enc), n)
		}
	})
}
