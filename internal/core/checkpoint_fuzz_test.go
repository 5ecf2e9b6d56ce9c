package core_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/mm"
	"repro/internal/vprog"
)

const ckptMagic = 0x4b435356 // "VSCK", as in checkpoint.go

// reframe rewrites a checkpoint image record by record: edit receives
// each payload and returns what to frame in its place, so the result is
// CRC-valid whatever the edit did — damage only the decoder and the
// resume path can catch. A record's length is trusted, its checksum is
// not (the fuzzer mutates payload bytes, and this carries the mutation
// past the CRC); bytes that do not have the shape of a record are kept
// as they are.
func reframe(data []byte, edit func(payload []byte) []byte) []byte {
	var out []byte
	for len(data) >= frame.Overhead {
		n := int(binary.LittleEndian.Uint32(data[4:]))
		if binary.LittleEndian.Uint32(data) != ckptMagic || n < 1 || n > len(data)-frame.Overhead {
			break
		}
		out = frame.Append(out, ckptMagic, edit(data[frame.HeaderSize:frame.HeaderSize+n]))
		data = data[frame.Overhead+n:]
	}
	return append(out, data...)
}

// forceState rewrites the first frontier state of a checkpoint image
// that carries a forced rf pair, letting edit damage the pair.
func forceState(data []byte, edit func(r, w *graph.EventID)) []byte {
	done := false
	return reframe(data, func(p []byte) []byte {
		if done || p[0] != 'S' || p[1] != 1 {
			return p
		}
		done = true
		d := frame.NewCursor(p[2:], "test")
		r := graph.EventID{Thread: int(d.Varint()), Index: int(d.Varint())}
		w := graph.EventID{Thread: int(d.Varint()), Index: int(d.Varint())}
		edit(&r, &w)
		out := []byte{'S', 1}
		for _, v := range []int{r.Thread, r.Index, w.Thread, w.Index} {
			out = binary.AppendVarint(out, int64(v))
		}
		return append(out, d.Rest()...)
	})
}

// sortVisited puts the visited-key record of a checkpoint image in key
// order. The keys are a set — a run snapshots them in map iteration
// order — so two images of one interrupted run agree only up to that
// order.
func sortVisited(data []byte) []byte {
	return reframe(data, func(p []byte) []byte {
		if p[0] != 'V' {
			return p
		}
		d := frame.NewCursor(p[1:], "test")
		keys := make([]graph.Hash128, d.Count("key"))
		for i := range keys {
			keys[i] = d.Hash128()
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
		})
		out := binary.AppendUvarint([]byte{'V'}, uint64(len(keys)))
		for _, k := range keys {
			out = frame.AppendHash128(out, k)
		}
		return out
	})
}

func mcsClient() *vprog.Program {
	mcs := locks.ByName("mcs")
	return harness.MutexClient(mcs, mcs.DefaultSpec(), 2, 1)
}

// TestGoldenCheckpoint: checkpoint format v4 did not move. The files
// the parent's code wrote — mcs t=2 interrupted after 40 pops (two of
// its seven states carry a forced rf), and a two-worker dpdkmcs-buggy
// run interrupted while holding a violation front-runner — decode,
// re-encode byte for byte and resume to the uninterrupted verdicts; and
// this build's own 40-pop segment writes the golden bytes (the visited
// keys, a set, compared in sorted order).
func TestGoldenCheckpoint(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_mcs_t2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.DecodeCheckpoint(golden)
	if err != nil {
		t.Fatalf("golden mcs checkpoint: %v", err)
	}
	if ck.Model != "wmm" || ck.Popped != 40 || ck.Stats.Popped != 40 || ck.FrontierLen() != 7 || !bytes.Equal(ck.Encode(), golden) {
		t.Fatalf("golden mcs checkpoint decoded to model %q, %d popped, %d states, re-encoding equal: %v",
			ck.Model, ck.Popped, ck.FrontierLen(), bytes.Equal(ck.Encode(), golden))
	}
	c := core.New(mm.WMM)
	c.Budget = core.Budget{MaxGraphs: 40}
	if seg := c.Run(mcsClient()); seg.Checkpoint == nil || !bytes.Equal(sortVisited(seg.Checkpoint.Encode()), sortVisited(golden)) {
		t.Fatal("this build's 40-pop segment of mcs t=2 does not encode to the golden bytes")
	}
	base := run(t, mm.WMM, mcsClient(), 1, false)
	c = core.New(mm.WMM)
	c.Resume = ck
	if res := c.Run(mcsClient()); res.Verdict != core.OK || res.Stats != base.Stats {
		t.Fatalf("resumed golden mcs checkpoint: %v %+v, uninterrupted %+v", res.Verdict, res.Stats, base.Stats)
	}

	golden, err = os.ReadFile("testdata/golden_dpdkmcs_vio.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if ck, err = core.DecodeCheckpoint(golden); err != nil || !bytes.Equal(ck.Encode(), golden) {
		t.Fatalf("golden dpdkmcs-buggy checkpoint: decode %v, or re-encoding differs", err)
	}
	dpdk := locks.ByName("dpdkmcs-buggy")
	bug := harness.MutexClient(dpdk, dpdk.DefaultSpec(), 2, 1)
	want := run(t, mm.WMM, bug, 2, false)
	c = core.New(mm.WMM)
	c.WorkersPerRun = 2
	c.Resume = ck
	if res := c.Run(bug); res.Verdict != core.ATViolation || witnessKey(res) != witnessKey(want) {
		t.Fatalf("resumed golden dpdkmcs-buggy checkpoint: %v (%v), witness %x, want %x",
			res.Verdict, res.Err, witnessKey(res), witnessKey(want))
	}
}

// TestResumeRefusesMisfitStates: a checkpoint that decodes — valid CRCs,
// valid graphs, this program's fingerprint — but whose frontier does not
// fit the program is an Error verdict, never a panic. The first case
// (a forced read in thread 99) used to index the symmetry tables out of
// range on the resumed run's first pop.
func TestResumeRefusesMisfitStates(t *testing.T) {
	data := interruptedCheckpoint(t).Encode()
	ticket := locks.ByName("ticket")
	cases := []struct {
		name string
		data []byte
		prog *vprog.Program
	}{
		{"forced read in thread 99", forceState(data, func(r, w *graph.EventID) { r.Thread = 99 }), mcsClient()},
		{"forced read at index -1", forceState(data, func(r, w *graph.EventID) { r.Index = -1 }), mcsClient()},
		{"forced read past the next event", forceState(data, func(r, w *graph.EventID) { r.Index++ }), mcsClient()},
		{"dangling forced source", forceState(data, func(r, w *graph.EventID) { w.Index = 57 }), mcsClient()},
		{"another program's frontier", data, harness.MutexClient(ticket, ticket.DefaultSpec(), 2, 1)},
	}
	for _, tc := range cases {
		if tc.prog != cases[len(cases)-1].prog && bytes.Equal(tc.data, data) {
			t.Fatalf("%s: the interrupted run holds no forced state to damage", tc.name)
		}
		ck, err := core.DecodeCheckpoint(tc.data)
		if err != nil {
			t.Fatalf("%s: the crafted image must decode: %v", tc.name, err)
		}
		ck.Prog = tc.prog.Fingerprint128() // what a forged header would claim
		c := core.New(mm.WMM)
		c.Resume = ck
		res := c.Run(tc.prog)
		if res.Verdict != core.Error || res.Err == nil || !strings.Contains(res.Err.Error(), "does not fit this program") {
			t.Errorf("%s: %v (%v), want an error naming the state that does not fit", tc.name, res.Verdict, res.Err)
		}
	}
}

// FuzzDecodeCheckpoint: any bytes as a checkpoint file either fail to
// decode, or decode to a checkpoint that re-encodes to the same bytes
// and resumes against the program it names to a verdict — Error
// included — never a panic. Every input is tried as it is and with its
// record CRCs recomputed, so mutations reach the decoder and the resume
// path rather than dying at the checksum.
func FuzzDecodeCheckpoint(f *testing.F) {
	progs := map[graph.Hash128]*vprog.Program{}
	for _, p := range ckptCorpus() {
		progs[p.Fingerprint128()] = p
		c := core.New(mm.WMM)
		c.Budget = core.Budget{MaxGraphs: 5}
		res := c.Run(p)
		if res.Checkpoint == nil {
			continue // decided within the budget
		}
		data := res.Checkpoint.Encode()
		f.Add(data)
		f.Add(data[:len(data)*2/3])
		flip := append([]byte(nil), data...)
		flip[len(flip)/2] ^= 0x04
		f.Add(flip)
		f.Add(forceState(data, func(r, w *graph.EventID) { r.Thread = 99 }))
		// A trailing byte in every record, then a damaged byte inside
		// every graph.
		f.Add(reframe(data, func(p []byte) []byte { return append(p[:len(p):len(p)], 0) }))
		f.Add(reframe(data, func(p []byte) []byte {
			q := append([]byte(nil), p...)
			q[len(q)*3/4] ^= 0x01
			return q
		}))
	}
	for _, name := range []string{"golden_mcs_t2.ckpt", "golden_dpdkmcs_vio.ckpt"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	models := map[string]mm.Model{}
	for _, m := range allModels {
		models[m.Name()] = m
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, reframe(data, func(p []byte) []byte { return p })} {
			ck, err := core.DecodeCheckpoint(img)
			if err != nil {
				continue
			}
			if !bytes.Equal(ck.Encode(), img) {
				t.Fatalf("a decoded checkpoint re-encodes to different bytes")
			}
			p, model := progs[ck.Prog], models[ck.Model]
			if p == nil || model == nil {
				continue
			}
			c := core.New(model)
			c.Resume = ck
			c.Budget = core.Budget{MaxGraphs: 2000}
			done := make(chan struct{})
			go func() {
				defer close(done)
				c.Run(p)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("resuming a decoded checkpoint of %s did not end", p.Name)
			}
		}
	})
}
