package core_test

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/structs"
	"repro/internal/workload"
)

// TestCheckpointMidRetryRoundTrip: the await-construct instance of the
// crash-safety bar. With MaxGraphs=1 every popped state is its own
// segment, so budget boundaries necessarily land inside CAS retry
// loops — frontier graphs whose trailing events carry AwaitSeq /
// AwaitIter tags — and each intermediate checkpoint travels through
// Encode/Decode before resuming. The segmented runs must reproduce the
// uninterrupted runs exactly, stats to the last counter, which they can
// only do if the in-await iteration state (spans recomputed from the
// decoded graphs' await tags) survives the boundary: the retry-free
// collapse, the W(G) filter, and the ⊥ gate all key off it.
func TestCheckpointMidRetryRoundTrip(t *testing.T) {
	for _, w := range []workload.Workload{structs.Treiber(1), structs.MSQueue(1)} {
		p := workload.Program(w, nil, 2)
		base := run(t, mm.WMM, p, 1, false)
		if base.Stats.Collapsed == 0 {
			t.Fatalf("%s: no collapsed retries at t=2 — the corpus no longer crosses budget boundaries mid-retry", p.Name)
		}
		for _, bg := range []int64{1, 7} {
			res, segs := runSegmented(t, mm.WMM, p, 1, core.Budget{MaxGraphs: bg}, true)
			if res.Verdict != base.Verdict {
				t.Fatalf("%s budget=%d: verdict %v, uninterrupted run says %v", p.Name, bg, res.Verdict, base.Verdict)
			}
			if res.Stats != base.Stats {
				t.Fatalf("%s budget=%d (%d segments): stats diverged\nsegmented:     %+v\nuninterrupted: %+v",
					p.Name, bg, segs, res.Stats, base.Stats)
			}
		}
	}
}

// TestCheckpointRejectsForeignVersion: a checkpoint from another format
// version must be refused by the version check itself — the image below
// is re-framed with a correct CRC, so nothing else can catch it. (Torn
// and bit-flipped images are TestCheckpointDecodeRejectsDamage's job;
// here the frame is pristine and only the declared version lies.)
func TestCheckpointRejectsForeignVersion(t *testing.T) {
	data := interruptedCheckpoint(t).Encode()
	// Layout: [4B magic][4B payload len LE][payload][4B CRC(payload)],
	// payload = [type byte][version byte]... for the header record.
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	mut := append([]byte(nil), data...)
	mut[9] ^= 0x40 // version byte: second byte of the header payload
	binary.LittleEndian.PutUint32(mut[8+n:12+n], crc32.ChecksumIEEE(mut[8:8+n]))
	_, err := core.DecodeCheckpoint(mut)
	if err == nil {
		t.Fatal("checkpoint with a foreign format version decoded")
	}
	if !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("refusal %v does not name the version mismatch", err)
	}
}
