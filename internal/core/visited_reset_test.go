package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestVisitedResetDropsOversizedShards: emptying a set for the pool
// keeps the storage of a shard map that held up to visitedKeep keys and
// replaces one that held more by a fresh map, so a big run's maps do
// not follow the set into every later run.
func TestVisitedResetDropsOversizedShards(t *testing.T) {
	v := &VisitedSet{}
	for i := range v.shards {
		v.shards[i].m = make(map[graph.Hash128]struct{})
	}
	// The low bits of the second word pick the shard: shard 0 is filled
	// one key past the bound, shard 1 exactly to it.
	for i := 0; i <= visitedKeep; i++ {
		v.InsertNew(graph.Hash128{uint64(i), uint64(i) * visitedShards})
		if i < visitedKeep {
			v.InsertNew(graph.Hash128{uint64(i), uint64(i)*visitedShards + 1})
		}
	}
	identity := func(i int) uintptr { return reflect.ValueOf(v.shards[i].m).Pointer() }
	big, kept, untouched := identity(0), identity(1), identity(2)
	if n := len(v.shards[0].m); n != visitedKeep+1 {
		t.Fatalf("shard 0 holds %d keys, want %d", n, visitedKeep+1)
	}

	v.reset()
	if v.Len() != 0 {
		t.Fatalf("a reset set holds %d keys", v.Len())
	}
	if identity(0) == big {
		t.Error("the shard map that held more than visitedKeep keys was kept")
	}
	if identity(1) != kept || identity(2) != untouched {
		t.Error("a shard map within visitedKeep keys was replaced, not cleared")
	}
	if !v.InsertNew(graph.Hash128{1, visitedShards}) || !v.Has(graph.Hash128{1, visitedShards}) {
		t.Fatal("the fresh shard map does not take a key")
	}
}
