package index

import (
	"testing"

	"repro/internal/corpus"
)

// TestFromListsRejects proves the validation on untrusted parts. The
// accepted path's store-level oracle is TestIndexListsEquivalence in
// internal/store.
func TestFromListsRejects(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	built := Build(gt.DB)
	good := ListParts{UniqueOrds: built.uniqueOrds, TriggerCount: built.triggerCount}
	if _, err := FromLists(gt.DB, &good); err != nil {
		t.Fatalf("FromLists rejected well-formed parts: %v", err)
	}

	bad := good
	counts := toInts(built.triggerCount)
	bad.TriggerCount = Ords(counts[:len(counts)-1])
	if _, err := FromLists(gt.DB, &bad); err == nil {
		t.Fatal("FromLists accepted a short TriggerCount")
	}

	bad = good
	bad.UniqueOrds = Ords(append(append([]int(nil), toInts(built.uniqueOrds)...), len(gt.DB.Errata())))
	if _, err := FromLists(gt.DB, &bad); err == nil {
		t.Fatal("FromLists accepted an out-of-range ordinal")
	}
}

// TestKeyListNoAlloc pins the zero-allocation contract of the hot-path
// accessors the serving layer stitches responses with.
func TestKeyListNoAlloc(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(gt.DB)
	key := gt.DB.Unique()[0].Key
	if got := testing.AllocsPerRun(100, func() {
		ords := ix.KeyList(key)
		for i, n := 0, ords.Len(); i < n; i++ {
			_ = ix.Entry(ords.At(i))
		}
	}); got != 0 {
		t.Fatalf("KeyList/Entry allocate %v per run, want 0", got)
	}
}
