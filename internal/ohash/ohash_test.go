package ohash

import (
	"math/rand"
	"testing"
)

func TestMix3SpreadsLowBits(t *testing.T) {
	// Sequential keys must not collide excessively in the low bits — that is
	// the whole point of the finalizer for power-of-two tables.
	const buckets = 1 << 10
	seen := make(map[uint32]int)
	for i := uint32(0); i < buckets; i++ {
		seen[Mix3(i, i*2, i*3)&(buckets-1)]++
	}
	max := 0
	for _, c := range seen {
		if c > max {
			max = c
		}
	}
	if max > 8 {
		t.Fatalf("worst bucket holds %d of %d sequential keys", max, buckets)
	}
}

func TestProbeCoversTable(t *testing.T) {
	// A probe sequence must visit every slot exactly once per wrap.
	const buckets = 64
	visited := make(map[uint32]bool)
	p := newProbe(0xdeadbeef, buckets)
	for i := 0; i < buckets; i++ {
		if visited[p.slot()] {
			t.Fatalf("slot %d revisited after %d steps", p.slot(), i)
		}
		visited[p.slot()] = true
		p.advance()
	}
	if len(visited) != buckets {
		t.Fatalf("visited %d of %d slots", len(visited), buckets)
	}
}

func TestShouldGrowThreshold(t *testing.T) {
	cases := []struct {
		entries, buckets int
		want             bool
	}{
		{0, 16, false},
		{11, 16, false}, // 11/16 < 3/4
		{12, 16, true},  // exactly 3/4
		{767, 1024, false},
		{768, 1024, true},
	}
	for _, c := range cases {
		if got := shouldGrow(c.entries, c.buckets); got != c.want {
			t.Errorf("shouldGrow(%d,%d) = %v, want %v", c.entries, c.buckets, got, c.want)
		}
	}
}

// TestTableRehashUnderLoad drives a Table through many growth cycles with
// adversarially colliding hashes and asserts no ref is lost, no lookup
// false-positives, and the load factor stays under the growth threshold.
func TestTableRehashUnderLoad(t *testing.T) {
	const n = 20_000
	keys := make([]uint64, n)
	r := rand.New(rand.NewSource(42))
	for i := range keys {
		keys[i] = r.Uint64()
	}
	// Adversarial hash: only 1<<14 distinct hash values for 20k keys, so
	// probe chains collide heavily and every grow must preserve chain
	// integrity.
	hashKey := func(k uint64) uint32 { return uint32(k) & 0x3fff }
	tab := NewTable(0, func(ref int32) uint32 { return hashKey(keys[ref]) })
	startCap := tab.Cap()
	for i := 0; i < n; i++ {
		h := hashKey(keys[i])
		eq := func(ref int32) bool { return keys[ref] == keys[i] }
		if got, ok := tab.Lookup(h, eq); ok {
			// Random 64-bit keys: duplicates are astronomically unlikely, so
			// a hit before insert is a table bug.
			t.Fatalf("ref %d found before insertion (got %d)", i, got)
		}
		tab.Insert(h, int32(i))
	}
	if tab.Len() != n {
		t.Fatalf("table holds %d entries, want %d", tab.Len(), n)
	}
	if tab.Cap() == startCap {
		t.Fatalf("table never grew past %d buckets under %d inserts", startCap, n)
	}
	if shouldGrow(tab.Len(), tab.Cap()) {
		t.Fatalf("post-insert load %d/%d is at or past the growth threshold", tab.Len(), tab.Cap())
	}
	for i := 0; i < n; i++ {
		h := hashKey(keys[i])
		got, ok := tab.Lookup(h, func(ref int32) bool { return keys[ref] == keys[i] })
		if !ok || got != int32(i) {
			t.Fatalf("ref %d lost after rehashes (ok=%v got=%d)", i, ok, got)
		}
	}
	// Reset keeps capacity but drops the entries.
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Reset left %d entries", tab.Len())
	}
	if _, ok := tab.Lookup(hashKey(keys[0]), func(ref int32) bool { return true }); ok {
		t.Fatal("lookup hit after Reset")
	}
}
