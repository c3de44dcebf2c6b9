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
	p := NewProbe(0xdeadbeef, buckets)
	for i := 0; i < buckets; i++ {
		if visited[p.Slot()] {
			t.Fatalf("slot %d revisited after %d steps", p.Slot(), i)
		}
		visited[p.Slot()] = true
		p.Advance()
	}
	if len(visited) != buckets {
		t.Fatalf("visited %d of %d slots", len(visited), buckets)
	}
}

func TestShouldGrowThreshold(t *testing.T) {
	cases := []struct {
		entries, tombstones, buckets int
		want                         bool
	}{
		{0, 0, 16, false},
		{11, 0, 16, false}, // 11/16 < 3/4
		{12, 0, 16, true},  // exactly 3/4
		{8, 4, 16, true},   // tombstones count toward load
		{8, 3, 16, false},  // 11/16 again
		{767, 0, 1024, false},
		{768, 0, 1024, true},
	}
	for _, c := range cases {
		if got := ShouldGrow(c.entries, c.tombstones, c.buckets); got != c.want {
			t.Errorf("ShouldGrow(%d,%d,%d) = %v, want %v",
				c.entries, c.tombstones, c.buckets, got, c.want)
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
	if ShouldGrow(tab.Len(), 0, tab.Cap()) {
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

// TestTableChurnBoundedLoad is the tombstone-reuse regression: a steady
// delete-one/insert-one workload at constant live size must not grow the
// bucket array monotonically. With tombstone reuse on the insert probe
// path the table settles at a fixed capacity; without it every delete
// leaks a dead slot until ShouldGrow fires again and again.
func TestTableChurnBoundedLoad(t *testing.T) {
	const live = 4_000
	const churn = 200_000
	keys := make([]uint64, 0, live+churn)
	r := rand.New(rand.NewSource(7))
	hashKey := func(k uint64) uint32 { return uint32(k) }
	tab := NewTable(live, func(ref int32) uint32 { return hashKey(keys[ref]) })
	for i := 0; i < live; i++ {
		keys = append(keys, r.Uint64())
		tab.Insert(hashKey(keys[i]), int32(i))
	}
	settled := tab.Cap()
	oldest := 0
	for i := 0; i < churn; i++ {
		h := hashKey(keys[oldest])
		if !tab.Delete(h, func(ref int32) bool { return ref == int32(oldest) }) {
			t.Fatalf("churn %d: ref %d not found for delete", i, oldest)
		}
		if _, ok := tab.Lookup(h, func(ref int32) bool { return ref == int32(oldest) }); ok {
			t.Fatalf("churn %d: ref %d still visible after delete", i, oldest)
		}
		oldest++
		keys = append(keys, r.Uint64())
		ref := int32(len(keys) - 1)
		tab.Insert(hashKey(keys[ref]), ref)
	}
	if tab.Len() != live {
		t.Fatalf("live count drifted: %d, want %d", tab.Len(), live)
	}
	// The whole point: capacity is bounded by the live size, not the churn
	// volume. One doubling of slack over the settled size is acceptable
	// (tombstone-triggered compaction may briefly double before settling).
	if tab.Cap() > 2*settled {
		t.Fatalf("capacity grew monotonically under churn: settled %d, now %d", settled, tab.Cap())
	}
	if ShouldGrow(tab.Len(), tab.Tombstones(), tab.Cap()) {
		t.Fatalf("load %d+%d/%d at or past threshold after churn",
			tab.Len(), tab.Tombstones(), tab.Cap())
	}
	// Every live ref is still reachable.
	for i := oldest; i < len(keys); i++ {
		h := hashKey(keys[i])
		got, ok := tab.Lookup(h, func(ref int32) bool { return ref == int32(i) })
		if !ok || got != int32(i) {
			t.Fatalf("ref %d lost after churn (ok=%v got=%d)", i, ok, got)
		}
	}
}

// BenchmarkTableChurn measures the steady-state delete+insert pair on a
// table at constant live size — the workload tombstone reuse exists for.
func BenchmarkTableChurn(b *testing.B) {
	const live = 1 << 14
	keys := make([]uint64, live, live+1)
	r := rand.New(rand.NewSource(11))
	for i := range keys {
		keys[i] = r.Uint64()
	}
	hashKey := func(k uint64) uint32 { return uint32(k) }
	tab := NewTable(live, func(ref int32) uint32 { return hashKey(keys[ref%int32(len(keys))]) })
	for i := 0; i < live; i++ {
		tab.Insert(hashKey(keys[i]), int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := int32(i % live)
		h := hashKey(keys[victim])
		tab.Delete(h, func(ref int32) bool { return ref%int32(live) == victim })
		tab.Insert(h, victim+int32(live)*int32(i/live+1))
	}
	b.StopTimer()
	if got := tab.Cap(); got > 4*live {
		b.Fatalf("capacity %d blew past live size %d under churn", got, live)
	}
}
