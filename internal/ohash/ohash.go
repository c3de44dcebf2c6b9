// Package ohash holds the open-addressed hash-table mechanics shared by
// the BDD unique table (internal/bdd) and the AIG structural-hashing table
// (internal/aig): the level-tagged field mix, the power-of-two linear-probe
// sequence, and the 3/4-load growth rule. Both engines were measured
// against Go maps and won on exactly these ingredients (DESIGN.md §8), so
// they live here once — a probe or load-factor tweak cannot drift between
// the two tables.
//
// Two layers are exported. The primitive layer (Mix3, Probe, ShouldGrow)
// is for tables with bespoke lifecycles — the BDD unique table keeps its
// incremental old-table migration and composes these directly. The Table
// layer is a complete ref table for callers with simple lifecycles, such
// as the AIG strash: inserts, lookups and wholesale Reset. Neither layer
// deletes single entries, so there are no tombstones.
package ohash

// Mix3 hashes three 32-bit fields: distinct multiplicative mixes per
// field, finalized murmur-style. Power-of-two tables only use the low
// bits, so the finalizer matters.
func Mix3(a, b, c uint32) uint32 {
	h := a*0x9e3779b1 ^ b*0x85ebca6b ^ c*0xc2b2ae35
	h ^= h >> 15
	h *= 0x2c1b3c6d
	h ^= h >> 13
	return h
}

// Probe walks the linear probe sequence of a power-of-two table: the slot
// sequence h&mask, (h+1)&mask, … . The zero value is not usable; start
// with NewProbe.
type Probe struct {
	i, mask uint32
}

// NewProbe starts a probe sequence for hash h over a table of buckets
// slots. buckets must be a power of two.
func NewProbe(h uint32, buckets int) Probe {
	mask := uint32(buckets - 1)
	return Probe{i: h & mask, mask: mask}
}

// Slot returns the current bucket index.
func (p *Probe) Slot() uint32 { return p.i }

// Advance steps to the next bucket of the sequence.
func (p *Probe) Advance() { p.i = (p.i + 1) & p.mask }

// ShouldGrow reports whether a power-of-two open-addressed table holding
// entries occupied slots should double. The threshold is 3/4 — past it,
// linear-probe clustering makes chains grow sharply.
func ShouldGrow(entries, buckets int) bool {
	return entries*4 >= buckets*3
}

// Table is a complete open-addressed table of non-negative int32 refs,
// keyed by caller-supplied hashes. The caller keeps the keyed data (a ref
// is typically an index into its own node pool) and supplies hashOf so the
// table can rehash itself on growth. Callers that invalidate refs
// wholesale (an AIG sweep renumbering nodes) Reset and reinsert.
type Table struct {
	slots   []int32 // empty slots hold emptySlot
	entries int
	hashOf  func(ref int32) uint32
}

// emptySlot marks an unoccupied bucket. Refs are non-negative.
const emptySlot = int32(-1)

// NewTable creates a table sized for at least capHint entries (minimum 1<<8
// buckets). hashOf must return the same hash Insert was given for the ref.
func NewTable(capHint int, hashOf func(ref int32) uint32) *Table {
	buckets := 1 << 8
	for ShouldGrow(capHint, buckets) {
		buckets *= 2
	}
	t := &Table{slots: make([]int32, buckets), hashOf: hashOf}
	for i := range t.slots {
		t.slots[i] = emptySlot
	}
	return t
}

// Lookup probes for a ref whose key matches, per the caller's eq predicate,
// among refs stored under hash h. The chain terminates at an empty slot.
func (t *Table) Lookup(h uint32, eq func(ref int32) bool) (int32, bool) {
	for p := NewProbe(h, len(t.slots)); ; p.Advance() {
		r := t.slots[p.Slot()]
		if r == emptySlot {
			return 0, false
		}
		if eq(r) {
			return r, true
		}
	}
}

// Insert stores ref under hash h. The caller guarantees the ref is not
// already present (Lookup first). The table doubles per ShouldGrow,
// rehashing every entry through hashOf.
func (t *Table) Insert(h uint32, ref int32) {
	if ShouldGrow(t.entries+1, len(t.slots)) {
		t.grow()
	}
	t.place(h, ref)
	t.entries++
}

// place stores ref in the first empty slot of its probe path.
func (t *Table) place(h uint32, ref int32) {
	p := NewProbe(h, len(t.slots))
	for t.slots[p.Slot()] != emptySlot {
		p.Advance()
	}
	t.slots[p.Slot()] = ref
}

// grow doubles the bucket array and reinserts every ref.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]int32, 2*len(old))
	for i := range t.slots {
		t.slots[i] = emptySlot
	}
	for _, r := range old {
		if r >= 0 {
			t.place(t.hashOf(r), r)
		}
	}
}

// Len returns the number of stored refs.
func (t *Table) Len() int { return t.entries }

// Cap returns the bucket count.
func (t *Table) Cap() int { return len(t.slots) }

// Load returns the current load factor.
func (t *Table) Load() float64 {
	if len(t.slots) == 0 {
		return 0
	}
	return float64(t.entries) / float64(len(t.slots))
}

// Reset empties the table, keeping the bucket array.
func (t *Table) Reset() {
	for i := range t.slots {
		t.slots[i] = emptySlot
	}
	t.entries = 0
}
