// Package bdd implements reduced ordered binary decision diagrams with a
// unique table and computed-table caching. It is the substrate for implicit
// state enumeration (internal/reach) and product-machine sequential
// equivalence checking (internal/seqverify) — the machinery the paper's
// baseline flow uses to extract unreachable-state don't cares, and that the
// paper pointedly avoids needing for its own DCret computation.
//
// Following the classic efficient-implementation literature (Brace/Rudell/
// Bryant's ITE package, Somenzi's CUDD), the tables are engineered rather
// than delegated to Go maps and laid out so a lookup touches about one cache
// line: the unique table chains through a link field in each 16-byte node
// from a power-of-two array of bucket heads, and the computed table is a
// bounded direct-mapped lossy cache of 16-byte entries. DESIGN.md §8
// records the measurements.
//
// A Manager is single-threaded. Reset empties one and keeps its grown pool
// and tables, so a reused manager gives out the refs and Stats of a fresh
// one without allocating them again. internal/reach is the only package
// that makes managers: it keeps a free list of them, and whoever asked for
// an analysis hands its manager back with reach.Analysis.Release once it
// is done with the analysis's BDDs.
package bdd

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/ohash"
)

// Ref is a node reference. 0 and 1 are the terminal constants.
type Ref int32

const (
	// False is the constant-0 BDD.
	False Ref = 0
	// True is the constant-1 BDD.
	True Ref = 1
)

// node is one pool entry: the (level, lo, hi) triple plus next, the link to
// the following node of its unique-table chain (0 ends the chain; terminals
// are never chained). 16 bytes, four to a cache line.
type node struct {
	level  int32 // variable index; terminals use a sentinel level
	lo, hi Ref
	next   Ref
}

const (
	opIte byte = iota
	opExists
	opAndExists
	opPermute
)

// cacheEntry is one direct-mapped computed-table slot. The full key is
// stored so a colliding probe never returns a wrong result — collisions
// overwrite (lossy), they do not chain. The op lives in the key (see
// cacheKey) and f == 0 marks an empty slot: no cached op has a terminal f.
// 16 bytes, so an entry never straddles a cache line.
type cacheEntry struct {
	f, g, h Ref
	r       Ref
}

const (
	// initialTableSize is the starting unique-table bucket count, and
	// initialPoolSize the starting node-pool capacity.
	initialTableSize = 1 << 10
	initialPoolSize  = 1 << 12
	// initialCacheSize / maxCacheSize bound the computed table. The cache
	// starts small so short-lived managers stay cheap and quadruples up to
	// the cap as it fills; entries are carried over on growth.
	initialCacheSize = 1 << 9
	maxCacheSize     = 1 << 19
)

// Manager owns the node pool and caches. NumVars is fixed at construction.
type Manager struct {
	numVars int
	nodes   []node

	// Variable order: node levels index positions in the order, not
	// variables. var2level[v] is the level holding variable v; level2var is
	// its inverse. The identity order reproduces the historical layout;
	// SetOrder installs a static order before the first node is built.
	var2level []int
	level2var []int

	// Unique table: a power-of-two array of chain heads (0 = empty
	// bucket), chained through node.next and kept at load ≤ 1. Nodes are
	// never deleted; when the node count passes the bucket count the array
	// doubles and every node is relinked in one sequential pass (rehash).
	table    []Ref
	rehashes int

	// Computed table: direct-mapped lossy cache over (op, f, g, h),
	// quadrupling up to cacheCap slots (maxCacheSize; tests shrink it).
	// spare is the buffer the next quadrupling carries entries into: the
	// one the previous quadrupling left, or one kept across Reset.
	cache     []cacheEntry
	spare     []cacheEntry
	cacheUsed int
	cacheCap  int

	// perms holds the distinct permutations seen by Permute, content-
	// addressed via permTags so cache entries tagged with a perm index can
	// never be reinterpreted under a different permutation.
	perms    [][]int
	permTags map[string]Ref

	// visited/visitEpoch implement O(1)-reset DFS marking for NodeCount.
	// The epoch only ever rises while visited is kept, Reset included, so
	// no stale mark can equal a new epoch.
	visited    []uint32
	visitEpoch uint32

	// MaxNodes optionally bounds growth; Ite panics with ErrNodeLimit
	// beyond it (callers recover to fall back gracefully).
	MaxNodes int
	// cacheHits/cacheMisses account computed-table effectiveness across
	// all cached operations (Ite, Exists, AndExists, Permute).
	cacheHits, cacheMisses int64
}

// Stats is a snapshot of the manager's table accounting. Nodes are never
// freed (no garbage collection), so PeakNodes equals Nodes.
type Stats struct {
	NumVars     int
	Nodes       int // live node count, including the two terminals
	PeakNodes   int
	UniqueSize  int     // unique-table entries (internal nodes)
	UniqueCap   int     // unique-table bucket count
	UniqueLoad  float64 // entries / buckets (at most 1)
	Rehashes    int     // bucket-array doublings
	CacheSize   int     // occupied computed-table slots
	CacheCap    int     // computed-table slot count
	CacheHits   int64
	CacheMisses int64
}

// Stats returns the current table accounting.
func (m *Manager) Stats() Stats {
	return Stats{
		NumVars:     m.numVars,
		Nodes:       len(m.nodes),
		PeakNodes:   len(m.nodes),
		UniqueSize:  len(m.nodes) - 2,
		UniqueCap:   len(m.table),
		UniqueLoad:  float64(len(m.nodes)-2) / float64(len(m.table)),
		Rehashes:    m.rehashes,
		CacheSize:   m.cacheUsed,
		CacheCap:    len(m.cache),
		CacheHits:   m.cacheHits,
		CacheMisses: m.cacheMisses,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d unique=%d/%d(load %.2f, %d rehashes) cache=%d/%d hits=%d misses=%d",
		s.Nodes, s.UniqueSize, s.UniqueCap, s.UniqueLoad, s.Rehashes,
		s.CacheSize, s.CacheCap, s.CacheHits, s.CacheMisses)
}

// ErrNodeLimit is the panic value raised when MaxNodes is exceeded.
var ErrNodeLimit = fmt.Errorf("bdd: node limit exceeded")

const terminalLevel = int32(1) << 30

// New creates a manager for n variables. The node pool and both tables are
// preallocated so early operations never pay growth stalls. The initial
// variable order is the identity (variable v at level v).
func New(n int) *Manager {
	m := new(Manager)
	m.Reset(n)
	return m
}

// Reset empties the manager for n variables and leaves exactly the state
// New(n) returns: the two terminals, the identity order, the initial
// bucket-array and computed-table sizes, zero Stats and MaxNodes 0. Every
// ref and Stats value a reset manager gives out afterwards equals a fresh
// manager's. It keeps the capacity of the node pool, the bucket array, both
// computed-table buffers, the NodeCount marks and the permutation tags, so
// a reused manager grows again without allocating. Refs from before the
// Reset are meaningless after it.
func (m *Manager) Reset(n int) {
	m.numVars = n
	m.nodes = m.nodes[:0]
	if cap(m.nodes) < initialPoolSize {
		m.nodes = make([]node, 0, initialPoolSize)
	}
	m.nodes = append(m.nodes, node{level: terminalLevel}, node{level: terminalLevel}) // False, True
	m.var2level = resize(m.var2level, n)
	m.level2var = resize(m.level2var, n)
	for v := 0; v < n; v++ {
		m.var2level[v] = v
		m.level2var[v] = v
	}
	m.table = resize(m.table, initialTableSize)
	m.rehashes = 0
	// Each quadrupling moves the cache to the other buffer, so the buffer
	// that held size initialCacheSize·4^k last time is the one that must
	// hold it again: start in the cache after an even number of
	// quadruplings, in the spare after an odd one. A manager that grows as
	// far as before then finds every size in a buffer that already has it.
	for c := len(m.cache); c > initialCacheSize; c /= 4 {
		m.cache, m.spare = m.spare, m.cache
	}
	m.cache = resize(m.cache, initialCacheSize)
	m.cacheUsed = 0
	m.cacheCap = maxCacheSize
	m.perms = m.perms[:0]
	clear(m.permTags)
	m.MaxNodes = 0
	m.cacheHits, m.cacheMisses = 0, 0
}

// resize returns s at length n with every element zero, in s's backing
// array when its capacity suffices.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetOrder installs a static variable order: order[k] is the variable
// placed at level k (level 0 is the root). It must be a permutation of
// [0, NumVars) and must be called before any non-terminal node exists —
// typically right after New, once the caller has derived an order from
// problem structure.
func (m *Manager) SetOrder(order []int) {
	if len(m.nodes) != 2 {
		panic("bdd: SetOrder after nodes were created")
	}
	if len(order) != m.numVars {
		panic(fmt.Sprintf("bdd: SetOrder with %d entries for %d variables", len(order), m.numVars))
	}
	seen := make([]bool, m.numVars)
	for lvl, v := range order {
		if v < 0 || v >= m.numVars || seen[v] {
			panic(fmt.Sprintf("bdd: SetOrder order is not a permutation (entry %d = %d)", lvl, v))
		}
		seen[v] = true
		m.level2var[lvl] = v
		m.var2level[v] = lvl
	}
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the number of live nodes (including terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// hash3 is the level-tagged node hash, the mix the AIG strash table
// shares through internal/ohash.
func hash3(level int32, lo, hi Ref) uint32 {
	return ohash.Mix3(uint32(level), uint32(lo), uint32(hi))
}

func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	head := &m.table[hash3(level, lo, hi)&uint32(len(m.table)-1)]
	for r := *head; r != 0; {
		n := &m.nodes[r]
		if n.level == level && n.lo == lo && n.hi == hi {
			return r
		}
		r = n.next
	}
	if m.MaxNodes > 0 && len(m.nodes) >= m.MaxNodes {
		panic(ErrNodeLimit)
	}
	if len(m.nodes) == cap(m.nodes) {
		m.growPool()
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi, next: *head})
	*head = r
	if len(m.nodes)-2 > len(m.table) {
		m.rehash()
	}
	return r
}

// growPool doubles the node pool's capacity, never past MaxNodes: the
// limit check in mk runs first, so a pool at the limit never grows.
func (m *Manager) growPool() {
	c := 2 * cap(m.nodes)
	if m.MaxNodes > 0 && c > m.MaxNodes {
		c = m.MaxNodes
	}
	nodes := make([]node, len(m.nodes), c)
	copy(nodes, m.nodes)
	m.nodes = nodes
}

// rehash doubles the bucket array and relinks every node in one
// sequential pass over the pool. Refs do not move, so no caller sees it.
func (m *Manager) rehash() {
	m.table = resize(m.table, 2*len(m.table))
	mask := uint32(len(m.table) - 1)
	for r := 2; r < len(m.nodes); r++ {
		n := &m.nodes[r]
		head := &m.table[hash3(n.level, n.lo, n.hi)&mask]
		n.next = *head
		*head = Ref(r)
	}
	m.rehashes++
}

// cacheIndex hashes a computed-table key into the direct-mapped cache.
func (m *Manager) cacheIndex(op byte, f, g, h Ref) uint32 {
	x := uint32(f)*0x9e3779b1 ^ uint32(g)*0x85ebca6b ^ uint32(h)*0xc2b2ae35 ^ uint32(op)*0x27d4eb2f
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	return x & uint32(len(m.cache)-1)
}

// cacheKey folds the op into the three stored key fields by sign-tagging a
// field the op leaves free, so no Ref range is given up: Ite stores
// (f, g, h) with every field ≥ 0, Exists (f, cube, -1), Permute
// (f, tag, -2) and AndExists (f, -g, cube) with g ≥ 2. opOf inverts it.
func cacheKey(op byte, f, g, h Ref) (Ref, Ref, Ref) {
	switch op {
	case opExists:
		return f, g, -1
	case opPermute:
		return f, g, -2
	case opAndExists:
		return f, -g, h
	}
	return f, g, h
}

// opOf recovers the op and operands of a stored entry.
func opOf(e *cacheEntry) (op byte, f, g, h Ref) {
	switch {
	case e.h == -1:
		return opExists, e.f, e.g, 0
	case e.h == -2:
		return opPermute, e.f, e.g, 0
	case e.g < 0:
		return opAndExists, e.f, -e.g, e.h
	}
	return opIte, e.f, e.g, e.h
}

// cacheGet probes the computed table, accounting hits and misses.
func (m *Manager) cacheGet(op byte, f, g, h Ref) (Ref, bool) {
	e := &m.cache[m.cacheIndex(op, f, g, h)]
	if kf, kg, kh := cacheKey(op, f, g, h); e.f == kf && e.g == kg && e.h == kh {
		m.cacheHits++
		return e.r, true
	}
	m.cacheMisses++
	return 0, false
}

// cachePut stores a result, overwriting whatever occupied the slot (lossy
// direct-mapped replacement). When the cache is 3/4 occupied and below the
// cap it quadruples, carrying surviving entries over into the spare buffer
// when that is large enough; the outgrown buffer becomes the spare.
func (m *Manager) cachePut(op byte, f, g, h, r Ref) {
	e := &m.cache[m.cacheIndex(op, f, g, h)]
	if e.f == 0 {
		m.cacheUsed++
	}
	kf, kg, kh := cacheKey(op, f, g, h)
	*e = cacheEntry{f: kf, g: kg, h: kh, r: r}
	if m.cacheUsed*4 >= len(m.cache)*3 && len(m.cache) < m.cacheCap {
		old := m.cache
		m.cache, m.spare = resize(m.spare, 4*len(old)), old
		m.cacheUsed = 0
		for i := range old {
			if old[i].f == 0 {
				continue
			}
			ne := &m.cache[m.cacheIndex(opOf(&old[i]))]
			if ne.f == 0 {
				m.cacheUsed++
			}
			*ne = old[i]
		}
	}
}

// NodeCount returns the number of distinct internal nodes reachable from f
// (the size of f's DAG, excluding terminals).
func (m *Manager) NodeCount(f Ref) int {
	if f == True || f == False {
		return 0
	}
	if len(m.visited) < len(m.nodes) {
		m.visited = make([]uint32, len(m.nodes)+len(m.nodes)/2)
		m.visitEpoch = 0
	}
	m.visitEpoch++
	epoch := m.visitEpoch
	count := 0
	var walk func(Ref)
	walk = func(g Ref) {
		if g == True || g == False || m.visited[g] == epoch {
			return
		}
		m.visited[g] = epoch
		count++
		n := m.nodes[g]
		walk(n.lo)
		walk(n.hi)
	}
	walk(f)
	return count
}

// Var returns the BDD of variable v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return m.mk(int32(m.var2level[v]), False, True)
}

// NVar returns the BDD of ¬v.
func (m *Manager) NVar(v int) Ref {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return m.mk(int32(m.var2level[v]), True, False)
}

func (m *Manager) level(f Ref) int32 { return m.nodes[f].level }

// Ite computes if-then-else(f, g, h), the universal connective.
func (m *Manager) Ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if r, ok := m.cacheGet(opIte, f, g, h); ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofs(f, top)
	g0, g1 := m.cofs(g, top)
	h0, h1 := m.cofs(h, top)
	lo := m.Ite(f0, g0, h0)
	hi := m.Ite(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.cachePut(opIte, f, g, h, r)
	return r
}

func (m *Manager) cofs(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// And computes f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.Ite(f, g, False) }

// Or computes f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.Ite(f, True, g) }

// Not computes ¬f.
func (m *Manager) Not(f Ref) Ref { return m.Ite(f, False, True) }

// Xor computes f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.Ite(f, m.Not(g), g) }

// Xnor computes f ↔ g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.Ite(f, g, m.Not(g)) }

// Exists existentially quantifies the variables marked true in vars.
func (m *Manager) Exists(f Ref, vars []bool) Ref {
	cube := m.varsCube(vars)
	return m.exists(f, cube)
}

// varsCube builds a positive cube over the marked variables, used as the
// quantification schedule and as a cache tag. Cubes are canonical BDDs, so
// two quantifications over the same variable set share cache entries and
// can never alias entries of a different cube. The cube is assembled in
// level order (bottom-up), so it stays canonical under any variable order.
func (m *Manager) varsCube(vars []bool) Ref {
	cube := True
	for lvl := m.numVars - 1; lvl >= 0; lvl-- {
		if v := m.level2var[lvl]; v < len(vars) && vars[v] {
			cube = m.mk(int32(lvl), False, cube)
		}
	}
	return cube
}

func (m *Manager) exists(f, cube Ref) Ref {
	if f == True || f == False || cube == True {
		return f
	}
	if r, ok := m.cacheGet(opExists, f, cube, 0); ok {
		return r
	}
	fl := m.level(f)
	// Skip cube vars above f's top.
	c := cube
	for m.level(c) < fl {
		c = m.nodes[c].hi
	}
	if c == True {
		m.cachePut(opExists, f, cube, 0, f)
		return f
	}
	n := m.nodes[f]
	var r Ref
	if m.level(c) == fl {
		// Quantify this variable: OR of cofactors.
		lo := m.exists(n.lo, m.nodes[c].hi)
		hi := m.exists(n.hi, m.nodes[c].hi)
		r = m.Or(lo, hi)
	} else {
		lo := m.exists(n.lo, c)
		hi := m.exists(n.hi, c)
		r = m.mk(fl, lo, hi)
	}
	m.cachePut(opExists, f, cube, 0, r)
	return r
}

// AndExists computes ∃vars (f ∧ g) without building the full conjunction —
// the relational-product kernel of image computation.
func (m *Manager) AndExists(f, g Ref, vars []bool) Ref {
	cube := m.varsCube(vars)
	return m.andExists(f, g, cube)
}

func (m *Manager) andExists(f, g, cube Ref) Ref {
	if f == False || g == False {
		return False
	}
	if f == True && g == True {
		return True
	}
	if cube == True {
		return m.And(f, g)
	}
	if f == True {
		return m.exists(g, cube)
	}
	if g == True {
		return m.exists(f, cube)
	}
	if f == g {
		return m.exists(f, cube)
	}
	if f > g {
		f, g = g, f // ∧ is commutative: canonical order doubles cache reach
	}
	if r, ok := m.cacheGet(opAndExists, f, g, cube); ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	c := cube
	for m.level(c) < top {
		c = m.nodes[c].hi
	}
	f0, f1 := m.cofs(f, top)
	g0, g1 := m.cofs(g, top)
	var r Ref
	if c != True && m.level(c) == top {
		lo := m.andExists(f0, g0, m.nodes[c].hi)
		hi := m.andExists(f1, g1, m.nodes[c].hi)
		r = m.Or(lo, hi)
	} else {
		lo := m.andExists(f0, g0, c)
		hi := m.andExists(f1, g1, c)
		r = m.mk(top, lo, hi)
	}
	m.cachePut(opAndExists, f, g, cube, r)
	return r
}

// Permute renames variables: variable v becomes perm[v]. Identity entries
// may be omitted by passing perm[v] == v.
//
// Permutations are content-addressed: the same mapping always resolves to
// the same cache tag, so repeated Permute calls share computed-table
// entries, and entries written under one permutation can never be returned
// for another (the regression the map-era tag-per-call scheme only avoided
// by never reusing tags, forfeiting all cross-call caching).
func (m *Manager) Permute(f Ref, perm []int) Ref {
	p := make([]int, m.numVars)
	for i := range p {
		p[i] = i
	}
	copy(p, perm)
	key := make([]byte, 0, 4*len(p))
	for _, v := range p {
		key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	if m.permTags == nil {
		m.permTags = make(map[string]Ref)
	}
	tag, ok := m.permTags[string(key)]
	if !ok {
		m.perms = append(m.perms, p)
		tag = Ref(len(m.perms) - 1)
		m.permTags[string(key)] = tag
	}
	return m.permute(f, m.perms[tag], tag)
}

func (m *Manager) permute(f Ref, perm []int, tag Ref) Ref {
	if f == True || f == False {
		return f
	}
	if r, ok := m.cacheGet(opPermute, f, tag, 0); ok {
		return r
	}
	n := m.nodes[f]
	lo := m.permute(n.lo, perm, tag)
	hi := m.permute(n.hi, perm, tag)
	v := perm[m.level2var[n.level]]
	r := m.Ite(m.Var(v), hi, lo)
	m.cachePut(opPermute, f, tag, 0, r)
	return r
}

// Eval evaluates f under a complete assignment (indexed by variable).
func (m *Manager) Eval(f Ref, assign []bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assign[m.level2var[n.level]] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// Support returns a mask over variables marking the support of f (the
// variables f depends on).
func (m *Manager) Support(f Ref) []bool {
	sup := make([]bool, m.numVars)
	if f == True || f == False {
		return sup
	}
	if len(m.visited) < len(m.nodes) {
		m.visited = make([]uint32, len(m.nodes)+len(m.nodes)/2)
		m.visitEpoch = 0
	}
	m.visitEpoch++
	epoch := m.visitEpoch
	var walk func(Ref)
	walk = func(g Ref) {
		if g == True || g == False || m.visited[g] == epoch {
			return
		}
		m.visited[g] = epoch
		n := m.nodes[g]
		sup[m.level2var[n.level]] = true
		walk(n.lo)
		walk(n.hi)
	}
	walk(f)
	return sup
}

// PickCube returns one satisfying assignment of f (nil if f is False).
// Unconstrained variables are reported as logic.LitBoth.
func (m *Manager) PickCube(f Ref) []logic.Lit {
	if f == False {
		return nil
	}
	out := make([]logic.Lit, m.numVars)
	for i := range out {
		out[i] = logic.LitBoth
	}
	for f != True {
		n := m.nodes[f]
		if n.hi != False {
			out[m.level2var[n.level]] = logic.LitPos
			f = n.hi
		} else {
			out[m.level2var[n.level]] = logic.LitNeg
			f = n.lo
		}
	}
	return out
}

// ToCover converts a BDD back into a (possibly non-minimal) SOP cover by
// path enumeration. Intended for don't-care extraction on small supports.
func (m *Manager) ToCover(f Ref, n int) *logic.Cover {
	out := logic.NewCover(n)
	cur := logic.NewCube(n)
	var walk func(f Ref, c logic.Cube)
	walk = func(f Ref, c logic.Cube) {
		if f == False {
			return
		}
		if f == True {
			out.Add(c.Clone())
			return
		}
		nd := m.nodes[f]
		lo := c.Clone()
		lo.SetLit(m.level2var[nd.level], logic.LitNeg)
		walk(nd.lo, lo)
		hi := c.Clone()
		hi.SetLit(m.level2var[nd.level], logic.LitPos)
		walk(nd.hi, hi)
	}
	walk(f, cur)
	return out
}
