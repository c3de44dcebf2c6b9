package bdd

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRehashKeepsCanonicity forces the unique table through several
// one-pass rehashes and checks that every triple in the pool still resolves
// to its original ref, and that the table accounting matches the pool.
func TestRehashKeepsCanonicity(t *testing.T) {
	const nvars = 48
	m := New(nvars)
	f := False
	for v := 0; v < nvars; v++ {
		f = m.Xor(f, m.Var(v))
	}
	r := rand.New(rand.NewSource(5))
	for k := 0; k < 40; k++ {
		c := True
		for v := 0; v < nvars; v++ {
			switch r.Intn(4) {
			case 0:
				c = m.And(c, m.Var(v))
			case 1:
				c = m.And(c, m.NVar(v))
			}
		}
		f = m.Or(f, c)
	}
	st := m.Stats()
	if st.Rehashes < 3 {
		t.Fatalf("workload too small for several rehashes: %+v", st)
	}
	if st.UniqueCap != initialTableSize<<st.Rehashes {
		t.Fatalf("bucket array must double per rehash: cap %d after %d rehashes", st.UniqueCap, st.Rehashes)
	}
	if st.UniqueSize != st.Nodes-2 {
		t.Fatalf("unique entries (%d) must equal internal nodes (%d)", st.UniqueSize, st.Nodes-2)
	}
	if st.UniqueLoad <= 0.5 || st.UniqueLoad > 1 {
		t.Fatalf("load %v outside (1/2, 1]", st.UniqueLoad)
	}
	for ref := Ref(2); int(ref) < st.Nodes; ref++ {
		n := m.nodes[ref]
		if got := m.mk(n.level, n.lo, n.hi); got != ref {
			t.Fatalf("triple of ref %d resolves to %d after %d rehashes", ref, got, st.Rehashes)
		}
	}
	if m.Size() != st.Nodes {
		t.Fatalf("lookups created nodes: %d -> %d", st.Nodes, m.Size())
	}
}

// TestPermuteTagReuse pins the parameterized-op cache fix: the same
// permutation must map to the same content-addressed tag (so a repeat call
// is answered from the computed table), while different permutations get
// different tags and correct, non-aliased results.
func TestPermuteTagReuse(t *testing.T) {
	m := New(6)
	f := m.And(m.Var(0), m.Or(m.Var(2), m.NVar(4)))
	swap01 := []int{1, 0, 2, 3, 4, 5}
	rot := []int{1, 2, 3, 4, 5, 0}

	g1 := m.Permute(f, swap01)
	hits := m.Stats().CacheHits
	g2 := m.Permute(f, swap01)
	if g2 != g1 {
		t.Fatal("same permutation produced different results")
	}
	if m.Stats().CacheHits <= hits {
		t.Fatal("repeat Permute with the same mapping must hit the computed table")
	}
	if len(m.perms) != 1 {
		t.Fatalf("identical permutations must share one tag, got %d", len(m.perms))
	}

	// A different permutation must not alias the first one's entries.
	g3 := m.Permute(f, rot)
	want := m.And(m.Var(1), m.Or(m.Var(3), m.NVar(5)))
	if g3 != want {
		t.Fatalf("rotated permute wrong")
	}
	if len(m.perms) != 2 {
		t.Fatalf("distinct permutations must get distinct tags, got %d", len(m.perms))
	}

	// Mutating the caller's slice after the call must not corrupt the
	// stored permutation (the map era aliased the input).
	swap01[0] = 5
	if m.Permute(f, []int{1, 0, 2, 3, 4, 5}) != g1 {
		t.Fatal("stored permutation aliased caller memory")
	}
}

// TestExistsCubeNoAliasing checks that quantifications over different
// variable sets never serve each other's cache entries.
func TestExistsCubeNoAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := New(8)
	f := randBdd(m, r, 8)
	varsA := []bool{true, false, true, false, false, false, false, false}
	varsB := []bool{false, true, false, true, false, false, false, false}
	a1 := m.Exists(f, varsA)
	b1 := m.Exists(f, varsB)
	// Fresh manager recomputation is the ground truth.
	m2 := New(8)
	f2 := randBdd(m2, rand.New(rand.NewSource(17)), 8)
	if f2 != f {
		// Same seed, same construction: refs must agree across managers.
		t.Fatal("non-deterministic construction")
	}
	if m2.Exists(f2, varsA) != a1 || m2.Exists(f2, varsB) != b1 {
		t.Fatal("interleaved quantifications aliased cache entries")
	}
}

// TestCacheKeysDoNotAlias pins the op encoding of computed-table keys. On
// a one-slot table every entry lands in the same slot, so each op's lookup
// meets the entry the previous op left: an Ite entry (f, g, c) against
// AndExists(f, g, c), and an Exists entry over cube ref 2 against a
// Permute whose tag is 2. Every result is checked against its truth table.
func TestCacheKeysDoNotAlias(t *testing.T) {
	const n = 4
	m := New(n)
	m.cache = make([]cacheEntry, 1)
	m.cacheCap = 1
	x0 := m.Var(0) // also the cube of {x0}
	if x0 != 2 {
		t.Fatalf("x0 is ref %d, want 2", x0)
	}
	f := m.Var(1)
	g := m.Or(m.Xor(m.Var(2), x0), m.Var(3))
	onlyX0 := []bool{true, false, false, false}
	agree := func(what string, r Ref, want func(a []bool) bool) {
		t.Helper()
		for mt := 0; mt < 1<<n; mt++ {
			a := []bool{mt&1 != 0, mt&2 != 0, mt&4 != 0, mt&8 != 0}
			if m.Eval(r, a) != want(a) {
				t.Fatalf("%s wrong at %04b", what, mt)
			}
		}
	}
	with := func(a []bool, v int, b bool) []bool {
		c := append([]bool(nil), a...)
		c[v] = b
		return c
	}

	m.Ite(f, g, x0)
	agree("AndExists after Ite", m.AndExists(f, g, onlyX0), func(a []bool) bool {
		return m.Eval(m.And(f, g), with(a, 0, false)) || m.Eval(m.And(f, g), with(a, 0, true))
	})

	h := m.Xor(m.Var(1), m.And(m.Var(0), m.Var(2)))
	rot := []int{1, 2, 3, 0}
	m.Permute(h, []int{1, 0, 2, 3}) // tag 0
	m.Permute(h, []int{0, 2, 1, 3}) // tag 1
	m.Exists(h, onlyX0)
	agree("Permute after Exists", m.Permute(h, rot), func(a []bool) bool {
		return m.Eval(h, []bool{a[1], a[2], a[3], a[0]})
	})
	if len(m.perms) != 3 {
		t.Fatalf("%d permutation tags, want 3 (the last one equal to the cube ref)", len(m.perms))
	}
}

// TestCacheGrowth drives enough distinct operations through the computed
// table to trigger growth and checks the accounting stays sane.
func TestCacheGrowth(t *testing.T) {
	const nvars = 32
	m := New(nvars)
	r := rand.New(rand.NewSource(9))
	for k := 0; k < 30; k++ {
		f := randBdd(m, r, nvars)
		g := randBdd(m, r, nvars)
		m.Xor(f, g)
	}
	st := m.Stats()
	if st.CacheCap <= initialCacheSize {
		t.Fatalf("cache never grew: %+v", st)
	}
	if st.CacheSize > st.CacheCap {
		t.Fatalf("occupancy overflow: %+v", st)
	}
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("hit/miss accounting broken: %+v", st)
	}
}

// TestNodeLimitAtGrowth trips MaxNodes exactly where the pool would double
// and exactly where the bucket array would double, one node either side, on
// a fresh manager and on a reset one that keeps a larger pool. After
// recovery the manager must stay consistent, and with the limit lifted,
// rerunning the workload must give the refs and Size of a manager that
// never had a limit: a trip leaves nothing half-built.
func TestNodeLimitAtGrowth(t *testing.T) {
	const nvars = 24
	work := func(m *Manager) Ref {
		f := False
		for v := 0; v < nvars; v++ {
			f = m.Xor(f, m.Var(v))
			g := True
			for w := 0; w <= v; w++ {
				g = m.And(g, m.Var(w))
			}
			f = m.Or(f, m.Xor(f, g))
		}
		r := rand.New(rand.NewSource(3))
		for k := 0; k < 60; k++ {
			f = m.Xor(f, randBdd(m, r, nvars))
		}
		return f
	}
	free := New(nvars)
	want := work(free)
	if free.Size() <= initialPoolSize+1 {
		t.Fatalf("workload builds %d nodes, too few to pass the first pool doubling", free.Size())
	}
	reused := New(nvars)
	work(reused)
	// The bucket array doubles when the node after the one that fills it
	// (initialTableSize internal nodes plus the two terminals) is created.
	fullTable := initialTableSize + 2
	for _, limit := range []int{initialPoolSize, initialPoolSize + 1, fullTable, fullTable + 1} {
		for _, m := range []*Manager{New(nvars), reused} {
			kind := "fresh"
			if m == reused {
				kind = "reset"
				m.Reset(nvars)
			}
			kept := cap(m.nodes)
			m.MaxNodes = limit
			func() {
				defer func() {
					if r := recover(); r != ErrNodeLimit {
						t.Fatalf("%s, limit %d: recovered %v, want ErrNodeLimit", kind, limit, r)
					}
				}()
				work(m)
			}()
			st := m.Stats()
			if st.Nodes != limit {
				t.Fatalf("%s, limit %d: tripped at %d nodes", kind, limit, st.Nodes)
			}
			if cap(m.nodes) > max(limit, kept) {
				t.Fatalf("%s, limit %d: pool capacity %d grew past the limit", kind, limit, cap(m.nodes))
			}
			if wantRehash := limit > fullTable; (st.Rehashes > 0) != wantRehash {
				t.Fatalf("%s, limit %d: %d rehashes", kind, limit, st.Rehashes)
			}
			if st.UniqueSize != st.Nodes-2 || st.UniqueLoad > 1 {
				t.Fatalf("%s, limit %d: accounting diverged after the trip: %+v", kind, limit, st)
			}
			m.MaxNodes = 0
			if got := work(m); got != want || m.Size() != free.Size() {
				t.Fatalf("%s, limit %d: after recovery got ref %d with %d nodes, unlimited manager %d with %d",
					kind, limit, got, m.Size(), want, free.Size())
			}
		}
	}
}

// opMix draws one operation of a seeded Ite/AndExists/Exists/Permute mix
// over nvars variables and a pool of poolLen earlier results. Every manager
// that runs the returned step runs the same operation, so several managers
// can follow one mix in lockstep.
func opMix(r *rand.Rand, nvars, poolLen int) func(m *Manager, pool []Ref) Ref {
	op := r.Intn(5)
	i, j, k := r.Intn(poolLen), r.Intn(poolLen), r.Intn(poolLen)
	v := r.Intn(nvars)
	vars := make([]bool, nvars)
	perm := r.Perm(nvars)
	for x := range vars {
		vars[x] = r.Intn(3) == 0
	}
	return func(m *Manager, p []Ref) Ref {
		switch op {
		case 0:
			return m.Ite(m.Var(v), p[i], m.Not(p[j]))
		case 1:
			return m.Ite(p[i], p[j], p[k])
		case 2:
			return m.AndExists(p[i], m.Or(p[j], m.NVar(v)), vars)
		case 3:
			return m.Exists(m.Xor(p[i], m.Var(v)), vars)
		}
		return m.Permute(p[i], perm)
	}
}

// TestRefsIndependentOfComputedTable pins the invariant the table layout
// relies on: which nodes are created, and in what order, does not depend
// on the computed table. A seeded random sequence of Ite, AndExists, Exists
// and Permute must give identical refs and Size with a one-slot computed
// table and with the default one.
func TestRefsIndependentOfComputedTable(t *testing.T) {
	const nvars = 12
	tiny := New(nvars)
	tiny.cache = make([]cacheEntry, 1)
	tiny.cacheCap = 1
	def := New(nvars)
	r := rand.New(rand.NewSource(41))
	pool := [2][]Ref{{True}, {True}}
	for step := 0; step < 400; step++ {
		op := opMix(r, nvars, len(pool[0]))
		var out [2]Ref
		for side, m := range []*Manager{tiny, def} {
			out[side] = op(m, pool[side])
			pool[side] = append(pool[side], out[side])
		}
		if out[0] != out[1] || tiny.Size() != def.Size() {
			t.Fatalf("step %d: one-slot table gave ref %d with %d nodes, default %d with %d",
				step, out[0], tiny.Size(), out[1], def.Size())
		}
		if len(pool[0]) > 64 {
			pool[0], pool[1] = pool[0][1:], pool[1][1:]
		}
	}
	ts, ds := tiny.Stats(), def.Stats()
	if ts.CacheCap != 1 || ds.CacheHits <= ts.CacheHits {
		t.Fatalf("the two computed tables did not differ: one-slot %+v, default %+v", ts, ds)
	}
	if ds.Nodes < 1000 {
		t.Fatalf("workload too small: %d nodes", ds.Nodes)
	}
}

// TestResetMatchesFresh checks that Reset leaves the manager New returns.
// Right after the Reset every table field equals a fresh manager's. Then
// the seeded operation mix, under a random static order, runs in lockstep
// on the reset manager and on a fresh one: after every step both have the
// same ref, Stats, NodeCount and Support, and a node limit trips on both
// at the same step and node. The reset manager comes in turn from a larger
// workload that grew every buffer, from an ErrNodeLimit raised in the
// middle of an Ite, and runs under a MaxNodes below its kept pool capacity.
func TestResetMatchesFresh(t *testing.T) {
	const nvars = 12
	m := New(20)
	r := rand.New(rand.NewSource(17))
	pool := []Ref{True}
	for step := 0; step < 2000; step++ {
		out := opMix(r, 20, len(pool))(m, pool)
		m.NodeCount(out)
		pool = append(pool, out)
		if len(pool) > 64 {
			pool = pool[1:]
		}
	}
	if cap(m.nodes) <= initialPoolSize || cap(m.table) <= initialTableSize || cap(m.cache) <= initialCacheSize ||
		cap(m.spare) <= initialCacheSize || len(m.visited) == 0 || len(m.perms) == 0 {
		t.Fatalf("the workload left a buffer at its initial size: pool %d, buckets %d, cache %d and %d, marks %d, perms %d",
			cap(m.nodes), cap(m.table), cap(m.cache), cap(m.spare), len(m.visited), len(m.perms))
	}
	resetLockstep(t, "after growth", m, nvars, 1, 0)

	// Build two operands unlimited, then let their conjunction trip the
	// limit halfway through its Ite recursion.
	m.Reset(nvars)
	g, h := randBdd(m, r, nvars), randBdd(m, r, nvars)
	g, h = m.Xor(g, m.Var(0)), m.Xor(h, m.Var(nvars-1))
	m.MaxNodes = m.Size() + 5
	func() {
		defer func() {
			if rec := recover(); rec != ErrNodeLimit {
				t.Fatalf("recovered %v, want ErrNodeLimit from the Ite", rec)
			}
		}()
		m.Ite(g, h, m.Not(h))
	}()
	resetLockstep(t, "after a node-limit trip inside Ite", m, nvars, 2, 0)

	const limit = 1500
	if cap(m.nodes) <= limit {
		t.Fatalf("kept pool capacity %d is not above the limit %d", cap(m.nodes), limit)
	}
	resetLockstep(t, "under a node limit below the kept pool", m, nvars, 3, limit)
}

// resetLockstep resets m for nvars variables, checks it against New, and
// runs the seeded mix on it and on a fresh manager side by side, both with
// the same random order and MaxNodes maxNodes. A positive maxNodes must
// trip within the mix.
func resetLockstep(t *testing.T, what string, m *Manager, nvars int, seed int64, maxNodes int) {
	t.Helper()
	epoch := m.visitEpoch
	m.Reset(nvars)
	f := New(nvars)
	if m.numVars != f.numVars || !slices.Equal(m.nodes, f.nodes) ||
		!slices.Equal(m.var2level, f.var2level) || !slices.Equal(m.level2var, f.level2var) ||
		!slices.Equal(m.table, f.table) || m.rehashes != f.rehashes ||
		!slices.Equal(m.cache, f.cache) || m.cacheUsed != f.cacheUsed || m.cacheCap != f.cacheCap ||
		len(m.perms) != 0 || len(m.permTags) != 0 || m.MaxNodes != 0 || m.Stats() != f.Stats() {
		t.Fatalf("%s: the reset manager differs from New(%d)", what, nvars)
	}
	if m.visitEpoch < epoch {
		t.Fatalf("%s: Reset rewound the visit epoch %d to %d while keeping the marks", what, epoch, m.visitEpoch)
	}
	r := rand.New(rand.NewSource(seed))
	order := r.Perm(nvars)
	sides := []*Manager{f, m}
	for _, x := range sides {
		x.SetOrder(order)
		x.MaxNodes = maxNodes
	}
	pool := [2][]Ref{{True}, {True}}
	for step := 0; step < 400; step++ {
		op := opMix(r, nvars, len(pool[0]))
		var out [2]Ref
		var tripped [2]bool
		for side, x := range sides {
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						if rec != ErrNodeLimit {
							panic(rec)
						}
						tripped[side] = true
					}
				}()
				out[side] = op(x, pool[side])
			}()
			pool[side] = append(pool[side], out[side])
		}
		if tripped != [2]bool{} {
			if tripped != [2]bool{true, true} || f.Stats() != m.Stats() {
				t.Fatalf("%s: step %d: tripped fresh %v, reset %v; fresh %v, reset %v",
					what, step, tripped[0], tripped[1], f.Stats(), m.Stats())
			}
			return
		}
		if out[0] != out[1] || f.Stats() != m.Stats() ||
			f.NodeCount(out[0]) != m.NodeCount(out[1]) || !slices.Equal(f.Support(out[0]), m.Support(out[1])) {
			t.Fatalf("%s: step %d: fresh gave ref %d (%v), reset %d (%v)", what, step, out[0], f.Stats(), out[1], m.Stats())
		}
		if len(pool[0]) > 64 {
			pool[0], pool[1] = pool[0][1:], pool[1][1:]
		}
	}
	if maxNodes > 0 {
		t.Fatalf("%s: the mix never reached MaxNodes %d (%d nodes)", what, maxNodes, m.Size())
	}
}
