package network

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/logic"
)

// refModel is the reference the differential test runs edit scripts
// against: the node list kept by shifting a slice on every removal, and
// map-based Sweep, topoSort, Check and Clone, as the network did them
// before nodes were tombstoned and per-node state became ID-indexed.
type refModel struct {
	nodes []*Node
}

func (r *refModel) remove(v *Node) {
	if i := slices.Index(r.nodes, v); i >= 0 {
		r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
	}
}

// sweep drops the logic nodes no PO or latch reaches and returns how many.
func (r *refModel) sweep(n *Network) int {
	live := map[*Node]bool{}
	var mark func(v *Node)
	mark = func(v *Node) {
		if v == nil || live[v] {
			return
		}
		live[v] = true
		for _, fi := range v.Fanins {
			mark(fi)
		}
	}
	for _, p := range n.POs {
		mark(p.Driver)
	}
	for _, l := range n.Latches {
		mark(l.Driver)
		live[l.Output] = true
	}
	kept := r.nodes[:0]
	for _, v := range r.nodes {
		if v.Kind != KindLogic || live[v] {
			kept = append(kept, v)
		}
	}
	removed := len(r.nodes) - len(kept)
	r.nodes = kept
	return removed
}

func (r *refModel) topoSort(n *Network) ([]*Node, error) {
	color := map[*Node]byte{}
	var order []*Node
	var visit func(v *Node) error
	visit = func(v *Node) error {
		switch color[v] {
		case 1:
			return fmt.Errorf("cycle through %s", v.Name)
		case 2:
			return nil
		}
		if v.IsSource() {
			color[v] = 2
			return nil
		}
		color[v] = 1
		for _, fi := range v.Fanins {
			if err := visit(fi); err != nil {
				return err
			}
		}
		color[v] = 2
		order = append(order, v)
		return nil
	}
	var roots []*Node
	for _, p := range n.POs {
		roots = append(roots, p.Driver)
	}
	for _, l := range n.Latches {
		roots = append(roots, l.Driver)
	}
	for _, v := range r.nodes {
		if v.Kind == KindLogic {
			roots = append(roots, v)
		}
	}
	for _, v := range roots {
		if err := visit(v); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// check is the map-based Check; a nil latch or PO driver is an error.
func (r *refModel) check(n *Network) error {
	in := map[*Node]bool{}
	for _, v := range r.nodes {
		in[v] = true
	}
	for name, v := range n.byName {
		if v.Name != name || !in[v] {
			return fmt.Errorf("name table entry %q", name)
		}
	}
	for _, v := range r.nodes {
		if v.IsSource() != (v.Func == nil) || v.IsSource() && len(v.Fanins) > 0 {
			return fmt.Errorf("node %s kind", v.Name)
		}
		if v.Func != nil && v.Func.N != len(v.Fanins) {
			return fmt.Errorf("node %s arity", v.Name)
		}
		seen := map[*Node]bool{}
		for _, fi := range v.Fanins {
			if !in[fi] || seen[fi] || !slices.Contains(fi.fanouts, v) {
				return fmt.Errorf("node %s fanin %s", v.Name, fi.Name)
			}
			seen[fi] = true
		}
		for _, fo := range v.fanouts {
			if !in[fo] || fo.FaninIndex(v) < 0 {
				return fmt.Errorf("node %s fanout %s", v.Name, fo.Name)
			}
		}
	}
	for _, l := range n.Latches {
		if l.Driver == nil || !in[l.Driver] || !in[l.Output] || l.Output.Kind != KindLatchOut {
			return fmt.Errorf("latch %s", l.Name)
		}
	}
	for _, p := range n.POs {
		if p.Driver == nil || !in[p.Driver] {
			return fmt.Errorf("PO %s", p.Name)
		}
	}
	_, err := r.topoSort(n)
	return err
}

func names(vs []*Node) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.Name)
		b.WriteByte(' ')
	}
	return b.String()
}

// compare reports the first difference between n and the reference.
func (r *refModel) compare(n *Network) error {
	if g, w := names(n.Nodes()), names(r.nodes); g != w {
		return fmt.Errorf("Nodes() = %s, reference %s", g, w)
	}
	// The sort, old and new, needs every latch driven. TopoOrder returns
	// a memo that adding a PO or latch does not drop, so the exact order
	// is compared on a fresh sort, and the memo only for its node set.
	if !slices.ContainsFunc(n.Latches, func(l *Latch) bool { return l.Driver == nil }) {
		got, gerr := n.topoSort()
		want, werr := r.topoSort(n)
		if (gerr == nil) != (werr == nil) || names(got) != names(want) {
			return fmt.Errorf("topoSort = %s (%v), reference %s (%v)", names(got), gerr, names(want), werr)
		}
		memo, merr := n.TopoOrder()
		sortNames := func(vs []*Node) []string {
			out := strings.Fields(names(vs))
			slices.Sort(out)
			return out
		}
		if (merr == nil) != (werr == nil) || !slices.Equal(sortNames(memo), sortNames(want)) {
			return fmt.Errorf("TopoOrder = %s (%v), reference %s (%v)", names(memo), merr, names(want), werr)
		}
	}
	for _, v := range r.nodes {
		if n.FindNode(v.Name) != v {
			return fmt.Errorf("FindNode(%q) is not node %d: two nodes share the name", v.Name, v.ID)
		}
	}
	if gerr, werr := n.Check(), r.check(n); (gerr == nil) != (werr == nil) {
		return fmt.Errorf("Check = %v, reference %v", gerr, werr)
	}
	return r.compareClone(n, n.Clone())
}

// compareClone checks c against the map-based Clone of n: nodes in the
// same order, with IDs 0..k-1, the same kinds and covers, names as
// re-registering them gives (a taken name gets the suffix _ID until it is
// free), the corresponding fanins and ports, and each fanout list in
// consumer node order.
func (r *refModel) compareClone(n, c *Network) error {
	cn := c.Nodes()
	if len(cn) != len(r.nodes) || c.NumIDs() != len(r.nodes) {
		return fmt.Errorf("clone has %d nodes and %d IDs, want %d", len(cn), c.NumIDs(), len(r.nodes))
	}
	copyOf := map[*Node]*Node{nil: nil}
	taken := map[string]bool{}
	for i, v := range r.nodes {
		copyOf[v] = cn[i]
		name := v.Name
		for taken[name] {
			name = fmt.Sprintf("%s_%d", name, i)
		}
		taken[name] = true
		if cv := cn[i]; cv.ID != i || cv.Name != name || c.FindNode(name) != cv {
			return fmt.Errorf("clone node %d is %s with ID %d, want %s", i, cv.Name, cv.ID, name)
		}
	}
	mapped := func(vs []*Node) []*Node {
		var out []*Node
		for _, v := range vs {
			out = append(out, copyOf[v])
		}
		return out
	}
	for _, v := range r.nodes {
		cv := copyOf[v]
		var wantFanouts []*Node
		for _, u := range r.nodes {
			if u.Kind == KindLogic && slices.Contains(u.Fanins, v) {
				wantFanouts = append(wantFanouts, copyOf[u])
			}
		}
		switch {
		case cv.Kind != v.Kind || (v.Func == nil) != (cv.Func == nil) || v.Func != nil && v.Func.String() != cv.Func.String():
			return fmt.Errorf("clone node %s differs in kind or function", cv.Name)
		case !slices.Equal(cv.Fanins, mapped(v.Fanins)):
			return fmt.Errorf("clone node %s fanins %s, want %s", cv.Name, names(cv.Fanins), names(mapped(v.Fanins)))
		case !slices.Equal(cv.fanouts, wantFanouts):
			return fmt.Errorf("clone node %s fanouts %s, want %s", cv.Name, names(cv.fanouts), names(wantFanouts))
		}
	}
	for i, l := range n.Latches {
		cl := c.Latches[i]
		if cl.Name != l.Name || cl.Init != l.Init || cl.Driver != copyOf[l.Driver] || cl.Output != copyOf[l.Output] {
			return fmt.Errorf("clone latch %d differs", i)
		}
	}
	for i, p := range n.POs {
		if c.POs[i].Name != p.Name || c.POs[i].Driver != copyOf[p.Driver] {
			return fmt.Errorf("clone PO %d differs", i)
		}
	}
	if !slices.Equal(c.PIs, mapped(n.PIs)) {
		return fmt.Errorf("clone PIs differ")
	}
	return nil
}

// editScript applies steps random edits to a fresh network, comparing it
// with the reference after every one. Logic fanins always have smaller IDs
// than their consumer (latch outputs excepted), so the logic stays acyclic
// except for the one-step cycles the script makes and undoes on purpose.
func editScript(t *testing.T, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	n := New("edit")
	ref := &refModel{}
	fresh := 0
	name := func(prefix string) string {
		fresh++
		if r.Intn(8) == 0 {
			return "" // the network names it
		}
		return fmt.Sprintf("%s%d", prefix, fresh)
	}
	pick := func(ok func(v *Node) bool) *Node {
		var cands []*Node
		for _, v := range n.Nodes() {
			if ok(v) {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[r.Intn(len(cands))]
	}
	isLogic := func(v *Node) bool { return v.Kind == KindLogic }
	// below picks up to k fanins acceptable for a logic node with ID id,
	// repeats allowed (they are merged).
	below := func(id, k int) []*Node {
		var out []*Node
		for range k {
			if v := pick(func(v *Node) bool { return v.ID < id || v.Kind == KindLatchOut }); v != nil {
				out = append(out, v)
			}
		}
		return out
	}
	cover := func(k int) *logic.Cover {
		f := logic.NewCover(k)
		for c := 1 + r.Intn(3); c > 0; c-- {
			cube := logic.NewCube(k)
			for v := range k {
				if r.Intn(3) != 0 {
					cube.SetLit(v, logic.Lit(1+r.Intn(2)))
				}
			}
			f.Add(cube)
		}
		return f
	}
	unread := func(v *Node) bool { return n.NumFanouts(v) == 0 }
	for step := 0; step < steps; step++ {
		op := r.Intn(16)
		desc := ""
		// A slice a caller already holds keeps its contents.
		held := n.Nodes()
		heldCopy := slices.Clone(held)
		switch {
		case op == 0 || len(n.PIs) == 0:
			desc = "AddPI"
			ref.nodes = append(ref.nodes, n.AddPI(name("i")))
		case op == 1:
			var d *Node
			if r.Intn(4) != 0 {
				d = pick(func(*Node) bool { return true })
			}
			desc = fmt.Sprintf("AddLatch driven by %v", d)
			l := n.AddLatch(name("q"), d, Value(r.Intn(3)))
			ref.nodes = append(ref.nodes, l.Output)
		case op <= 4:
			fanins := below(n.NumIDs(), r.Intn(5))
			desc = "AddLogic over " + names(fanins)
			ref.nodes = append(ref.nodes, n.AddLogic(name("g"), fanins, cover(len(fanins))))
		case op == 5:
			if v := pick(isLogic); v != nil {
				fanins := below(v.ID, r.Intn(5))
				if r.Intn(2) == 0 {
					// Extend the node's own list: an append must not
					// overwrite the list carved next to it.
					fanins = append(v.Fanins, fanins...)
				}
				desc = "SetFunction " + v.Name + " over " + names(fanins)
				n.SetFunction(v, fanins, cover(len(fanins)))
			}
		case op == 6:
			v := pick(func(v *Node) bool { return isLogic(v) && len(v.Fanins) > 0 })
			if v == nil {
				break
			}
			old := v.Fanins[r.Intn(len(v.Fanins))]
			if nw := below(v.ID, 1); len(nw) == 1 {
				desc = "ReplaceFanin " + v.Name + ": " + old.Name + " -> " + nw[0].Name
				n.ReplaceFanin(v, old, nw[0])
			}
		case op == 7:
			old := pick(func(v *Node) bool { return !unread(v) })
			if old == nil {
				break
			}
			// A latch output may feed older logic, so only a source replaces it.
			if nw := pick(func(v *Node) bool { return v.ID < old.ID && (!isLogic(v) || old.Kind != KindLatchOut) }); nw != nil {
				desc = "RedirectConsumers " + old.Name + " -> " + nw.Name
				n.RedirectConsumers(old, nw)
			}
		case op == 8:
			if v := pick(isLogic); v != nil {
				desc = "TrimFanins " + v.Name
				n.TrimFanins(v)
			}
		case op <= 10:
			if v := pick(func(v *Node) bool { return isLogic(v) && unread(v) }); v != nil {
				desc = "RemoveDeadNode " + v.Name
				n.RemoveDeadNode(v)
				ref.remove(v)
				if r.Intn(2) == 0 {
					// Sweep over the tombstone before anything compacts.
					desc += ", Sweep"
					if got, want := n.Sweep(), ref.sweep(n); got != want {
						t.Fatalf("seed %d step %d: Sweep removed %d, reference %d", seed, step, got, want)
					}
				}
			}
		case op == 11:
			var cands []*Latch
			for _, l := range n.Latches {
				if unread(l.Output) {
					cands = append(cands, l)
				}
			}
			if len(cands) > 0 {
				l := cands[r.Intn(len(cands))]
				desc = "RemoveLatch " + l.Name
				n.RemoveLatch(l)
				ref.remove(l.Output)
			}
		case op == 12:
			if d := pick(func(*Node) bool { return true }); d != nil {
				desc = "AddPO driven by " + d.Name
				n.AddPO(name("o"), d)
			}
		case op == 13:
			desc = "Sweep"
			if got, want := n.Sweep(), ref.sweep(n); got != want {
				t.Fatalf("seed %d step %d: Sweep removed %d, reference %d", seed, step, got, want)
			}
		case op == 14:
			// Continue the script on a clone, so that later edits append to
			// fanin and fanout lists carved from the clone's arenas.
			desc = "Clone"
			n = n.Clone()
			ref.nodes = slices.Clone(n.Nodes())
		case op == 15:
			// A combinational cycle, checked and then undone.
			v := pick(func(v *Node) bool { return isLogic(v) && len(v.Fanins) > 0 })
			if v == nil || slices.ContainsFunc(n.Latches, func(l *Latch) bool { return l.Driver == nil }) {
				break
			}
			fanins, f := v.Fanins, v.Func
			desc = "cycle through " + v.Name
			n.SetFunction(v, append(slices.Clone(fanins), v), logic.NewCover(len(fanins)+1))
			if err := ref.compare(n); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, desc, err)
			}
			if _, err := n.TopoOrder(); err == nil {
				t.Fatalf("seed %d step %d: self-loop on %s not reported", seed, step, v.Name)
			}
			n.SetFunction(v, fanins, f)
		}
		if err := ref.compare(n); err != nil {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, desc, err)
		}
		if !slices.Equal(held, heldCopy) {
			t.Fatalf("seed %d step %d (%s): a held Nodes() slice changed", seed, step, desc)
		}
		// Only an undriven latch makes a network of this script invalid.
		if err := n.Check(); err != nil && !slices.ContainsFunc(n.Latches, func(l *Latch) bool { return l.Driver == nil }) {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, desc, err)
		}
	}
}

// TestNetworkMatchesReference runs seeded random edit scripts on the
// network and on the reference model, comparing them after every edit.
func TestNetworkMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		editScript(t, seed, 250)
	}
}

// TestCheckRejectsIDMutants: Check reports every broken ID invariant as an
// error, never a panic.
func TestCheckRejectsIDMutants(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(n *Network, g, dead *Node)
	}{
		{"duplicate ID", func(n *Network, g, dead *Node) { g.ID = n.PIs[0].ID }},
		{"ID at NumIDs", func(n *Network, g, dead *Node) { g.ID = n.NumIDs() }},
		{"negative ID", func(n *Network, g, dead *Node) { g.ID = -1 }},
		{"removed node as fanin", func(n *Network, g, dead *Node) {
			g.Fanins[0].fanouts = nil
			g.Fanins[0] = dead
			dead.fanouts = []*Node{g}
		}},
		{"removed node as latch driver", func(n *Network, g, dead *Node) { n.Latches[0].Driver = dead }},
		{"removed node as PO driver", func(n *Network, g, dead *Node) { n.POs[0].Driver = dead }},
		{"nil latch driver", func(n *Network, g, dead *Node) { n.Latches[0].Driver = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, g := victim(t)
			dead := n.AddLogic("dead", []*Node{n.PIs[0]}, logic.MustParseCover(1, "1"))
			n.RemoveDeadNode(dead)
			if err := n.Check(); err != nil {
				t.Fatalf("valid before the mutation: %v", err)
			}
			tc.mutate(n, g, dead)
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Check panicked: %v", p)
					}
				}()
				err = n.Check()
			}()
			if err == nil {
				t.Fatal("mutation not reported")
			}
		})
	}
}
