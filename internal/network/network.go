// Package network implements the mutable gate-level representation of a
// synchronous sequential circuit: a multi-level Boolean network whose nodes
// carry sum-of-products functions over their fanins, plus edge-triggered
// registers (latches in BLIF terminology) with known initial states.
//
// Combinational sources are primary inputs and register outputs;
// combinational sinks are primary outputs and register data inputs. All
// synthesis, retiming and resynthesis passes in this repository operate on
// this structure.
package network

import (
	"fmt"
	"slices"

	"repro/internal/logic"
)

// Value is a ternary logic value used for register initial states and
// three-valued simulation.
type Value byte

const (
	// V0 is logic 0.
	V0 Value = iota
	// V1 is logic 1.
	V1
	// VX is unknown / don't care.
	VX
)

// String renders the value as 0, 1 or x.
func (v Value) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	default:
		return "x"
	}
}

// Kind distinguishes the node flavours of the network graph.
type Kind byte

const (
	// KindPI is a primary input: a combinational source without function.
	KindPI Kind = iota
	// KindLatchOut is the output pin of a register: also a combinational
	// source. Its register is found via Network.LatchOfOutput.
	KindLatchOut
	// KindLogic is an internal logic node with a SOP function over fanins.
	KindLogic
)

// Node is a vertex of the Boolean network.
type Node struct {
	ID   int
	Name string
	Kind Kind
	// Fanins are the function's input nodes; Func variable i corresponds to
	// Fanins[i]. Fanins are kept duplicate-free.
	Fanins []*Node
	// Func is the node's local function (nil for PIs and latch outputs).
	Func *logic.Cover
	// fanouts lists the logic nodes that reference this node as a fanin.
	// Register data inputs and primary outputs are tracked on the Network.
	fanouts []*Node
	removed bool // a tombstone, dropped from the node list by Nodes

	// Gate is the technology-mapping annotation (nil when unmapped); it is
	// declared as an opaque interface to keep network free of a genlib
	// dependency.
	Gate GateRef
}

// GateRef is implemented by the technology library's bound-gate annotation.
type GateRef interface {
	GateName() string
	GateArea() float64
	// PinDelay returns the pin-to-output delay of input pin i.
	PinDelay(i int) float64
}

// Latch is an edge-triggered register.
type Latch struct {
	Name   string
	Driver *Node // data input (next-state function root)
	Output *Node // KindLatchOut node presenting the state to the logic
	Init   Value
}

// PO is a named primary output driven by a node.
type PO struct {
	Name   string
	Driver *Node
}

// Network is a synchronous sequential circuit.
type Network struct {
	Name    string
	nodes   []*Node // in creation order, with dead tombstones until Nodes
	dead    int
	PIs     []*Node
	POs     []*PO
	Latches []*Latch

	byName map[string]*Node
	nextID int

	// seen is ID-indexed scratch for normalizeFanins.
	seen  []uint32
	epoch uint32

	// Memoized TopoOrder result (see topo.go). Valid distinguishes "not
	// computed" from a cached nil-order cycle error.
	topoCache []*Node
	topoErr   error
	topoValid bool
}

// New creates an empty network.
func New(name string) *Network {
	return &Network{Name: name, byName: make(map[string]*Node)}
}

// Nodes returns all nodes (PIs, latch outputs and logic nodes) in creation
// order. The returned slice must not be mutated. Removed nodes are
// compacted away here, into a fresh array: a slice returned earlier keeps
// its contents, removed nodes included.
func (n *Network) Nodes() []*Node {
	if n.dead > 0 {
		n.nodes = slices.DeleteFunc(slices.Clone(n.nodes), func(v *Node) bool { return v.removed })
		n.dead = 0
	}
	return n.nodes
}

// NumIDs bounds the node IDs of n: every node has 0 <= ID < NumIDs(), so
// per-node state lives in slices of this length indexed by Node.ID. IDs
// are assigned in creation order and never reused; Clone renumbers its
// nodes 0..len(Nodes())-1 in node order.
func (n *Network) NumIDs() int { return n.nextID }

// NumLogicNodes counts internal logic nodes.
func (n *Network) NumLogicNodes() int {
	k := 0
	for _, v := range n.nodes {
		if v.Kind == KindLogic && !v.removed {
			k++
		}
	}
	return k
}

// NumLits returns the total SOP literal count over all logic nodes — the
// classic technology-independent area estimate.
func (n *Network) NumLits() int {
	k := 0
	for _, v := range n.nodes {
		if v.Kind == KindLogic && v.Func != nil && !v.removed {
			k += v.Func.NumLits()
		}
	}
	return k
}

// FindNode returns the node with the given name, or nil.
func (n *Network) FindNode(name string) *Node { return n.byName[name] }

func (n *Network) register(node *Node) *Node {
	if node.Name == "" {
		node.Name = fmt.Sprintf("n%d", n.nextID)
	}
	for n.byName[node.Name] != nil {
		node.Name = fmt.Sprintf("%s_%d", node.Name, n.nextID)
	}
	node.ID = n.nextID
	n.nextID++
	n.byName[node.Name] = node
	n.nodes = append(n.nodes, node)
	n.invalidateTopo()
	return node
}

// AddPI creates a primary input node.
func (n *Network) AddPI(name string) *Node {
	node := n.register(&Node{Name: name, Kind: KindPI})
	n.PIs = append(n.PIs, node)
	return node
}

// AddLogic creates an internal node computing f over the given fanins.
// Duplicate fanins are merged (the cover is remapped accordingly).
func (n *Network) AddLogic(name string, fanins []*Node, f *logic.Cover) *Node {
	if f == nil {
		panic("network: AddLogic requires a function")
	}
	fanins, f = n.normalizeFanins(fanins, f)
	node := n.register(&Node{Name: name, Kind: KindLogic, Fanins: fanins, Func: f})
	for _, fi := range fanins {
		fi.fanouts = append(fi.fanouts, node)
	}
	return node
}

// AddConst creates a constant node (0 or 1).
func (n *Network) AddConst(name string, one bool) *Node {
	f := logic.Zero(0)
	if one {
		f = logic.One(0)
	}
	return n.AddLogic(name, nil, f)
}

// AddPO declares driver as a primary output with the given name.
func (n *Network) AddPO(name string, driver *Node) *PO {
	po := &PO{Name: name, Driver: driver}
	n.POs = append(n.POs, po)
	return po
}

// AddLatch creates a register clocked from driver with the given initial
// value, returning the latch. The latch's Output node is created with
// outName (the state-variable name visible to the logic).
func (n *Network) AddLatch(outName string, driver *Node, init Value) *Latch {
	out := n.register(&Node{Name: outName, Kind: KindLatchOut})
	l := &Latch{Name: outName, Driver: driver, Output: out}
	l.Init = init
	n.Latches = append(n.Latches, l)
	return l
}

// LatchOfOutput returns the latch whose Output is the given node, or nil.
func (n *Network) LatchOfOutput(node *Node) *Latch {
	for _, l := range n.Latches {
		if l.Output == node {
			return l
		}
	}
	return nil
}

// tombstone marks node removed; Nodes drops it at its next compaction.
func (n *Network) tombstone(node *Node) {
	delete(n.byName, node.Name)
	if !node.removed {
		node.removed = true
		n.dead++
	}
	n.invalidateTopo()
}

// LatchesDrivenBy returns the latches whose data input is node.
func (n *Network) LatchesDrivenBy(node *Node) []*Latch {
	var out []*Latch
	for _, l := range n.Latches {
		if l.Driver == node {
			out = append(out, l)
		}
	}
	return out
}

// POsDrivenBy returns the primary outputs driven by node.
func (n *Network) POsDrivenBy(node *Node) []*PO {
	var out []*PO
	for _, p := range n.POs {
		if p.Driver == node {
			out = append(out, p)
		}
	}
	return out
}

// LogicFanouts returns the logic nodes consuming node (no latches/POs).
// The returned slice is a copy.
func (n *Network) LogicFanouts(node *Node) []*Node {
	out := make([]*Node, len(node.fanouts))
	copy(out, node.fanouts)
	return out
}

// NumFanouts returns the total consumer count of node: logic fanouts plus
// latch data inputs plus primary outputs.
func (n *Network) NumFanouts(node *Node) int {
	return len(node.fanouts) + len(n.LatchesDrivenBy(node)) + len(n.POsDrivenBy(node))
}

// normalizeFanins merges duplicate fanins and remaps the cover. n.seen
// stamps each fanin's ID with a fresh epoch per call, so a duplicate-free
// list, the common case, costs no allocation.
func (n *Network) normalizeFanins(fanins []*Node, f *logic.Cover) ([]*Node, *logic.Cover) {
	if f.N != len(fanins) {
		panic(fmt.Sprintf("network: cover has %d vars but %d fanins", f.N, len(fanins)))
	}
	if n.epoch++; n.epoch == 0 {
		clear(n.seen)
		n.epoch = 1
	}
	dup := false
	for _, fi := range fanins {
		if k := max(fi.ID+1, n.nextID); k > len(n.seen) {
			n.seen = slices.Grow(n.seen, k-len(n.seen))[:k]
		}
		dup = dup || n.seen[fi.ID] == n.epoch
		n.seen[fi.ID] = n.epoch
	}
	if !dup {
		return fanins, f
	}
	var unique []*Node
	varMap := make([]int, len(fanins))
	for i, fi := range fanins {
		if varMap[i] = slices.Index(unique, fi); varMap[i] < 0 {
			varMap[i] = len(unique)
			unique = append(unique, fi)
		}
	}
	// Remap requires distinct targets; merging two old vars onto one new
	// var is done cube-by-cube with literal intersection.
	g := logic.NewCover(len(unique))
	for _, c := range f.Cubes {
		d := logic.NewCube(len(unique))
		ok := true
		for v := 0; v < f.N; v++ {
			l := c.Lit(v)
			if l == logic.LitBoth {
				continue
			}
			cur := d.Lit(varMap[v])
			merged := cur & l
			if merged == logic.LitNone {
				ok = false
				break
			}
			d.SetLit(varMap[v], merged)
		}
		if ok {
			g.Add(d)
		}
	}
	return unique, g
}

// FaninIndex returns the index of fi in node's fanin list, or -1.
func (node *Node) FaninIndex(fi *Node) int {
	for i, f := range node.Fanins {
		if f == fi {
			return i
		}
	}
	return -1
}

// IsSource reports whether node is a combinational source (PI or latch out).
func (node *Node) IsSource() bool {
	return node.Kind == KindPI || node.Kind == KindLatchOut
}

func (node *Node) String() string {
	return node.Name
}
