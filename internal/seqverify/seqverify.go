// Package seqverify checks sequential equivalence of two networks by
// product-machine reachability, with the paper's *delayed replacement*
// semantics (Singhal et al.): the circuits must produce identical outputs
// on every input sequence from cycle k onward, where k is the number of
// atomic forward retiming moves across fanout stems. k = 0 is safe
// replacement (classic equivalence from the initial states). The product
// machine is traversed by internal/reach, the one BDD state-space engine.
package seqverify

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/reach"
)

// Options configures the check.
type Options struct {
	// Delay is the delayed-replacement prefix length k.
	Delay int
}

// Verdict states how equivalence was established.
type Verdict string

const (
	// VerdictExact is a BDD product-machine reachability proof.
	VerdictExact Verdict = "exact"
	// VerdictInduction is a SAT-based K-induction proof over the product
	// AIG — used when exact reachability is too large.
	VerdictInduction Verdict = "proved-by-induction"
)

// Equivalent returns nil if the two networks are sequentially equivalent
// under the configured delayed-replacement prefix. Ports are paired by
// network.Pair. A product past reach.DefaultLimits returns an error
// matching errors.Is(err, reach.ErrTooLarge); any other non-nil error
// describes the mismatch (with a witness input and state) or a resource
// failure. The node-function build and every image step check ctx and
// return a typed guard budget error (errors.Is(err, guard.ErrBudget)) once
// the deadline passes. The product traversal reports its BDD counts as a
// "reach_product" event on tr (see reach.AnalyzeProduct); a traversal that
// reaches its fixpoint is followed by one "product_outputs" event with the
// output check's outcome ("equal", "refuted" or "node_limit") and the
// manager's node count after it. tr may be nil. Pass the implementation as
// b: the product's variable order puts b's latches first (DESIGN.md §9).
func Equivalent(ctx context.Context, a, b *network.Network, opt Options, tr *obs.Tracer) (err error) {
	p, err := network.Pair(a, b)
	if err != nil {
		return fmt.Errorf("seqverify: %w", err)
	}
	an, err := reach.AnalyzeProduct(ctx, a, b, p, opt.Delay, reach.DefaultLimits, tr)
	if err != nil {
		return fmt.Errorf("seqverify: %w", err)
	}
	defer an.Release() // deferred first, so it runs after the deferred event reads m
	m := an.M
	outcome := "equal"
	defer func() {
		if r := recover(); r != nil {
			if r != bdd.ErrNodeLimit {
				panic(r)
			}
			outcome = "node_limit"
			err = fmt.Errorf("seqverify: output check past %d BDD nodes: %w", m.MaxNodes, reach.ErrTooLarge)
		}
		tr.Event("product_outputs", map[string]any{"outcome": outcome, "bdd_nodes": m.Size()})
	}()
	// Output equality on all reached product states, all inputs.
	ma, mb := an.Machines[0], an.Machines[1]
	for i, j := range p.PO {
		diff := m.Xor(ma.NodeFn[a.POs[i].Driver.ID], mb.NodeFn[b.POs[j].Driver.ID])
		if bad := m.And(an.Reachable, diff); bad != bdd.False {
			outcome = "refuted"
			w := m.PickCube(bad)
			return fmt.Errorf("seqverify: PO %q differs (delay=%d); witness in=%s stateA=%s stateB=%s",
				a.POs[i].Name, opt.Delay, bits(w, ma.InVar), bits(w, ma.CurVar), bits(w, mb.CurVar))
		}
	}
	return nil
}

// bits renders the witness values of vars as 0, 1 or - (unconstrained).
func bits(w []logic.Lit, vars []int) string {
	var s strings.Builder
	for _, v := range vars {
		switch w[v] {
		case logic.LitNeg:
			s.WriteByte('0')
		case logic.LitPos:
			s.WriteByte('1')
		default:
			s.WriteByte('-')
		}
	}
	return s.String()
}
