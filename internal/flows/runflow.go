package flows

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/timing"
)

// flowOrder lists the flow names accepted by RunFlow, in the order the
// paper's Table I presents them plus the raw-algorithm escape hatch. Both
// cmd/resyn and the serving layer (internal/serve) dispatch through this
// single table so the CLI flag and the HTTP API stay in lockstep.
var flowOrder = []string{"script", "retime", "resyn", "core"}

// FlowNames reports the flow names accepted by RunFlow.
func FlowNames() []string {
	out := make([]string, len(flowOrder))
	copy(out, flowOrder)
	return out
}

// KnownFlow reports whether name is accepted by RunFlow.
func KnownFlow(name string) bool {
	for _, f := range flowOrder {
		if f == name {
			return true
		}
	}
	return false
}

// RunFlow dispatches one of the named evaluation flows on src under cfg:
//
//   - "script": ScriptDelay alone;
//   - "retime": ScriptDelay then conventional retiming + comb. opt.;
//   - "resyn":  ScriptDelay then the paper's resynthesis (Algorithm 1 with
//     retiming-induced don't cares) on the mapped circuit;
//   - "core":   raw iterated Algorithm 1 on src itself, with no technology
//     mapping: src binds no gates, so Clk is in unit delay and Metrics.Area
//     is literal count, not mapped area.
//
// An unknown name is reported as an error before any work starts.
func RunFlow(ctx context.Context, name string, src *network.Network, lib *genlib.Library, cfg Config) (*Result, error) {
	if !KnownSubstrate(cfg.Substrate) {
		return nil, guard.WithClass(
			fmt.Errorf("flows: unknown substrate %q (have %v)", cfg.Substrate, SubstrateNames()),
			guard.ErrClassPermanent)
	}
	switch name {
	case "script":
		return ScriptDelay(ctx, src, lib, cfg)
	case "retime":
		sd, err := ScriptDelay(ctx, src, lib, cfg)
		if err != nil {
			return nil, err
		}
		return RetimeCombOpt(ctx, sd.Net, lib, cfg)
	case "resyn":
		sd, err := ScriptDelay(ctx, src, lib, cfg)
		if err != nil {
			return nil, err
		}
		return Resynthesis(ctx, sd.Net, lib, cfg)
	case "core":
		// The flow budget bounds the whole iterated run; there is no
		// per-pass transaction at this level (core guards internally).
		cctx, cancel := cfg.Budget.FlowContext(ctx)
		defer cancel()
		res, err := core.ResynthesizeIterate(cctx, src, core.Options{Tracer: cfg.Tracer})
		if err != nil {
			return nil, err
		}
		p, _ := timing.Period(res.Network)
		r := &Result{
			Net:     res.Network,
			PrefixK: res.PrefixK,
			Metrics: Metrics{Regs: len(res.Network.Latches), Clk: p, Area: float64(res.Network.NumLits())},
		}
		if !res.Applied {
			r.Note = "not applied: " + res.Reason
		}
		return r, nil
	}
	// Input-determined, so retrying can never fix it: classify permanent.
	return nil, guard.WithClass(fmt.Errorf("flows: unknown flow %q (have %v)", name, flowOrder), guard.ErrClassPermanent)
}
